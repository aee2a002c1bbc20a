"""The benchmark's tracer binds functions by module and name; entering it
fails if one of those names is renamed or deleted."""

import os

import reflexive_lab.cli

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)


def test_every_traced_name_exists(monkeypatch, capsys):
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans

    main = reflexive_lab.cli.main
    with spans.instrument(spans.Tracer()) as tracer:
        assert reflexive_lab.cli.main(["check", "--q", "2,3", "--oracle"]) == 0
    capsys.readouterr()
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["linalg.integer_adjugate"] >= 1
    # the per-layer metrics of the brute-force dilate oracles
    assert tracer.calls["lattice.count_dilate_points"] >= 1
    assert tracer.calls["lattice.enumerate_dilate_points"] >= 1
    assert tracer.calls["idp.idp_oracle_bruteforce"] >= 1
    assert reflexive_lab.cli.main is main
