"""The benchmark's tracer binds functions by module and name; entering it
fails if one of those names is renamed or deleted."""

import json
import os

import reflexive_lab.cli

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)

# The imports of perfbench/run.py's Lib, in a fresh interpreter: the tracer
# finds each traced layer in sys.modules, so these must load all of them.
LIB_IMPORTS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import spans
import reflexive_lab
import reflexive_lab.cli
import reflexive_lab.core
import reflexive_lab.freesum
import reflexive_lab.search
import reflexive_lab.support

print(json.dumps({
    "missing": [layer for layer in spans.TRACED if "reflexive_lab." + layer not in sys.modules],
    "search_json": hasattr(sys.modules["reflexive_lab.search"], "json"),
}))
"""


def test_every_traced_name_exists(monkeypatch, capsys):
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans

    main = reflexive_lab.cli.main
    with spans.instrument(spans.Tracer()) as tracer:
        assert reflexive_lab.cli.main(["check", "--q", "2,3", "--oracle"]) == 0
        traced_decompose = reflexive_lab.decompose
    capsys.readouterr()
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["linalg.integer_adjugate"] >= 1
    # the per-layer metrics of the brute-force dilate oracles
    assert tracer.calls["lattice.count_dilate_points"] >= 1
    assert tracer.calls["lattice.enumerate_dilate_points"] >= 1
    assert tracer.calls["idp.idp_oracle_bruteforce"] >= 1
    assert reflexive_lab.cli.main is main
    # a package name looked up while tracing is not left traced afterwards
    assert traced_decompose is not reflexive_lab.decompose
    assert reflexive_lab.decompose is reflexive_lab.freesum.decompose


def test_benchmark_imports_load_every_traced_layer(python):
    proc = python("-c", LIB_IMPORTS, PERFBENCH)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"missing": [], "search_json": True}
