import json

import pytest

from reflexive_lab import (
    HStarPolynomial,
    SearchSummary,
    VerificationReport,
    evaluate_candidate,
    hstar_closed_form,
    make_qvector,
    reflexive_family,
)
from reflexive_lab.cli import build_parser, main
from reflexive_lab.idp import IdpOracleResult

FLAGSHIP = "3,20,24,24,24,24"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHstar:
    def test_flagship_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "hstar", "--q", FLAGSHIP)
        assert code == 0
        assert out.splitlines() == [
            "[1,16,29,28,29,16,1]",
            "symmetric=true",
            "unimodal=false",
            "volume=120",
        ]

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "hstar", "--q", "2,3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "q": [2, 3],
            "oracle": "closed",
            "hstar": [1, 4, 1],
            "symmetric": True,
            "unimodal": True,
            "volume": 6,
        }

    def test_oracle_routes_agree_with_library(self, capsys):
        expected = list(hstar_closed_form(make_qvector([2, 3, 6])).coefficients)
        for oracle in ("closed", "interpolation", "parallelepiped"):
            code, out, _ = run_cli(
                capsys, "hstar", "--q", "2,3,6", "--oracle", oracle, "--json"
            )
            assert code == 0
            assert json.loads(out)["hstar"] == expected

    def test_oracle_handles_non_reflexive(self, capsys):
        code, out, _ = run_cli(
            capsys, "hstar", "--q", "2,2", "--oracle", "parallelepiped", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["hstar"] == [1, 2, 2]
        assert payload["symmetric"] is False

    def test_closed_form_rejects_non_reflexive(self, capsys):
        code, _, err = run_cli(capsys, "hstar", "--q", "2,2")
        assert code == 1
        assert "error:" in err

    def test_error_is_json_under_json_flag(self, capsys):
        code, out, _ = run_cli(capsys, "hstar", "--q", "2,2", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["code"] == "not_reflexive"
        assert "message" in payload

    def test_invalid_entries_rejected(self, capsys):
        for bad in ("a,b", "0,2", "", "1,,2"):
            code, _, err = run_cli(capsys, "hstar", "--q", bad)
            assert code == 1
            assert "error:" in err

    def test_caps_override_unlocks_large_input(self, capsys):
        big = ",".join(["1"] * 8)
        code, _, _ = run_cli(capsys, "hstar", "--q", big, "--oracle", "interpolation")
        assert code == 1
        code, out, _ = run_cli(
            capsys,
            "hstar",
            "--q",
            big,
            "--oracle",
            "interpolation",
            "--oracle-caps",
            "8:300",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["hstar"] == [1] * 9


class TestCheck:
    def test_flagship_classification(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--q", FLAGSHIP)
        assert code == 0
        lines = out.splitlines()
        assert f"q={FLAGSHIP}" in lines
        assert "reflexive=true" in lines
        assert "necessary=true" in lines
        assert "idp=false" in lines
        assert "hstar=[1,16,29,28,29,16,1]" in lines
        assert "unimodal=false" in lines
        assert "counterexample=false" in lines
        assert "witness facet_j=2 b=7 height=2" in lines

    def test_oracle_confirmation_with_witness(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--q", "2,2,15,20,20", "--oracle")
        assert code == 0
        lines = out.splitlines()
        assert "witness facet_j=3 b=8 height=2" in lines
        assert "oracle_hstar=confirmed" in lines
        assert "oracle_idp=confirmed" in lines
        assert "oracle_witness dilate=2 point=-1,-1,-8,-10,-10" in lines

    def test_json_matches_library_record(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--q", FLAGSHIP, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == evaluate_candidate(make_qvector([3, 20, 24, 24, 24, 24])).to_json_dict()

    def test_caps_reach_idp_oracle(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--q", "1,3,6,22,33", "--oracle", "--oracle-caps", "7:200"
        )
        assert code == 0
        lines = out.splitlines()
        assert "idp=false" in lines
        assert "oracle_idp=confirmed" in lines
        assert "oracle_witness dilate=2 point=0,-2,-4,-15,-22" in lines

    def test_oracle_skipped_beyond_caps(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--q", "30,31", "--oracle", "--json")
        assert code == 0
        oracle = json.loads(out)["oracle"]
        assert oracle["idp"] == "skipped"

    def test_counterexample_exit_code(self, capsys, monkeypatch):
        real = evaluate_candidate(make_qvector([2, 3]))
        import dataclasses

        fake = dataclasses.replace(real, counterexample=True)
        monkeypatch.setattr("reflexive_lab.cli.evaluate_candidate", lambda q, caps: fake)
        code, out, _ = run_cli(capsys, "check", "--q", "2,3")
        assert code == 2
        assert "counterexample=true" in out.splitlines()


class TestOracleDisagreement:
    """Both confirmation paths exit 3 when a brute-force oracle disagrees."""

    CHECK = ("check", "--q", "1,2,2,2,2", "--oracle")
    # (1,2,2,2,2) is the one candidate of this box the cross-check samples.
    SEARCH = (
        "search", "--n-min", "5", "--n-max", "5", "--max-entry", "2",
        "--threads", "1", "--cross-check",
    )
    # h* oracle caps too small to run; the IDP oracle (faked below, so it
    # ignores the caps) must still be consulted.
    NO_HSTAR = ("--oracle-caps", "1:1")

    @pytest.mark.parametrize("argv", [CHECK, SEARCH])
    def test_hstar_oracle(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(
            "reflexive_lab.search.hstar_oracle_interpolation",
            lambda q, caps=None: HStarPolynomial((1,) + (0,) * q.n),
        )
        code, _, err = run_cli(capsys, *argv)
        assert code == 3
        assert "h* routes disagree" in err

    @pytest.mark.parametrize("argv", [CHECK, SEARCH, CHECK + NO_HSTAR, SEARCH + NO_HSTAR])
    def test_idp_oracle(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(
            "reflexive_lab.search.idp_oracle_bruteforce",
            lambda q, caps=None: IdpOracleResult(False, 2, (0,) * q.n),
        )
        code, _, err = run_cli(capsys, *argv)
        assert code == 3
        assert "IDP routes disagree" in err


class TestEnumerate:
    def test_finite_support(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--r", "2,5")
        assert code == 0
        assert out.splitlines() == ["2,2,5"]

    def test_finite_support_json(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--r", "2,5", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "finite"
        assert payload["solutions"] == [{"x": [2, 1], "q": [2, 2, 5]}]

    def test_unbounded_support_notes_cut(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--r", "1,3", "--bound", "4")
        assert code == 0
        assert "unbounded" in err
        assert "1,1,3" in out.splitlines()

    def test_count_mode_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--r", "1,3", "--count", "4")
        assert code == 0
        expected = [",".join(map(str, q.entries)) for q in reflexive_family((1, 3), 4)]
        assert out.splitlines() == expected
        assert out.splitlines()[0] == "1,1,3"

    def test_gcd_violation_rejected(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--r", "2,4", "--count", "3")
        assert code == 1
        assert "error:" in err


class TestFreesum:
    def test_compose(self, capsys):
        code, out, _ = run_cli(capsys, "freesum", "compose", "--p", "1,1", "--q", "1,1,1")
        assert code == 0
        assert out.splitlines() == ["y=1,1,3,3,3", "s=3"]

    def test_compose_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "freesum", "compose", "--p", "1,1", "--q", "1,1,1", "--json"
        )
        assert code == 0
        assert json.loads(out) == {
            "p": [1, 1],
            "q": [1, 1, 1],
            "s": 3,
            "y": [1, 1, 3, 3, 3],
        }

    def test_decompose(self, capsys):
        code, out, _ = run_cli(capsys, "freesum", "decompose", "--q", "1,1,3")
        assert code == 0
        assert out.splitlines() == ["p=1,1 q=1 s=3", "splits=1"]

    def test_decompose_none(self, capsys):
        code, out, _ = run_cli(capsys, "freesum", "decompose", "--q", "2,2,5", "--json")
        assert code == 0
        assert json.loads(out)["splits"] == []

    def test_compose_rejects_non_reflexive(self, capsys):
        code, _, err = run_cli(capsys, "freesum", "compose", "--p", "2,2", "--q", "1")
        assert code == 1
        assert "error:" in err


class TestPayne:
    def test_smallest_member(self, capsys):
        code, out, _ = run_cli(capsys, "payne", "--s", "3", "--k", "2", "--r", "0")
        assert code == 0
        assert out.splitlines() == [
            "q=1,1,1,1,1,3",
            "hstar=[1,1,2,1,2,1,1]",
            "symmetric=true",
            "unimodal=false",
            "idp=false",
        ]

    def test_json_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "payne", "--s", "4", "--k", "3", "--r", "1", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["q"] == [1] * 11 + [4, 4]
        assert payload["symmetric"] is True
        assert payload["idp"] is False
        assert sum(payload["hstar"]) == 1 + 11 + 8

    def test_constraint_violations_rejected(self, capsys):
        for s, k, r in ((3, 1, 0), (2, 4, 0), (3, 2, 1), (4, 3, -1)):
            code, _, err = run_cli(
                capsys, "payne", "--s", str(s), "--k", str(k), "--r", str(r)
            )
            assert code == 1
            assert "error:" in err


class TestSearch:
    def test_stdout_stream(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n-min", "2", "--n-max", "2", "--max-entry", "3")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 7
        assert "summary" in lines[-1]
        assert [tuple(r["q"]) for r in lines[:-1]] == [
            (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3),
        ]

    def test_output_file_and_summary_line(self, capsys, tmp_path):
        out_path = tmp_path / "run.jsonl"
        code, out, _ = run_cli(
            capsys, "search", "--n-max", "2", "--max-entry", "3",
            "--output", str(out_path),
        )
        assert code == 0
        stdout_summary = json.loads(out)
        assert "summary" in stdout_summary
        file_lines = out_path.read_text().splitlines()
        assert json.loads(file_lines[-1]) == stdout_summary

    def test_filter_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--n-min", "2", "--n-max", "2", "--max-entry", "3",
            "--filter", "reflexive",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        qs = {tuple(r["q"]) for r in records if "summary" not in r}
        assert qs == {(1, 1), (1, 2), (2, 3)}

    def test_fixed_support_flag(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--r", "2,5")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [2, 2, 5] in [r.get("q") for r in records]

    def test_threads_flag(self, capsys, monkeypatch):
        seen = []

        def fake_run(spec):
            seen.append(spec.threads)
            return SearchSummary(counts={}, counterexamples=())

        monkeypatch.setattr("reflexive_lab.cli.run_search", fake_run)
        argv = ("search", "--n-max", "1", "--max-entry", "1")
        assert run_cli(capsys, *argv)[0] == 0
        assert run_cli(capsys, *argv, "--threads", "3")[0] == 0
        assert seen == [1, 3]

    def test_counterexample_exit_code(self, capsys, monkeypatch):
        fake = SearchSummary(counts={}, counterexamples=((2, 3),))
        monkeypatch.setattr("reflexive_lab.cli.run_search", lambda spec: fake)
        code, _, _ = run_cli(capsys, "search", "--n-max", "1", "--max-entry", "1")
        assert code == 2


class TestVerify:
    def test_two_support_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "two-support",
            "--max-part", "6", "--m-max", "3", "--x-max", "3",
        )
        assert code == 0
        lines = out.splitlines()
        assert "discrepancies=0" in lines
        assert "ok=true" in lines

    def test_family_unimodality_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "theorem12", "--r-max", "3", "--m-max", "3", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["checked"] == 6

    def test_discrepancy_exit_code(self, capsys, monkeypatch):
        fake = VerificationReport("fake", 1, ((1, 2, 1, 1, True, False),))
        monkeypatch.setattr(
            "reflexive_lab.cli.verify_two_support_classification",
            lambda *a: fake,
        )
        code, out, _ = run_cli(capsys, "verify", "two-support")
        assert code == 3
        assert "ok=false" in out.splitlines()


class TestErrorHandling:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert "error:" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "hstar")
        assert code == 1
        assert "error:" in err

    def test_bad_caps_syntax(self, capsys):
        for bad in ("abc", "7", "7:x", ":", "0:200", "7:0"):
            code, _, err = run_cli(
                capsys, "hstar", "--q", "2,3", "--oracle-caps", bad
            )
            assert code == 1
            assert "error:" in err
        code, _, err = run_cli(
            capsys, "check", "--q", "2,3,6", "--oracle", "--oracle-caps=-1:5"
        )
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--q", "2,3", "--threads", "2"),
            ("payne", "--s", "3", "--k", "2", "--r", "0", "--oracle-caps", "7:200"),
            ("verify", "theorem12", "--max-part", "5"),
            ("enumerate", "--r", "1,3", "--count", "2", "--bound", "5"),
        ],
    )
    def test_flag_the_command_does_not_read(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("enumerate", "--r", "1,3", "--bound", "-2"),
            ("enumerate", "--r", "2,5", "--bound", "0"),
            ("search", "--r", "1,3", "--bound", "0"),
            ("search", "--n-max", "1", "--max-entry", "2", "--bound", "5"),
            ("verify", "theorem12", "--r-max", "1"),
            ("verify", "two-support", "--max-part", "1"),
            ("search", "--r", "2,5", "--n-max", "1", "--max-entry", "1"),
            ("search", "--r", "2,5", "--n-min", "9", "--n-max", "3"),
            ("search", "--r", "2,5", "--max-entry", "12"),
        ],
    )
    def test_argument_that_selects_nothing(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 1
        assert [json.loads(line)["code"] for line in out.splitlines()] == [
            "invalid_argument"
        ]

    def test_resume_without_output(self, capsys):
        code, _, err = run_cli(capsys, "search", "--n-max", "1", "--resume")
        assert code == 1
        assert "resume needs an output file" in err

    def test_resume_of_another_search(self, capsys, tmp_path):
        out = str(tmp_path / "sweep.jsonl")
        assert run_cli(capsys, "search", "--n-max", "2", "--max-entry", "5", "--output", out)[0] == 0
        with open(out, "rb") as fh:
            before = fh.read()
        code, _, err = run_cli(
            capsys, "search", "--n-max", "2", "--max-entry", "6", "--output", out, "--resume"
        )
        assert code == 1
        assert "q = 1,1 is not the next candidate" in err
        with open(out, "rb") as fh:
            assert fh.read() == before

    def test_resume_keeps_no_record_the_filters_drop(self, capsys, tmp_path):
        out = str(tmp_path / "sweep.jsonl")
        argv = ("search", "--n-max", "3", "--max-entry", "4", "--output", out)
        assert run_cli(capsys, *argv)[0] == 0
        with open(out, "rb") as fh:
            head = b"".join(fh.read().splitlines(keepends=True)[:10])
        with open(out, "wb") as fh:
            fh.write(head)
        code, _, err = run_cli(capsys, *argv, "--filter", "reflexive", "--resume")
        assert code == 1
        assert "q = 2 fails the reflexive filter" in err
        with open(out, "rb") as fh:
            assert fh.read() == head

    @pytest.mark.parametrize("filters", [(), ("--filter", "idp")])
    @pytest.mark.parametrize("line", ['{"foo":1}', "[1,2]", '{"q":[1]}'])
    def test_resume_refuses_a_line_that_is_no_record(self, capsys, tmp_path, line, filters):
        out = tmp_path / "sweep.jsonl"
        out.write_text(line + "\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "search", "--n-max", "2", "--max-entry", "2", *filters,
            "--resume", "--output", str(out),
        )
        assert code == 1
        assert "line 1 is not a search record" in err
        assert out.read_text(encoding="utf-8") == line + "\n"

    def test_decompose_cap_names_the_q(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--r", "1,3", "--json")
        payload = json.loads(out.splitlines()[-1])
        assert code == 1
        assert payload["code"] == "oracle_too_large"
        assert "decompose of q = " + ",".join(["1", "1"] + ["3"] * 19) in payload["message"]

    def test_bad_filter_name(self, capsys):
        code, _, err = run_cli(capsys, "search", "--filter", "bogus")
        assert code == 1
        assert "error:" in err

    def test_usage_error_is_json_under_json_flag(self, capsys):
        code, out, _ = run_cli(capsys, "hstar", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["code"] == "usage_error"

    def test_oracle_too_large_is_domain_error(self, capsys):
        code, out, _ = run_cli(
            capsys, "hstar", "--q", ",".join(["2"] * 9), "--oracle", "parallelepiped",
            "--json",
        )
        assert code == 1
        assert json.loads(out)["code"] == "oracle_too_large"

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("hstar", "--q", "2,2"), "not_reflexive"),
            (("freesum", "decompose", "--q", "2,2"), "not_reflexive"),
            (("enumerate", "--r", "2,4"), "no_solution"),
        ],
    )
    def test_abbreviated_json_flag_gives_json_errors(self, capsys, argv, code):
        rc, out, err = run_cli(capsys, *argv, "--js")
        assert rc == 1
        assert json.loads(out)["code"] == code
        assert err == ""

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    @pytest.mark.parametrize("target", ["", "missing/sweep.jsonl"])
    def test_unwritable_output_is_refused_before_the_sweep(
        self, capsys, monkeypatch, tmp_path, json_flag, target
    ):
        def never(*args):
            raise AssertionError("a candidate was evaluated")

        monkeypatch.setattr("reflexive_lab.search._search_worker", never)
        path = str(tmp_path / target)
        rc, out, err = run_cli(capsys, "search", "--n-max", "2", "--output", path, *json_flag)
        assert rc == 1
        message = json.loads(out)["message"] if json_flag else err
        assert f"cannot write {path}" in message
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_failed_final_write_names_the_path(self, capsys, monkeypatch, tmp_path, json_flag):
        import reflexive_lab.search as search

        outdir = tmp_path / "out"
        outdir.mkdir()
        path = str(outdir / "sweep.jsonl")
        candidates_for = search._candidates_for

        def then_remove_the_directory(spec):
            outdir.rmdir()
            return candidates_for(spec)

        monkeypatch.setattr(search, "_candidates_for", then_remove_the_directory)
        rc, out, err = run_cli(capsys, "search", "--n-max", "2", "--output", path, *json_flag)
        assert rc == 1
        if json_flag:
            assert json.loads(out)["code"] == "output_not_writable"
        else:
            assert err.startswith(f"error: cannot write {path}: ")


def emitted_every_candidate(out):
    *records, summary = [json.loads(line) for line in out.splitlines()]
    return len(records) == summary["summary"]["candidates"]


class TestParserReuse:
    """`main` reuses one parser; no call may see state from an earlier one."""

    @pytest.mark.parametrize(
        "first, second, expect",
        [
            (
                ("check", "--q", "2,3,6", "--oracle", "--json"),
                ("check", "--q", "2,3,6", "--json"),
                lambda out: "oracle" not in json.loads(out),
            ),
            (
                ("search", "--n-max", "2", "--max-entry", "3", "--filter", "idp"),
                ("search", "--n-max", "2", "--max-entry", "3"),
                emitted_every_candidate,
            ),
            (("hstar", "--q", "2,3", "--oracle-caps", "7"), ("hstar", "--q", "2,3"), bool),
            (("check",), ("check", "--q", "2,3"), bool),
        ],
        ids=["oracle_then_plain", "filter_then_unfiltered", "bad_caps_then_valid", "usage_then_valid"],
    )
    def test_second_call_matches_a_fresh_parser(self, capsys, first, second, expect):
        build_parser.cache_clear()
        reference = run_cli(capsys, *second)
        assert reference[0] == 0 and expect(reference[1])
        run_cli(capsys, *first)
        assert run_cli(capsys, *second) == reference


COLD_START = """
import contextlib, io, json, sys
import reflexive_lab
import reflexive_lab.cli as cli

built = 0
init = cli._Parser.__init__

def counting_init(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)

cli._Parser.__init__ = counting_init

def loaded():
    return [name for name in ("numpy", "multiprocessing") if name in sys.modules]

out = {"import": loaded()}
with contextlib.redirect_stdout(io.StringIO()):
    rc = [cli.main(["check", "--q", "2,3,6"])]
    out["check"] = loaded()
    first = built
    rc += [cli.main(["check", "--q", "2,3,6"]) for _ in range(3)]
    rc.append(cli.main(["check", "--q", "2,3,6", "--oracle"]))
out.update(oracle=loaded(), rc=rc, first=first, built=built)
print(json.dumps(out))
"""


class TestColdStart:
    def test_only_a_lattice_scan_loads_numpy(self, python):
        proc = python("-c", COLD_START)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["import"] == out["check"] == []
        assert out["oracle"] == ["numpy"]
        assert out["rc"] == [0] * 5
        # The parser tree is built by the first call and reused after it.
        assert out["first"] > 0
        assert out["built"] == out["first"]


class TestModuleEntryPoint:
    def test_python_dash_m(self, python):
        proc = python("-m", "reflexive_lab", "hstar", "--q", "2,3")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "[1,4,1]"

    def test_console_script_exit_code(self, python):
        proc = python("-m", "reflexive_lab", "hstar", "--q", "2,2")
        assert proc.returncode == 1
        assert "not reflexive" in proc.stderr
