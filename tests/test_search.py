import json
import multiprocessing
import os

import pytest

from reflexive_lab import (
    InternalInconsistency,
    OracleCaps,
    SearchSpec,
    evaluate_candidate,
    is_reflexive,
    iter_qvectors,
    iter_reflexive_qvectors,
    make_qvector,
    normalized_volume,
    run_search,
    two_support_rule,
    verify_two_support_classification,
    verify_two_support_unimodality,
)

RECORD_KEYS = [
    "q",
    "support_parts",
    "support_mults",
    "reflexive",
    "necessary",
    "idp",
    "hstar",
    "symmetric",
    "unimodal",
    "free_sum_splits",
    "witness",
    "counterexample",
]


def read_jsonl(path):
    records, summary = [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            if "summary" in obj:
                summary = obj["summary"]
            else:
                records.append(obj)
    return records, summary


class TestCandidateIteration:
    def test_dimension_two_max_three(self):
        qs = [q.entries for q in iter_qvectors(2, 2, 3)]
        assert qs == [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]

    def test_canonical_order(self):
        qs = [q.entries for q in iter_qvectors(1, 3, 4)]
        assert qs == sorted(qs, key=lambda e: (len(e), e))
        assert len(qs) == len(set(qs))

    def test_count_formula(self):
        # Weakly increasing length-n sequences over 1..M: C(n + M - 1, n).
        qs = list(iter_qvectors(1, 5, 12))
        assert len(qs) == 12 + 78 + 364 + 1365 + 4368

    def test_reflexive_iterator_is_complete_and_sound(self):
        via_divisors = {q.entries for q in iter_reflexive_qvectors(3, 15)}
        via_filter = {
            q.entries
            for q in iter_qvectors(1, 3, 15)
            if is_reflexive(q) and normalized_volume(q) <= 16
        }
        assert via_divisors == via_filter

    def test_reflexive_iterator_respects_bounds(self):
        for q in iter_reflexive_qvectors(4, 30):
            assert q.n <= 4
            assert sum(q.entries) <= 30
            assert is_reflexive(q)


class TestEvaluateCandidate:
    def test_reflexive_record(self):
        report = evaluate_candidate(make_qvector([2, 3]))
        assert report.reflexive and report.necessary and report.idp
        assert report.hstar.coefficients == (1, 4, 1)
        assert report.symmetric and report.unimodal
        assert not report.counterexample

    def test_non_reflexive_record_has_null_idp(self):
        report = evaluate_candidate(make_qvector([2, 2]))
        assert not report.reflexive
        assert report.idp is None
        assert report.hstar.coefficients == (1, 2, 2)
        assert report.symmetric is False

    def test_oracle_caps_respected(self):
        report = evaluate_candidate(
            make_qvector([2, 2]), oracle_caps=OracleCaps(1, 1)
        )
        assert report.hstar is None
        assert report.unimodal is None

    def test_filters_short_circuit(self):
        assert evaluate_candidate(make_qvector([2, 2]), filters=("reflexive",)) is None
        assert evaluate_candidate(make_qvector([2, 3]), filters=("reflexive",)) is not None
        assert (
            evaluate_candidate(make_qvector([1, 1, 1, 1, 1, 3]), filters=("idp",))
            is None
        )
        assert (
            evaluate_candidate(make_qvector([2, 2]), filters=("idp",)) is None
        )
        assert (
            evaluate_candidate(make_qvector([1, 2]), filters=("indecomposable",))
            is None
        )

    def test_json_dict_key_order(self):
        payload = evaluate_candidate(make_qvector([2, 3])).to_json_dict()
        assert list(payload.keys()) == RECORD_KEYS

    def test_witness_serialization(self):
        payload = evaluate_candidate(make_qvector([2, 2, 15, 20, 20])).to_json_dict()
        assert payload["witness"] == {"facet_j": 3, "b": 8, "height": 2}
        assert payload["idp"] is False

    def test_invalid_filter_rejected(self):
        with pytest.raises(ValueError):
            SearchSpec(filters=("bogus",))


class TestRunSearch:
    def test_small_sweep_counts(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        spec = SearchSpec(n_min=2, n_max=2, max_entry=3, output=str(out))
        summary = run_search(spec)
        records, file_summary = read_jsonl(out)
        assert len(records) == 6
        assert summary.counts["reflexive"] == 3
        assert summary.counts["counterexamples"] == 0
        assert file_summary == summary.counts
        reflexive = {tuple(r["q"]) for r in records if r["reflexive"]}
        assert reflexive == {(1, 1), (1, 2), (2, 3)}

    def test_records_in_canonical_order_and_schema(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        run_search(SearchSpec(n_min=1, n_max=3, max_entry=4, output=str(out)))
        records, _ = read_jsonl(out)
        qs = [tuple(r["q"]) for r in records]
        assert qs == sorted(qs, key=lambda e: (len(e), e))
        for r in records:
            assert list(r.keys()) == RECORD_KEYS

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_search(SearchSpec(n_max=3, max_entry=5, output=str(a), threads=1))
        run_search(SearchSpec(n_max=3, max_entry=5, output=str(b), threads=3))
        assert a.read_bytes() == b.read_bytes()

    def test_filters_reduce_emission(self, tmp_path):
        out = tmp_path / "filtered.jsonl"
        summary = run_search(
            SearchSpec(
                n_max=3, max_entry=5, filters=("reflexive", "idp"), output=str(out)
            )
        )
        records, _ = read_jsonl(out)
        assert records
        assert all(r["reflexive"] and r["idp"] for r in records)
        assert summary.counts["emitted"] == len(records)
        assert summary.counts["candidates"] > len(records)

    def test_fixed_support_search(self, tmp_path):
        out = tmp_path / "support.jsonl"
        summary = run_search(
            SearchSpec(
                support_r=(1, 3),
                multiplicity_bound=6,
                filters=("reflexive", "idp"),
                output=str(out),
            )
        )
        records, _ = read_jsonl(out)
        assert summary.metadata["support_enumeration"]["kind"] == "unbounded_family"
        assert (1, 1, 3) in {tuple(r["q"]) for r in records}

    def test_resume_reproduces_full_run(self, tmp_path):
        full = tmp_path / "full.jsonl"
        run_search(SearchSpec(n_max=3, max_entry=4, output=str(full)))
        torn = tmp_path / "torn.jsonl"
        lines = full.read_bytes().splitlines(keepends=True)
        torn.write_bytes(b"".join(lines[:5]) + lines[5][:20])
        run_search(SearchSpec(n_max=3, max_entry=4, output=str(torn), resume=True))
        assert torn.read_bytes() == full.read_bytes()

    def test_resume_drops_stale_summary(self, tmp_path):
        full = tmp_path / "full.jsonl"
        run_search(SearchSpec(n_max=2, max_entry=4, output=str(full)))
        # Resume over a finished file with a wider search range: the stale
        # summary line must be dropped, not duplicated.
        partial = tmp_path / "partial.jsonl"
        partial.write_bytes(full.read_bytes())
        run_search(SearchSpec(n_max=3, max_entry=4, output=str(partial), resume=True))
        records, summary = read_jsonl(partial)
        assert summary["candidates"] == len(records)
        lines = [json.loads(line) for line in partial.read_text().splitlines()]
        assert sum(1 for obj in lines if "summary" in obj) == 1

    @pytest.mark.parametrize(
        "written, resumed, misplaced",
        [(5, 6, "1,1"), (6, 5, "6")],  # widening, narrowing max-entry
    )
    def test_resume_refuses_another_box(self, tmp_path, written, resumed, misplaced):
        out = tmp_path / "sweep.jsonl"
        run_search(SearchSpec(n_max=3, max_entry=written, output=str(out)))
        before = out.read_bytes()
        with pytest.raises(ValueError, match=f"q = {misplaced} is not the next candidate"):
            run_search(SearchSpec(n_max=3, max_entry=resumed, output=str(out), resume=True))
        assert out.read_bytes() == before

    def test_filtered_resume(self, tmp_path):
        spec = dict(n_max=3, max_entry=6, filters=("reflexive",))
        full = tmp_path / "full.jsonl"
        run_search(SearchSpec(output=str(full), **spec))
        torn = tmp_path / "torn.jsonl"
        lines = full.read_bytes().splitlines(keepends=True)
        torn.write_bytes(b"".join(lines[:4]) + lines[4][:20])
        run_search(SearchSpec(output=str(torn), resume=True, **spec))
        assert torn.read_bytes() == full.read_bytes()
        # (1,4,6) is reflexive but not a candidate once entries stop at 5.
        with pytest.raises(ValueError, match="q = 1,4,6 is"):
            run_search(SearchSpec(**dict(spec, max_entry=5), output=str(full), resume=True))

    @pytest.mark.parametrize("name", ["reflexive", "idp"])
    def test_resume_refuses_records_the_filters_drop(self, tmp_path, name):
        # The first 10 unfiltered records sit at increasing canonical
        # positions, so only the filters themselves can tell them apart.
        out = tmp_path / "sweep.jsonl"
        run_search(SearchSpec(n_max=3, max_entry=4, output=str(out)))
        out.write_bytes(b"".join(out.read_bytes().splitlines(keepends=True)[:10]))
        before = out.read_bytes()
        with pytest.raises(ValueError, match=f"q = 2 fails the {name} filter"):
            run_search(
                SearchSpec(n_max=3, max_entry=4, filters=(name,), output=str(out), resume=True)
            )
        assert out.read_bytes() == before

    def test_resume_needs_output(self):
        with pytest.raises(ValueError, match="resume needs an output file"):
            SearchSpec(resume=True)

    def test_unfiltered_search_must_emit_every_candidate(self, tmp_path, monkeypatch):
        import reflexive_lab.search as search

        real = search._search_worker

        def lossy(entries, *args, **kwargs):
            return None if entries == (2,) else real(entries, *args, **kwargs)

        monkeypatch.setattr(search, "_search_worker", lossy)
        out = tmp_path / "sweep.jsonl"
        with pytest.raises(InternalInconsistency, match="emitted 8 records for 9"):
            run_search(SearchSpec(n_max=2, max_entry=3, output=str(out)))
        assert not out.exists()

    def test_cross_check_runs_clean(self, tmp_path):
        out = tmp_path / "checked.jsonl"
        run_search(SearchSpec(n_max=3, max_entry=6, cross_check=True, output=str(out)))

    def test_counterexample_requires_all_three_flags(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        run_search(SearchSpec(n_max=4, max_entry=6, output=str(out)))
        records, _ = read_jsonl(out)
        for r in records:
            expected = bool(r["reflexive"] and r["idp"] and r["unimodal"] is False)
            assert r["counterexample"] == expected

    def test_record_invariants_hold(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        run_search(SearchSpec(n_max=4, max_entry=6, output=str(out)))
        records, _ = read_jsonl(out)
        for r in records:
            if r["idp"]:
                assert r["reflexive"] and r["necessary"]
            if r["reflexive"]:
                assert r["symmetric"] is True
                assert r["hstar"][0] == 1
            if r["witness"] is not None:
                assert r["idp"] is False


class TestWorkerCount:
    """run_search starts min(threads, candidates, usable CPUs) workers.  The
    pool is a fake that records its size and maps in this process, so no
    test here starts a worker."""

    @pytest.fixture
    def pools(self, monkeypatch):
        made = []

        class FakePool:
            def __init__(self, size):
                self.size = size
                made.append(self)

            def imap(self, fn, items, chunksize):
                self.chunksize = chunksize
                return map(fn, items)

            def close(self):
                pass

            def join(self):
                pass

        class FakeContext:
            Pool = FakePool

        monkeypatch.setattr(multiprocessing, "get_context", lambda method: FakeContext)
        return made

    @staticmethod
    def cpus(monkeypatch, count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    @pytest.mark.parametrize(
        "threads, cpus, box, size, chunksize",
        [
            (100000, 4, (2, 3), 4, 1),  # 9 candidates, capped by the CPUs
            (100000, 64, (1, 3), 3, 1),  # capped by the 3 candidates
            (2, 2, (3, 12), 2, 454 // 128),  # 454 candidates, as the 2-worker sweep
        ],
    )
    def test_pool_size(self, pools, monkeypatch, tmp_path, threads, cpus, box, size, chunksize):
        self.cpus(monkeypatch, cpus)
        n_max, max_entry = box
        one, many = tmp_path / "one.jsonl", tmp_path / "many.jsonl"
        run_search(SearchSpec(n_max=n_max, max_entry=max_entry, output=str(one)))
        assert pools == []
        run_search(SearchSpec(n_max=n_max, max_entry=max_entry, output=str(many), threads=threads))
        assert [(p.size, p.chunksize) for p in pools] == [(size, chunksize)]
        assert many.read_bytes() == one.read_bytes()

    def test_one_cpu_starts_no_pool(self, pools, monkeypatch, tmp_path):
        self.cpus(monkeypatch, 1)
        run_search(SearchSpec(n_max=2, max_entry=3, output=str(tmp_path / "out.jsonl"), threads=8))
        assert pools == []


class TestTwoSupportRule:
    def test_examples(self):
        assert two_support_rule(2, 3, 1, 1)  # q=(2,3)
        assert two_support_rule(1, 3, 2, 5)  # q=(1,1,3,3,3,3,3)
        assert not two_support_rule(2, 3, 1, 2)  # q=(2,3,3)

    def test_classification_sweep_small(self):
        report = verify_two_support_classification(8, 5, 5)
        assert report.ok
        assert report.checked == 700

    def test_family_unimodality_small(self):
        report = verify_two_support_unimodality(5, 5)
        assert report.ok
        assert report.checked == 20
