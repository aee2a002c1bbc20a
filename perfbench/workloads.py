"""The four workloads.  Each pass runs one fixed set of operations through
reflexive_lab's public API or CLI; `check` then verifies the outputs outside
the timed region.

Inputs are exhaustive enumerations made here, so they are deterministic.  The
seed only permutes the order of operations in oracle_check and
support_families; the two sweeps keep canonical order.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
from collections import Counter
from time import perf_counter

RECORD_SEPARATORS = (",", ":")  # the sweep's JSONL encoding
CLI_FAILURE_CODES = (1, 3)  # exit 2 (counterexample found) is a success


class PassResult:
    """What one pass did; `run_pass` fills the raw outputs, `check` the rest."""

    def __init__(self, attempted):
        self.attempted = attempted  # operations started
        self.failures = []  # (op, failed operations, exit code or exception, error code)
        self.latencies = {}  # op -> seconds
        self.raw = {}  # op -> raw output, read by check
        self.outputs = {}  # op -> sha256 of its output bytes
        self.records = []  # decoded records, for counts and ratios
        self.evaluated = []  # q vectors handed to evaluate_candidate
        self.output_bytes = 0
        self.mismatches = []
        self.wall = self.cpu = self.child_cpu = 0.0

    @property
    def failed(self):
        return sum(count for _, count, _, _ in self.failures)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def op_text(values):
    return ",".join(str(v) for v in values)


def run_cli(cli, argv):
    """cli.main with stdout captured; returns (exit code or exception, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an op boundary: count it, keep running
            rc = exc
    return rc, buf.getvalue()


def failed_rc(rc):
    return isinstance(rc, Exception) or rc in CLI_FAILURE_CODES


def rc_text(rc):
    return type(rc).__name__ if isinstance(rc, Exception) else rc


def error_code(rc, stdout):
    """The CLI's machine-readable error code (`--json` mode), if any."""
    if isinstance(rc, Exception):
        return getattr(rc, "code", type(rc).__name__)
    try:
        return json.loads(stdout.strip().splitlines()[-1]).get("code", "unknown")
    except (ValueError, IndexError, AttributeError):
        return "unknown"


def read_jsonl(path):
    """(bytes, decoded lines) of a JSONL file; missing file reads empty."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return b"", []
    return data, [json.loads(line) for line in data.splitlines() if line]


def is_reflexive(q):
    s = 1 + sum(q)
    return all(s % v == 0 for v in set(q))


def reflexive_qvectors(n_max, sum_max):
    """Reflexive q with n <= n_max and sum(q) <= sum_max, canonical order."""
    out = []

    def rec(prefix, low, room):
        if prefix and is_reflexive(prefix):
            out.append(tuple(prefix))
        if len(prefix) < n_max:
            for v in range(low, room + 1):
                prefix.append(v)
                rec(prefix, v, room - v)
                prefix.pop()

    rec([], 1, sum_max)
    return sorted(out, key=lambda q: (len(q), q))


def gcd_one_supports(k_max, part_max):
    """Distinct-part supports with gcd 1 (acceptance criterion 9's list)."""
    out = []
    for k in range(1, k_max + 1):
        for r in itertools.combinations(range(1, part_max + 1), k):
            if math.gcd(*r) == 1:
                out.append(r)
    return out


def tally(records):
    c = Counter()
    for rec in records:
        c["records"] += 1
        c["idp_true"] += rec["idp"] is True
        c["idp_false"] += rec["idp"] is False
        c["non_unimodal"] += rec["unimodal"] is False
        c["counterexamples"] += bool(rec["counterexample"])
        c["splits"] += rec["free_sum_splits"]
    return c


def computed_counts(evaluated, parallelepiped, recorded, decompose_cap):
    """Work counts derived from the inputs alone (labelled "computed").

    evaluated: q handed to evaluate_candidate (closed form and free-sum scan
    run on the reflexive ones); parallelepiped: q given to the parallelepiped
    oracle; recorded: q whose records were emitted.
    """

    def subsets(q):
        # the sub-multiset scan of freesum.decompose, minus empty and full
        if decompose_cap is not None and len(q) > decompose_cap:
            return 0
        return math.prod(m + 1 for m in Counter(q).values()) - 2

    def cells(q):
        # scanned prefix box: heights 0..n times (q_j + 2) values for j < n
        return (len(q) + 1) * math.prod(v + 2 for v in q[:-1])

    reflexive = [q for q in evaluated if is_reflexive(q)]
    recorded_reflexive = [q for q in recorded if is_reflexive(q)]
    return {
        "reflexive_yield": len(reflexive) / len(evaluated) if evaluated else 0.0,
        "weight_terms": sum((1 + sum(q)) * len(q) for q in reflexive),
        "subsets_scanned": sum(subsets(q) for q in reflexive),
        "recorded_subsets": sum(subsets(q) for q in recorded_reflexive),
        "hit_points": sum(1 + sum(q) for q in parallelepiped),
        "hit_cells": sum(cells(q) for q in parallelepiped),
    }


class Workload:
    name = ""
    op_label = "q"  # what an op's key names in failure reports
    threads = 1  # workers in the measured runs
    trace_threads = 1  # workers in the traced run (spans in forked workers are lost)

    def __init__(self, lib, outdir, expected):
        self.lib = lib
        self.expected = expected[self.name]

    def parallelepiped_inputs(self, result):
        return [q for q in result.evaluated if not is_reflexive(q)]


class BoxSweep(Workload):
    """search --n-max 5 --max-entry 12 through cli.main (the acceptance sweep)."""

    name = "box_sweep"
    threads = 2

    def __init__(self, lib, outdir, expected):
        super().__init__(lib, outdir, expected)
        self.path = os.path.join(outdir, "box_sweep.jsonl")
        self.candidates = [
            q
            for n in range(1, 6)
            for q in itertools.combinations_with_replacement(range(1, 13), n)
        ]

    def argv(self, threads):
        return [
            "search", "--n-max", "5", "--max-entry", "12",
            "--threads", str(threads), "--output", self.path,
        ]

    def run_pass(self, rng, threads):
        result = PassResult(attempted=len(self.candidates))
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.path)
        t0 = perf_counter()
        rc, stdout = run_cli(self.lib.cli, self.argv(threads))
        result.latencies["sweep"] = perf_counter() - t0
        result.raw["sweep"] = (rc, stdout)
        return result

    def replay(self, op):
        run_cli(self.lib.cli, self.argv(1))

    def check(self, result):
        rc, stdout = result.raw.pop("sweep")
        data, lines = read_jsonl(self.path)
        records = [rec for rec in lines if "summary" not in rec]
        result.records = records
        result.evaluated = [tuple(rec["q"]) for rec in records]
        result.output_bytes = len(data)
        result.outputs["sweep"] = sha256(data)
        if failed_rc(rc):
            lost = len(self.candidates) - len(records)
            result.failures.append(("sweep", lost, rc_text(rc), error_code(rc, stdout)))
            return
        if rc != 0:
            result.mismatches.append(f"box_sweep exit {rc_text(rc)}, expected 0")
        if sha256(data) != self.expected["sha256"]:
            result.mismatches.append("box_sweep JSONL sha256 differs from the seed's")
        summary = lines[-1].get("summary") if lines else None
        if summary != self.expected["summary"]:
            result.mismatches.append(f"box_sweep summary {summary} != {self.expected['summary']}")
        if stdout.strip() != (data.splitlines()[-1].decode() if data else ""):
            result.mismatches.append("box_sweep printed summary differs from the file's")


class ReflexiveSweep(Workload):
    """Every q of iter_reflexive_qvectors(8, 200) through evaluate_candidate,
    encoded as the sweep's JSONL record and written to a file."""

    name = "reflexive_sweep"

    def __init__(self, lib, outdir, expected):
        super().__init__(lib, outdir, expected)
        self.path = os.path.join(outdir, "reflexive_sweep.jsonl")

    def evaluate(self, q):
        report = self.lib.search.evaluate_candidate(q)
        # the sweep's own json binding, so traced runs see it as search.encode
        dumps = self.lib.search.json.dumps
        return dumps(report.to_json_dict(), separators=RECORD_SEPARATORS) + "\n"

    def run_pass(self, rng, threads):
        result = PassResult(attempted=0)
        search = self.lib.search
        with open(self.path, "w", encoding="utf-8") as fh:
            for q in search.iter_reflexive_qvectors(8, 200):
                result.attempted += 1
                t0 = perf_counter()
                try:
                    fh.write(self.evaluate(q))
                except Exception as exc:  # an op boundary: count it, keep going
                    code = getattr(exc, "code", type(exc).__name__)
                    result.failures.append((q.entries, 1, type(exc).__name__, code))
                result.latencies[q.entries] = perf_counter() - t0
        return result

    def replay(self, op):
        with contextlib.suppress(Exception):
            self.evaluate(self.lib.core.QVector(op))

    def check(self, result):
        data, records = read_jsonl(self.path)
        result.records = records
        result.evaluated = [tuple(rec["q"]) for rec in records]
        result.evaluated += [op for op, _, _, _ in result.failures]
        result.output_bytes = len(data)
        result.outputs["sweep"] = sha256(data)
        if result.failures:
            return
        counts = tally(records)
        for key in ("records", "idp_true", "non_unimodal", "counterexamples"):
            if counts[key] != self.expected[key]:
                result.mismatches.append(
                    f"reflexive_sweep {key} = {counts[key]}, expected {self.expected[key]}"
                )
        if sha256(data) != self.expected["sha256"]:
            result.mismatches.append("reflexive_sweep JSONL sha256 differs from the seed's")


class OracleCheck(Workload):
    """check --q <q> --oracle --json for the 150 reflexive q with n <= 5,
    sum <= 40; one client in a closed loop, order permuted by the seed."""

    name = "oracle_check"

    def __init__(self, lib, outdir, expected):
        super().__init__(lib, outdir, expected)
        self.ops = reflexive_qvectors(5, 40)
        if len(self.ops) != 150:
            raise RuntimeError(f"oracle_check built {len(self.ops)} inputs, not 150")

    def argv(self, q):
        return ["check", "--q", op_text(q), "--oracle", "--json"]

    def run_pass(self, rng, threads):
        result = PassResult(attempted=len(self.ops))
        order = list(self.ops)
        rng.shuffle(order)
        cli = self.lib.cli
        for q in order:
            t0 = perf_counter()
            rc, stdout = run_cli(cli, self.argv(q))
            result.latencies[q] = perf_counter() - t0
            result.raw[q] = (rc, stdout)
        return result

    def replay(self, op):
        run_cli(self.lib.cli, self.argv(op))

    def parallelepiped_inputs(self, result):
        return list(self.ops)

    def check(self, result):
        digest = hashlib.sha256()
        for q in self.ops:
            rc, stdout = result.raw.pop(q)
            data = stdout.encode()
            digest.update(data)
            result.output_bytes += len(data)
            result.outputs[q] = sha256(data)
            result.evaluated.append(q)
            if failed_rc(rc):
                result.failures.append((q, 1, rc_text(rc), error_code(rc, stdout)))
                result.mismatches.append(f"check --q {op_text(q)} exited {rc_text(rc)}")
                continue
            payload = json.loads(stdout)
            result.records.append(payload)
            oracle = payload.get("oracle", {})
            if rc != 0 or oracle.get("hstar") != "confirmed" or oracle.get("idp") != "confirmed":
                result.mismatches.append(
                    f"check --q {op_text(q)}: exit {rc}, oracles {oracle}"
                )
        if not result.failures and digest.hexdigest() != self.expected["sha256"]:
            result.mismatches.append("oracle_check outputs differ from the seed's")


class SupportFamilies(Workload):
    """search --r <r> --output <tmp> --json at the default bound, for each of
    the 141 gcd-1 supports with k <= 3 and parts <= 10; order permuted by the
    seed."""

    name = "support_families"
    op_label = "r"

    def __init__(self, lib, outdir, expected):
        super().__init__(lib, outdir, expected)
        self.ops = gcd_one_supports(3, 10)
        if len(self.ops) != 141:
            raise RuntimeError(f"support_families built {len(self.ops)} supports, not 141")
        self.dir = os.path.join(outdir, "support_families")
        os.makedirs(self.dir, exist_ok=True)
        self._families = {}

    def path(self, r):
        return os.path.join(self.dir, "r" + "_".join(map(str, r)) + ".jsonl")

    def argv(self, r):
        return ["search", "--r", op_text(r), "--threads", "1", "--output", self.path(r), "--json"]

    def run_pass(self, rng, threads):
        result = PassResult(attempted=len(self.ops))
        for r in self.ops:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.path(r))
        order = list(self.ops)
        rng.shuffle(order)
        cli = self.lib.cli
        for r in order:
            t0 = perf_counter()
            rc, stdout = run_cli(cli, self.argv(r))
            result.latencies[r] = perf_counter() - t0
            result.raw[r] = (rc, stdout)
        return result

    def replay(self, op):
        run_cli(self.lib.cli, self.argv(op))

    def family(self, r):
        """All q of the family in the sweep's order, from solve_positive."""
        if r not in self._families:
            support = self.lib.support
            system = support.build_system(r)
            solved = support.solve_positive(system)
            qs = [support.expand_solution(system, x).entries for x in solved.solutions]
            self._families[r] = sorted(qs, key=lambda q: (len(q), q))
        return self._families[r]

    def check(self, result):
        cap = getattr(self.lib.freesum, "DECOMPOSE_DIMENSION_CAP", None)
        digests = self.expected["sha256"]
        for r in self.ops:
            rc, stdout = result.raw.pop(r)
            data, lines = read_jsonl(self.path(r))
            records = [rec for rec in lines if "summary" not in rec]
            result.records += records
            result.output_bytes += len(data)
            result.outputs[r] = sha256(data)
            key = op_text(r)
            if failed_rc(rc):
                result.failures.append((r, 1, rc_text(rc), error_code(rc, stdout)))
                # the sweep evaluates in order and stops at the first q that fails
                evaluated = []
                for q in self.family(r):
                    evaluated.append(q)
                    if cap is not None and len(q) > cap:
                        break
                result.evaluated += evaluated
                continue
            result.evaluated += [tuple(rec["q"]) for rec in records]
            if key in digests:
                if sha256(data) != digests[key]:
                    result.mismatches.append(f"search --r {key} output differs from the seed's")
                continue
            # failed at the seed: no digest, so check invariants
            if len(records) != len(self.family(r)):
                result.mismatches.append(
                    f"search --r {key}: {len(records)} records, "
                    f"solve_positive has {len(self.family(r))}"
                )
            for rec in records:
                q = rec["q"]
                if tuple(sorted(set(q))) != r:
                    result.mismatches.append(f"search --r {key}: q {q} has another support")
                if rec["hstar"] is not None and sum(rec["hstar"]) != 1 + sum(q):
                    result.mismatches.append(f"search --r {key}: h* of {q} sums wrong")


WORKLOADS = {
    w.name: w for w in (BoxSweep, ReflexiveSweep, OracleCheck, SupportFamilies)
}
