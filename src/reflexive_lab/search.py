"""Sweeps over q-vectors: classification records, JSONL output, and the
counterexample hunt (reflexive + IDP + non-unimodal h*).

Records are emitted in canonical order (dimension, then lexicographic
entries) regardless of worker count, so output files are byte-identical
across --threads settings.  Wall-clock timings never enter the wire format.
"""

import json
import os
import sys
from dataclasses import dataclass, field, fields as dataclass_fields
from functools import partial
from itertools import chain, combinations_with_replacement

from .core import (
    InternalInconsistency,
    OracleTooLarge,
    OutputNotWritable,
    QVector,
    is_reflexive,
    support_of,
)
from .ehrhart import (
    EHRHART_ORACLE_CAPS,
    HStarPolynomial,
    OracleCaps,
    hstar_closed_form,
    hstar_oracle_interpolation,
    hstar_oracle_parallelepiped,
    is_symmetric,
    is_unimodal,
)
from .freesum import decompose
from .idp import idp_check, idp_oracle_bruteforce, necessary_condition
from .support import build_system, expand_solution, solve_positive

FILTER_NAMES = ("reflexive", "necessary", "idp", "non_unimodal", "indecomposable")


def _rejects(filters, name, **fields) -> bool:
    """Whether filter `name` is on and drops a record with these fields.

    One predicate per FILTER_NAMES entry, over the record's JSONL fields:
    evaluate_candidate asks as soon as a field is known, and --resume asks
    about every kept record.
    """
    if name not in filters:
        return False
    if name == "reflexive":
        return not fields["reflexive"]
    if name == "necessary":
        return not fields["necessary"]
    if name == "idp":
        return fields["idp"] is not True
    if name == "non_unimodal":
        return fields["unimodal"] is not False
    return fields["free_sum_splits"] != 0  # indecomposable


@dataclass(frozen=True)
class SearchSpec:
    n_min: int = None  # the (n, max-entry) box; None reads 1, 5 and 12
    n_max: int = None
    max_entry: int = None
    support_r: tuple = None  # fixed support instead of the box
    filters: tuple = ()
    output: str = None  # JSONL path; None writes to stdout
    threads: int = 1
    cross_check: bool = False
    multiplicity_bound: int = None  # fixed-support enumeration cut, default 50
    resume: bool = False
    oracle_caps: OracleCaps = None

    def __post_init__(self):
        for f in self.filters:
            if f not in FILTER_NAMES:
                raise ValueError(f"unknown filter {f!r}; choose from {FILTER_NAMES}")
        if self.support_r is not None and {self.n_min, self.n_max, self.max_entry} != {None}:
            raise ValueError("a fixed support takes no n/entry box")
        for name, default in (("n_min", 1), ("n_max", 5), ("max_entry", 12)):
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)  # the class is frozen
        if self.n_min < 1 or self.n_max < self.n_min:
            raise ValueError("need 1 <= n_min <= n_max")
        if self.max_entry < 1:
            raise ValueError("max_entry must be positive")
        if self.threads < 1:
            raise ValueError("threads must be positive")
        if self.multiplicity_bound is not None and self.support_r is None:
            raise ValueError("a multiplicity bound needs a fixed support")
        if self.resume and not self.output:
            raise ValueError("resume needs an output file to continue")


@dataclass
class CandidateReport:
    q: QVector
    reflexive: bool
    necessary: bool
    idp: bool = None  # None when undecided (non-reflexive input)
    hstar: HStarPolynomial = None
    symmetric: bool = None
    unimodal: bool = None
    free_sum_splits: int = 0
    witness: object = None  # FacetWitness when idp is False
    counterexample: bool = False

    def to_json_dict(self):
        sup = support_of(self.q)
        return {
            "q": list(self.q.entries),
            "support_parts": list(sup.parts),
            "support_mults": list(sup.multiplicities),
            "reflexive": self.reflexive,
            "necessary": self.necessary,
            "idp": self.idp,
            "hstar": list(self.hstar.coefficients) if self.hstar else None,
            "symmetric": self.symmetric,
            "unimodal": self.unimodal,
            "free_sum_splits": self.free_sum_splits,
            "witness": self.witness.to_json_dict() if self.witness else None,
            "counterexample": self.counterexample,
        }


def iter_qvectors(n_min: int, n_max: int, max_entry: int):
    """Weakly increasing vectors ordered by dimension, then lexicographically."""
    for n in range(n_min, n_max + 1):
        yield from map(QVector, combinations_with_replacement(range(1, max_entry + 1), n))


def iter_reflexive_qvectors(n_max: int, sum_max: int):
    """All reflexive q with dimension <= n_max and sum(q) <= sum_max.

    Grouped by volume s = 1 + sum(q); entries must divide s, so candidates
    are multisets of proper divisors of s summing to s - 1.
    """
    for s in range(2, sum_max + 2):
        divisors = [d for d in range(1, s) if s % d == 0]

        def rec(prefix, min_idx, remaining):
            if remaining == 0:
                yield QVector(tuple(prefix))
                return
            if len(prefix) == n_max:
                return
            for idx in range(min_idx, len(divisors)):
                d = divisors[idx]
                if d > remaining:
                    break
                prefix.append(d)
                yield from rec(prefix, idx, remaining - d)
                prefix.pop()

        yield from rec([], 0, s - 1)


def evaluate_candidate(
    q: QVector, oracle_caps: OracleCaps = None, filters: tuple = ()
) -> CandidateReport:
    """Classify one q-vector; returns None if a filter rejects it.

    Predicates run cheap-to-expensive (reflexive, necessary, h*, unimodal,
    IDP, free-sum) and stop at the first failing filter.
    """
    caps = oracle_caps or EHRHART_ORACLE_CAPS

    reflexive = is_reflexive(q)
    if _rejects(filters, "reflexive", reflexive=reflexive):
        return None
    necessary = necessary_condition(q)
    if _rejects(filters, "necessary", necessary=necessary):
        return None

    hstar = symmetric = unimodal = None
    if reflexive:
        hstar = hstar_closed_form(q)
    else:
        try:
            hstar = hstar_oracle_parallelepiped(q, caps)
        except OracleTooLarge:
            hstar = None
    if hstar is not None:
        symmetric = is_symmetric(hstar)
        unimodal = is_unimodal(hstar)
        if reflexive and not symmetric:
            raise InternalInconsistency(f"reflexive q = {q} with asymmetric h*")
        if not reflexive and symmetric:
            raise InternalInconsistency(f"non-reflexive q = {q} with symmetric h*")
    if _rejects(filters, "non_unimodal", unimodal=unimodal):
        return None

    idp = witness = None
    if reflexive:
        res = idp_check(q)
        idp = res.is_idp
        witness = res.witness
        if idp and not necessary:
            raise InternalInconsistency(f"IDP q = {q} failing the necessary condition")
    if _rejects(filters, "idp", idp=idp):
        return None

    free_sum_splits = len(decompose(q)) if reflexive else 0
    if _rejects(filters, "indecomposable", free_sum_splits=free_sum_splits):
        return None

    counterexample = bool(reflexive and idp is True and unimodal is False)
    return CandidateReport(
        q=q,
        reflexive=reflexive,
        necessary=necessary,
        idp=idp,
        hstar=hstar,
        symmetric=symmetric,
        unimodal=unimodal,
        free_sum_splits=free_sum_splits,
        witness=witness,
        counterexample=counterexample,
    )


def _cross_check_selected(entries) -> bool:
    """Deterministic ~1% sample; stable across runs and worker counts."""
    key = sum(entries) * 1000003 + len(entries) * 101 + entries[0]
    return key % 97 == 0


def confirm_with_oracles(q: QVector, report: CandidateReport, caps: OracleCaps = None):
    """Re-derive a report's h* and IDP verdict with the brute-force oracles.

    `caps` bounds all three oracles; None keeps each oracle's own default.
    Raises InternalInconsistency on any disagreement.  Returns the status of
    each check ("confirmed", or "skipped" when there is nothing to check or
    the oracle is beyond its caps) and the IDP oracle's witness, if any.
    """
    out = {"hstar": "skipped", "idp": "skipped", "witness_dilate": None, "witness_point": None}
    if report.hstar is not None:
        try:
            interp = hstar_oracle_interpolation(q, caps)
            para = hstar_oracle_parallelepiped(q, caps)
        except OracleTooLarge:
            interp = para = None
        if interp is not None:
            if interp != report.hstar or para != report.hstar:
                raise InternalInconsistency(
                    f"h* routes disagree for q = {q}: reported {report.hstar}, "
                    f"interpolation {interp}, parallelepiped {para}"
                )
            out["hstar"] = "confirmed"
    if report.idp is not None:
        try:
            oracle = idp_oracle_bruteforce(q, caps)
        except OracleTooLarge:
            oracle = None
        if oracle is not None:
            if oracle.is_idp != report.idp:
                raise InternalInconsistency(
                    f"IDP routes disagree for q = {q}: facet scan says "
                    f"{report.idp}, sumset oracle says {oracle.is_idp}"
                )
            out["idp"] = "confirmed"
            if not oracle.is_idp:
                out["witness_dilate"] = oracle.witness_dilate
                out["witness_point"] = list(oracle.witness_point)
    return out


def _search_worker(entries, caps, filters, cross_check):
    q = QVector(entries)
    report = evaluate_candidate(q, caps, filters)
    if report is None:
        return None
    if cross_check and _cross_check_selected(entries):
        confirm_with_oracles(q, report, caps)
    return report.to_json_dict()


@dataclass
class SearchSummary:
    counts: dict
    counterexamples: tuple
    metadata: dict = field(default_factory=dict)

    def to_json_line(self) -> str:
        payload = dict(self.counts)
        if self.metadata:
            payload.update(self.metadata)
        return json.dumps({"summary": payload}, separators=(",", ":"))


_SUMMARY_KEYS = (
    "candidates",
    "emitted",
    "reflexive",
    "necessary",
    "idp_true",
    "idp_false",
    "idp_skipped",
    "symmetric",
    "unimodal",
    "free_sum_decomposable",
    "counterexamples",
)


def _tally(counts, record):
    counts["emitted"] += 1
    counts["reflexive"] += 1 if record["reflexive"] else 0
    counts["necessary"] += 1 if record["necessary"] else 0
    if record["idp"] is True:
        counts["idp_true"] += 1
    elif record["idp"] is False:
        counts["idp_false"] += 1
    else:
        counts["idp_skipped"] += 1
    counts["symmetric"] += 1 if record["symmetric"] else 0
    counts["unimodal"] += 1 if record["unimodal"] else 0
    counts["free_sum_decomposable"] += 1 if record["free_sum_splits"] else 0
    counts["counterexamples"] += 1 if record["counterexample"] else 0


def _candidates_for(spec: SearchSpec):
    metadata = {}
    if spec.support_r is not None:
        system = build_system(spec.support_r)
        solved = solve_positive(system, bound=spec.multiplicity_bound)
        qs = [expand_solution(system, x) for x in solved.solutions]
        if solved.kind == "unbounded_family":
            metadata["support_enumeration"] = {
                "kind": solved.kind,
                "bound": solved.bound,
            }
        else:
            metadata["support_enumeration"] = {"kind": solved.kind}
        qs.sort(key=lambda q: (q.n, q.entries))
        return qs, metadata
    return list(iter_qvectors(spec.n_min, spec.n_max, spec.max_entry)), metadata


def _load_resume_state(path, candidates, filters):
    """Completed records of an interrupted run, and the candidate index to
    restart at.

    The records' q must be the first candidates in order or, when filters
    drop records, candidates in strictly increasing canonical position, and
    every record must pass the filters; otherwise the file belongs to another
    search and ValueError is raised before anything is written.  So is it
    for a line that is JSON but not an object holding every CandidateReport
    field, which covers all that the filters and the tally read.
    """
    if not os.path.exists(path):
        return [], 0
    needed = {f.name for f in dataclass_fields(CandidateReport)}
    kept = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                break  # torn tail from the interruption
            is_object = isinstance(obj, dict)
            if is_object and "summary" in obj:  # a stale summary is rewritten at the end
                continue
            if not (is_object and needed <= obj.keys() and isinstance(obj["q"], list)):
                raise ValueError(f"cannot resume {path}: line {lineno} is not a search record")
            kept.append(obj)
    start = 0
    for record in kept:
        q = tuple(record["q"])
        for name in filters:
            if _rejects(filters, name, **record):
                raise ValueError(
                    f"cannot resume {path}: its record q = {','.join(map(str, q))} "
                    f"fails the {name} filter of this search"
                )
        if filters:
            while start < len(candidates) and candidates[start].entries != q:
                start += 1
        if start == len(candidates) or candidates[start].entries != q:
            raise ValueError(
                f"cannot resume {path}: its record q = {','.join(map(str, q))} "
                f"is not the next candidate of this search"
            )
        start += 1
    return kept, start


def _check_output_path(path):
    """Refuse an output path that cannot become a file, before the sweep
    spends any time: a directory, or a name in a missing directory.  The
    file itself is neither created nor truncated, since --resume reads it."""
    if os.path.isdir(path):
        raise OutputNotWritable(f"cannot write {path}: it is a directory")
    parent = os.path.dirname(path) or os.curdir
    if not os.path.isdir(parent):
        raise OutputNotWritable(f"cannot write {path}: no directory {parent}")


def run_search(spec: SearchSpec) -> SearchSummary:
    """Evaluate all candidates, then write the JSONL records and a summary line."""
    if spec.output:
        _check_output_path(spec.output)
    candidates, metadata = _candidates_for(spec)
    counts = {k: 0 for k in _SUMMARY_KEYS}
    counts["candidates"] = len(candidates)
    counterexamples = []

    kept, start = [], 0
    if spec.resume:
        kept, start = _load_resume_state(spec.output, candidates, spec.filters)
    todo = [q.entries for q in candidates[start:]]
    worker = partial(
        _search_worker,
        caps=spec.oracle_caps,
        filters=tuple(spec.filters),
        cross_check=spec.cross_check,
    )
    # The output does not depend on the worker count: start no more than
    # there are candidates or CPUs this process may use.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(spec.threads, len(todo), cpus or 1)
    if workers > 1:
        from multiprocessing import get_context  # only a pooled sweep loads it

        pool = get_context("fork").Pool(workers)
        # Candidates get costlier along the canonical order, so the last
        # chunks are the largest; 64 chunks per worker keep that tail short.
        fresh = pool.imap(worker, todo, chunksize=max(1, len(todo) // (workers * 64)))
    else:
        pool, fresh = None, map(worker, todo)
    lines = []
    try:
        for record in chain(kept, fresh):
            if record is None:
                continue
            _tally(counts, record)
            if record["counterexample"]:
                counterexamples.append(tuple(record["q"]))
            lines.append(json.dumps(record, separators=(",", ":")))
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    if not spec.filters and counts["emitted"] != counts["candidates"]:
        raise InternalInconsistency(
            f"unfiltered search emitted {counts['emitted']} records for "
            f"{counts['candidates']} candidates"
        )

    summary = SearchSummary(
        counts=counts, counterexamples=tuple(counterexamples), metadata=metadata
    )
    text = "\n".join(lines + [summary.to_json_line()]) + "\n"
    if spec.output:
        try:
            with open(spec.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputNotWritable(f"cannot write {spec.output}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)
    return summary


# -- family verifiers --------------------------------------------------------


def two_support_rule(r: int, s: int, m: int, x: int) -> bool:
    """Closed-form rule: (r^m, s^x) is reflexive and IDP iff
    r != 1, s == 1 + r m, x == r - 1, or r == 1, s == 1 + m (x arbitrary)."""
    if r != 1:
        return s == 1 + r * m and x == r - 1
    return s == 1 + m


@dataclass(frozen=True)
class VerificationReport:
    name: str
    checked: int
    discrepancies: tuple

    def __post_init__(self):
        if not self.checked:
            raise ValueError(f"{self.name}: the given ranges hold no q to check")

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def to_json_dict(self):
        return {
            "name": self.name,
            "checked": self.checked,
            "discrepancies": [list(d) for d in self.discrepancies],
            "ok": self.ok,
        }


def verify_two_support_classification(
    max_part: int, m_max: int, x_max: int
) -> VerificationReport:
    """Compare the facet scan against the closed-form two-support rule."""
    checked = 0
    bad = []
    for s in range(2, max_part + 1):
        for r in range(1, s):
            for m in range(1, m_max + 1):
                for x in range(1, x_max + 1):
                    q = QVector(tuple([r] * m + [s] * x))
                    checked += 1
                    got = is_reflexive(q) and idp_check(q).is_idp
                    expected = two_support_rule(r, s, m, x)
                    if got != expected:
                        bad.append((r, s, m, x, got, expected))
    return VerificationReport("two-support classification", checked, tuple(bad))


def _peaked_family_hstar(r: int, m: int) -> HStarPolynomial:
    """Independent expansion for q = (r^m, (1+rm)^(r-1)):

    r * (z + ... + z^(m-1)) * (1 + ... + z^(r-1))
      + sum_j (r - j) z^(m+j) + sum_j (j + 1) z^j,   j = 0..r-1.
    """
    n = m + r - 1
    coeffs = [0] * (n + 1)
    for i in range(1, m):
        for j in range(r):
            coeffs[i + j] += r
    for j in range(r):
        coeffs[m + j] += r - j
        coeffs[j] += j + 1
    return HStarPolynomial(tuple(coeffs))


def verify_two_support_unimodality(r_max: int, m_max: int) -> VerificationReport:
    """The IDP two-support family has symmetric, unimodal h* matching the
    explicit two-term expansion."""
    checked = 0
    bad = []
    for r in range(2, r_max + 1):
        for m in range(1, m_max + 1):
            q = QVector(tuple([r] * m + [1 + r * m] * (r - 1)))
            checked += 1
            h = hstar_closed_form(q)
            expansion = _peaked_family_hstar(r, m)
            if h != expansion or not is_symmetric(h) or not is_unimodal(h):
                bad.append((r, m, tuple(h.coefficients), tuple(expansion.coefficients)))
    return VerificationReport("two-support unimodality", checked, tuple(bad))
