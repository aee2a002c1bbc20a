"""Benchmark for reflexive-lab: four workloads driven through the public API
and CLI, every output checked, one JSON result on the last stdout line.

    python3 perfbench/run.py --workload box_sweep --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 runs untraced reference
passes and then the same passes with spans around calls into each module,
checks that both wrote the same bytes, and reports the per-layer metrics.
Why each workload and metric exists: perfbench/README.md.
"""

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from spans import Tracer, instrument
from workloads import WORKLOADS, computed_counts, tally

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 11

COMPUTED = (
    "search.reflexive_yield",
    "ehrhart.hstar_closed_form.weight_terms",
    "lattice.parallelepiped.hit_ratio",
    "freesum.decompose.subsets_scanned",
)


class Lib:
    """reflexive_lab's modules, imported from this checkout's src/ only."""

    def __init__(self):
        sys.path.insert(0, SRC)
        import reflexive_lab
        import reflexive_lab.cli
        import reflexive_lab.core
        import reflexive_lab.freesum
        import reflexive_lab.search
        import reflexive_lab.support

        origin = os.path.realpath(reflexive_lab.__file__)
        if not origin.startswith(os.path.realpath(SRC) + os.sep):
            raise ImportError(f"reflexive_lab imported from {origin}, not from src/")
        self.cli = reflexive_lab.cli
        self.core = reflexive_lab.core
        self.freesum = reflexive_lab.freesum
        self.search = reflexive_lab.search
        self.support = reflexive_lab.support


def metric_units():
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def timed_pass(workload, rng, threads):
    own0, kids0 = cpu_seconds()
    t0 = perf_counter()
    result = workload.run_pass(rng, threads)
    result.wall = perf_counter() - t0
    own1, kids1 = cpu_seconds()
    result.cpu = (own1 - own0) + (kids1 - kids0)
    result.child_cpu = kids1 - kids0
    return result


def run_passes(workload, rng, threads, budget, count=None, tracer=None):
    """Whole passes: `count` of them, or as many as fit in `budget` seconds
    (at least one).  Outputs are checked after each pass, outside the timing
    and outside the tracer."""
    results = []
    elapsed = 0.0
    while True:
        if count is not None and len(results) == count:
            break
        if count is None and results and elapsed + elapsed / len(results) > budget:
            break
        if tracer is None:
            result = timed_pass(workload, rng, threads)
        else:
            with instrument(tracer):
                result = timed_pass(workload, rng, threads)
        workload.check(result)
        results.append(result)
        elapsed += result.wall
    return results


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def setup_seconds():
    """Median wall time of a fresh interpreter that imports reflexive_lab."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", "import reflexive_lab"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024  # ru_maxrss is in KiB on Linux


def records_per_s(result):
    return len(result.records) / result.wall


def end_to_end(results):
    """Rates are medians over the passes; latencies are percentiles over
    every op timed in every pass."""
    latencies = [seconds for r in results for seconds in r.latencies.values()]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    return {
        "records_per_s": statistics.median(records_per_s(r) for r in results),
        "cpu_ms_per_record": statistics.median(
            1000 * r.cpu / max(1, len(r.records)) for r in results
        ),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": (attempted - failed) / attempted,
        "op_ms_p50": 1000 * percentile(latencies, 50),
        "op_ms_p90": 1000 * percentile(latencies, 90),
    }


def per_layer(names, workload, tracer, traced, reference, untraced):
    n = len(traced)
    last = traced[-1]
    counts = tally(last.records)
    work = computed_counts(
        last.evaluated,
        workload.parallelepiped_inputs(last),
        [tuple(rec["q"]) for rec in last.records],
        getattr(workload.lib.freesum, "DECOMPOSE_DIMENSION_CAP", None),
    )
    pooled = [r for r in reference if workload.threads > 1]
    idp_decided = counts["idp_true"] + counts["idp_false"]
    derived = {
        "search.generate.count": tracer.counts["search.generate.count"] / n,
        "search.reflexive_yield": work["reflexive_yield"],
        "search.output_bytes": last.output_bytes,
        "search.pool.parallel_eff": statistics.median(
            r.child_cpu / (workload.threads * r.wall) for r in pooled
        )
        if pooled
        else 0.0,
        "ehrhart.hstar_closed_form.weight_terms": work["weight_terms"],
        "lattice.parallelepiped.hit_ratio": work["hit_points"] / work["hit_cells"]
        if work["hit_cells"]
        else 0.0,
        "idp.idp_check.non_idp_ratio": counts["idp_false"] / idp_decided
        if idp_decided
        else 0.0,
        "freesum.decompose.subsets_scanned": work["subsets_scanned"],
        "freesum.decompose.split_yield": counts["splits"] / work["recorded_subsets"]
        if work["recorded_subsets"]
        else 0.0,
        "trace.slowdown": statistics.median(map(records_per_s, untraced))
        / statistics.median(map(records_per_s, traced)),
    }
    metrics = {}
    for name in names:
        # "<span>.calls", "<span>.self_s" and "<span>.failed" come from the spans
        span, _, kind = name.rpartition(".")
        if name in derived:
            metrics[name] = derived[name]
        elif kind == "calls":
            metrics[name] = tracer.calls[span] / n
        elif kind == "self_s":
            metrics[name] = tracer.self_s[span] / n
        elif kind == "failed":
            metrics[name] = tracer.failed_calls(span) / n
        else:
            raise KeyError(name)
    return metrics


def diagnose(workload, results):
    """Name the stage and q of each distinct failed op, by replaying it once
    under a tracer after the measured passes.  Each failure was already
    counted where it happened; the replay is not counted again."""
    seen = {}
    for result in results:
        for op, count, rc, code in result.failures:
            entry = seen.setdefault(op, {"op": op, "exit": rc, "code": code, "failed_ops": 0})
            entry["failed_ops"] += count
    for entry in seen.values():
        tracer = Tracer()
        with instrument(tracer):
            workload.replay(entry["op"])
        roots = [idx for idx in tracer.failed if tracer.parents[idx] == -1]
        if roots:
            origin = tracer.origin(roots[0])
            entry["stage"] = tracer.names[origin]
            entry["code"], entry["q"] = tracer.failed[origin]
        if isinstance(entry["op"], tuple):
            entry["op"] = workload.op_label + "=" + ",".join(map(str, entry["op"]))
    return list(seen.values())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "reflexive_lab", "__init__.py")):
        print(f"error: no reflexive_lab sources under {SRC}", file=sys.stderr)
        return 2
    lib = Lib()
    end_to_end_units, per_layer_units = metric_units()
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(os.path.dirname(__file__), "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    workload = WORKLOADS[args.workload](lib, OUT, expected)
    rng = random.Random(args.seed)

    if args.trace:
        reference = run_passes(workload, rng, workload.threads, args.seconds / 2)
        n = len(reference)
        extra = []
        if workload.trace_threads != workload.threads:
            extra = run_passes(workload, rng, workload.trace_threads, 0, count=n)
        tracer = Tracer()
        traced = run_passes(workload, rng, workload.trace_threads, 0, count=n, tracer=tracer)
        results = reference + extra + traced
        mismatches = [
            f"traced pass wrote other bytes than the untraced pass ({workload.name})"
            for r in traced
            if r.outputs != reference[0].outputs
        ]
        metrics = per_layer(per_layer_units, workload, tracer, traced, reference, extra or reference)
        units = per_layer_units
        tracer.write(os.path.join(OUT, f"{workload.name}-spans.jsonl"))
    else:
        results = run_passes(workload, rng, workload.threads, args.seconds)
        metrics = end_to_end(results)
        metrics["setup_s"] = setup_seconds()
        units = end_to_end_units
        mismatches = []

    mismatches += [m for r in results for m in r.mismatches]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    failures = diagnose(workload, results)
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(results),
        "ops_per_pass": results[0].attempted,
        "latency_samples": sum(len(r.latencies) for r in results),
        "failures": failures,
        "mismatches": mismatches,
        "computed": [m for m in COMPUTED if m in metrics],
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"{workload.name}-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)

    print(f"{workload.name}: seed {args.seed}, {len(results)} passes, trace {args.trace}")
    for name in units:
        label = "  (computed)" if name in COMPUTED else ""
        print(f"  {name:<52} {metrics[name]:>14.6g} {units[name]}{label}")
    print(f"  failed_frac = {failed}/{attempted} = {failed / attempted:.4f}")
    for f in failures:
        where = f" at {f['stage']}" if "stage" in f else ""
        q = f" q={','.join(map(str, f['q']))}" if f.get("q") else ""
        print(f"  failed op {f['op']}: exit {f['exit']} {f['code']}{where}{q} x{f['failed_ops']}")
    for m in mismatches:
        print(f"  MISMATCH {m}")
    print(
        json.dumps(
            {
                "correct": not mismatches,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0 if not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
