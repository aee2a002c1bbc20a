"""Command-line front end.  Every subcommand is a thin adapter over the
library API; no domain logic lives here.

Exit codes: 0 success, 1 usage or domain error, 2 counterexample found
(reflexive + IDP + non-unimodal h*), 3 internal inconsistency (independent
computation routes disagree — should never happen).
"""

import argparse
import functools
import json
import sys

from .core import (
    InternalInconsistency,
    ReflexiveLabError,
    format_hstar,
    format_qvector,
    normalized_volume,
    parse_qvector,
)
from .ehrhart import (
    hstar_closed_form,
    hstar_oracle_interpolation,
    hstar_oracle_parallelepiped,
    is_symmetric,
    is_unimodal,
    payne_hstar_product,
    payne_qvector,
)
from .freesum import compose, decompose
from .idp import idp_check
from .search import (
    FILTER_NAMES,
    OracleCaps,
    SearchSpec,
    confirm_with_oracles,
    evaluate_candidate,
    run_search,
    verify_two_support_classification,
    verify_two_support_unimodality,
)
from .support import build_system, expand_solution, reflexive_family, solve_positive

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_INCONSISTENT = 3


class _CliParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via our exit-code contract
    (argparse's native exit status 2 would collide with the counterexample
    code)."""

    def error(self, message):
        raise _CliParseError(message)


def _bool_text(value) -> str:
    if value is None:
        return "null"
    return "true" if value else "false"


def _parse_caps(text: str) -> OracleCaps:
    try:
        n_part, v_part = text.split(":", 1)
        return OracleCaps(int(n_part), int(v_part))
    except (ValueError, TypeError):
        raise _CliParseError(
            f"--oracle-caps expects 'n:volume' (two integers, each at least 1), "
            f"got {text!r}"
        )


def _parse_r(text: str) -> tuple:
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise _CliParseError(f"--r expects comma-separated integers, got {text!r}")
    return parts


def _emit(payload: dict, json_mode: bool, text_lines) -> None:
    if json_mode:
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


@functools.cache
def build_parser() -> _Parser:
    """The argparse tree, built once per process: parse_args keeps no state
    between calls, so every `main` call reuses it."""
    parser = _Parser(prog="reflexive-lab", description=__doc__)
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    caps_flag = argparse.ArgumentParser(add_help=False)
    caps_flag.add_argument(
        "--oracle-caps",
        metavar="N:VOLUME",
        type=_parse_caps,
        help="override oracle feasibility caps, e.g. 7:200",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "hstar", parents=[json_flag, caps_flag], help="h*-polynomial of one q-vector"
    )
    p.add_argument("--q", required=True, help="comma-separated entries, e.g. 2,3,5")
    p.add_argument(
        "--oracle",
        choices=("closed", "interpolation", "parallelepiped"),
        default="closed",
        help="computation route (default: closed form; oracles allow non-reflexive q)",
    )

    p = sub.add_parser(
        "check", parents=[json_flag, caps_flag], help="full classification of one q"
    )
    p.add_argument("--q", required=True)
    p.add_argument(
        "--oracle",
        action="store_true",
        help="confirm with brute-force oracles (exit 3 on any disagreement)",
    )

    p = sub.add_parser(
        "enumerate", parents=[json_flag], help="q-vectors with a fixed support"
    )
    p.add_argument("--r", required=True, help="distinct parts, e.g. 2,5")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--bound",
        type=int,
        default=None,
        help="per-coordinate cut for unbounded solution families (default 50)",
    )
    mode.add_argument(
        "--count",
        type=int,
        default=None,
        help="emit the first COUNT reflexive q-vectors supported by r instead",
    )

    p = sub.add_parser("freesum", help="affine free sums")
    fs = p.add_subparsers(dest="freesum_command", required=True)
    c = fs.add_parser("compose", parents=[json_flag], help="compose two reflexive q")
    c.add_argument("--p", required=True)
    c.add_argument("--q", required=True)
    d = fs.add_parser("decompose", parents=[json_flag], help="find all free-sum splits")
    d.add_argument("--q", required=True)

    p = sub.add_parser(
        "payne", parents=[json_flag], help="Payne family member (1^(sk-1), s^(r+1))"
    )
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser(
        "search", parents=[json_flag, caps_flag], help="classification sweep (JSONL)"
    )
    p.add_argument("--n-min", type=int, help="box: smallest n (default 1)")
    p.add_argument("--n-max", type=int, help="box: largest n (default 5)")
    p.add_argument("--max-entry", type=int, help="box: largest entry (default 12)")
    p.add_argument("--r", default=None, help="fixed support instead of the n/entry box")
    p.add_argument(
        "--bound", type=int, default=None, help="multiplicity cut for --r families"
    )
    p.add_argument(
        "--filter",
        action="append",
        choices=FILTER_NAMES,
        default=None,
        help="emit only candidates passing this predicate (repeatable)",
    )
    p.add_argument("--output", default=None, help="JSONL path (default: stdout)")
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker processes (default 1), at most the CPUs this process may use; "
        "the output does not depend on it",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted run from the last complete record",
    )
    p.add_argument(
        "--cross-check",
        action="store_true",
        help="re-verify ~1%% of records with the brute-force oracles",
    )

    p = sub.add_parser("verify", help="family-level verifications")
    modes = p.add_subparsers(dest="what", required=True)
    v = modes.add_parser(
        "two-support",
        parents=[json_flag],
        help="facet scan against the closed-form two-support rule",
    )
    v.add_argument("--max-part", type=int, default=15, help="largest part s")
    v.add_argument("--m-max", type=int, default=10, help="largest multiplicity of r")
    v.add_argument("--x-max", type=int, default=10, help="largest multiplicity of s")
    v = modes.add_parser(
        "theorem12",
        parents=[json_flag],
        help="h* of the IDP two-support family against its expansion",
    )
    v.add_argument("--r-max", type=int, default=8, help="largest part r")
    v.add_argument("--m-max", type=int, default=8, help="largest multiplicity of r")

    return parser


def cmd_hstar(args) -> int:
    q = parse_qvector(args.q)
    if args.oracle == "closed":
        h = hstar_closed_form(q)
    elif args.oracle == "interpolation":
        h = hstar_oracle_interpolation(q, args.oracle_caps)
    else:
        h = hstar_oracle_parallelepiped(q, args.oracle_caps)
    if h.volume() != normalized_volume(q):
        raise InternalInconsistency(
            f"h* coefficient sum {h.volume()} != normalized volume "
            f"{normalized_volume(q)} for q = {q}"
        )
    sym, uni = is_symmetric(h), is_unimodal(h)
    _emit(
        {
            "q": list(q.entries),
            "oracle": args.oracle,
            "hstar": list(h.coefficients),
            "symmetric": sym,
            "unimodal": uni,
            "volume": h.volume(),
        },
        args.json,
        [
            format_hstar(h),
            f"symmetric={_bool_text(sym)}",
            f"unimodal={_bool_text(uni)}",
            f"volume={h.volume()}",
        ],
    )
    return EXIT_OK


def cmd_check(args) -> int:
    q = parse_qvector(args.q)
    report = evaluate_candidate(q, args.oracle_caps)
    payload = report.to_json_dict()
    lines = [
        f"q={format_qvector(q)}",
        f"reflexive={_bool_text(report.reflexive)}",
        f"necessary={_bool_text(report.necessary)}",
        f"idp={_bool_text(report.idp)}",
        f"hstar={format_hstar(report.hstar) if report.hstar else 'null'}",
        f"symmetric={_bool_text(report.symmetric)}",
        f"unimodal={_bool_text(report.unimodal)}",
        f"free_sum_splits={report.free_sum_splits}",
        f"counterexample={_bool_text(report.counterexample)}",
    ]
    if report.witness is not None:
        lines.append(
            f"witness facet_j={report.witness.facet_j} "
            f"b={report.witness.b} height={report.witness.height}"
        )
    if args.oracle:
        confirmations = confirm_with_oracles(q, report, args.oracle_caps)
        payload["oracle"] = confirmations
        lines.append(f"oracle_hstar={confirmations['hstar']}")
        lines.append(f"oracle_idp={confirmations['idp']}")
        if confirmations["witness_point"] is not None:
            point = ",".join(str(c) for c in confirmations["witness_point"])
            lines.append(
                f"oracle_witness dilate={confirmations['witness_dilate']} "
                f"point={point}"
            )
    _emit(payload, args.json, lines)
    return EXIT_COUNTEREXAMPLE if report.counterexample else EXIT_OK


def cmd_enumerate(args) -> int:
    r = _parse_r(args.r)
    if args.count is not None:
        family = reflexive_family(r, args.count)
        _emit(
            {"r": list(r), "count": args.count, "family": [list(q.entries) for q in family]},
            args.json,
            [format_qvector(q) for q in family],
        )
        return EXIT_OK
    system = build_system(r)
    solved = solve_positive(system, bound=args.bound)
    qs = [expand_solution(system, x) for x in solved.solutions]
    if not args.json and solved.kind == "unbounded_family":
        print(
            f"note: unbounded solution family; showing multiplicities <= "
            f"{solved.bound}",
            file=sys.stderr,
        )
    _emit(
        {
            "r": list(r),
            "kind": solved.kind,
            "bound": solved.bound,
            "solutions": [
                {"x": list(x), "q": list(q.entries)}
                for x, q in zip(solved.solutions, qs)
            ],
        },
        args.json,
        [format_qvector(q) for q in qs],
    )
    return EXIT_OK


def cmd_freesum(args) -> int:
    if args.freesum_command == "compose":
        split = compose(parse_qvector(args.p), parse_qvector(args.q))
        _emit(
            {
                "p": list(split.p.entries),
                "q": list(split.q.entries),
                "s": split.s,
                "y": list(split.y.entries),
            },
            args.json,
            [f"y={format_qvector(split.y)}", f"s={split.s}"],
        )
        return EXIT_OK
    y = parse_qvector(args.q)
    splits = decompose(y)
    _emit(
        {
            "y": list(y.entries),
            "splits": [
                {"p": list(s.p.entries), "q": list(s.q.entries), "s": s.s}
                for s in splits
            ],
        },
        args.json,
        [
            f"p={format_qvector(s.p)} q={format_qvector(s.q)} s={s.s}"
            for s in splits
        ]
        + [f"splits={len(splits)}"],
    )
    return EXIT_OK


def cmd_payne(args) -> int:
    q = payne_qvector(args.s, args.k, args.r)
    product = payne_hstar_product(args.s, args.k, args.r)
    closed = hstar_closed_form(q)
    if product != closed:
        raise InternalInconsistency(
            f"Payne product formula {product} != closed form {closed} for q = {q}"
        )
    res = idp_check(q)
    sym, uni = is_symmetric(product), is_unimodal(product)
    _emit(
        {
            "s": args.s,
            "k": args.k,
            "r": args.r,
            "q": list(q.entries),
            "hstar": list(product.coefficients),
            "symmetric": sym,
            "unimodal": uni,
            "idp": res.is_idp,
        },
        args.json,
        [
            f"q={format_qvector(q)}",
            f"hstar={format_hstar(product)}",
            f"symmetric={_bool_text(sym)}",
            f"unimodal={_bool_text(uni)}",
            f"idp={_bool_text(res.is_idp)}",
        ],
    )
    return EXIT_OK


def cmd_search(args) -> int:
    spec = SearchSpec(
        n_min=args.n_min,
        n_max=args.n_max,
        max_entry=args.max_entry,
        support_r=_parse_r(args.r) if args.r else None,
        filters=tuple(args.filter or ()),
        output=args.output,
        threads=args.threads,
        cross_check=args.cross_check,
        multiplicity_bound=args.bound,
        resume=args.resume,
        oracle_caps=args.oracle_caps,
    )
    summary = run_search(spec)
    if args.output:
        print(summary.to_json_line())
    return EXIT_COUNTEREXAMPLE if summary.counterexamples else EXIT_OK


def cmd_verify(args) -> int:
    if args.what == "two-support":
        report = verify_two_support_classification(
            args.max_part, args.m_max, args.x_max
        )
    else:
        report = verify_two_support_unimodality(args.r_max, args.m_max)
    _emit(
        report.to_json_dict(),
        args.json,
        [
            f"name={report.name}",
            f"checked={report.checked}",
            f"discrepancies={len(report.discrepancies)}",
            f"ok={_bool_text(report.ok)}",
        ],
    )
    return EXIT_OK if report.ok else EXIT_INCONSISTENT


_HANDLERS = {
    "hstar": cmd_hstar,
    "check": cmd_check,
    "enumerate": cmd_enumerate,
    "freesum": cmd_freesum,
    "payne": cmd_payne,
    "search": cmd_search,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = None
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except _CliParseError as exc:
        _report_error("usage_error", str(exc), _json_mode(args, argv))
        return EXIT_ERROR
    except ReflexiveLabError as exc:
        _report_error(exc.code, str(exc), _json_mode(args, argv))
        return EXIT_INCONSISTENT if exc.code == "internal_inconsistency" else EXIT_ERROR
    except ValueError as exc:
        _report_error("invalid_argument", str(exc), _json_mode(args, argv))
        return EXIT_ERROR


def _json_mode(args, argv) -> bool:
    """--json as parsed; when parsing failed, any argument that argparse
    would take for it, abbreviations included."""
    if args is not None:
        return args.json
    return any(len(arg) > 2 and "--json".startswith(arg) for arg in argv)


def _report_error(code: str, message: str, json_mode: bool) -> None:
    if json_mode:
        print(json.dumps({"code": code, "message": message}))
    else:
        print(f"error: {message}", file=sys.stderr)


def main_entry() -> None:
    sys.exit(main(sys.argv[1:]))
