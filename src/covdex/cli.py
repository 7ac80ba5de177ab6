"""Command-line front end.

Payloads are single-line JSON on stdout and are byte-identical for
identical (input, flags, seed); anything that varies between runs (wall
time, and for ``decompose`` the per-stage spans and counters under "run")
lives in the one-line run report on stderr.  Exit codes: 0 ok,
1 verification failure or pipeline bug, 2 usage, parse or input error (an
unreadable, non-UTF-8 or malformed file), 3 size cap or budget hit, 4
counterexample candidate (a decompose failure on an input outside both
guarantee hypotheses, multiplicity <= 2 and k <= 6), 5 internal error (an
unexpected exception).  A command stopped by an exception writes nothing
on stdout, and the run report's "payload" holds the error, the message
and, for an internal error, the traceback.  Every numeric option is
checked before any work starts, and a value out of range is a usage
error (exit 2): ``-m``, ``--budget``, ``--cap`` and ``fuzz --n`` below 0,
``fuzz --max-mult``, ``--jobs`` or ``--count`` below 1, a
``fuzz --edge-prob`` outside [0, 1], and a ``COVDEX_SEED`` that is not an
integer.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import os
import sys
import time
import traceback
from fractions import Fraction

from .coloring import COLOR_BUDGET_DEFAULT, find_coloring
from .decomposer import CoverDecomposition, DecomposeOptions, decompose
from .density import SUBSET_CAP_DEFAULT, codensity, gupta_bound
from .errors import BudgetExhausted, CovdexError, GraphFormatError, TooLarge
from .multigraph import Multigraph, read_graph
from .oracle import (
    XI_EDGE_CAP_DEFAULT,
    FuzzConfig,
    brute_codensity,
    brute_cover_index,
    random_multigraph,
    verify_decomposition,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CAPPED = 3
EXIT_CANDIDATE = 4
EXIT_INTERNAL = 5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _int_from(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


_non_negative_int = _int_from(0)
_positive_int = _int_from(1)


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _ratio(value: Fraction | None) -> str:
    if value is None:
        return "inf"
    return f"{value.numerator}/{value.denominator}"


def _digest(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return ""


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _emit_pretty(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="covdex", description=__doc__)
    parser.add_argument("--pretty", action="store_true", help="indent the JSON payload")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codensity", help="exact co-density and witness set")
    p.add_argument("graph")
    p.add_argument("--cap", type=_non_negative_int, default=SUBSET_CAP_DEFAULT)

    p = sub.add_parser("bound", help="minimum degree, co-density, and k")
    p.add_argument("graph")
    p.add_argument("--cap", type=_non_negative_int, default=SUBSET_CAP_DEFAULT)

    p = sub.add_parser("color", help="exact m-edge-coloring search")
    p.add_argument("graph")
    p.add_argument("-m", "--colors", type=_non_negative_int, required=True)
    p.add_argument("--budget", type=_non_negative_int, default=COLOR_BUDGET_DEFAULT)

    p = sub.add_parser("decompose", help="construct k edge-disjoint edge covers")
    p.add_argument("graph")
    p.add_argument("--cap", type=_non_negative_int, default=SUBSET_CAP_DEFAULT)
    p.add_argument("--budget", type=_non_negative_int, default=COLOR_BUDGET_DEFAULT)
    p.add_argument("--json", dest="json_out", help="also write the payload to a file")
    p.add_argument("--dump-on-fail", dest="dump_dir", help="directory for state dumps")
    p.add_argument("--dot", dest="dot_dir", help="directory for an orientation DOT file")

    p = sub.add_parser("xi", help="exact cover index by exhaustive search")
    p.add_argument("graph")
    p.add_argument("--cap", type=_non_negative_int, default=XI_EDGE_CAP_DEFAULT)

    p = sub.add_parser("verify", help="check a covers file against a graph")
    p.add_argument("graph")
    p.add_argument("covers")

    p = sub.add_parser("fuzz", help="seeded random campaign with oracle checks")
    p.add_argument("--n", type=_non_negative_int, default=6)
    p.add_argument("--max-mult", type=_positive_int, default=2)
    p.add_argument("--count", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--edge-prob", type=_probability, default=0.5)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--report", help="write per-instance records to a JSON file")
    return parser


def _cmd_codensity(args, report: dict) -> tuple[dict, int]:
    g = read_graph(args.graph)
    value, witness = codensity(g, cap=args.cap)
    payload = {
        "codensity": _ratio(value),
        "witness": None if witness is None else sorted(witness.vertices),
        "e_plus": None if witness is None else witness.e_plus,
    }
    return payload, EXIT_OK


def _cmd_bound(args, report: dict) -> tuple[dict, int]:
    g = read_graph(args.graph)
    b = gupta_bound(g, cap=args.cap)
    return {"delta": b.delta, "codensity": _ratio(b.codensity), "k": b.k}, EXIT_OK


def _cmd_color(args, report: dict) -> tuple[dict, int]:
    g = read_graph(args.graph)
    try:
        coloring = find_coloring(g, args.colors, args.budget)
    except BudgetExhausted:
        return {"status": "budget", "assignment": None}, EXIT_CAPPED
    if coloring is None:
        return {"status": "impossible", "assignment": None}, EXIT_OK
    assignment = [coloring.assignment[e.id] for e in sorted(g.edges, key=lambda e: e.id)]
    return {"status": "found", "assignment": assignment}, EXIT_OK


def _cmd_decompose(args, report: dict) -> tuple[dict, int]:
    g = read_graph(args.graph)
    opts = DecomposeOptions(subset_cap=args.cap, color_budget=args.budget)
    try:
        result = decompose(g, opts)
    except (TooLarge, BudgetExhausted) as exc:
        report["run"] = exc.run
        raise
    report["run"] = result.run
    if isinstance(result, CoverDecomposition):
        payload = result.to_dict()
        code = EXIT_OK
    else:
        payload = result.to_dict()
        state = payload.pop("state", None)
        if args.dump_dir and state is not None:
            os.makedirs(args.dump_dir, exist_ok=True)
            base = os.path.basename(args.graph) or "input"
            dump_path = os.path.join(args.dump_dir, f"{base}.dump.json")
            with open(dump_path, "w", encoding="utf-8") as fh:
                json.dump(state, fh, sort_keys=True, indent=2)
            payload["dump"] = dump_path
        code = EXIT_CANDIDATE if not result.hypotheses_held else EXIT_VERIFY
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
    if args.dot_dir and isinstance(result, CoverDecomposition):
        _write_dot(args, g, result)
    return payload, code


def _write_dot(args, g: Multigraph, result: CoverDecomposition) -> None:
    os.makedirs(args.dot_dir, exist_ok=True)
    base = os.path.basename(args.graph) or "input"
    path = os.path.join(args.dot_dir, f"{base}.reserve.dot")
    lines = ["digraph reserve {"]
    arcs = result.stages.get("reserve_arcs", [])
    for tail, head, eid in arcs:
        lines.append(f"  {tail} -> {head} [label=\"e{eid}\"];")
    lines.append("}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_xi(args, report: dict) -> tuple[dict, int]:
    g = read_graph(args.graph)
    return {"xi": brute_cover_index(g, cap=args.cap)}, EXIT_OK


def _cmd_verify(args, report: dict) -> tuple[dict, int]:
    g = read_graph(args.graph)
    with open(args.covers, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    covers = data.get("covers") if isinstance(data, dict) else None
    if not isinstance(covers, list) or not all(
        isinstance(cover, list) and all(type(eid) is int for eid in cover) for cover in covers
    ):
        raise _UsageError(
            f"{args.covers}: expected an object whose \"covers\" is a list of lists of edge ids"
        )
    verdict = verify_decomposition(g, covers)
    payload = {"ok": verdict.ok, "problems": list(verdict.problems)}
    return payload, EXIT_OK if verdict.ok else EXIT_VERIFY


def _fuzz_case(params: tuple) -> dict:
    """One fuzz instance.  An exception is recorded in the instance's
    record as a crash, with its seed, and counted as an anomaly; it never
    ends the campaign."""
    index, _, _, _, seed, _ = params
    record: dict[str, object] = {"index": index, "seed": seed}
    anomalies: list[str] = []
    try:
        _fuzz_checks(params, record, anomalies)
    except Exception as exc:
        record["crash"] = {"error": type(exc).__name__, "message": str(exc)}
        anomalies.append(f"crash: {type(exc).__name__}: {exc}")
    record["anomalies"] = anomalies
    return record


def _fuzz_checks(params: tuple, record: dict, anomalies: list[str]) -> None:
    _, n, max_mult, edge_prob, seed, xi_cap = params
    cfg = FuzzConfig(
        n=n, max_multiplicity=max_mult, edge_probability=edge_prob, seed=seed
    )
    g = random_multigraph(cfg)
    record["edges"] = len(g.edges)
    bound = gupta_bound(g)
    mu = g.max_multiplicity()
    hypotheses = mu <= 2 or bound.k <= 6
    record["k"] = bound.k
    record["hypotheses_held"] = hypotheses

    mine = bound.codensity
    theirs = brute_codensity(g)
    if mine != theirs:
        anomalies.append(f"codensity mismatch {mine} vs {theirs}")

    result = decompose(g)
    ok = isinstance(result, CoverDecomposition)
    record["decompose_ok"] = ok
    if ok:
        verdict = verify_decomposition(g, [sorted(c) for c in result.covers])
        if not verdict:
            anomalies.append("verification failed: " + "; ".join(verdict.problems))
    elif hypotheses:
        anomalies.append(f"hypothesis-held failure at {result.stage}: {result.message}")
    record["counterexample_candidate"] = (not ok) and (not hypotheses)

    if len(g.edges) <= xi_cap:
        xi = brute_cover_index(g, cap=xi_cap)
        upper = bound.delta if bound.codensity is None else min(bound.delta, int(bound.codensity))
        sandwich = bound.k <= xi <= upper
        record["xi"] = xi
        record["sandwich_ok"] = sandwich
        if not sandwich:
            anomalies.append(f"sandwich violated: k={bound.k} xi={xi} upper={upper}")


def _fuzz_workers(jobs: int, count: int) -> int:
    """Worker processes for a campaign: no more than the jobs asked for,
    the instances to run, or the CPUs there are."""
    return min(jobs, count, os.cpu_count() or 1)


def _cmd_fuzz(args, report: dict) -> tuple[dict, int]:
    seed = args.seed
    env_seed = os.environ.get("COVDEX_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise _UsageError(f"COVDEX_SEED must be an integer, got {env_seed!r}") from None
    params = [
        (i, args.n, args.max_mult, args.edge_prob, seed + i, XI_EDGE_CAP_DEFAULT)
        for i in range(args.count)
    ]
    workers = _fuzz_workers(args.jobs, args.count)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_fuzz_case, params))
    else:
        records = [_fuzz_case(p) for p in params]
    records.sort(key=lambda r: r["index"])
    summary = {
        "instances": len(records),
        "hypothesis_held": sum(1 for r in records if r.get("hypotheses_held")),
        "decompose_ok": sum(1 for r in records if r.get("decompose_ok")),
        "sandwich_ok": sum(1 for r in records if r.get("sandwich_ok")),
        "counterexample_candidates": sum(
            1 for r in records if r.get("counterexample_candidate")
        ),
        "anomalies": sum(len(r["anomalies"]) for r in records),
        "seed": seed,
    }
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump({"summary": summary, "records": records}, fh, sort_keys=True, indent=2)
    if summary["anomalies"]:
        return summary, EXIT_VERIFY
    if summary["counterexample_candidates"]:
        return summary, EXIT_CANDIDATE
    return summary, EXIT_OK


# Each handler takes the parsed arguments and the run report, which it may
# extend, and returns the payload with its exit code.
_HANDLERS = {
    "codensity": _cmd_codensity,
    "bound": _cmd_bound,
    "color": _cmd_color,
    "decompose": _cmd_decompose,
    "xi": _cmd_xi,
    "verify": _cmd_verify,
    "fuzz": _cmd_fuzz,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    started = time.monotonic()
    report: dict[str, object] = {"argv": argv}
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return _error(report, started, EXIT_USAGE, "usage", str(exc))

    report["command"] = args.command
    graph_path = getattr(args, "graph", None)
    if graph_path:
        report["input_sha256"] = _digest(graph_path)
    report["parameters"] = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in {"command", "pretty"}
    }

    try:
        payload, code = _HANDLERS[args.command](args, report)
    except _UsageError as exc:
        return _error(report, started, EXIT_USAGE, "usage", str(exc))
    # GraphFormatError, TooLarge and BudgetExhausted subclass CovdexError, so
    # their clauses come first.
    except (GraphFormatError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        return _error(report, started, EXIT_USAGE, type(exc).__name__, str(exc))
    except (TooLarge, BudgetExhausted) as exc:
        return _error(report, started, EXIT_CAPPED, type(exc).__name__, str(exc))
    except CovdexError as exc:
        return _error(report, started, EXIT_VERIFY, type(exc).__name__, str(exc))
    except Exception as exc:  # last resort: a bug, never a traceback
        err = {
            "error": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(),
        }
        _report(report, "internal-error", err, started)
        return EXIT_INTERNAL

    outcome = "ok"
    if code == EXIT_CANDIDATE:
        outcome = "counterexample-candidate"
    elif code != EXIT_OK:
        outcome = "error"
    _report(report, outcome, payload, started)
    if args.pretty:
        _emit_pretty(payload)
    else:
        _emit(payload)
    return code


def _error(report: dict, started: float, code: int, error: str, message: str) -> int:
    _report(report, "error", {"error": error, "message": message}, started)
    return code


def _report(report: dict, outcome: str, payload: dict, started: float) -> None:
    report["outcome"] = outcome
    report["payload"] = payload
    report["wall_time_s"] = round(time.monotonic() - started, 6)
    print(json.dumps(report, sort_keys=True, default=str), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
