"""covdex benchmark: one seeded workload, closed loop, one caller.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from ``src/`` next to this directory.  Set-up
(a fresh import plus corpus generation) is repeated before and after the
timed loop and its median reported.  The timed loop then decomposes the
corpus instances in order, one at a time, in whole passes over the
corpus, for about ``--seconds``.  Whole passes give every instance the
same number of samples.

CPU speed on a shared virtual machine changes in phases of seconds to
minutes (a fixed pure-Python loop ran up to 1.8 times slower), so wall
time alone does not repeat from run to run.  Every call is therefore
timed between two runs of a fixed pure-Python reference kernel, and its
cost is reported in reference units (``ref``): its wall time over the
mean time of the two kernel runs around it.  An instance's cost is the
median over its passes, and the percentiles are taken over instances.
``setup_s`` is a time by definition: each set-up's cost in reference
units is converted back to seconds with the fastest kernel run of the
whole process.

Outputs are checked after the loop, outside the timed region: covers are
verified by the independent oracle, k is recomputed from
``oracle.brute_codensity`` and the minimum degree, and every repeated call
on one instance must give byte-identical output.  A colouring search that
exhausts its budget is a documented outcome (exit 3 in the CLI), counted
in ``solved_frac`` rather than as a failure.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` splits the
time between an untraced and a traced loop, requires both to give the same
outputs and every patched attribute to be restored, and prints the
per-layer metrics.  The last stdout line is one JSON object; the line
before it gives the output digest, the pass count, the tail percentile,
the reference kernel's fastest time and the median wall-clock latency.
Exits 1 when a check fails and 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import BLOCK_PATH, COUNTERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Instance, Workload  # noqa: E402

SRC = HERE.parent / "src"
# Set-up runs this many times before the timed loop and again after the
# checks, so its median spans the run rather than one burst of CPU speed.
SETUP_REPEATS = 5
# Reference kernel runs on each side of a set-up, which lasts far longer
# than one call.
SETUP_REFERENCE_RUNS = 5
# The tail is the highest percentile with this many instances beyond it.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Capped:
    """The colouring search ran out of budget: a documented outcome."""

    message: str


@dataclass(frozen=True)
class Crashed:
    """An exception other than a budget cap escaped the program."""

    error: str
    message: str


@dataclass
class Window:
    """Whole passes over the corpus: call k ran instance k % corpus_size,
    between reference kernel runs ``refs[k]`` and ``refs[k + 1]``.

    Only the first pass keeps its outcome objects; every call keeps the
    canonical text of its output, so the heap (and the garbage
    collector's work) does not grow with the number of passes.
    """

    latencies: list[float]
    refs: list[float]
    outcomes: list[object]
    texts: list[str]
    corpus_size: int

    def costs(self) -> list[float]:
        """Each call's wall time over the mean of the kernel runs around it."""
        r = self.refs
        return [t / ((r[k] + r[k + 1]) / 2) for k, t in enumerate(self.latencies)]

    def instance_costs(self) -> list[float]:
        """Each instance's median cost over the passes, in reference units."""
        n = self.corpus_size
        costs = self.costs()
        return [statistics.median(costs[j::n]) for j in range(n)]


def reference() -> int:
    """Fixed pure-Python work of the kind covdex does (integer bit
    arithmetic, dict and set updates); about 0.6 ms on an unloaded
    2-vCPU virtual machine.  It never changes with the program."""
    acc = 0
    table: dict[int, int] = {}
    seen: set[int] = set()
    for i in range(1500):
        m = (i * 2654435761) & 0xFFFF
        acc += bin(m).count("1")
        table[m & 255] = acc
        seen.add(m & 1023)
    return acc + len(table) + len(seen)


def time_reference() -> float:
    start = perf_counter()
    reference()
    return perf_counter() - start


def import_covdex():
    """Import the package from src/ afresh, dropping any earlier copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "covdex" or m.startswith("covdex.")]:
        del sys.modules[name]
    covdex = importlib.import_module("covdex")
    if Path(covdex.__file__).resolve().parent != SRC / "covdex":
        raise ImportError(f"covdex imported from {covdex.__file__}, not {SRC}")
    return covdex


def setup(workload: Workload, seed: int):
    """Repeated import plus corpus build.

    Returns (costs, refs, corpus, graphs): each set-up's wall time over
    the mean of the kernel runs on both sides of it, and those runs' times.
    """
    costs: list[float] = []
    refs: list[float] = []
    for _ in range(SETUP_REPEATS):
        around = [time_reference() for _ in range(SETUP_REFERENCE_RUNS)]
        start = perf_counter()
        covdex = import_covdex()
        corpus = workload.corpus(seed)
        graphs = [covdex.build(inst.n, inst.pairs) for inst in corpus]
        elapsed = perf_counter() - start
        around += [time_reference() for _ in range(SETUP_REFERENCE_RUNS)]
        costs.append(elapsed / statistics.mean(around))
        refs += around
    return costs, refs, corpus, graphs


def make_op(workload: Workload):
    """The call under test; attributes are looked up per call so a tracer
    that swaps them sees every call."""
    decomposer = importlib.import_module("covdex.decomposer")
    if workload.color_budget is None:
        options = None
    else:
        options = decomposer.DecomposeOptions(color_budget=workload.color_budget)
    return lambda g: decomposer.decompose(g, options)


def run_window(op, graphs: list, seconds: float) -> Window:
    """Closed loop, one caller: whole passes over the corpus.

    Passes continue while another one would end nearer to ``seconds``
    than stopping now, so the window is ``seconds`` give or take half a
    pass, and always at least one pass.
    """
    budget_exhausted = importlib.import_module("covdex.errors").BudgetExhausted
    latencies: list[float] = []
    refs = [time_reference()]
    outcomes: list[object] = []
    texts: list[str] = []
    begin = perf_counter()
    while True:
        for g in graphs:
            start = perf_counter()
            try:
                out = op(g)
            except budget_exhausted as exc:
                out = Capped(str(exc))
            except Exception as exc:  # a crash is counted and reported, not fatal
                out = Crashed(type(exc).__name__, str(exc))
            end = perf_counter()
            latencies.append(end - start)
            refs.append(time_reference())
            texts.append(canonical(out))
            if len(outcomes) < len(graphs):
                outcomes.append(out)
        elapsed = end - begin
        passes = len(texts) // len(graphs)
        if elapsed + elapsed / passes / 2 >= seconds:
            return Window(latencies, refs, outcomes, texts, len(graphs))


def canonical(out) -> str:
    """Deterministic JSON for an outcome; the digest input."""
    if isinstance(out, Capped):
        obj = {"capped": out.message}
    elif isinstance(out, Crashed):
        obj = {"crash": out.error, "message": out.message}
    else:
        obj = out.to_dict()
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def expected_k(inst: Instance, g, oracle) -> int:
    """k recomputed from the oracle's co-density and the minimum degree."""
    degree = [0] * inst.n
    for u, v in inst.pairs:
        degree[u] += 1
        degree[v] += 1
    delta = min(degree)
    rho = oracle.brute_codensity(g)
    k = delta - 1 if rho is None else min(delta - 1, int(rho))
    return max(k, 0)


def check_outcome(g, out, k: int, oracle) -> str | None:
    """None when the outcome is right (or a documented cap), else a reason."""
    if isinstance(out, Capped):
        return None
    if isinstance(out, Crashed):
        return f"{out.error}: {out.message}"
    if not hasattr(out, "covers"):
        return f"FailureReport at {out.stage}: {out.error}: {out.message}"
    if out.k != k or len(out.covers) != k:
        return f"k={out.k} with {len(out.covers)} covers, oracle k={k}"
    verdict = oracle.verify_decomposition(g, list(out.covers))
    if not verdict.ok:
        return "; ".join(verdict.problems)
    return None


def gate(corpus: list[Instance], graphs: list, windows: list[Window]):
    """Check every outcome of every window against the oracle.

    Returns the corpus digest, each instance's status ("solved", "capped"
    or "failed"), the number of failed calls, and a list of problems
    (empty when every check passed).
    """
    oracle = importlib.import_module("covdex.oracle")
    problems: list[str] = []
    first = windows[0].texts[: len(corpus)]
    status = []
    for inst, g, out in zip(corpus, graphs, windows[0].outcomes):
        reason = check_outcome(g, out, expected_k(inst, g, oracle), oracle)
        if reason is not None:
            problems.append(f"{inst.label}: {reason}")
        status.append("failed" if reason else "capped" if isinstance(out, Capped) else "solved")
    failed_calls = 0
    for w in windows:
        for i, text in enumerate(w.texts):
            j = i % len(corpus)
            if text != first[j]:
                problems.append(f"{corpus[j].label}: output differs between runs")
            failed_calls += status[j] == "failed"
    digest = hashlib.sha256()
    for text in first:
        digest.update(hashlib.sha256(text.encode()).digest())
    return digest.hexdigest(), status, failed_calls, problems


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values above it."""
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(w: Window, status: list[str], setup_costs: list[float], fastest_ref: float) -> dict:
    per_instance = w.instance_costs()
    tail_value, _ = tail(per_instance)
    return {
        "instances_per_kref": metric(1000 * len(per_instance) / sum(per_instance), "1/kref"),
        "latency_p50_ref": metric(statistics.median(per_instance), "ref"),
        "latency_tail_ref": metric(tail_value, "ref"),
        "solved_frac": metric(status.count("solved") / len(status), "ratio"),
        "setup_s": metric(statistics.median(setup_costs) * fastest_ref, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tr: Tracer, traced: Window, plain: Window) -> dict:
    count = len(traced.texts)
    out = {}
    for name, st in tr.stats.items():
        out[f"{name}.calls"] = metric(st.calls / count, "1/instance")
        out[f"{name}.self_ms"] = metric(st.self_ns / 1e6 / count, "ms/instance")
        out[f"{name}.total_ms"] = metric(st.total_ns / 1e6 / count, "ms/instance")
    for name in COUNTERS:
        out[name] = metric(tr.counters[name] / count, "1/instance")
    root = tr.stats["decomposer.decompose"].total_ns
    block_ns = sum(tr.stats[name].total_ns for name in BLOCK_PATH)
    out["decomposer.block_path.share"] = metric(block_ns / root if root else 0.0, "ratio")
    traced_cost = statistics.mean(traced.costs())
    out["trace.overhead_frac"] = metric(traced_cost / statistics.mean(plain.costs()) - 1, "ratio")
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def run(workload: Workload, seed: int, seconds: float, trace: bool, limit: int | None = None) -> dict:
    """One benchmark run; ``limit`` truncates the corpus (self-test only)."""
    setup_costs, setup_refs, corpus, graphs = setup(workload, seed)
    if limit is not None:
        corpus, graphs = corpus[:limit], graphs[:limit]
    op = make_op(workload)
    tracer = None
    if not trace:
        window = run_window(op, graphs, seconds)
        digest, status, failed, problems = gate(corpus, graphs, [window])
        more_costs, more_refs, _, _ = setup(workload, seed)
        fastest_ref = min(setup_refs + more_refs + window.refs)
        metrics = end_to_end(window, status, setup_costs + more_costs, fastest_ref)
        attempted = len(window.texts)
        _, pct = tail(window.instance_costs())
        n = len(corpus)
        wall_p50 = statistics.median(statistics.median(window.latencies[j::n]) for j in range(n))
        note = (
            f"{n} instances x {attempted // n} passes, "
            f"tail=p{pct:.1f}, capped={status.count('capped')}, "
            f"fastest ref={1000 * fastest_ref:.3f} ms, wall p50={1000 * wall_p50:.2f} ms"
        )
    else:
        plain = run_window(op, graphs, seconds / 2)
        tracer = Tracer()
        with tracer:
            traced = run_window(op, graphs, seconds / 2)
        digest, status, failed, problems = gate(corpus, graphs, [plain, traced])
        problems += [f"attribute not restored: {a}" for a in tracer.unrestored()]
        metrics = per_layer(tracer, traced, plain)
        attempted = len(plain.texts) + len(traced.texts)
        note = f"untraced {len(plain.texts)} / traced {len(traced.texts)} calls"
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "digest": digest,
        "problems": problems,
        "note": note,
        "tracer": tracer,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "covdex" / "__init__.py").is_file():
        print(f"covdex sources not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    result = run(workload, args.seed, args.seconds, bool(args.trace))
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} digest={result['digest']} {result['note']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
