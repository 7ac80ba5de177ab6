"""Self-test of the benchmark's tracer and correctness gate.

Run from the repository root:

    python3 perfbench/selftest.py

For a few instances of every workload it runs one untraced and one traced
pass and requires identical output digests, a passing oracle check, every
patched attribute restored, and calls recorded in the layers that the
workload is meant to exercise.  It also checks that the tracer patches
every module holding a traced function and restores them when the traced
code raises.  Exits 0 when every check passes.
"""

from __future__ import annotations

import importlib
import sys

import run
from tracer import Tracer
from workloads import WORKLOADS

# Instances per workload, and layers that must record calls on them.
CASES = {
    "regularize-sparse": (3, ("decomposer.regularize", "multigraph.split_off", "density.codensity")),
    "certify-dense": (12, ("coloring.find_coloring", "coloring.is_proper")),
    "planted-blocks": (8, (
        "decomposer.contract_blocks",
        "special_coloring.special_coloring",
        "dense_lift.make_block",
        "dense_lift.permute_block_palette",
        "dense_lift.assemble_lift",
        "decomposer.orient_and_augment",
    )),
}


def check_patching() -> list[str]:
    problems = []
    run.import_covdex()
    density = importlib.import_module("covdex.density")
    decomposer = importlib.import_module("covdex.decomposer")
    module = importlib.import_module("covdex.special_coloring")
    original = density.codensity
    try:
        with Tracer():
            if decomposer.codensity is original or density.codensity is original:
                problems.append("codensity not patched in both density and decomposer")
            if decomposer.codensity is not density.codensity:
                problems.append("density and decomposer hold different codensity wrappers")
            if getattr(module.potentials, "__wrapped__", None) is None:
                problems.append("special_coloring.potentials not patched")
            raise KeyboardInterrupt  # leave the block by an exception
    except KeyboardInterrupt:
        pass
    if density.codensity is not original or decomposer.codensity is not original:
        problems.append("codensity not restored after an exception")
    return problems


def check_workload(name: str) -> list[str]:
    limit, layers = CASES[name]
    result = run.run(WORKLOADS[name], seed=1, seconds=0, trace=True, limit=limit)
    problems = [f"{name}: {p}" for p in result["problems"]]
    if result["failed"]:
        problems.append(f"{name}: {result['failed']} failed calls")
    stats = result["tracer"].stats
    problems += [f"{name}: no calls recorded in {layer}" for layer in layers if not stats[layer].calls]
    return problems


def main() -> int:
    problems = check_patching()
    for name in CASES:
        problems += check_workload(name)
        print(f"{name}: checked", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
