"""Recompute the stored reference optima in reference.json.

Each problem of the benchmark's designs is run with the library defaults
except a tight stopping tolerance (EPS1) and a large iterate cap
(MAX_ITERS per grid size). The benchmark's cost_gap_rel compares each
design's final cost against these values. The scenario-file problem is
solved for seed 0 and re-solved for CHECK_SEEDS, and the largest relative
difference is recorded: its answer does not depend on the seed (see
scenfile.py). The stored values come from the library as of commit 860c209,
before any performance work, run on a 2-core x86_64 machine with BLAS pinned
to one thread; the reference costs are less than 1e-6 relative from the value
at half the iterates, far below the gaps the benchmark measures.

Usage, from the repository root (takes tens of minutes on one core):
    OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py [PROBLEM ...]
"""
from __future__ import annotations

import json
import platform
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import scenfile  # noqa: E402
from stodesign import (  # noqa: E402
    GridSpec,
    Objective,
    OptimizerConfig,
    load_scenario_file,
    make_case1,
    make_case2,
    make_deterministic,
    run,
)
from workloads import REFERENCE_FILE, WORKLOADS  # noqa: E402

EPS1 = 1e-12
MAX_ITERS = {64: 3000, 256: 600}
CHECK_SEEDS = (1, 2)


def scenario_set(preset: str, n: int, seed: int = 0):
    grid = GridSpec(n, n)
    if preset == "deterministic":
        return make_deterministic(grid, np.ones(grid.n_cells))
    if preset == "case1":
        return make_case1(grid)
    if preset == "case2":
        return make_case2(grid)
    with tempfile.TemporaryDirectory() as tmp:  # through the file, as the CLI reads it
        path = Path(tmp) / "scenarios.txt"
        scenfile.write_scenario_file(seed, path)
        return load_scenario_file(path)


def solve(preset: str, objective: str, n: int, seed: int = 0) -> dict:
    t0 = time.perf_counter()
    max_iters = MAX_ITERS[n]
    result = run(
        OptimizerConfig(eps1=EPS1, max_iters=max_iters),
        scenario_set(preset, n, seed),
        Objective.parse(objective),
    )
    h = result.history
    return {
        "cost": h[-1].cost,
        "cost_at_half_iterates": h[min(len(h) - 1, max_iters // 2)].cost,
        "iterations": h[-1].iter,
        "stop_reason": result.stop_reason,
        "seconds": round(time.perf_counter() - t0, 1),
    }


def main(selected: list[str]) -> None:
    doc = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    doc["method"] = {
        "how": "stodesign.run with library defaults (alpha 1, beta 2, mass 1.5, "
        "eps 64, solve_tol 1e-10) except eps1 and max_iters; the scenario-file "
        "problem is generated with seed 0 and read back through the file",
        "eps1": EPS1,
        "max_iters": {str(k): v for k, v in MAX_ITERS.items()},
        "made_with": f"python {platform.python_version()}, numpy {np.__version__}",
    }
    problems = doc.setdefault("problems", {})
    designs = {d.problem: d for ds in WORKLOADS.values() for d in ds}
    for name, d in designs.items():
        if selected and name not in selected:
            continue
        entry = solve(d.preset, d.objective, d.n)
        if d.preset == "scenfile":
            others = [solve(d.preset, d.objective, d.n, s)["cost"] for s in CHECK_SEEDS]
            entry["seed_spread_rel"] = max(abs(c - entry["cost"]) for c in others) / abs(
                entry["cost"]
            )
            entry["seeds_checked"] = [0, *CHECK_SEEDS]
        problems[name] = entry
        print(name, entry, flush=True)
        REFERENCE_FILE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
