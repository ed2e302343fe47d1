"""One repetition of a workload, in a fresh process.

Times set-up (importing stodesign, building or parsing every scenario set of
the workload and validating it) and the run (every design through
`stodesign.cli.run_cli`, up to all six artifacts written), then checks the
artifacts. Prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload NAME --work DIR
        [--scenario-file PATH] [--trace] [--setup-only]
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

from spans import Tracer  # noqa: E402  (stdlib only, so not part of set-up)
from workloads import MASS, WORKLOADS, Design  # noqa: E402

ARTIFACTS = (
    "density.csv",
    "density.pgm",
    "residual.csv",
    "convergence.log",
    "diagnostics.txt",
    "config.txt",
)
MASS_DRIFT_REL = 1e-10


def build_scenario_set(stodesign, design: Design, scenario_file: Path | None):
    grid = stodesign.GridSpec(design.n, design.n)
    if design.preset == "deterministic":
        import numpy as np

        return stodesign.make_deterministic(grid, np.ones(grid.n_cells))
    if design.preset == "case1":
        return stodesign.make_case1(grid)
    if design.preset == "case2":
        return stodesign.make_case2(grid)
    return stodesign.load_scenario_file(scenario_file)


def check_design(design: Design, out: Path, exit_code: int | None) -> dict:
    """The correctness gate of one design: exit code, stop reason, mass, artifacts."""
    errors = []
    if exit_code != design.exit_code:
        errors.append(f"exit code {exit_code}, expected {design.exit_code}")
    missing = [name for name in ARTIFACTS if not (out / name).is_file()]
    if missing:
        errors.append(f"missing artifacts {missing}")
        return {"errors": errors}
    diag = dict(
        line.split(None, 1) for line in (out / "diagnostics.txt").read_text().splitlines()
    )
    if diag.get("stop_reason") != design.stop_reason:
        errors.append(f"stop reason {diag.get('stop_reason')}, expected {design.stop_reason}")
    log = (out / "convergence.log").read_text().splitlines()[1:]
    masses = [float(line.split()[3]) for line in log] + [float(diag["final_mass"])]
    drift = max(abs(m - MASS) for m in masses) / MASS
    if not drift <= MASS_DRIFT_REL:
        errors.append(f"mass drift {drift:.3e} exceeds {MASS_DRIFT_REL:.0e}")
    density = (out / "density.csv").read_bytes()
    return {
        "errors": errors,
        "final_cost": float(diag["final_cost"]),
        "density_sha256": hashlib.sha256(density).hexdigest(),
        "bytes": sum((out / name).stat().st_size for name in ARTIFACTS),
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--scenario-file", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    designs = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    import stodesign
    from stodesign import cli

    problems = []
    for design in designs:
        problems += stodesign.validate(build_scenario_set(stodesign, design, args.scenario_file))
    setup_s = time.perf_counter() - t0
    report = {"setup_s": setup_s, "stodesign": stodesign.__file__, "invalid": problems}
    if args.setup_only:
        print(json.dumps(report))
        return

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    exit_codes = []
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for design in designs:
            try:
                exit_codes.append(cli.run_cli(design.argv(args.work / design.name, args.scenario_file)))
            except Exception:  # a design that raises is a failed design, not a failed run
                traceback.print_exc()
                exit_codes.append(None)
    run_s = time.perf_counter() - t1
    if tracer is not None:
        tracer.uninstall()
    report["run_s"] = run_s
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    report["designs"] = [
        {"name": d.name, "problem": d.problem, **check_design(d, args.work / d.name, code)}
        for d, code in zip(designs, exit_codes)
    ]
    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["layers"]["cli.bytes_written"] = sum(d.get("bytes", 0) for d in report["designs"])
        report["unbound"] = tracer.unbound
    print(json.dumps(report))


if __name__ == "__main__":
    main()
