"""stodesign's benchmark: time to design, memory and answer quality.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; stodesign is imported from its
`src/`, nothing is installed. Each repetition of a workload runs in a fresh
worker process (worker.py), one at a time, with BLAS pinned to one thread:
the plain single-threaded baseline. Repetitions continue while the next one
is expected to end within S seconds (at least two are made, so that reruns
can be compared) and the medians are reported. Before each repetition,
SETUP_PROBES_PER_REP more workers only import and set up, so that setup_s is
a median of samples spread over the run.

Workloads (workloads.py): `ref64-six`, the paper's six reference designs at
64^2; `case1-256-capped`, case1 compliance at 256^2 capped at 8 iterates;
`scenfile-64-k16`, K = 16 rank-3 scenarios read from a file that scenfile.py
generates from the seed. The seed only affects the scenario file; the
presets are the paper's fixed loads.

With --trace 0 the result holds the end-to-end metrics:
    run_s         wall time of all the workload's `stodesign run` calls
    setup_s       import, building or parsing the scenario sets, validation
    peak_rss_mb   peak resident memory of the worker process
    cost_gap_rel  worst (final - ref) / |ref| over the designs, ref from
                  reference.json (made by make_reference.py)
    pass_rate     designs that passed the correctness gate / designs attempted,
                  that is 1 - fail_rate, which is never 0, so a relative
                  bound applies to it
With --trace 1 repetitions alternate untraced and traced; the result holds
the per-layer metrics of spans.py, the traced run_s and the tracing overhead
(traced minus untraced median run_s).

A design fails on an exception, an unexpected exit code or stop reason, a
mass drift over 1e-10 relative, a missing artifact, or a density.csv that
differs from the first repetition's. `failed` counts failed designs,
`attempted` all designs run; `correct` is true when none failed.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads, here and in every worker

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

from workloads import WORKLOADS, load_reference, needs_scenario_file  # noqa: E402

SETUP_PROBES_PER_REP = 2
BUDGET_S = 170.0  # the whole run ends well within 180 s
MIN_REPS = 2


def blas_info() -> dict:
    """BLAS library as numpy was built against it, and its thread count now."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": None}
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def machine_info() -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **blas_info(),
    }


def run_worker(workload: str, work: Path, scenario_file, deadline: float, *flags: str):
    """Run one worker to completion; its report, or None when it failed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--work", str(work)]
    if scenario_file is not None:
        cmd += ["--scenario-file", str(scenario_file)]
    try:
        proc = subprocess.run(
            [*cmd, *flags],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        print(f"worker for {workload} timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker for {workload} exited with {proc.returncode}", file=sys.stderr)
        return None
    report = json.loads(lines[-1])
    if Path(report["stodesign"]).resolve().parent.parent != SRC:
        raise SystemExit(f"stodesign was imported from {report['stodesign']}, not {SRC}")
    return report


def gate(reps: list, n_designs: int, reference: dict) -> tuple[int, int, list[float]]:
    """Count attempted and failed designs; worst cost gap of each repetition."""
    attempted = failed = 0
    first_hash: dict[str, str] = {}
    gaps = []
    for rep in reps:
        attempted += n_designs
        if rep is None:
            failed += n_designs
            continue
        worst = None
        for d in rep["designs"]:
            errors = list(d["errors"])
            if "density_sha256" in d:
                if first_hash.setdefault(d["name"], d["density_sha256"]) != d["density_sha256"]:
                    errors.append("density.csv differs from the first repetition")
                ref = reference[d["problem"]]
                gap = (d["final_cost"] - ref) / abs(ref)
                worst = gap if worst is None else max(worst, gap)
            if errors:
                failed += 1
                print(f"{d['name']}: {'; '.join(errors)}", file=sys.stderr)
        if worst is not None:
            gaps.append(worst)
    return attempted, failed, gaps


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    start = time.monotonic()
    deadline = start + BUDGET_S
    scenario_file = None
    if needs_scenario_file(workload):
        import scenfile

        scenario_file = work / f"scenarios-seed{seed}.txt"
        scenfile.write_scenario_file(seed, scenario_file)

    setup, reps, traced = [], [], []
    while True:
        began = time.monotonic()
        for _ in range(SETUP_PROBES_PER_REP):
            probe = run_worker(workload, work / "probe", scenario_file, deadline, "--setup-only")
            if probe is not None and not probe["invalid"]:
                setup.append(probe["setup_s"])
        is_traced = trace and len(reps) % 2 == 1
        flags = ("--trace",) if is_traced else ()
        rep = run_worker(workload, work / f"rep{len(reps)}", scenario_file, deadline, *flags)
        reps.append(rep)
        traced.append(is_traced)
        now = time.monotonic()
        expected_end = now + (now - began)  # if the next repetition takes as long
        if (len(reps) >= MIN_REPS and expected_end > start + seconds) or expected_end > deadline:
            break

    n_designs = len(WORKLOADS[workload])
    attempted, failed, gaps = gate(reps, n_designs, load_reference())
    done = [(rep, t) for rep, t in zip(reps, traced) if rep is not None]
    setup += [rep["setup_s"] for rep, _ in done]
    plain = [rep for rep, t in done if not t]
    print(
        f"# {workload} seed {seed}: {len(reps)} repetitions ({sum(traced)} traced), "
        f"{len(setup)} set-up samples, run_s {[round(r['run_s'], 3) for r, _ in done]}"
    )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if trace:
        spans = [rep for rep, t in done if t]
        layers = {k: median(r["layers"][k] for r in spans) for k in spans[0]["layers"]}
        layers["trace.run_s"] = median(r["run_s"] for r in spans)
        layers["trace.overhead_s"] = layers["trace.run_s"] - median(r["run_s"] for r in plain)
        if spans[0]["unbound"]:
            print(f"# not traced, absent: {spans[0]['unbound']}")
        values, listed = layers, "per_layer"
    else:
        values = {
            "run_s": median(r["run_s"] for r in plain),
            "setup_s": median(setup),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
            "cost_gap_rel": median(gaps),
            "pass_rate": (attempted - failed) / attempted,
        }
        listed = "end_to_end"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[listed]
    if {m["name"] for m in spec} != set(values):
        raise SystemExit(f"measured metrics differ from BENCHMARK.json's {listed} list")
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "stodesign" / "__init__.py").is_file():
        print(f"error: no stodesign sources under {SRC}", file=sys.stderr)
        return 2

    print("# machine " + json.dumps(machine_info()))
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
