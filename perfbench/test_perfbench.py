"""Smoke test of the benchmark harness at a tiny grid.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import scenfile  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import stodesign.cg  # noqa: E402
import stodesign.solve  # noqa: E402
from stodesign import load_scenario_file, validate  # noqa: E402
from workloads import Design  # noqa: E402

TINY = [
    Design("case1", "compliance", n=8, max_iters=3, exit_code=2, stop_reason="max_iters"),
    Design("scenfile", "energy", n=8, max_iters=3, exit_code=2, stop_reason="max_iters"),
]


def test_generator_invariants(tmp_path):
    target = None
    for seed in (3, 4):
        sset = scenfile.make_scenario_set(seed, n=8)
        w = sset.weights()
        assert len(w) == 2 * scenfile.PAIRS and np.all(w > 0.0)
        assert abs(w.sum() - 1.0) < 1e-15
        mean = np.zeros(sset.grid.n_cells)
        for s in sset.scenarios:
            mean += s.weight * s.xi
        assert np.all(mean == 0.0)
        xi = np.array([s.xi for s in sset.scenarios])
        cov = (xi.T * w) @ xi
        assert np.linalg.matrix_rank(cov) == scenfile.RANK
        target = cov if target is None else target
        np.testing.assert_allclose(cov, target, rtol=0, atol=1e-13)

    path = tmp_path / "s.txt"
    scenfile.write_scenario_file(3, path, n=8)
    loaded = load_scenario_file(path)
    assert validate(loaded) == []
    again = tmp_path / "t.txt"
    scenfile.write_scenario_file(3, again, n=8)
    assert path.read_bytes() == again.read_bytes()


def test_self_time_subtracts_children(monkeypatch):
    ticks = iter([0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 10.0])
    monkeypatch.setattr(spans.time, "perf_counter", lambda: next(ticks))
    tracer = spans.Tracer()
    outer = tracer.open("a")  # 0 .. 10
    child = tracer.open("b")  # 2 .. 5, holding a grandchild 3 .. 4
    grandchild = tracer.open("c")
    tracer.close(grandchild)
    tracer.close(child)
    second = tracer.open("b")  # 6 .. 7
    tracer.close(second)
    tracer.close(outer)
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert tracer.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert tracer.calls("b") == 2


def run_tiny_worker(monkeypatch, tmp_path, *flags) -> dict:
    monkeypatch.setitem(worker.WORKLOADS, "tiny", TINY)
    tmp_path.mkdir()
    scen = tmp_path / "scenarios.txt"
    scenfile.write_scenario_file(5, scen, n=8)
    out = tmp_path / "out"
    lines = []
    monkeypatch.setattr("builtins.print", lambda s, **kw: lines.append(s))
    worker.main(["--workload", "tiny", "--work", str(out), "--scenario-file", str(scen), *flags])
    monkeypatch.undo()
    return json.loads(lines[-1])


def test_worker_gate_and_trace(monkeypatch, tmp_path):
    plain = run_tiny_worker(monkeypatch, tmp_path / "plain")
    traced = run_tiny_worker(monkeypatch, tmp_path / "traced", "--trace")
    for report in (plain, traced):
        assert report["run_s"] > 0.0 and report["setup_s"] > 0.0
        assert [d["errors"] for d in report["designs"]] == [[], []]

    reference = {d["problem"]: d["final_cost"] * 0.5 for d in plain["designs"]}
    attempted, failed, gaps = run.gate([plain, traced], len(TINY), reference)
    assert (attempted, failed) == (4, 0)  # tracing leaves density.csv bit-identical
    assert gaps[0] == gaps[1] == pytest.approx(1.0)  # the compliance design: final > 0

    layers = traced["layers"]
    assert layers["optimizer.iterates"] == layers["optimizer.trials"] == 6  # 3 steps per design
    assert layers["solve.state_calls"] == 6 + len(TINY)  # one more solve of the start design
    assert layers["cg.solves"] == (2 + 16) * 4  # K scenarios per state solve
    assert layers["scenarios.load_s"] > 0.0 and layers["cli.bytes_written"] > 0
    assert traced["unbound"] == []
    assert stodesign.solve.cg_solve is stodesign.cg.cg_solve  # wrappers removed


def test_gate_counts_a_changed_density_as_failed():
    design = {"name": "d", "problem": "p", "errors": [], "final_cost": 2.0}
    reps = [
        {"designs": [{**design, "density_sha256": "x"}]},
        {"designs": [{**design, "density_sha256": "y"}]},
        None,
    ]
    assert run.gate(reps, 1, {"p": 1.0})[:2] == (3, 2)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ref64-six", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
