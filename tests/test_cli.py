import re

import numpy as np
import pytest

from stodesign.cli import (
    compare_runs,
    density_to_pixels,
    parse_config_file,
    read_convergence_log,
    read_density_csv,
    region_masks,
    run_cli,
)
from stodesign.fem import GridSpec
from stodesign.scenarios import make_case1, save_scenario_file

FAST = ["--nx", "12", "--ny", "12", "--eps1", "1e-4", "--eps", "64"]


def test_run_writes_six_files(tmp_path):
    out = tmp_path / "det"
    rc = run_cli(["run", *FAST, "--out", str(out)])
    assert rc == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "config.txt",
        "convergence.log",
        "density.csv",
        "density.pgm",
        "diagnostics.txt",
        "residual.csv",
    ]


def test_run_outputs_bit_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["run", *FAST, "--out", str(a)]) == 0
    assert run_cli(["run", *FAST, "--out", str(b)]) == 0
    assert (a / "density.csv").read_bytes() == (b / "density.csv").read_bytes()
    assert (a / "convergence.log").read_bytes() == (b / "convergence.log").read_bytes()


def test_pgm_round_trips_from_csv(tmp_path):
    out = tmp_path / "det"
    assert run_cli(["run", *FAST, "--out", str(out)]) == 0
    dens = read_density_csv(out / "density.csv")
    ny, nx = dens.shape
    lines = (out / "density.pgm").read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == f"{nx} {ny}"
    assert lines[2] == "255"
    pixels = np.array([[int(t) for t in line.split()] for line in lines[3:]])
    expected = density_to_pixels(dens, 1.0, 2.0)[::-1]  # pgm stores top row first
    assert np.array_equal(pixels, expected)


def test_convergence_log_round_trip(tmp_path):
    out = tmp_path / "det"
    assert run_cli(["run", *FAST, "--out", str(out)]) == 0
    records = read_convergence_log(out / "convergence.log")
    assert records[0].iter == 0
    assert records[-1].step_eps == 0.0
    masses = [r.mass for r in records]
    assert max(abs(m - 1.5) for m in masses) <= 1e-10


def test_unknown_preset_exits_one(tmp_path):
    assert run_cli(["run", "--preset", "nope", "--out", str(tmp_path / "x")]) == 1


def test_mass_and_penalty_conflict(tmp_path):
    rc = run_cli(
        ["run", *FAST, "--mass", "1.5", "--penalty", "0.1", "--out", str(tmp_path / "x")]
    )
    assert rc == 1


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = deterministic\nnx = 12\nny = 12\neps1 = 1e-4\nmass = 1.5\n")
    out = tmp_path / "out"
    rc = run_cli(["run", "--config", str(cfg), "--eps", "64", "--out", str(out)])
    assert rc == 0
    echo = (out / "config.txt").read_text()
    assert "nx = 12" in echo
    assert "eps = 64.0" in echo


def test_config_file_bad_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("volume = 0.5\n")
    with pytest.raises(ValueError):
        parse_config_file(cfg)
    assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_scenario_file_preset(tmp_path):
    g = GridSpec(12, 12)
    path = tmp_path / "custom.scn"
    save_scenario_file(make_case1(g), path)
    out = tmp_path / "out"
    rc = run_cli(
        ["run", "--preset", f"file:{path}", "--eps1", "1e-3", "--eps", "64", "--out", str(out)]
    )
    assert rc == 0
    assert "nx = 12" in (out / "config.txt").read_text()


def test_max_iters_interrupt_exits_two(tmp_path):
    rc = run_cli(["run", *FAST, "--max-iters", "2", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_compare_identical_dirs(tmp_path):
    out = tmp_path / "det"
    assert run_cli(["run", *FAST, "--out", str(out)]) == 0
    report = compare_runs(out, out)
    assert report["l1_distance"] == 0.0
    for key, value in report.items():
        if key.endswith("_delta"):
            assert value == 0.0


def test_compare_grid_mismatch(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["run", *FAST, "--out", str(a)]) == 0
    assert run_cli(["run", "--nx", "16", "--ny", "16", "--eps1", "1e-4", "--out", str(b)]) in (0, 2)
    with pytest.raises(ValueError, match="grid mismatch"):
        compare_runs(a, b)
    assert run_cli(["compare", str(a), str(b)]) == 1


def test_compare_rejects_non_finite_density(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["run", *FAST, "--out", str(a)]) == 0
    b.mkdir()
    text = (a / "density.csv").read_text()
    (b / "density.csv").write_text("nan" + text[text.index(","):])
    with pytest.raises(ValueError, match="non-finite"):
        read_density_csv(b / "density.csv")
    assert run_cli(["compare", str(a), str(b)]) == 1


def test_cost_cross_check_failure_exits_one(tmp_path, monkeypatch, capsys):
    import stodesign.optimizer

    def broken_cost(*args, **kwargs):
        raise ArithmeticError("load-pairing and stiffness-energy costs disagree")

    monkeypatch.setattr(stodesign.optimizer, "cost", broken_cost)
    assert run_cli(["run", *FAST, "--out", str(tmp_path / "x")]) == 1
    assert "error: load-pairing" in capsys.readouterr().err


@pytest.fixture
def no_state_solve(monkeypatch):
    import stodesign.optimizer

    def no_solve(*args, **kwargs):
        raise AssertionError("a state solve ran")

    monkeypatch.setattr(stodesign.optimizer, "solve_state", no_solve)


@pytest.mark.parametrize(
    "flag, value",
    [("--eps", "nan"), ("--eps", "inf"), ("--eps1", "nan"), ("--penalty", "nan"), ("--beta", "inf")],
)
def test_non_finite_flag_exits_one_before_any_solve(tmp_path, no_state_solve, capsys, flag, value):
    assert run_cli(["run", *FAST, flag, value, "--out", str(tmp_path / "x")]) == 1
    assert "error:" in capsys.readouterr().err


def test_overflowing_phase_bounds_exit_one_before_any_solve(tmp_path, no_state_solve, capsys):
    wide = ["--alpha", "1e-300", "--beta", "1e300", "--mass", "1"]
    assert run_cli(["run", "--nx", "8", "--ny", "8", *wide, "--out", str(tmp_path / "x")]) == 1
    assert "error: phase bounds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("1,2\n3\n", ":2: 1 values, but the first row has 2"),
        ("1,2\n\n3,x\n", ":3: could not convert string to float"),
        ("\n", " holds no density values"),
    ],
    ids=["ragged", "bad-token", "empty"],
)
def test_compare_names_file_and_line_of_bad_density(tmp_path, capsys, text, message):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "density.csv").write_text("1,2\n3,4\n")
    (b / "density.csv").write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{b / 'density.csv'}{message}")):
        read_density_csv(b / "density.csv")
    assert run_cli(["compare", str(a), str(b)]) == 1
    assert f"error: {b / 'density.csv'}{message}" in capsys.readouterr().err


def test_region_masks_partition():
    g = GridSpec(16, 16)
    masks = region_masks(g)
    assert np.all(masks["d0"] ^ masks["d1"])
    assert masks["corners"].sum() == 16  # four 2x2 corner blocks at this size
    assert not np.any(masks["corners"] & masks["d0"])
