import re
import warnings
from dataclasses import astuple, fields

import numpy as np
import pytest

from stodesign import cli
from stodesign.cli import (
    PARAMS,
    compare_runs,
    density_to_pixels,
    parse_config_file,
    read_density_csv,
    region_masks,
    run_cli,
)
from stodesign.fem import GridSpec
from stodesign.optimizer import OptimizerConfig
from stodesign.scenarios import make_case1, make_deterministic, save_scenario_file

from oracles import read_convergence_log

FAST = ["--nx", "12", "--ny", "12", "--eps1", "1e-4", "--eps", "64"]
# every artifact but config.txt, which echoes the output directory
ARTIFACTS = ["density.csv", "density.pgm", "residual.csv", "convergence.log", "diagnostics.txt"]


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
    # 2x9 and 9x2 have one interior node row or column: a transposed field shows
    for nx, ny in ((12, 12), (2, 9), (9, 2)):
        out = tmp_path / f"det-{nx}x{ny}"
        assert run_cli(["run", *FAST, "--nx", str(nx), "--ny", str(ny), "--out", str(out)]) == 0
        dens = read_density_csv(out / "density.csv")
        assert dens.shape == (ny, nx)
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


def test_every_optimizer_field_is_a_run_parameter():
    # run_command builds OptimizerConfig from PARAMS by field name
    assert {f.name for f in fields(OptimizerConfig)} <= PARAMS.keys()


def test_failed_allocation_exits_one(tmp_path, monkeypatch, capsys):
    # as a grid too large for memory does; a real one would be killed, not refused
    def too_large(grid):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setitem(cli.PRESETS, "deterministic", too_large)
    assert run_cli(["run", *FAST, "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 74.5 GiB for an array\n"


def test_bad_phase_bounds_exit_before_the_scenarios_are_built(tmp_path, monkeypatch, capsys):
    # a 2048^2 case1 set takes about 130 MB: bad settings must not wait for it
    def never(grid):
        raise AssertionError("the scenario set was built")

    monkeypatch.setitem(cli.PRESETS, "case1", never)
    argv = ["run", "--preset", "case1", "--nx", "2048", "--ny", "2048", "--alpha", "2", "--beta", "2"]
    assert run_cli([*argv, "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == (
        f"error: phase bounds must satisfy {np.finfo(float).tiny} <= alpha < beta, "
        "got alpha = 2.0, beta = 2.0\n"
    )
    assert not (tmp_path / "x").exists()


def test_bad_mass_target_exits_before_the_scenarios_are_built(tmp_path, monkeypatch, capsys):
    # the mass target's range does not depend on the grid: it is checked with the config
    def never(grid):
        raise AssertionError("the scenario set was built")

    monkeypatch.setitem(cli.PRESETS, "case1", never)
    argv = ["run", "--preset", "case1", "--nx", "2048", "--ny", "2048", "--mass", "5"]
    assert run_cli([*argv, "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == "error: mass target 5.0 must lie strictly inside (1.0, 2.0)\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("under", [False, True], ids=["is-a-file", "under-a-file"])
def test_out_that_cannot_be_a_directory_exits_before_the_scenarios_are_built(
    tmp_path, monkeypatch, capsys, under
):
    # the directory is made only after the run: a file in its way must fail first
    def never(grid):
        raise AssertionError("the scenario set was built")

    monkeypatch.setitem(cli.PRESETS, "case1", never)
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker / "x" if under else blocker
    argv = ["run", "--preset", "case1", "--nx", "2048", "--ny", "2048", "--out", str(out)]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == (
        f"error: output directory {out} cannot be made: {blocker} is not a directory\n"
    )
    assert blocker.read_text() == "not a directory\n"


def test_overflowing_load_file_exits_one_naming_the_load(tmp_path, capsys):
    # ||b|| overflows: no residual can be measured against it, so no run may
    # "converge" to x = 0 at cost 0
    g = GridSpec(4, 4)
    path = tmp_path / "huge.scn"
    save_scenario_file(make_deterministic(g, np.full(g.n_cells, 1e200)), path)
    assert run_cli(["run", "--preset", f"file:{path}", "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err == "error: the mean load f is too large: its assembled norm overflows\n"
    assert not (tmp_path / "x").exists()


def test_run_help_lists_every_default(capsys):
    assert run_cli(["run", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for flag, default in [
        ("--preset", "deterministic"),
        ("--objective", "compliance"),
        ("--nx", "64"),
        ("--alpha", "1.0"),
        ("--beta", "2.0"),
        ("--mass", "1.5"),
        ("--eps", "64.0"),
        ("--eps1", "1e-06"),
        ("--max-iters", "500"),
        ("--out", "stodesign_out"),
    ]:
        assert re.search(rf"{flag} \S+ [^(]*\(default {re.escape(default)}\)", text), flag


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = deterministic\nnx = 12\nny = 12\neps1 = 1e-4\nmass = 1.5\n")
    out = tmp_path / "out"
    rc = run_cli(["run", "--config", str(cfg), "--eps", "64", "--out", str(out)])
    assert rc == 0
    echo = (out / "config.txt").read_text()
    assert "nx = 12" in echo
    assert "eps = 64.0" in echo
    # the echo is a --config file that replays the run
    replay = tmp_path / "replay"
    assert run_cli(["run", "--config", str(out / "config.txt"), "--out", str(replay)]) == rc
    for name in ARTIFACTS:
        assert (replay / name).read_bytes() == (out / name).read_bytes(), name


def test_config_file_bad_key(tmp_path, no_state_solve, capsys):
    # penalty, a fixed mass multiplier, is no setting: a file that sets it must
    # not run at the default mass
    cfg = tmp_path / "run.cfg"
    for key, value in (("volume", "0.5"), ("penalty", "0.02")):
        cfg.write_text(f"{key} = {value}\n")
        message = f"{cfg}:1: unknown config key {key!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_config_file(cfg)
        assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("# grid\nnx = 12\nny = abc\n", ":3: invalid literal for int() with base 10: 'abc'"),
        ("eps = 64\nmass\n", ":2: cannot parse config line: 'mass'"),
        ("eps 64\n", ":1: cannot parse config line: 'eps 64'"),
    ],
    ids=["bad-value", "no-value", "no-equals"],
)
def test_config_file_errors_name_file_and_line(tmp_path, capsys, text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{cfg}{message}")):
        parse_config_file(cfg)
    assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"error: {cfg}{message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("1.0 ", "abc ", ":3: could not convert string to float: 'abc'"),
        ("grid 4 4", "grid two 4", ":1: invalid literal for int() with base 10: 'two'"),
        ("scenario 0.5", "scenario 2.0", ":7: scenario weight must lie in (0, 1], got 2.0"),
    ],
    ids=["bad-value", "bad-int", "weight"],
)
def test_scenario_file_errors_name_file_and_line(tmp_path, capsys, old, new, message):
    path = tmp_path / "set.scn"
    save_scenario_file(make_case1(GridSpec(4, 4)), path)
    path.write_text(path.read_text().replace(old, new, 1))
    assert run_cli(["run", "--preset", f"file:{path}", "--out", str(tmp_path / "o")]) == 1
    assert f"error: {path}{message}" in capsys.readouterr().err


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
    # the echo names the file, and replays the run
    replay = tmp_path / "replay"
    assert run_cli(["run", "--config", str(out / "config.txt"), "--out", str(replay)]) == rc
    for name in ARTIFACTS:
        assert (replay / name).read_bytes() == (out / name).read_bytes(), name


def test_config_replays_paths_that_hold_a_hash(tmp_path):
    # '#' starts a comment only at the start of a line or after whitespace
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# a comment line\npreset = file:run#1/s.txt  # the file\nout = out#a\n")
    assert parse_config_file(cfg) == {"preset": "file:run#1/s.txt", "out": "out#a"}
    cfg.write_text("out = runs #2\n")  # the limit: a '#' after whitespace cuts the value
    assert parse_config_file(cfg) == {"out": "runs"}
    (tmp_path / "run#1").mkdir()
    path = tmp_path / "run#1" / "s3.txt"
    save_scenario_file(make_case1(GridSpec(8, 8)), path)
    out, replay = tmp_path / "out#a", tmp_path / "replay"
    rc = run_cli(["run", "--preset", f"file:{path}", "--max-iters", "2", "--out", str(out)])
    assert rc == 2
    assert run_cli(["run", "--config", str(out / "config.txt"), "--out", str(replay)]) == rc
    for name in ARTIFACTS:
        assert (replay / name).read_bytes() == (out / name).read_bytes(), name


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


def test_compare_prints_one_line_per_report_entry(tmp_path, capsys):
    out = tmp_path / "det"
    assert run_cli(["run", *FAST, "--out", str(out)]) == 0
    capsys.readouterr()
    assert run_cli(["compare", str(out), str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{key} {value}" for key, value in compare_runs(out, out).items()]
    assert lines[0] == "l1_distance 0.0"


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


def test_final_solve_cross_check_failure_exits_one_naming_it(tmp_path, monkeypatch, capsys):
    from stodesign import optimizer
    from stodesign.objective import cost

    def final_disagrees(a, s, kind):
        if s.tol < optimizer.ITERATE_TOL:  # the final solve's, at 1e-10
            raise ArithmeticError("load-pairing and stiffness-energy costs disagree")
        return cost(a, s, kind)

    monkeypatch.setattr(optimizer, "cost", final_disagrees)
    assert run_cli(["run", *FAST, "--max-iters", "2", "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == (
        "error: the final solve, of iterate 2: "
        "load-pairing and stiffness-energy costs disagree\n"
    )
    assert not (tmp_path / "x").exists()


@pytest.fixture
def no_state_solve(monkeypatch):
    import stodesign.optimizer

    def no_solve(*args, **kwargs):
        raise AssertionError("a state solve ran")

    monkeypatch.setattr(stodesign.optimizer, "solve_state", no_solve)


@pytest.mark.parametrize(
    "flag, value",
    [("--eps", "nan"), ("--eps", "inf"), ("--eps1", "nan"), ("--beta", "inf")],
)
def test_non_finite_flag_exits_one_before_any_solve(tmp_path, no_state_solve, capsys, flag, value):
    assert run_cli(["run", *FAST, flag, value, "--out", str(tmp_path / "x")]) == 1
    assert "error:" in capsys.readouterr().err


def test_penalty_flag_is_unrecognized(tmp_path, no_state_solve, capsys):
    assert run_cli(["run", *FAST, "--penalty", "0.1", "--out", str(tmp_path / "x")]) == 1
    assert "error: unrecognized arguments: --penalty 0.1" in capsys.readouterr().err


def test_overflowing_phase_bounds_exit_one_before_any_solve(tmp_path, no_state_solve, capsys):
    wide = ["--alpha", "1e-300", "--beta", "1e300", "--mass", "1"]
    assert run_cli(["run", "--nx", "8", "--ny", "8", *wide, "--out", str(tmp_path / "x")]) == 1
    assert "error: phase bounds" in capsys.readouterr().err


def test_subnormal_alpha_exits_one_before_any_solve(tmp_path, no_state_solve, capsys):
    tiny = ["--alpha", "1e-310", "--beta", "2", "--mass", "1.5"]
    assert run_cli(["run", "--nx", "8", "--ny", "8", *tiny, "--out", str(tmp_path / "x")]) == 1
    assert "error: phase bounds" in capsys.readouterr().err


ENERGY_16 = ["--nx", "16", "--ny", "16", "--objective", "energy"]


@pytest.mark.parametrize(
    "flags, quantity, contrast",
    [
        # energy designs drive u and |grad u|^2 up like 1/alpha
        pytest.param(
            [*ENERGY_16, "--alpha", "1e-100"], "the stationarity", 2e100, id="1e-100-the stationarity"
        ),
        # each load's energy density is finite, their sum is not, and the solve
        # forms that sum: the window for a uniform density at 16^2 is
        # 2.29e-155 < mass < 2.41e-155
        pytest.param(
            [*ENERGY_16, "--preset", "case1", "--alpha", "1e-200", "--mass", "2.35e-155"],
            "the energy density",
            2e200,
            id="1e-200-summed-energy",
        ),
        # a coefficient below about 1e-154 overflows grad(u).grad(u) itself
        pytest.param(
            ["--preset", "case1", "--nx", "8", "--ny", "8", "--alpha", "1e-200"]
            + ["--beta", "1e-156", "--mass", "5e-157"],
            "the energy density",
            1e44,
            id="tiny-beta-the energy density",
        ),
        # eps*(g - gamma) overflows in the trial step itself
        pytest.param(
            ["--nx", "8", "--ny", "8", "--alpha", "1e-300", "--beta", "1e-100"]
            + ["--mass", "5e-101", "--eps", "1e300"],
            "the stationarity",
            1e200,
            id="overflowing-trial-step",
        ),
    ],
)
def test_overflowing_phase_contrast_exits_one_with_a_clear_error(
    tmp_path, capsys, flags, quantity, contrast
):
    # past the float range the run must stop with an error line, not a RuntimeWarning
    assert run_cli(["run", *flags, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert re.search(rf"error: {quantity} is not finite at iterate \d+: the phase contrast", err)
    assert f"beta/alpha = {contrast:.3g}" in err


def test_large_finite_phase_contrast_still_stagnates(tmp_path, capsys):
    argv = ["run", "--nx", "16", "--ny", "16", "--objective", "energy", "--alpha"]
    # at 1e-20 whether the last free cell clips to alpha (a saturated design,
    # converged) or keeps a rounding residue (stagnated) is rounding noise
    out = tmp_path / "1e-20"
    assert run_cli([*argv, "1e-20", "--out", str(out)]) in (0, 2)
    assert capsys.readouterr().out.startswith(("converged:", "stagnated:"))
    for record in read_convergence_log(out / "convergence.log"):
        assert np.all(np.isfinite(astuple(record)))
        assert abs(record.mass - 1.5) <= 1e-10 * 1.5
    # at 1e-200 the trials that overflow an energy density are rejected
    assert run_cli([*argv, "1e-200", "--out", str(tmp_path / "1e-200")]) == 2
    assert capsys.readouterr().out.startswith("stagnated:")


@pytest.mark.parametrize(
    "f, code, message",
    [
        ("1e-100", 2, ""),
        ("1e-95", 2, ""),
        ("1e-60", 1, r"error: load-pairing cost \S+e-274 and stiffness-energy cost 0\.0 disagree"),
        ("1e-30", 1, r"error: load-pairing cost \S+e-214 and stiffness-energy cost 0\.0 disagree"),
    ],
    ids=["1e-100", "1e-95", "1e-60", "1e-30"],
)
def test_tiny_load_against_a_huge_coefficient_ends_by_its_system(tmp_path, capsys, f, code, message):
    # the solve does not depend on the load's size: f = 1e-95 ends as
    # f = 1e-100 does, both costs underflowing to 0, and where only the energy
    # underflows the cross-check names the disagreement
    g = GridSpec(8, 8)
    path = tmp_path / "tiny.scn"
    save_scenario_file(make_deterministic(g, np.full(g.n_cells, float(f))), path)
    argv = ["run", "--preset", f"file:{path}", "--alpha", "1e151", "--beta", "1e152"]
    assert run_cli([*argv, "--mass", "5e151", "--out", str(tmp_path / "x")]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out.startswith("stagnated: 0 iterations, cost 0,")
    else:
        assert re.match(message, captured.err) and "under- or overflow" in captured.err


@pytest.mark.parametrize("eps", ["1e20", "1e300"])
def test_huge_step_scale_holds_the_mass(tmp_path, eps):
    # eps*|g| so large that each cell's two kinks round to one float: no
    # multiplier meets the mass, so such a trial must halve the step
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(["run", "--nx", "16", "--ny", "16", "--eps", eps, "--out", str(out)])
    assert rc in (0, 2)
    for record in read_convergence_log(out / "convergence.log"):
        assert abs(record.mass - 1.5) <= 1e-10 * 1.5


def test_tiny_step_scale_stagnates_without_a_warning(tmp_path, capsys):
    # halving makes eta subnormal, and a kink (a - alpha)/eta overflows to inf
    argv = ["run", "--nx", "16", "--ny", "16", "--eps", "1e-300", "--out", str(tmp_path / "x")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(argv) == 2
    assert capsys.readouterr().out.startswith("stagnated:")


@pytest.mark.parametrize(
    "text, message",
    [
        ("1,2\n3\n", ":2: 1 values, but the first row has 2"),
        ("1,2\n\n3,x\n", ":3: could not convert string to float"),
        ("\n", " holds no density values"),
        ("1.5,1.5\n", " holds a 1x2 grid; a grid needs at least 2 cells per direction"),
        ("1.5\n1.5\n", " holds a 2x1 grid; a grid needs at least 2 cells per direction"),
    ],
    ids=["ragged", "bad-token", "empty", "one-row", "one-column"],
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
