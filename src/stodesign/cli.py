"""Command-line entry point: run optimizations, write artifacts, compare runs.

A run writes six files into the output directory: density.csv, density.pgm,
residual.csv, convergence.log, diagnostics.txt and config.txt. All outputs
are deterministic: identical configurations produce bit-identical files.
"""
from __future__ import annotations

import argparse
import dataclasses
import re
import sys
from pathlib import Path

import numpy as np

from .fem import DensityField, GridSpec, cell_centers, integrate_cells
from .gclosure import PhasePair, optimality_residual
from .objective import Objective
from .optimizer import ConvergenceRecord, OptimizerConfig, RunResult, run
from .scenarios import (
    ScenarioSet,
    center_square_mask,
    load_scenario_file,
    make_case1,
    make_case2,
    make_deterministic,
)

# each preset's scenario set on a grid
PRESETS = {
    "deterministic": lambda grid: make_deterministic(grid, np.ones(grid.n_cells)),
    "case1": make_case1,
    "case2": make_case2,
}
_DEFAULTS = OptimizerConfig()
# Every run parameter, in config.txt order: its type, default and help. Each
# becomes a `run` flag (max_iters -> --max-iters) and a --config key.
PARAMS = {
    "preset": (str, "deterministic", "deterministic | case1 | case2 | file:<scenario file>"),
    "objective": (str, "compliance", "compliance | energy"),
    "nx": (int, 64, "cells in x"),
    "ny": (int, 64, "cells in y"),
    "alpha": (float, _DEFAULTS.alpha, "lower phase value"),
    "beta": (float, _DEFAULTS.beta, "upper phase value"),
    "mass": (float, _DEFAULTS.mass, "mass target"),
    "eps": (float, _DEFAULTS.eps, "base step scale"),
    "eps1": (float, _DEFAULTS.eps1, "relative stopping tolerance"),
    "max_iters": (int, _DEFAULTS.max_iters, "iteration cap"),
    "out": (str, "stodesign_out", "output directory"),
}
CORNER_BLOCK_SIDE = 0.125  # side of the four corner squares used in region metrics
CROSS_BAND_HALFWIDTH = 0.125  # half-width of the center cross bands


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stodesign",
        description="Optimal two-phase coefficient distribution under "
        "scenario-based load uncertainty.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one optimization and write artifacts")
    p_run.add_argument("--config", help="key = value file of the settings below; flags override it")
    for key, (kind, default, text) in PARAMS.items():
        flag = "--" + key.replace("_", "-")
        p_run.add_argument(flag, type=kind, help=f"{text} (default {default})")

    p_cmp = sub.add_parser("compare", help="compare the densities of two run dirs")
    p_cmp.add_argument("dir_a")
    p_cmp.add_argument("dir_b")
    return parser


def parse_config_file(path: str | Path) -> dict:
    """Read `key = value` lines; '#' at a line's start or after whitespace starts a comment,
    so a value holding whitespace then '#' is cut there: --out "runs #2" replays into runs."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        try:
            key, eq, val = line.partition("=")
            if not eq:
                raise ValueError(f"cannot parse config line: {raw!r}")
            key = key.strip()
            if key not in PARAMS:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = PARAMS[key][0](val.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return values


def _resolve_config(args: argparse.Namespace) -> dict:
    """Defaults, then the --config file, then the flags given."""
    cfg = {key: default for key, (_, default, _) in PARAMS.items()}
    if args.config:
        cfg.update(parse_config_file(args.config))
    cfg.update((key, getattr(args, key)) for key in PARAMS if getattr(args, key) is not None)
    return cfg


def _build_scenarios(cfg: dict) -> ScenarioSet:
    preset = cfg["preset"]
    if preset.startswith("file:"):
        sset = load_scenario_file(preset[5:])
        cfg["nx"], cfg["ny"] = sset.grid.nx, sset.grid.ny
        return sset
    if preset not in PRESETS:
        raise ValueError(
            f"unknown preset {preset!r}; expected one of {', '.join(PRESETS)} or file:<path>"
        )
    return PRESETS[preset](GridSpec(cfg["nx"], cfg["ny"]))


# ----------------------------------------------------------------- regions


def region_masks(grid: GridSpec) -> dict[str, np.ndarray]:
    """Diagnostic regions: center square, its complement, corner blocks, cross bands.

    Corner blocks are the four squares of side 1/8 at the corners of the unit
    square; they isolate the corner structures from the center block. The
    cross region is the union of the two center bands x, y in [3/8, 5/8],
    where the low-density cross of the reference solutions lives.
    """
    c = cell_centers(grid)
    x, y = c[:, 0], c[:, 1]
    d0 = center_square_mask(grid)
    near_x = (x < CORNER_BLOCK_SIDE) | (x > 1.0 - CORNER_BLOCK_SIDE)
    near_y = (y < CORNER_BLOCK_SIDE) | (y > 1.0 - CORNER_BLOCK_SIDE)
    corners = near_x & near_y
    mid_x = np.abs(x - 0.5) <= CROSS_BAND_HALFWIDTH
    mid_y = np.abs(y - 0.5) <= CROSS_BAND_HALFWIDTH
    return {
        "d0": d0,
        "d1": ~d0,
        "corners": corners,
        "cross": mid_x | mid_y,
    }


def region_masses(a: DensityField) -> dict[str, float]:
    masks = region_masks(a.grid)
    return {
        name: integrate_cells(a.grid, a.values * mask) for name, mask in masks.items()
    }


def rotation_l1(a: DensityField) -> float | None:
    """L1 distance between the density and its quarter-turn; None if nx != ny."""
    grid = a.grid
    if grid.nx != grid.ny:
        return None
    arr = a.values.reshape(grid.ny, grid.nx)
    rotated = np.rot90(arr)
    return integrate_cells(grid, np.abs(arr - rotated).ravel())


# ------------------------------------------------------------------ writers


def _fmt(x: float) -> str:
    return repr(float(x))


def write_cell_csv(path: Path, grid: GridSpec, values: np.ndarray) -> None:
    """One line per cell row (bottom row first), comma separated, full precision."""
    rows = values.reshape(grid.ny, grid.nx).tolist()
    lines = [",".join(map(repr, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def read_density_csv(path: Path) -> np.ndarray:
    rows: list[list[float]] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if rows and len(row) != len(rows[0]):
            raise ValueError(
                f"{path}:{lineno}: {len(row)} values, but the first row has {len(rows[0])}"
            )
        rows.append(row)
    if not rows:
        raise ValueError(f"{path} holds no density values")
    values = np.array(rows)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path} holds non-finite density values")
    if min(values.shape) < 2:
        raise ValueError(
            f"{path} holds a {len(rows)}x{len(rows[0])} grid; "
            "a grid needs at least 2 cells per direction"
        )
    return values


def density_to_pixels(values: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    scaled = (values - alpha) / (beta - alpha)
    return np.rint(np.clip(scaled, 0.0, 1.0) * 255).astype(int)


def write_density_pgm(path: Path, a: DensityField, alpha: float, beta: float) -> None:
    """8-bit grayscale, [alpha, beta] mapped linearly to [0, 255], top row first."""
    grid = a.grid
    px = density_to_pixels(a.values, alpha, beta).reshape(grid.ny, grid.nx)
    lines = ["P2", f"{grid.nx} {grid.ny}", "255"]
    lines += [" ".join(map(str, row)) for row in px[::-1].tolist()]
    path.write_text("\n".join(lines) + "\n")


def write_convergence_log(path: Path, history: list[ConvergenceRecord]) -> None:
    # the penalized_cost column repeats the cost: readers take the mass as column 3
    lines = ["iter cost penalized_cost mass gamma step_eps stationarity"]
    for r in history:
        lines.append(
            f"{r.iter} {_fmt(r.cost)} {_fmt(r.cost)} {_fmt(r.mass)} "
            f"{_fmt(r.gamma)} {_fmt(r.step_eps)} {_fmt(r.stationarity)}"
        )
    path.write_text("\n".join(lines) + "\n")


def write_config_echo(path: Path, cfg: dict) -> None:
    lines = [f"{key} = {cfg[key]}" for key in PARAMS]
    path.write_text("\n".join(lines) + "\n")


def _residual_summary(residual: np.ndarray) -> dict[str, float]:
    return {
        "mean": float(np.mean(residual)),
        "p50": float(np.percentile(residual, 50)),
        "p90": float(np.percentile(residual, 90)),
        "max": float(np.max(residual)),
    }


def write_diagnostics(path: Path, result: RunResult, residual: np.ndarray) -> None:
    h = result.history
    masses = region_masses(result.density)
    rsum = _residual_summary(residual)
    rot = rotation_l1(result.density)
    lines = [
        f"stop_reason {result.stop_reason}",
        f"iterations {h[-1].iter}",
        f"final_cost {_fmt(h[-1].cost)}",
        f"gap_rel {_fmt(result.gap_rel)}",
        f"final_mass {_fmt(h[-1].mass)}",
        f"final_gamma {_fmt(h[-1].gamma)}",
        f"stationarity_first {_fmt(h[0].stationarity)}",
        f"stationarity_final {_fmt(h[-1].stationarity)}",
        f"mass_in_d0 {_fmt(masses['d0'])}",
        f"mass_in_d1 {_fmt(masses['d1'])}",
        f"mass_in_corners {_fmt(masses['corners'])}",
        f"mass_in_cross {_fmt(masses['cross'])}",
        f"residual_mean {_fmt(rsum['mean'])}",
        f"residual_p50 {_fmt(rsum['p50'])}",
        f"residual_p90 {_fmt(rsum['p90'])}",
        f"residual_max {_fmt(rsum['max'])}",
    ]
    if rot is not None:
        lines.append(f"rotation_l1 {_fmt(rot)}")
    path.write_text("\n".join(lines) + "\n")


# ----------------------------------------------------------------- commands


def _check_out(out: Path) -> None:
    """Fail before the run where `out`, made only once the run succeeds, cannot be a directory."""
    found = next((path for path in (out, *out.parents) if path.exists()), out)
    if found.exists() and not found.is_dir():
        raise ValueError(f"output directory {out} cannot be made: {found} is not a directory")


def run_command(cfg: dict) -> int:
    kind = Objective.parse(cfg["objective"])
    alpha, beta = cfg["alpha"], cfg["beta"]
    opt = OptimizerConfig(**{f.name: cfg[f.name] for f in dataclasses.fields(OptimizerConfig)})
    out = Path(cfg["out"])
    _check_out(out)
    sset = _build_scenarios(cfg)
    result = run(opt, sset, kind)
    phases = PhasePair(alpha, beta)
    residual = optimality_residual(result.density, result.basis, result.states, kind, phases)

    out.mkdir(parents=True, exist_ok=True)
    write_cell_csv(out / "density.csv", result.density.grid, result.density.values)
    write_density_pgm(out / "density.pgm", result.density, alpha, beta)
    write_cell_csv(out / "residual.csv", result.density.grid, residual)
    write_convergence_log(out / "convergence.log", result.history)
    write_diagnostics(out / "diagnostics.txt", result, residual)
    write_config_echo(out / "config.txt", cfg)

    last = result.history[-1]
    print(
        f"{result.stop_reason}: {last.iter} iterations, "
        f"cost {last.cost:.8g}, mass {last.mass:.8g}, wrote {out}/"
    )
    return 0 if result.stop_reason == "converged" else 2


def compare_runs(dir_a: str | Path, dir_b: str | Path) -> dict:
    """Region-mass deltas, L1 distance and symmetry scores of two run outputs.

    Raises ValueError when the grids disagree.
    """
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    dens_a = read_density_csv(dir_a / "density.csv")
    dens_b = read_density_csv(dir_b / "density.csv")
    if dens_a.shape != dens_b.shape:
        raise ValueError(
            f"grid mismatch: {dens_a.shape} in {dir_a} vs {dens_b.shape} in {dir_b}"
        )
    ny, nx = dens_a.shape
    grid = GridSpec(nx, ny)
    a = DensityField(grid, dens_a.ravel())
    b = DensityField(grid, dens_b.ravel())

    masses_a = region_masses(a)
    masses_b = region_masses(b)
    report = {
        "l1_distance": integrate_cells(grid, np.abs(a.values - b.values)),
        "rotation_l1_a": rotation_l1(a),
        "rotation_l1_b": rotation_l1(b),
    }
    for name in masses_a:
        report[f"mass_{name}_a"] = masses_a[name]
        report[f"mass_{name}_b"] = masses_b[name]
        report[f"mass_{name}_delta"] = masses_b[name] - masses_a[name]
    return report


def compare_command(dir_a: str, dir_b: str) -> int:
    report = compare_runs(dir_a, dir_b)
    for key, value in report.items():
        print(f"{key} {value}")
    return 0


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        if args.command == "run":
            return run_command(_resolve_config(args))
        return compare_command(args.dir_a, args.dir_b)
    except (ValueError, ArithmeticError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
