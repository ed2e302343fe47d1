"""Command-line entry point: run optimizations, write artifacts, compare runs.

A run writes six files into the output directory: density.csv, density.pgm,
residual.csv, convergence.log, diagnostics.txt and config.txt. All outputs
are deterministic: identical configurations produce bit-identical files.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fem import DensityField, GridSpec, cell_centers, integrate_cells
from .gclosure import PhasePair, optimality_residual
from .objective import Objective
from .optimizer import ConvergenceRecord, OptimizerConfig, RunResult, run
from .scenarios import (
    ScenarioSet,
    load_scenario_file,
    make_case1,
    make_case2,
    make_deterministic,
)

PRESETS = ("deterministic", "case1", "case2")
CONFIG_KEYS = {
    "preset": str,
    "objective": str,
    "nx": int,
    "ny": int,
    "alpha": float,
    "beta": float,
    "mass": float,
    "penalty": float,
    "eps": float,
    "eps1": float,
    "max_iters": int,
    "out": str,
}
CORNER_BLOCK_SIDE = 0.125  # side of the four corner squares used in region metrics
CROSS_BAND_HALFWIDTH = 0.125  # half-width of the center cross bands


@dataclass
class RunConfig:
    """Resolved run configuration; exactly one of mass and penalty is set."""

    preset: str = "deterministic"
    objective: str = "compliance"
    nx: int = 64
    ny: int = 64
    alpha: float = 1.0
    beta: float = 2.0
    mass: float | None = None
    penalty: float | None = None
    eps: float = 64.0
    eps1: float = 1e-6
    max_iters: int = 500
    out: str = "stodesign_out"

    def finalize(self) -> None:
        if self.mass is not None and self.penalty is not None:
            raise ValueError("set at most one of mass and penalty")
        if self.mass is None and self.penalty is None:
            self.mass = 1.5  # reference problem default


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stodesign",
        description="Optimal two-phase coefficient distribution under "
        "scenario-based load uncertainty.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one optimization and write artifacts")
    p_run.add_argument("--config", help="key = value file; flags override it")
    p_run.add_argument(
        "--preset",
        help="deterministic | case1 | case2 | file:<path to scenario file>",
    )
    p_run.add_argument("--objective", help="compliance | energy")
    p_run.add_argument("--nx", type=int, help="cells in x (default 64)")
    p_run.add_argument("--ny", type=int, help="cells in y (default 64)")
    p_run.add_argument("--alpha", type=float, help="lower phase value (default 1)")
    p_run.add_argument("--beta", type=float, help="upper phase value (default 2)")
    p_run.add_argument("--mass", type=float, help="mass target (constrained mode)")
    p_run.add_argument(
        "--penalty", type=float, help="fixed mass multiplier (penalized mode)"
    )
    p_run.add_argument("--eps", type=float, help="base step scale (default 64)")
    p_run.add_argument(
        "--eps1", type=float, help="relative stopping tolerance (default 1e-6)"
    )
    p_run.add_argument("--max-iters", type=int, dest="max_iters")
    p_run.add_argument("--out", help="output directory (default stodesign_out)")

    p_cmp = sub.add_parser("compare", help="compare the densities of two run dirs")
    p_cmp.add_argument("dir_a")
    p_cmp.add_argument("dir_b")
    return parser


def parse_config_file(path: str | Path) -> dict:
    """Read `key = value` lines; '#' starts a comment."""
    values: dict = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, val = line.partition("=")
        else:
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ValueError(f"cannot parse config line: {raw!r}")
            key, val = parts
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = CONFIG_KEYS[key](val.strip())
    return values


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    file_values = parse_config_file(args.config) if args.config else {}
    for key in CONFIG_KEYS:
        if key in file_values:
            setattr(cfg, key, file_values[key])
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            setattr(cfg, key, flag)
    cfg.finalize()
    return cfg


def _build_scenarios(cfg: RunConfig) -> ScenarioSet:
    if cfg.preset == "deterministic":
        grid = GridSpec(cfg.nx, cfg.ny)
        return make_deterministic(grid, np.ones(grid.n_cells))
    if cfg.preset == "case1":
        return make_case1(GridSpec(cfg.nx, cfg.ny))
    if cfg.preset == "case2":
        return make_case2(GridSpec(cfg.nx, cfg.ny))
    if cfg.preset.startswith("file:"):
        sset = load_scenario_file(cfg.preset[5:])
        cfg.nx, cfg.ny = sset.grid.nx, sset.grid.ny
        return sset
    raise ValueError(
        f"unknown preset {cfg.preset!r}; expected one of "
        f"{', '.join(PRESETS)} or file:<path>"
    )


# ----------------------------------------------------------------- regions


def region_masks(grid: GridSpec) -> dict[str, np.ndarray]:
    """Diagnostic regions: center square, its complement, corner blocks, cross bands.

    Corner blocks are the four axis-aligned squares of side 1/8 of the domain
    width at the corners; they isolate the corner structures from the center
    block. The cross region is the union of the two center bands of half-width
    1/8, where the low-density cross of the reference solutions lives.
    """
    c = cell_centers(grid)
    x, y = c[:, 0], c[:, 1]
    wx, wy = grid.x1 - grid.x0, grid.y1 - grid.y0
    d0 = (
        (x >= grid.x0 + 0.25 * wx)
        & (x <= grid.x1 - 0.25 * wx)
        & (y >= grid.y0 + 0.25 * wy)
        & (y <= grid.y1 - 0.25 * wy)
    )
    near_x = (x < grid.x0 + CORNER_BLOCK_SIDE * wx) | (x > grid.x1 - CORNER_BLOCK_SIDE * wx)
    near_y = (y < grid.y0 + CORNER_BLOCK_SIDE * wy) | (y > grid.y1 - CORNER_BLOCK_SIDE * wy)
    corners = near_x & near_y
    mid_x = np.abs(x - 0.5 * (grid.x0 + grid.x1)) <= CROSS_BAND_HALFWIDTH * wx
    mid_y = np.abs(y - 0.5 * (grid.y0 + grid.y1)) <= CROSS_BAND_HALFWIDTH * wy
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
    rows = values.reshape(grid.ny, grid.nx)
    lines = [",".join(_fmt(v) for v in row) for row in rows]
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
    return values


def density_to_pixels(values: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    if beta > alpha:
        scaled = (values - alpha) / (beta - alpha)
    else:
        scaled = np.zeros_like(values)
    return np.rint(np.clip(scaled, 0.0, 1.0) * 255).astype(int)


def write_density_pgm(path: Path, a: DensityField, alpha: float, beta: float) -> None:
    """8-bit grayscale, [alpha, beta] mapped linearly to [0, 255], top row first."""
    grid = a.grid
    px = density_to_pixels(a.values, alpha, beta).reshape(grid.ny, grid.nx)
    lines = ["P2", f"{grid.nx} {grid.ny}", "255"]
    for j in range(grid.ny - 1, -1, -1):
        lines.append(" ".join(str(v) for v in px[j]))
    path.write_text("\n".join(lines) + "\n")


def write_convergence_log(path: Path, history: list[ConvergenceRecord]) -> None:
    lines = ["iter cost penalized_cost mass gamma step_eps stationarity"]
    for r in history:
        lines.append(
            f"{r.iter} {_fmt(r.cost)} {_fmt(r.penalized_cost)} {_fmt(r.mass)} "
            f"{_fmt(r.gamma)} {_fmt(r.step_eps)} {_fmt(r.stationarity)}"
        )
    path.write_text("\n".join(lines) + "\n")


def read_convergence_log(path: Path) -> list[ConvergenceRecord]:
    lines = path.read_text().splitlines()
    records = []
    for line in lines[1:]:
        parts = line.split()
        records.append(
            ConvergenceRecord(
                iter=int(parts[0]),
                cost=float(parts[1]),
                penalized_cost=float(parts[2]),
                mass=float(parts[3]),
                gamma=float(parts[4]),
                step_eps=float(parts[5]),
                stationarity=float(parts[6]),
            )
        )
    return records


def write_config_echo(path: Path, cfg: RunConfig) -> None:
    lines = [f"{key} = {getattr(cfg, key)}" for key in CONFIG_KEYS]
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
        f"final_penalized_cost {_fmt(h[-1].penalized_cost)}",
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


def run_command(cfg: RunConfig) -> int:
    sset = _build_scenarios(cfg)
    kind = Objective.parse(cfg.objective)
    opt = OptimizerConfig(
        alpha=cfg.alpha,
        beta=cfg.beta,
        mass=cfg.mass,
        gamma_pen=cfg.penalty,
        eps=cfg.eps,
        eps1=cfg.eps1,
        max_iters=cfg.max_iters,
    )
    result = run(opt, sset, kind)
    residual = optimality_residual(
        result.density, result.solutions, kind, PhasePair(cfg.alpha, cfg.beta)
    )

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    write_cell_csv(out / "density.csv", result.density.grid, result.density.values)
    write_density_pgm(out / "density.pgm", result.density, cfg.alpha, cfg.beta)
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
    except (ValueError, ArithmeticError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
