"""The ledger of checked designs: twelve CLI runs whose outcome is pinned.

`tests/designs.json` records, for each design, the argv of `stodesign run`,
its exit code, stop reason, number of convergence records and final cost, and
the SHA-256 of density.csv, density.pgm and residual.csv, with the numpy and
scipy versions that made it. `test_designs.py` runs each design again and
checks it against its record. A change that moves a design regenerates the
file and says which entries moved and why.

Regenerate with: PYTHONPATH=src python3 tests/make_designs.py
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
import tempfile
from pathlib import Path

import numpy as np
import scipy

from stodesign.cli import run_cli

LEDGER = Path(__file__).with_name("designs.json")
SCENFILE = Path(__file__).parents[1] / "perfbench" / "scenfile.py"
HASHED = ("density.csv", "density.pgm", "residual.csv")
SCENARIO_FILE = "{scenarios}"  # stands in an argv for the seed-3 scenario file

# name -> (argv after `run`, whether the outcome hangs on the last bits of the
# arithmetic: then other numpy or scipy versions check only the exit code,
# the stop reason and the record count)
DESIGNS = {
    **{
        f"{preset}-{kind}-64": (["--preset", preset, "--objective", kind], False)
        for kind in ("compliance", "energy")
        for preset in ("deterministic", "case1", "case2")
    },
    "case1-256-max8": (["--preset", "case1", "--nx", "256", "--ny", "256", "--max-iters", "8"], False),
    "scenfile-seed3": (["--preset", "file:" + SCENARIO_FILE], False),
    "case1-37x23-compliance": (["--preset", "case1", "--nx", "37", "--ny", "23"], False),
    "case1-37x23-energy": (
        ["--preset", "case1", "--nx", "37", "--ny", "23", "--objective", "energy"],
        False,
    ),
    "case1-128x16": (["--preset", "case1", "--nx", "128", "--ny", "16"], False),
    # beta/alpha = 1e20: whether it stagnates, where a step's cost decrease
    # rounds away, or converges hangs on the last bits of the arithmetic
    "deterministic-16-energy-alpha1e-20": (
        ["--nx", "16", "--ny", "16", "--objective", "energy", "--alpha", "1e-20"],
        True,
    ),
}


def write_seed3_scenarios(path: Path) -> None:
    """The benchmark's seed-3 scenario file, as `perfbench/scenfile.py 3 PATH` writes it."""
    spec = importlib.util.spec_from_file_location("scenfile", SCENFILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.write_scenario_file(3, path)


def run_design(argv: list[str], workdir: Path) -> dict:
    """Run one design into `workdir` and read back what the ledger records."""
    if any(SCENARIO_FILE in arg for arg in argv):
        scenarios = workdir / "s3.txt"
        write_seed3_scenarios(scenarios)
        argv = [arg.replace(SCENARIO_FILE, str(scenarios)) for arg in argv]
    out = workdir / "out"
    code = run_cli(["run", *argv, "--out", str(out)])
    diagnostics = dict(
        line.split(" ", 1) for line in (out / "diagnostics.txt").read_text().splitlines()
    )
    records = len((out / "convergence.log").read_text().splitlines()) - 1  # header
    return {
        "exit": code,
        "stop_reason": diagnostics["stop_reason"],
        "records": records,
        "final_cost": diagnostics["final_cost"],
        "sha256": {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in HASHED},
    }


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def main() -> None:
    designs = {}
    for name, (argv, rounding) in DESIGNS.items():
        with tempfile.TemporaryDirectory() as tmp:
            designs[name] = {"argv": argv, "rounding_sensitive": rounding, **run_design(argv, Path(tmp))}
        print(name, designs[name]["stop_reason"], designs[name]["records"], designs[name]["final_cost"])
    LEDGER.write_text(json.dumps({**versions(), "designs": designs}, indent=1) + "\n")


if __name__ == "__main__":
    main()
