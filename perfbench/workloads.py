"""The benchmark's workloads: which designs each one runs and what they must give.

A design is one `stodesign run` invocation. Its `problem` names the design
problem it solves, the key of its stored reference optimum in reference.json;
a capped design shares the problem of the uncapped one.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

MASS = 1.5  # the CLI's default mass target, used by every design here
REFERENCE_FILE = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Design:
    preset: str  # deterministic | case1 | case2 | scenfile
    objective: str  # compliance | energy
    n: int = 64
    max_iters: int | None = None
    exit_code: int = 0
    stop_reason: str = "converged"

    @property
    def problem(self) -> str:
        return f"{self.preset}-{self.objective}-{self.n}"

    @property
    def name(self) -> str:
        cap = f"-cap{self.max_iters}" if self.max_iters is not None else ""
        return self.problem + cap

    def argv(self, out: Path, scenario_file: Path | None) -> list[str]:
        """Arguments of `stodesign run` for this design, writing into `out`."""
        preset = f"file:{scenario_file}" if self.preset == "scenfile" else self.preset
        args = ["run", "--preset", preset, "--objective", self.objective]
        if self.preset != "scenfile":  # a scenario file carries its own grid
            args += ["--nx", str(self.n), "--ny", str(self.n)]
        if self.max_iters is not None:
            args += ["--max-iters", str(self.max_iters)]
        return args + ["--out", str(out)]


WORKLOADS: dict[str, list[Design]] = {
    # The paper's six reference designs at default flags: per-call overhead,
    # assembly and the residual weigh most here, and stopping-rule changes show.
    "ref64-six": [
        Design(preset, objective)
        for preset in ("deterministic", "case1", "case2")
        for objective in ("compliance", "energy")
    ],
    # A fixed iterate count at 256^2: CG and the per-cell residual dominate, and
    # stopping-rule changes do not apply.
    "case1-256-capped": [
        Design("case1", "compliance", n=256, max_iters=8, exit_code=2, stop_reason="max_iters")
    ],
    # K = 16 scenarios of rank 3 read from a generated file: the only workload
    # whose solve count grows with K rather than with the load rank.
    "scenfile-64-k16": [Design("scenfile", "compliance")],
}


def needs_scenario_file(workload: str) -> bool:
    return any(d.preset == "scenfile" for d in WORKLOADS[workload])


def load_reference() -> dict[str, float]:
    """Stored reference optimum cost per problem."""
    problems = json.loads(REFERENCE_FILE.read_text())["problems"]
    return {name: entry["cost"] for name, entry in problems.items()}
