"""Outside-in spans around stodesign's layers.

Modules import their collaborators with `from .x import y`, so a function is
wrapped where it is looked up: `stodesign.solve.cg_solve`, not
`stodesign.cg.cg_solve`. Each call records a span (name, start, end, parent);
a span's self time is its duration minus the durations of its children. The
benchmark is single-threaded, so children never overlap and their union is
their sum.

Which end-to-end metric each layer should move, and where (shares measured
on a 2-core x86_64 machine before any performance work):
    cg          run_s on case1-256-capped and scenfile-64-k16 (CG is 70-80%
                of them), less on ref64-six (about 50%)
    fem         run_s on ref64-six (assembly about 22%); about 1-2% of
                scenfile-64-k16, so no change there
    solve       run_s on scenfile-64-k16
    scenarios   setup_s and run_s on scenfile-64-k16, the one file workload
    objective   run_s on scenfile-64-k16 (sums over K = 16 scenarios)
    optimizer   run_s and cost_gap_rel on ref64-six and scenfile-64-k16; no
                change on case1-256-capped, whose iterate count is fixed
    gclosure    run_s on case1-256-capped (about 20%) and ref64-six (13%)
    cli         run_s on case1-256-capped (under 1%)
The counts cg.iters, cg.solves, optimizer.iterates and optimizer.trials
repeat exactly from run to run.
"""
from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from statistics import mean

# (module, attribute, span name): every binding site the design loop calls through.
BINDINGS = [
    ("stodesign.solve", "cg_solve", "cg.solve"),
    ("stodesign.solve", "assemble_stiffness", "fem.assemble"),
    ("stodesign.solve", "assemble_load", "fem.load"),
    ("stodesign.solve", "cell_gradients", "fem.fields"),
    ("stodesign.objective", "cell_grad_dot", "fem.fields"),
    ("stodesign.objective", "cell_averages", "fem.fields"),
    ("stodesign.objective", "stiffness_energy", "fem.fields"),
    ("stodesign.optimizer", "solve_state", "solve.state"),
    ("stodesign.solve", "solve_state", "solve.state"),
    ("stodesign.optimizer", "solve_adjoint", "solve.adjoint"),
    ("stodesign.cli", "load_scenario_file", "scenarios.load"),
    ("stodesign.solve", "validate", "scenarios.validate"),
    ("stodesign.scenarios", "validate", "scenarios.validate"),
    ("stodesign.optimizer", "cost", "objective.cost"),
    ("stodesign.optimizer", "gradient_density", "objective.gradient"),
    ("stodesign.optimizer", "update", "optimizer.update"),
    ("stodesign.cli", "run", "optimizer.run"),
    ("stodesign.cli", "optimality_residual", "gclosure.residual"),
    *(
        ("stodesign.cli", f"write_{what}", "cli.write")
        for what in (
            "density_csv",
            "density_pgm",
            "residual_csv",
            "convergence_log",
            "diagnostics",
            "config_echo",
        )
    ),
]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index into Tracer.spans
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass
class Tracer:
    """Spans and counters of one traced repetition, and the wrappers that record them."""

    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    cg_iterations: list[int] = field(default_factory=list)
    cg_unconverged: int = 0
    cg_flops: int = 0
    trials: int = 0
    iterates: int = 0
    unbound: list[str] = field(default_factory=list)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.duration

    def wrap(self, fn, name: str):
        observe = {"cg.solve": self._observe_cg, "optimizer.update": self._observe_update}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "optimizer.update":
                args = self._count_trials(args)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding site that exists; note the ones that do not."""
        for module_name, attr, name in BINDINGS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.unbound.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _count_trials(self, args: tuple) -> tuple:
        # update(a, g, cfg, evaluate, current_value): every evaluate call is a trial step
        evaluate = args[3]

        def counted(trial):
            self.trials += 1
            return evaluate(trial)

        return (*args[:3], counted, *args[4:])

    def _observe_update(self, args, result) -> None:
        if result[2] > 0.0:  # accepted step scale; 0.0 means stagnation
            self.iterates += 1

    def _observe_cg(self, args, result) -> None:
        K, report = args[0], result[1]
        n = len(result[0])
        self.cg_iterations.append(report.iterations)
        self.cg_unconverged += not report.converged
        # computed, not counted: one iteration of cg_solve's loop does an SpMV
        # (2 nnz), three inner products or norms and three axpys (2n each) and
        # the Jacobi scaling (n)
        self.cg_flops += report.iterations * (2 * len(K.data) + 13 * n)

    def self_times(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.self_time
        return totals

    def calls(self, name: str) -> int:
        return sum(span.name == name for span in self.spans)

    def metrics(self) -> dict[str, float]:
        """Per-layer totals of everything recorded so far."""
        t = self.self_times()
        its = self.cg_iterations
        cg_s = t.get("cg.solve", 0.0)
        return {
            "cg.solve_s": cg_s,
            "cg.solves": len(its),
            "cg.iters": sum(its),
            "cg.iters_per_solve_mean": mean(its) if its else 0.0,
            "cg.iters_per_solve_max": max(its, default=0),
            "cg.unconverged": self.cg_unconverged,
            "cg.gflops_computed": self.cg_flops / cg_s / 1e9 if cg_s > 0 else 0.0,
            "fem.assemble_s": t.get("fem.assemble", 0.0),
            "fem.assemble_calls": self.calls("fem.assemble"),
            "fem.load_s": t.get("fem.load", 0.0),
            "fem.fields_s": t.get("fem.fields", 0.0),
            "solve.state_self_s": t.get("solve.state", 0.0),
            "solve.state_calls": self.calls("solve.state"),
            "solve.adjoint_self_s": t.get("solve.adjoint", 0.0),
            "scenarios.load_s": t.get("scenarios.load", 0.0),
            "scenarios.validate_s": t.get("scenarios.validate", 0.0),
            "scenarios.validate_calls": self.calls("scenarios.validate"),
            "objective.cost_s": t.get("objective.cost", 0.0),
            "objective.gradient_s": t.get("objective.gradient", 0.0),
            "optimizer.iterates": self.iterates,
            "optimizer.trials": self.trials,
            "optimizer.accept_ratio": self.iterates / self.trials if self.trials else 0.0,
            "optimizer.update_self_s": t.get("optimizer.update", 0.0),
            "optimizer.run_self_s": t.get("optimizer.run", 0.0),
            "gclosure.residual_s": t.get("gclosure.residual", 0.0),
            "cli.write_s": t.get("cli.write", 0.0),
        }
