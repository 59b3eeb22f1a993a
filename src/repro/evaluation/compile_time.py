"""Figure 6: compilation-time speedup over the LLVM baseline.

Each flow is wall-clock timed as instruction selection followed by the
downstream backend model (:mod:`repro.machine.backend_passes`), whose
running time scales with the amount of IR each selector emits.  Neither
compile flow runs that model itself; :func:`measure_one` runs it on each
flow's output, identically, inside the timed region.  PITCHFORK emits
coarser (hence less) IR, so despite doing extra lift/lower work it
compiles most benchmarks at least as fast — with the biggest win on
softmax, whose primitive spelling is enormous (§5.2).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..machine.backend_passes import run_backend_passes
from ..passes import CompileStats
from ..pipeline import LLVMCompileError, llvm_compile, pitchfork_compile
from ..targets import ARM, HVX, X86, Target
from ..workloads import Workload, all_workloads

__all__ = [
    "CompileTimeResult",
    "CompileTimeEvaluation",
    "aggregate_pass_breakdown",
    "format_pass_breakdown",
    "run_compile_time_evaluation",
]


@dataclass
class CompileTimeResult:
    workload: str
    target: str
    llvm_seconds: float
    pitchfork_seconds: float
    #: per-pass breakdown of one representative PITCHFORK compile
    stats: Optional[CompileStats] = None

    @property
    def speedup(self) -> float:
        return self.llvm_seconds / self.pitchfork_seconds


@dataclass
class CompileTimeEvaluation:
    """A batch of Figure 6 measurements with table/JSON renderings."""

    results: List[CompileTimeResult] = field(default_factory=list)

    def geomean_speedup(self, target_name: str) -> float:
        """Geometric-mean compile-time speedup on one target."""
        vals = [
            r.speedup for r in self.results if r.target == target_name
        ]
        return math.exp(sum(math.log(v) for v in vals) / len(vals))

    def to_dict(self) -> dict:
        """Machine-readable snapshot (the ``BENCH_fig6.json`` payload)."""
        out: dict = {
            "results": [
                {
                    "workload": r.workload,
                    "target": r.target,
                    "llvm_seconds": r.llvm_seconds,
                    "pitchfork_seconds": r.pitchfork_seconds,
                    "speedup": r.speedup,
                    "stats": None if r.stats is None else r.stats.to_dict(),
                }
                for r in self.results
            ],
            "geomean_speedup": {},
            "pass_breakdown": aggregate_pass_breakdown(self.results),
        }
        for t in sorted({r.target for r in self.results}):
            try:
                out["geomean_speedup"][t] = self.geomean_speedup(t)
            except (ValueError, ZeroDivisionError):  # pragma: no cover
                pass
        return out

    def format_table(self) -> str:
        by_wl: Dict[str, Dict[str, CompileTimeResult]] = {}
        for r in self.results:
            by_wl.setdefault(r.workload, {})[r.target] = r
        lines = [f"{'benchmark':<16} {'x86':>6} {'ARM':>6} {'HVX':>6}"]
        for wl, per in by_wl.items():
            row = [f"{wl:<16}"]
            for t in ("x86-avx2", "arm-neon", "hexagon-hvx"):
                r = per.get(t)
                row.append(f"{r.speedup:>6.2f}" if r else f"{'-':>6}")
            lines.append(" ".join(row))
        lines.append("-" * 40)
        for t in ("x86-avx2", "arm-neon", "hexagon-hvx"):
            try:
                lines.append(f"geomean {t}: {self.geomean_speedup(t):.2f}x")
            except (ValueError, ZeroDivisionError):
                pass
        return "\n".join(lines)


def aggregate_pass_breakdown(
    results: List[CompileTimeResult],
) -> Dict[str, Dict[str, float]]:
    """Sum per-pass wall time and rewrite counts across results.

    Returns ``{pass_name: {"seconds": ..., "rewrites": ...}}`` in pipeline
    order, aggregated over every result that carries a
    :class:`~repro.passes.CompileStats`.
    """
    agg: Dict[str, Dict[str, float]] = {}
    for r in results:
        if r.stats is None:
            continue
        for p in r.stats.passes:
            slot = agg.setdefault(p.name, {"seconds": 0.0, "rewrites": 0})
            slot["seconds"] += p.seconds
            slot["rewrites"] += p.rewrites
    return agg


def format_pass_breakdown(results: List[CompileTimeResult]) -> str:
    """Render the aggregated per-pass breakdown as a small table."""
    agg = aggregate_pass_breakdown(results)
    if not agg:
        return "(no per-pass stats collected)"
    total = sum(v["seconds"] for v in agg.values())
    lines = [f"{'pass':<14} {'ms':>9} {'share':>6} {'rewrites':>9}"]
    for name, v in agg.items():
        share = v["seconds"] / total if total else 0.0
        lines.append(
            f"{name:<14} {v['seconds'] * 1000:>9.1f} {share:>5.0%} "
            f"{int(v['rewrites']):>9}"
        )
    lines.append(f"{'total':<14} {total * 1000:>9.1f}")
    return "\n".join(lines)


def _timed_best_of(fn, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_one(
    wl: Workload,
    target: Target,
    repeats: int = 3,
    lift_strategy: str = "greedy",
) -> CompileTimeResult:
    """Best-of-N wall-clock compile times for both flows on one case.

    Each timed repeat is one selection plus one run of the downstream
    backend model over the program it emitted, for both flows alike.
    """
    last_stats: List[Optional[CompileStats]] = [None]

    def do_pf():
        prog = pitchfork_compile(
            wl.expr,
            target,
            var_bounds=wl.var_bounds,
            lift_strategy=lift_strategy,
        )
        run_backend_passes(prog.lowered)
        last_stats[0] = prog.stats

    def do_llvm():
        try:
            prog = llvm_compile(wl.expr, target, var_bounds=wl.var_bounds)
        except LLVMCompileError:
            prog = llvm_compile(
                wl.expr, target, var_bounds=wl.var_bounds, q31_fallback=True
            )
        run_backend_passes(prog.lowered)

    return CompileTimeResult(
        workload=wl.name,
        target=target.name,
        llvm_seconds=_timed_best_of(do_llvm, repeats),
        pitchfork_seconds=_timed_best_of(do_pf, repeats),
        stats=last_stats[0],
    )


def run_compile_time_evaluation(
    workload_names: Optional[List[str]] = None,
    targets: Optional[List[Target]] = None,
    repeats: int = 3,
    jobs: int = 1,
    lift_strategy: str = "greedy",
    metrics=None,
    tracer=None,
) -> CompileTimeEvaluation:
    """Run the Figure 6 compile-time sweep.

    Each (workload, target) cell is one fabric task; with ``jobs > 1``
    the cells time themselves in separate worker processes.  Timing
    cells are never cached — a stale wall-clock number is worse than no
    number — so there is no ``cache`` parameter here.  ``metrics`` /
    ``tracer`` observe the sweep itself (per-flow ``compile_seconds``
    histograms, task spans); the timed compiles stay uninstrumented.
    """
    from ..fabric import TaskSpec, run_tasks

    wls = all_workloads()
    if workload_names is not None:
        wls = [w for w in wls if w.name in set(workload_names)]
    tgts = targets if targets is not None else [X86, ARM, HVX]
    specs = [
        TaskSpec(
            "compile-time",
            key=(wl.name, tgt.name),
            params=(repeats, lift_strategy),
        )
        for wl in wls
        for tgt in tgts
    ]
    ev = CompileTimeEvaluation()
    for res in run_tasks(specs, jobs=jobs, metrics=metrics, tracer=tracer):
        if not res.ok:
            raise RuntimeError(
                f"compile-time cell {res.spec.key} failed: {res.error}"
            )
        v = res.value
        ev.results.append(
            CompileTimeResult(
                workload=res.spec.key[0],
                target=res.spec.key[1],
                llvm_seconds=v["llvm_seconds"],
                pitchfork_seconds=v["pitchfork_seconds"],
                stats=None
                if v["stats"] is None
                else CompileStats.from_dict(v["stats"]),
            )
        )
    return ev
