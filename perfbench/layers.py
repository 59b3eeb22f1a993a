"""The traced run: per-layer metrics measured from outside the program.

Each layer is timed by calling its public entry point directly and
wrapping the call in a span (see :class:`~perfbench.harness.Spans`):

* ``canonicalize_counted`` -> ``Lifter.rewrite`` -> ``Lowerer.lower`` ->
  ``run_backend_passes``: the four passes ``pitchfork_compile`` runs, in
  its order, on the same compiler objects' rule sets.  Each replayed
  program must be the very (hash-consed) object ``pitchfork_compile``
  returns, or the per-layer numbers would describe another program.
* ``cost_cycles`` and ``compile_listing``: the cost model and listing.
* the LLVM baseline's selection and backend over the 48 paper cells.
* cold-process probes for the import split and compiler construction.

Work counters come from ``CompileStats`` and an
``Observation.quiet(metrics=...)`` pass; they depend only on the cells,
so they repeat exactly from run to run.
"""

from __future__ import annotations

import re
import statistics
import time
from typing import Dict, List, Optional, Sequence

from .checks import Cell, cell_key, paper_cells
from .harness import (
    INTERPRETER, PY, Spans, median_child_seconds, probe, run_child,
)

#: cumulative ``-X importtime`` rows reported as ``import.<name>_ms``
IMPORT_MODULES = (
    "repro.fabric", "repro.analysis", "repro.machine", "repro.observe",
    "repro.lifting", "numpy",
)
#: replays of the cell set timed by :func:`selector_layers`
SELECTOR_PASSES = 3
#: passes of the LLVM baseline over the 48 paper cells
LLVM_PASSES = 2
#: fresh interpreters timed per cold-start probe
PROBE_RUNS = 5
_IMPORTTIME = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)$")


class ReplayMismatch(Exception):
    """The direct-call sequence built a different program."""


def selector_layers(cells: Sequence[Cell], spans: Spans) -> Dict[str, float]:
    """Time canonicalize/lift/lower/backend/cost/listing per cell.

    Times are mean milliseconds per compiled cell; counters are totals
    over one pass of ``cells``.  Raises :class:`ReplayMismatch` if a
    replayed program differs from ``pitchfork_compile``'s.
    """
    from repro.analysis import BoundsAnalyzer
    from repro.lifting.canonicalize import canonicalize_counted
    from repro.machine.backend_passes import run_backend_passes
    from repro.machine.simulator import cost_cycles
    from repro.pipeline import CompiledProgram, PitchforkCompiler, pitchfork_compile
    from repro.session import compile_listing
    from repro.targets import by_name as target_by_name
    from repro.workloads import by_name

    compilers = {}
    untraced: List[float] = []
    traced: List[float] = []
    overhead: List[float] = []
    for _ in range(SELECTOR_PASSES):
        for cell in cells:
            wl = by_name(cell[0])
            target = target_by_name(cell[1])
            comp = compilers.get(cell[1])
            if comp is None:
                comp = compilers[cell[1]] = PitchforkCompiler(target)
            rid = cell_key(cell)
            t0 = time.perf_counter()
            prog = pitchfork_compile(wl.expr, target, var_bounds=wl.var_bounds)
            untraced.append(time.perf_counter() - t0)
            stats = prog.stats
            overhead.append(
                stats.total_seconds - sum(p.seconds for p in stats.passes)
            )
            t0 = time.perf_counter()
            with spans.span("compile", rid):
                with spans.span("canonicalize", rid):
                    canon, _ = canonicalize_counted(wl.expr)
                with spans.span("lift", rid):
                    lifted = comp.lifter.rewrite(
                        canon, BoundsAnalyzer(wl.var_bounds)
                    ).expr
                with spans.span("lower", rid):
                    lowered = comp.lowerer.lower(
                        lifted, BoundsAnalyzer(wl.var_bounds)
                    )
                with spans.span("backend", rid):
                    run_backend_passes(lowered)
            traced.append(time.perf_counter() - t0)
            if lowered is not prog.lowered:
                raise ReplayMismatch(
                    f"{rid}: direct calls lowered a different program "
                    f"than pitchfork_compile"
                )
            with spans.span("cost_model", rid):
                cost_cycles(lowered, target)
            with spans.span("listing", rid):
                compile_listing(
                    CompiledProgram(
                        source=wl.expr, lifted=lifted, lowered=lowered,
                        target=target, compiler="pitchfork",
                    ),
                    wl.name,
                )
    n = len(untraced)
    self_s = spans.self_seconds()

    def layer_ms(name: str) -> float:
        total, _ = self_s.get(name, (0.0, 0))
        return total * 1e3 / n

    out = {
        "passes.manager_overhead_ms": sum(overhead) * 1e3 / n,
        "canonicalize.ms": layer_ms("canonicalize"),
        "lift.ms": layer_ms("lift"),
        "lower.ms": layer_ms("lower"),
        "backend.ms": layer_ms("backend"),
        "cost_model.ms": layer_ms("cost_model"),
        "listing.ms": layer_ms("listing"),
        "trace.untraced_ms": sum(untraced) * 1e3 / n,
        "trace.traced_ms": sum(traced) * 1e3 / n,
    }
    out["trace.overhead_ratio"] = (
        out["trace.traced_ms"] / out["trace.untraced_ms"]
    )
    out.update(work_counters(cells, compilers))
    return out


def work_counters(cells: Sequence[Cell], compilers=None) -> Dict[str, float]:
    """Deterministic work counts over one pass of ``cells``."""
    from repro.analysis import BoundsAnalyzer
    from repro.lifting.canonicalize import canonicalize_counted
    from repro.observe import MetricsRegistry, Observation
    from repro.pipeline import PitchforkCompiler, pitchfork_compile
    from repro.targets import by_name as target_by_name
    from repro.workloads import by_name

    compilers = {} if compilers is None else compilers
    reg = MetricsRegistry()
    sums = {
        "canonicalize.rewrites": 0, "canonicalize.nodes_out": 0,
        "lift.rewrites": 0, "lift.nodes_out": 0,
        "lower.rewrites": 0, "lower.nodes_out": 0,
    }
    for cell in cells:
        wl = by_name(cell[0])
        target = target_by_name(cell[1])
        comp = compilers.get(cell[1])
        if comp is None:
            comp = compilers[cell[1]] = PitchforkCompiler(target)
        stats = pitchfork_compile(
            wl.expr, target, var_bounds=wl.var_bounds
        ).stats
        for layer in ("canonicalize", "lift", "lower"):
            sums[f"{layer}.rewrites"] += stats[layer].rewrites
            sums[f"{layer}.nodes_out"] += stats[layer].nodes_out
        obs = Observation.quiet(metrics=reg)
        canon, _ = canonicalize_counted(wl.expr)
        lifted = comp.lifter.rewrite(
            canon, BoundsAnalyzer(wl.var_bounds), obs=obs
        ).expr
        comp.lowerer.lower_with_stats(
            lifted, BoundsAnalyzer(wl.var_bounds), obs=obs
        )
    out: Dict[str, float] = dict(sums)
    for phase in ("lift", "lower"):
        hit = reg.counter_value("memo", phase=phase, outcome="hit")
        miss = reg.counter_value("memo", phase=phase, outcome="miss")
        out[f"{phase}.match_admitted"] = reg.counter_value(
            "match_index", phase=phase, outcome="hit"
        )
        out[f"{phase}.match_pruned"] = reg.counter_value(
            "match_index", phase=phase, outcome="miss"
        )
        out[f"{phase}.memo_lookups"] = hit + miss
        out[f"{phase}.memo_hit_ratio"] = hit / (hit + miss) if hit + miss else 0.0
    out["lift.cost_rejected"] = reg.counter_value("cost_rejected", phase="lift")
    out["lift.fixpoint_passes"] = reg.histogram(
        "fixpoint_passes", phase="lift"
    ).total
    return out


def llvm_layers(spans: Spans) -> Dict[str, float]:
    """The LLVM baseline over the 48 paper cells (reference rows)."""
    from repro.analysis import BoundsAnalyzer
    from repro.machine.backend_passes import run_backend_passes
    from repro.machine.llvm_baseline import LLVMBaseline, LLVMCompileError
    from repro.targets import by_name as target_by_name
    from repro.workloads import by_name

    baselines = {}

    def baseline(target, q31):
        key = (target.name, q31)
        if key not in baselines:
            baselines[key] = LLVMBaseline(target, allow_q31_substitution=q31)
        return baselines[key]

    cells = paper_cells()
    for _ in range(LLVM_PASSES):
        for cell in cells:
            wl = by_name(cell[0])
            target = target_by_name(cell[1])
            rid = cell_key(cell)
            plain, q31 = baseline(target, False), baseline(target, True)
            with spans.span("llvm.select", rid):
                try:
                    lowered = plain.compile(
                        wl.expr, BoundsAnalyzer(wl.var_bounds)
                    )
                except LLVMCompileError:
                    lowered = q31.compile(
                        wl.expr, BoundsAnalyzer(wl.var_bounds)
                    )
            with spans.span("llvm.backend", rid):
                run_backend_passes(lowered)
    self_s = spans.self_seconds()
    n = LLVM_PASSES * len(cells)
    return {
        "llvm.select_ms": self_s["llvm.select"][0] * 1e3 / n,
        "llvm.backend_ms": self_s["llvm.backend"][0] * 1e3 / n,
    }


def import_layers(cold_p50_ms: Optional[float]) -> Dict[str, float]:
    """Cold-start split, from fresh child interpreters.

    ``cli.main_ms`` is the cold ``python -m repro compile`` median minus
    interpreter start, ``import repro`` and the first build + compile +
    listing; it is 0 for workloads that run no one-shot CLI.
    """
    probe_cells = [("add", "arm-neon"), ("sobel3x3", "x86-avx2"),
                   ("softmax", "hexagon-hvx")]
    rows = [probe("cold", *probe_cells[i % len(probe_cells)])[1]
            for i in range(PROBE_RUNS)]

    def med(key: str) -> float:
        return statistics.median(r[key] for r in rows) * 1e3

    out = {
        "import.interpreter_ms":
            median_child_seconds(INTERPRETER, PROBE_RUNS) * 1e3,
        "import.repro_ms": med("import_s"),
        "pipeline.build_ms": med("build_s"),
    }
    cumulative: Dict[str, List[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(3):
        res = run_child([PY, "-X", "importtime", "-c", "import repro"])
        seen = {}
        for line in res.output.splitlines():
            m = _IMPORTTIME.match(line)
            if m:
                seen[m.group(2)] = int(m.group(1)) / 1e3
        for mod in IMPORT_MODULES:
            # a module import repro never loads costs it nothing
            cumulative[mod].append(seen.get(mod, 0.0))
    for mod, values in cumulative.items():
        out[f"import.{mod}_ms"] = statistics.median(values)
    first_compile = med("build_s") + med("compile_s") + med("listing_s")
    out["cli.main_ms"] = (
        cold_p50_ms - out["import.interpreter_ms"] - out["import.repro_ms"]
        - first_compile
        if cold_p50_ms is not None
        else 0.0
    )
    return out
