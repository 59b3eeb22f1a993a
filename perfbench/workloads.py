"""The ``cold-cli`` and ``sweep`` workloads (closed loops).

Each workload function takes ``(seed, seconds, trace)`` and returns a
:class:`Run`: the checked outcome, the end-to-end metrics (``trace``
off) or the per-layer metrics (``trace`` on), and report lines that
give each metric's descriptive name on the workload
(``cold_compile_p50_ms`` and so on).
"""

from __future__ import annotations

import resource
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

from . import layers
from .checks import (
    PAPER_TARGETS,
    Reference,
    all_cells,
    code_quality,
    lane_mismatch,
    lane_sample,
    listing_mismatch,
    paper_cells,
    parse_listing,
    program_mismatch,
    expected_outputs,
)
from .harness import (
    PY, REFERENCE_MS, WORK_MS, Outcome, Spans, beyond, interpreter_start,
    metric_map, probe, python_work, quantile, run_child, seeded_passes,
)

#: set-ups timed per run for ``setup_s`` (the median is reported)
SETUP_RUNS = 24
#: ``compile_tail_ms`` is a fixed percentile over per-cell times, so a
#: change that alters the sample count compares like with like: the one
#: with 10 cells beyond, p79 of the 48 paper cells (cold-cli) and p89 of
#: all 96 (sweep); p75 of the 96 on serve-mix, where each cell has only
#: 4 misses per run to take the fastest of, and p89 over them spread by
#: 11% of its median from seed to seed, p75 by 4%
TAIL_Q = {"cold-cli": 0.79, "sweep": 0.89, "serve-mix": 0.75}


class Run:
    """One workload run: outcome, metrics and human-readable notes."""

    def __init__(self, workload: str):
        self.workload = workload
        self.outcome = Outcome()
        self.metrics: Dict[str, float] = {}
        self.notes: List[str] = []
        self.spans = Spans()

    def timing(self, per_cell_ms: Sequence[float]) -> None:
        """``p50_ms``, ``compile_tail_ms`` and ``ops_per_s`` from one
        time per cell (ms)."""
        q = TAIL_Q[self.workload]
        self.metrics["p50_ms"] = statistics.median(per_cell_ms)
        self.metrics["compile_tail_ms"] = quantile(per_cell_ms, q)
        self.metrics["ops_per_s"] = len(per_cell_ms) / sum(per_cell_ms) * 1e3
        self.notes.append(
            f"compile tail = p{q * 100:g} of {len(per_cell_ms)} cells, "
            f"{beyond(len(per_cell_ms), q)} beyond"
        )

    def quality(self, per_cell: Dict[Tuple[str, str], Tuple[float, int]]) -> None:
        cycles, instrs = code_quality(per_cell)
        self.metrics["cycles_geomean"] = cycles
        self.metrics["instructions_total"] = instrs
        self.notes.append(f"code quality over {len(per_cell)} distinct cells")

    def check_reference(self, ref: Reference, seed: int) -> None:
        """Count the reference compiles and a seeded lane-exact sample."""
        for cell in ref.cells:
            self.outcome.record(ref.problems[cell])
        for cell in lane_sample(ref.cells, seed):
            self.outcome.record(lane_mismatch(cell, ref.progs[cell], seed))


class SetupTimer:
    """``SETUP_RUNS`` fresh processes, each timed from start to a warm
    ``CompilerSession`` for ``targets``, spread evenly over ``seconds``.

    A process start slows by 20-50% with the host's load, for minutes at
    a time, so each set-up is divided by a bare interpreter start timed
    right before it (:func:`~perfbench.harness.interpreter_start`) and
    the median is reported, scaled by ``REFERENCE_MS`` to read as
    seconds.  The caller runs :meth:`due` from its loop; :meth:`result`
    runs whatever probes remain.
    """

    def __init__(self, targets: Sequence[str], seconds: float):
        self.targets = ",".join(targets)
        self.every = seconds / SETUP_RUNS
        self.start = time.perf_counter()
        self.ratios: List[float] = []
        self.warm: List[float] = []

    def _probe(self) -> None:
        reference_s = interpreter_start()
        wall, row = probe("warm", self.targets)
        self.ratios.append(wall / reference_s)
        self.warm.append(row["warm_up_s"])

    def due(self) -> None:
        """Run the next probe if its time has come."""
        elapsed = time.perf_counter() - self.start
        if len(self.ratios) < SETUP_RUNS and elapsed >= len(self.ratios) * self.every:
            self._probe()

    def result(self) -> Tuple[float, float]:
        """Median set-up seconds (normalised) and fastest warm-up ms."""
        while len(self.ratios) < SETUP_RUNS:
            self._probe()
        return (
            statistics.median(self.ratios) * REFERENCE_MS / 1e3,
            min(self.warm) * 1e3,
        )


def layer_defaults() -> Dict[str, float]:
    """Every per-layer metric at 0: what a workload that bypasses a
    layer reports for it."""
    return {name: 0.0 for name in metric_map()["per_layer"]}


def traced_layers(run: Run, cells, cold_p50_ms: Optional[float]) -> None:
    """The per-layer metrics every traced run measures."""
    run.metrics = layer_defaults()
    try:
        if cells:
            run.metrics.update(layers.selector_layers(cells, run.spans))
        run.outcome.record(None)
    except layers.ReplayMismatch as exc:
        run.outcome.record(str(exc))
    run.metrics.update(layers.llvm_layers(run.spans))
    run.metrics.update(layers.import_layers(cold_p50_ms))


# ----------------------------------------------------------------------
def cold_cli(seed: int, seconds: float, trace: bool) -> Run:
    """One-shot ``python -m repro compile`` processes, one at a time.

    Seed-ordered passes over the 48 paper cells; the run always finishes
    the first pass so every cell's listing is checked each run.  Each
    compile runs right after a bare interpreter start, the host-speed
    reference (see :func:`~perfbench.harness.interpreter_start`).
    """
    run = Run("cold-cli")
    ref = Reference(paper_cells())
    run.check_reference(ref, seed)

    walls: List[float] = []
    best: Dict[Tuple[str, str], float] = {}
    ratios: Dict[Tuple[str, str], List[float]] = {}
    rss_kb: List[int] = []
    quality = {}
    setup = SetupTimer(PAPER_TARGETS, seconds)
    start = time.perf_counter()
    for order in seeded_passes(ref.cells, seed, "cold-cli"):
        for cell in order:
            if time.perf_counter() - start >= seconds and len(walls) >= len(ref.cells):
                break
            setup.due()
            reference_s = interpreter_start()
            res = run_child(
                [PY, "-m", "repro", "compile", cell[0], "--target", cell[1]]
            )
            walls.append(res.wall_s)
            best[cell] = min(res.wall_s, best.get(cell, res.wall_s))
            ratios.setdefault(cell, []).append(res.wall_s / reference_s)
            rss_kb.append(res.maxrss_kb)
            if res.returncode != 0:
                problem = f"{cell}: exit {res.returncode}: {res.output[-300:]}"
            else:
                problem = listing_mismatch(
                    cell, res.output, ref.listings[cell] + "\n\n"
                )
            if run.outcome.record(problem) and cell not in quality:
                quality[cell] = parse_listing(res.output)
        else:
            continue
        break
    run.metrics["setup_s"], _ = setup.result()

    if trace:
        traced_layers(run, ref.cells, statistics.median(best.values()) * 1e3)
        return run
    # The host's load slows a process start by 20-50% for minutes at a
    # time, far more than the program's own work varies, and no
    # statistic over one run's samples removes a slowdown that lasts the
    # whole run.  An interpreter start right before each compile slows
    # with it, so each cell's time is the median of its compiles, each
    # in interpreter starts, scaled to read as ms (REFERENCE_MS)
    run.timing([
        statistics.median(r) * REFERENCE_MS for r in ratios.values()
    ])
    run.notes.append(
        f"per-cell times: median of {len(walls)} compiles over "
        f"{len(ratios)} cells, each / the interpreter start before it "
        f"x {REFERENCE_MS:g} ms; raw median per-cell fastest "
        f"{statistics.median(best.values()) * 1e3:.1f} ms"
    )
    run.metrics["peak_rss_mb"] = statistics.median(rss_kb) / 1024
    run.quality(quality)
    return run


# ----------------------------------------------------------------------
def sweep(seed: int, seconds: float, trace: bool) -> Run:
    """A warm in-process sweep: all 96 cells per pass, seed-shuffled.

    Closed loop; whole passes only, so every cell is compiled equally
    often.  Each compile is checked by identity against the reference
    program (hash-consing makes equal programs the same object), with
    the full golden comparison as the fallback.
    """
    from repro.pipeline import pitchfork_compile
    from repro.targets import ALL_TARGETS
    from repro.targets import by_name as target_by_name
    from repro.workloads import by_name

    run = Run("sweep")
    ref = Reference(all_cells())
    run.check_reference(ref, seed)
    expected = expected_outputs()

    compiles = 0
    ratios: Dict[Tuple[str, str], List[float]] = {}
    references: List[float] = []
    setup = SetupTimer(list(ALL_TARGETS), seconds)
    start = time.perf_counter()
    for order in seeded_passes(ref.cells, seed, "sweep"):
        if time.perf_counter() - start >= seconds:
            break
        references.append(min(python_work() for _ in range(3)))
        for cell in order:
            setup.due()
            wl = by_name(cell[0])
            target = target_by_name(cell[1])
            t0 = time.perf_counter()
            prog = pitchfork_compile(wl.expr, target, var_bounds=wl.var_bounds)
            elapsed = time.perf_counter() - t0
            compiles += 1
            ratios.setdefault(cell, []).append(elapsed / references[-1])
            same = prog.lowered is ref.progs[cell].lowered
            run.outcome.record(
                None if same else program_mismatch(cell, prog, expected)
            )

    run.metrics["setup_s"], warm_up_ms = setup.result()

    if trace:
        traced_layers(run, ref.cells, None)
        run.metrics["session.warm_up_ms"] = warm_up_ms
        return run
    # Host load slows the CPU by 10-40%, in bursts and for minutes at a
    # time, which no statistic over one run's samples removes (each
    # cell's fastest compile spread by 6-15% over ten seeds).  A fixed
    # piece of pure-Python work timed right before each pass slows with
    # it, so each compile is divided by its pass's, and each cell's time
    # is the median of those ratios, scaled to read as ms (WORK_MS): over
    # eight seeds they spread by 2-3%, the fastest compiles by 6%
    run.timing([
        statistics.median(r) * WORK_MS for r in ratios.values()
    ])
    run.notes.append(
        f"per-cell times: median of {compiles // len(ratios)} compiles, "
        f"each / the reference work before its pass (median "
        f"{statistics.median(references) * 1e3:.3f} ms) x {WORK_MS:g} ms"
    )
    run.metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    run.quality(ref.quality())
    return run
