"""Output checks: every benchmark result is compared to a fixed point.

* the 48 paper cells (16 workloads x 3 paper targets) against
  ``tests/passes/golden_seed.json``;
* the other 48 cells (3 further targets) against ``extra_cells.json``,
  recorded by ``perfbench/snapshot.py`` from the commit that added the
  benchmark;
* listings byte-for-byte against the in-process ``compile_listing``;
* a seeded sample of programs lane-exactly against
  ``repro.interp.evaluate_reference``.
"""

from __future__ import annotations

import os
import re
from typing import Dict, List, Optional, Sequence, Tuple

from .harness import BENCH_DIR, ROOT, geomean, load_json, rng

GOLDEN_PATH = os.path.join(ROOT, "tests", "passes", "golden_seed.json")
SNAPSHOT_PATH = os.path.join(BENCH_DIR, "extra_cells.json")

PAPER_TARGETS = ("x86-avx2", "arm-neon", "hexagon-hvx")

#: programs per run executed against the reference interpreter
LANE_SAMPLE = 8
#: lanes in each of those executions' seeded input
LANES = 16

Cell = Tuple[str, str]


def cell_key(cell: Cell) -> str:
    return f"{cell[0]}|{cell[1]}"


def paper_cells() -> List[Cell]:
    from repro.workloads import WORKLOADS

    return [(w, t) for w in WORKLOADS for t in PAPER_TARGETS]


def all_cells() -> List[Cell]:
    from repro.targets import ALL_TARGETS
    from repro.workloads import WORKLOADS

    return [(w, t) for w in WORKLOADS for t in ALL_TARGETS]


def expected_outputs() -> Dict[str, dict]:
    """``"workload|target" -> {"cycles", "instructions"}`` for 96 cells."""
    expected = load_json(GOLDEN_PATH)
    expected.update(load_json(SNAPSHOT_PATH))
    return expected


def program_mismatch(cell: Cell, prog, expected: Dict[str, dict]) -> Optional[str]:
    """Why ``prog`` differs from the fixed point (None if it does not)."""
    want = expected.get(cell_key(cell))
    if want is None:
        return f"{cell_key(cell)}: no expected output recorded"
    got_instrs = list(prog.instructions)
    got_cycles = prog.cost().total
    if got_instrs != want["instructions"]:
        return (
            f"{cell_key(cell)}: instructions {got_instrs} != "
            f"expected {want['instructions']}"
        )
    if got_cycles != want["cycles"]:
        return f"{cell_key(cell)}: cycles {got_cycles} != {want['cycles']}"
    return None


def listing_mismatch(cell: Cell, got: str, want: str) -> Optional[str]:
    if got == want:
        return None
    return f"{cell_key(cell)}: listing differs from compile_listing"


_CYCLES = re.compile(r"^-- PITCHFORK \(([0-9.]+) modelled cycles/vec\):$")


def parse_listing(listing: str) -> Tuple[float, int]:
    """(modelled cycles, instruction count) of one compile listing."""
    lines = listing.strip("\n").split("\n")
    for i, line in enumerate(lines):
        m = _CYCLES.match(line)
        if m:
            return float(m.group(1)), len(lines) - i - 1
    raise ValueError("not a compile listing")


def code_quality(per_cell: Dict[Cell, Tuple[float, int]]) -> Tuple[float, int]:
    """(geomean cycles per vector, total instructions) over cells."""
    return (
        geomean([c for c, _ in per_cell.values()]),
        sum(n for _, n in per_cell.values()),
    )


class Reference:
    """In-process compiles of a cell set, checked against the fixed point.

    Every other output of a run is compared to these programs and
    listings, so a mismatch anywhere traces back to the goldens.
    """

    def __init__(self, cells: Sequence[Cell]):
        from repro.pipeline import pitchfork_compile
        from repro.session import compile_listing
        from repro.targets import by_name as target_by_name
        from repro.workloads import by_name

        expected = expected_outputs()
        self.cells = list(cells)
        self.progs = {}
        self.listings: Dict[Cell, str] = {}
        #: cell -> why it differs from the fixed point (None: it does not)
        self.problems: Dict[Cell, Optional[str]] = {}
        for cell in self.cells:
            wl = by_name(cell[0])
            prog = pitchfork_compile(
                wl.expr, target_by_name(cell[1]), var_bounds=wl.var_bounds
            )
            self.progs[cell] = prog
            self.listings[cell] = compile_listing(prog, wl.name)
            self.problems[cell] = program_mismatch(cell, prog, expected)

    def quality(self) -> Dict[Cell, Tuple[float, int]]:
        return {
            cell: (prog.cost().total, len(prog.instructions))
            for cell, prog in self.progs.items()
        }


def lane_sample(cells: Sequence[Cell], seed: int) -> List[Cell]:
    """The seeded sample of cells whose programs are executed."""
    return rng(seed, "lanes").sample(list(cells), LANE_SAMPLE)


def lane_mismatch(cell: Cell, prog, seed: int) -> Optional[str]:
    """Run ``prog`` and the reference interpreter on one seeded input."""
    from repro.interp import evaluate_reference
    from repro.workloads import by_name

    wl = by_name(cell[0])
    env = wl.random_env(lanes=LANES, seed=seed)
    got = prog.run(env)
    want = evaluate_reference(wl.expr, env)
    if list(got) != list(want):
        return f"{cell_key(cell)}: program output differs from reference"
    return None
