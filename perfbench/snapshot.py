"""Record ``extra_cells.json``: the 48 cells outside the paper goldens.

The paper goldens (``tests/passes/golden_seed.json``) cover the three
paper targets; this snapshot pins the instructions and cycles of the
other three targets, whose lowering tables the goldens do not touch.
Re-record only in a change that deliberately alters those outputs::

    python3 perfbench/snapshot.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import harness  # noqa: E402

harness.ensure_source()

from perfbench.checks import PAPER_TARGETS, SNAPSHOT_PATH, all_cells, cell_key  # noqa: E402
from repro.pipeline import pitchfork_compile  # noqa: E402
from repro.targets import by_name as target_by_name  # noqa: E402
from repro.workloads import by_name  # noqa: E402


def main() -> int:
    snapshot = {}
    for cell in all_cells():
        if cell[1] in PAPER_TARGETS:
            continue
        wl = by_name(cell[0])
        prog = pitchfork_compile(
            wl.expr, target_by_name(cell[1]), var_bounds=wl.var_bounds
        )
        snapshot[cell_key(cell)] = {
            "cycles": prog.cost().total,
            "instructions": list(prog.instructions),
        }
    with open(SNAPSHOT_PATH, "w") as fh:
        json.dump(snapshot, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(snapshot)} cells to {SNAPSHOT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
