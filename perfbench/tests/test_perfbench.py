"""Tests of the benchmark itself: seeded inputs, exact counts, checks.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import os
import shutil
import subprocess
import sys

import pytest

from perfbench import checks, harness, layers, serve_mix
from perfbench.checks import Reference, all_cells, paper_cells


def _first_passes(seed, tag, cells, k=3):
    gen = harness.seeded_passes(cells, seed, tag)
    return [next(gen) for _ in range(k)]


@pytest.mark.parametrize("tag,cells", [("sweep", all_cells), ("cold-cli", paper_cells)])
def test_same_seed_same_cell_order(tag, cells):
    assert _first_passes(7, tag, cells()) == _first_passes(7, tag, cells())


@pytest.mark.parametrize("tag,cells", [("sweep", all_cells), ("cold-cli", paper_cells)])
def test_other_seed_other_cell_order(tag, cells):
    assert _first_passes(7, tag, cells()) != _first_passes(8, tag, cells())


def test_same_seed_same_requests():
    assert serve_mix.schedule(7, 20.0) == serve_mix.schedule(7, 20.0)


def test_other_seed_other_requests():
    assert serve_mix.schedule(7, 20.0) != serve_mix.schedule(8, 20.0)


def test_schedule_compiles_every_cell_each_round_and_repeats_some():
    rounds = serve_mix.schedule(3, 36.0)
    assert len(rounds) == serve_mix.ROUNDS
    for requests in rounds:
        compiled = [
            (p["workload"], p["target"]) for _, op, p in requests
            if op == "compile"
        ]
        # every cell is a miss once per round (each round's daemon
        # starts with an empty cache), so code quality covers all 96
        assert set(compiled) == set(all_cells())
        assert len(compiled) > 2 * len(all_cells())
        assert {op for _, op, _ in requests} == {
            "compile", "evaluate", "verify-rule"
        }
        dues = [due for due, _, _ in requests]
        assert dues == sorted(dues) and dues[-1] < 36.0 / serve_mix.ROUNDS


def test_code_quality_and_counters_repeat_exactly():
    first = checks.code_quality(Reference(all_cells()).quality())
    second = checks.code_quality(Reference(all_cells()).quality())
    assert first == second
    cells = all_cells()[::4]
    assert layers.work_counters(cells) == layers.work_counters(cells)


def test_checker_flags_corrupted_listing():
    cell = ("sobel3x3", "arm-neon")
    ref = Reference([cell])
    assert ref.problems[cell] is None
    good = ref.listings[cell]
    lines = good.split("\n")
    corrupted = "\n".join(lines[:-1] + [lines[-1] + " "])
    assert checks.listing_mismatch(cell, good, good) is None
    assert checks.listing_mismatch(cell, corrupted, good) is not None
    reply = {"ok": True, "cached": False, "seconds": 0.0,
             "result": {"listing": corrupted}}
    params = {"workload": cell[0], "target": cell[1]}
    expected = checks.expected_outputs()
    assert serve_mix._check("compile", params, reply, ref, expected) is not None
    reply["result"]["listing"] = good
    assert serve_mix._check("compile", params, reply, ref, expected) is None


def test_checker_flags_wrong_program():
    ref = Reference([("add", "arm-neon")])
    expected = checks.expected_outputs()
    wrong = dict(expected)
    wrong["add|arm-neon"] = {"cycles": 1.0, "instructions": ["nop"]}
    prog = ref.progs[("add", "arm-neon")]
    assert checks.program_mismatch(("add", "arm-neon"), prog, expected) is None
    assert checks.program_mismatch(("add", "arm-neon"), prog, wrong) is not None


def test_listing_parse_matches_program():
    cell = ("gaussian3x3", "hexagon-hvx")
    ref = Reference([cell])
    prog = ref.progs[cell]
    assert checks.parse_listing(ref.listings[cell]) == (
        prog.cost().total, len(prog.instructions)
    )


def test_tail_quantile():
    values = list(range(1, 101))
    assert harness.quantile(values, 0.5) == 50
    assert harness.quantile(values, 0.9) == 90
    assert harness.beyond(100, 0.9) == 10


def test_per_cell_timing():
    from perfbench.workloads import Run

    run = Run("sweep")
    run.timing([float(ms) for ms in range(1, 97)])
    assert run.metrics["p50_ms"] == 48.5
    # p89 of 96 cells: the 11th-slowest, 10 beyond
    assert run.metrics["compile_tail_ms"] == 86.0
    assert run.metrics["ops_per_s"] == pytest.approx(96 / sum(range(1, 97)) * 1e3)


def test_host_speed_references():
    assert 0 < harness.interpreter_start() < harness.CHILD_TIMEOUT_S
    assert 0 < harness.python_work() < 1.0


def test_span_self_time():
    spans = harness.Spans()
    with spans.span("outer"):
        with spans.span("inner"):
            pass
    self_s = spans.self_seconds()
    outer = spans.records[0][2] - spans.records[0][1]
    inner = spans.records[1][2] - spans.records[1][1]
    assert self_s["inner"] == (inner, 1)
    assert self_s["outer"][0] == pytest.approx(outer - inner)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        harness.BENCH_DIR, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
