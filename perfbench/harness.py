"""Shared plumbing: paths, seeded orders, quantiles, spans, child processes.

Nothing here imports ``repro``; the workloads import it after
:func:`ensure_source` has put ``src/`` on the path.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: the checkout root (the directory holding ``perfbench/``)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.join(ROOT, "perfbench")
#: scratch space for sockets and caches, removed after each run
TMP_DIR = os.path.join(ROOT, ".bench_tmp")
#: Chrome traces written by traced runs
OUT_DIR = os.path.join(ROOT, ".bench_out")
#: the interpreter itself, never a launcher shim, so a child process
#: costs what a user's ``python -m repro`` costs
PY = sys.executable
#: a child process still running after this long is killed
CHILD_TIMEOUT_S = 60.0


class SetupError(Exception):
    """The checkout cannot run the benchmark (no program to measure)."""


def ensure_source() -> None:
    """Put ``src/`` on ``sys.path``; raise :class:`SetupError` if the
    program is not in this checkout."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SetupError(f"no program sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    """The environment of every child process: ``src/`` importable.

    Bytecode writing is re-enabled so the first child caches ``.pyc``
    files in the checkout and later cold starts load them, as they do
    for an installed package; otherwise every cold start would compile
    the whole package from source.
    """
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def bench_spec() -> dict:
    """``BENCHMARK.json``: every metric's name, unit, direction, bound."""
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


def metric_map() -> dict:
    """``metric_map.json``: what ``BENCHMARK.json`` has no room for --
    each workload's inputs, each end-to-end metric's meaning per
    workload, and each per-layer metric's layer and the end-to-end
    metrics it should move."""
    return load_json(os.path.join(BENCH_DIR, "metric_map.json"))


# -- seeded inputs -----------------------------------------------------
def rng(seed: int, tag: str) -> random.Random:
    """An independent, reproducible stream per (seed, purpose).

    String seeds hash through SHA-512, so the stream does not depend on
    ``PYTHONHASHSEED``.
    """
    return random.Random(f"perfbench:{tag}:{seed}")


def seeded_passes(items: Sequence, seed: int, tag: str) -> Iterable[List]:
    """An endless sequence of passes, each a fresh seeded shuffle."""
    r = rng(seed, tag)
    while True:
        order = list(items)
        r.shuffle(order)
        yield order


# -- statistics ----------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    idx = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[min(idx, len(ordered) - 1)]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``."""
    return n - max(1, math.ceil(q * n))


def geomean(values: Sequence[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def mean_or_zero(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


# -- spans ---------------------------------------------------------------
class Spans:
    """In-memory spans recorded around calls into the program's layers.

    Each record is ``[name, start_s, end_s, parent_index, request_id]``;
    nothing is written until :meth:`write_chrome`, after measuring.
    """

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.records: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, rid=None):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, rid]
        self._stack.append(len(self.records))
        self.records.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def self_seconds(self) -> Dict[str, Tuple[float, int]]:
        """name -> (total self time, span count).

        Self time is a span's duration minus what its direct children
        cover (children never overlap: one thread, properly nested).
        """
        child_time = [0.0] * len(self.records)
        for name, start, end, parent, _ in self.records:
            if parent is not None:
                child_time[parent] += end - start
        out: Dict[str, Tuple[float, int]] = {}
        for i, (name, start, end, _, _) in enumerate(self.records):
            total, count = out.get(name, (0.0, 0))
            out[name] = (total + (end - start) - child_time[i], count + 1)
        return out

    def write_chrome(self, path: str) -> None:
        """Write the spans as a Chrome trace through ``repro.observe``."""
        from repro.observe.tracer import Span, Tracer

        tracer = Tracer()
        depth: List[int] = []
        for name, start, end, parent, rid in self.records:
            depth.append(0 if parent is None else depth[parent] + 1)
            tracer.spans.append(
                Span(
                    name=name,
                    start_us=(start - self.t0) * 1e6,
                    depth=depth[-1],
                    duration_us=(end - start) * 1e6,
                    args={"parent": parent, "request": rid},
                )
            )
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tracer.write_chrome_trace(path)


# -- child processes -------------------------------------------------------
class ChildResult:
    """One finished child process."""

    def __init__(self, wall_s, returncode, output, maxrss_kb):
        self.wall_s = wall_s
        self.returncode = returncode
        self.output = output
        self.maxrss_kb = maxrss_kb


def run_child(argv: List[str]) -> ChildResult:
    """Run one child to completion; time it and read its own peak RSS.

    The child is reaped with ``os.wait4`` so its resource usage is its
    own, not the maximum over every child so far.  Standard error is
    folded into the output so a failing child explains itself.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=child_env(),
        cwd=ROOT,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        output = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        wall, proc.returncode, output.decode("utf-8", "replace"),
        usage.ru_maxrss,
    )


#: the host-speed reference: one bare interpreter start, which no change
#: to the program can move
INTERPRETER = [PY, "-c", "pass"]
#: timings normalised by the reference are multiplied by this, so they
#: read as milliseconds on a host whose interpreter starts in 50 ms (the
#: 2-core VM the benchmark was defined on)
REFERENCE_MS = 50.0


def interpreter_start() -> float:
    """Wall seconds of one bare interpreter start (the reference)."""
    res = run_child(INTERPRETER)
    if res.returncode != 0:
        raise RuntimeError(f"{INTERPRETER} failed:\n{res.output}")
    return res.wall_s


#: in-process times normalised by :func:`python_work` are multiplied by
#: this (about the work's fastest time on the same VM)
WORK_MS = 2.0


def python_work() -> float:
    """Seconds for a fixed piece of pure-Python work (tuple keys, dict
    updates, int-to-str conversion and a sort, as in the compiler's own
    inner loops): the in-process host-speed reference, which no change
    to the program can move."""
    t0 = time.perf_counter()
    counts: Dict[Tuple[int, str], int] = {}
    for i in range(2000):
        key = (i % 97, str(i))
        counts[key] = counts.get(key, 0) + i
    sorted(counts.items())
    return time.perf_counter() - t0


def median_child_seconds(argv: List[str], runs: int) -> float:
    """Median wall time of ``runs`` successful runs of one command."""
    walls = []
    for _ in range(runs):
        res = run_child(argv)
        if res.returncode != 0:
            raise RuntimeError(f"{argv} failed:\n{res.output}")
        walls.append(res.wall_s)
    return statistics.median(walls)


def probe(mode: str, *args: str) -> Tuple[float, dict]:
    """Run ``perfbench/probe.py`` once: (wall seconds, its JSON line)."""
    res = run_child([PY, os.path.join(BENCH_DIR, "probe.py"), mode, *args])
    if res.returncode != 0:
        raise RuntimeError(f"probe {mode} failed:\n{res.output}")
    return res.wall_s, json.loads(res.output.strip().splitlines()[-1])


# -- reporting ---------------------------------------------------------------
class Outcome:
    """What one run attempted, what failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def record(self, problem: Optional[str]) -> bool:
        """Count one checked operation; ``problem`` None means it passed."""
        self.attempted += 1
        if problem is not None:
            self.failures.append(problem)
        return problem is None

    @property
    def failed(self) -> int:
        return len(self.failures)
