"""The ``serve-mix`` workload: an open loop against ``repro serve``.

The run is ``ROUNDS`` rounds, each against a fresh
``python -m repro serve --jobs 1 --cache-dir <fresh dir>`` on a unix
socket.  In each round one generator (this process) first sends seeded
Poisson arrivals at a fixed offered rate over two pipelined
connections.  Each request is timed from when it was *due*, so a stall
also charges the requests queued behind it; how late the generator
itself ran is reported as ``generator.lag_ms``.

The mix: mostly ``compile`` requests over the 96 cells with skewed
(1/rank) popularity, so some requests repeat (result-cache reads) and
every cell also appears at least once per round (compile plus cache
write); a small share of ``evaluate`` and ``verify-rule`` requests over
a few cheap cache keys.  No request is heavy, so head-of-line blocking
by heavy requests is not exercised.

At a fixed offered rate the reply rate is the offered rate, so each
round ends with a short closed loop instead: cached compiles with
``DEPTH`` requests outstanding on each connection, whose reply rate is
the daemon's capacity (``ops_per_s``, best round).  ``p50_ms`` is the
lowest median over short windows of the open loop, ``compile_tail_ms``
a tail over the cells of each one's fastest miss (see
``perfbench/README.md``).
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from .checks import Reference, all_cells, expected_outputs, cell_key
from .harness import (
    PY, REFERENCE_MS, ROOT, TMP_DIR, beyond, child_env, interpreter_start,
    mean_or_zero, quantile, rng,
)
from .workloads import TAIL_Q, Run, SetupTimer, traced_layers

#: offered load, requests per second (Poisson arrivals)
RATE = 50.0
#: pipelined connections the generator spreads requests over
CONNECTIONS = 2
#: daemon lifetimes per run, one after another, each starting with an
#: empty result cache.  Every cell is a miss once per round, so the
#: misses that set the tail number ROUNDS x 96, and launches, open loop
#: and capacity bursts are each spread over the whole run
ROUNDS = 4
#: daemon launches per run, each right after an interpreter start
#: (``setup_s`` is their median ratio, as for the set-up probes of the
#: other workloads): the ROUNDS that serve, each after
#: LAUNCHES / ROUNDS - 1 launched and stopped
LAUNCHES = 24
#: each round's open loop is cut into this many windows of consecutive
#: requests (about 22 each, under half a second); ``p50_ms`` is the
#: lowest window median.  Over eight seeds in a period of heavy host
#: load, the lowest of 64 spread by 7% of its median, of 32 by 10%, the
#: best round's median by 29%
WINDOWS = 16
#: share of the run given to the closed-loop capacity bursts
CAPACITY_SHARE = 0.2
#: requests each connection keeps outstanding in those bursts
DEPTH = 8
OP_MIX = (("compile", 0.85), ("evaluate", 0.10), ("verify-rule", 0.05))
#: evaluate requests draw from these paper cells, with and without the
#: leave-one-out rule filter: 12 cache keys, each a few ms to compute
#: when missed.  Cheap and uniform on purpose: with costly or varied
#: misses the tail depends on which seed clusters them, not on the daemon
EVALUATE_POOL = tuple(
    (w, t, loo)
    for w in ("max_pool", "mul")
    for t in ("x86-avx2", "arm-neon", "hexagon-hvx")
    for loo in (False, True)
)
#: verify-rule requests draw from these hand-written lifting rules
#: (each 1-3 ms to verify when missed)
VERIFY_POOL = (
    "lift-widening-mul-uu", "lift-sat-narrow-normalize",
    "lift-widening-mul-ui", "lift-saturating-sub-signed",
    "lift-widening-mul-iu", "lift-widening-sub-unsigned",
    "lift-widening-sub-su", "lift-widening-mul-ii", "lift-widening-sub-s",
    "lift-saturating-sub", "lift-absd-u-le", "lift-absd-u-ge",
)
#: answered before the schedule starts: one request per job kind and
#: per target the daemon's warm-up leaves cold, so first-use costs (lazy
#: imports, compiler construction), paid once per daemon lifetime, do
#: not land on whichever scheduled request happens to come first.  None
#: shares a cache key with the schedule.
PRIME = (
    ("coverage", {"workload": "add", "target": "wasm-simd128"}),
    ("coverage", {"workload": "add", "target": "riscv-rvv"}),
    ("coverage", {"workload": "add", "target": "powerpc-vsx"}),
    ("evaluate", {"workload": "add", "target": "x86-avx2"}),
    ("evaluate", {"workload": "add", "target": "arm-neon"}),
    ("evaluate", {"workload": "add", "target": "hexagon-hvx"}),
    ("verify-rule", {"ruleset": "lifting-hand", "rule": "lift-absd-u-lt"}),
)
#: how long replies may trail the last scheduled send
DRAIN_TIMEOUT_S = 60.0


def _cover_then_draw(pool: Sequence, k: int, r, weights=None) -> List:
    """``k`` picks from ``pool``: each member at least once when ``k``
    allows, the rest drawn by ``weights``, in seeded order."""
    pool = list(pool)
    if k <= len(pool):
        return r.sample(pool, k)
    picks = pool + r.choices(pool, weights=weights, k=k - len(pool))
    r.shuffle(picks)
    return picks


Request = Tuple[float, str, dict]


def schedule(seed: int, seconds: float) -> List[List[Request]]:
    """The seeded request sequence: ``ROUNDS`` rounds of
    ``(due seconds from the round's start, op, params)``.

    Poisson arrivals conditioned on their count: ``RATE * seconds /
    ROUNDS`` arrival times drawn uniformly over each round, so every
    seed offers the same load and differs only in timing and order.
    Cell popularity ranks are the same in every round.
    """
    r = rng(seed, "serve-mix")
    ranked = r.sample(all_cells(), len(all_cells()))
    popularity = [1.0 / (rank + 1) for rank in range(len(ranked))]
    span = seconds / ROUNDS
    rounds = []
    for _ in range(ROUNDS):
        dues = sorted(r.uniform(0.0, span) for _ in range(round(RATE * span)))
        ops = r.choices(
            [op for op, _ in OP_MIX], weights=[w for _, w in OP_MIX],
            k=len(dues),
        )
        picks = {
            "compile": _cover_then_draw(
                ranked, ops.count("compile"), r, popularity
            ),
            "evaluate": _cover_then_draw(
                EVALUATE_POOL, ops.count("evaluate"), r
            ),
            "verify-rule": _cover_then_draw(
                VERIFY_POOL, ops.count("verify-rule"), r
            ),
        }
        requests = []
        for due, op in zip(dues, ops):
            pick = picks[op].pop()
            if op == "compile":
                params = {"workload": pick[0], "target": pick[1]}
            elif op == "evaluate":
                params = {"workload": pick[0], "target": pick[1],
                          "leave_one_out": pick[2]}
            else:
                params = {"ruleset": "lifting-hand", "rule": pick}
            requests.append((due, op, params))
        rounds.append(requests)
    return rounds


def frame(i: int, op: str, params: dict) -> bytes:
    return (json.dumps({"id": i, "op": op, "params": params}) + "\n").encode()


# -- the daemon ------------------------------------------------------------
class Daemon:
    """One ``repro serve`` child on a unix socket, timed to its ready line."""

    def __init__(self, tmp: str, tag: str):
        self.sock = os.path.relpath(os.path.join(tmp, f"{tag}.sock"), ROOT)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [PY, "-m", "repro", "serve", "--jobs", "1",
             "--cache-dir", os.path.join(tmp, f"cache-{tag}"),
             "--unix", self.sock, "--metrics-port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=child_env(), cwd=ROOT, text=True,
        )
        watchdog = threading.Timer(120, self.proc.kill)
        watchdog.start()
        try:
            ready = self.proc.stdout.readline()
            self.setup_s = time.perf_counter() - t0
            metrics_line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        m = re.search(r":(\d+)/metrics", metrics_line)
        if "serving on" not in ready or m is None:
            self.stop()
            raise RuntimeError(f"daemon did not start: {ready}{metrics_line}")
        self.metrics_port = int(m.group(1))

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def batch_totals(self) -> Tuple[float, float]:
        """``serve_batch_size`` (sum, count) from the daemon's ``/metrics``."""
        conn = http.client.HTTPConnection("127.0.0.1", self.metrics_port, timeout=10)
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode()
        finally:
            conn.close()
        found = dict(re.findall(
            r"^repro_serve_batch_size_(sum|count)\S* ([0-9.e+-]+)$", text, re.M
        ))
        return float(found["sum"]), float(found["count"])

    def stop(self) -> None:
        """Graceful drain (SIGTERM); kill if it does not exit in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _launch(tmp: str, tag: str) -> Tuple[Daemon, float]:
    """Launch one daemon right after a bare interpreter start; return it
    and its launch-to-ready seconds over that start's."""
    reference_s = interpreter_start()
    daemon = Daemon(tmp, tag)
    return daemon, daemon.setup_s / reference_s


# -- the generator -----------------------------------------------------------
async def _drive(sock: str, frames: List[bytes], dues: List[float]):
    """Send each frame at its due time; match replies by ``id``."""
    n = len(frames)
    sent: List[Optional[float]] = [None] * n
    recv: List[Optional[float]] = [None] * n
    raw: List[Optional[bytes]] = [None] * n
    done = asyncio.Event()
    if n == 0:
        done.set()
    conns = [
        await asyncio.open_unix_connection(sock, limit=1 << 24)
        for _ in range(CONNECTIONS)
    ]
    received = 0

    async def read(reader):
        nonlocal received
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            i = json.loads(line).get("id")
            if isinstance(i, int) and 0 <= i < n and recv[i] is None:
                recv[i], raw[i] = now, line
                received += 1
                if received == n:
                    done.set()

    readers = [asyncio.create_task(read(r)) for r, _ in conns]
    start = time.perf_counter()
    for i, data in enumerate(frames):
        delay = start + dues[i] - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        writer = conns[i % CONNECTIONS][1]
        sent[i] = time.perf_counter()
        writer.write(data)
        await writer.drain()
    try:
        await asyncio.wait_for(done.wait(), DRAIN_TIMEOUT_S)
    except asyncio.TimeoutError:
        pass
    for _, writer in conns:
        writer.close()
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    return start, sent, recv, raw


async def _capacity(sock: str, cells: List, seconds: float):
    """Closed loop: each connection keeps ``DEPTH`` compile requests
    outstanding, cycling through ``cells``, for ``seconds``.

    Returns the elapsed time from the first send to the last reply and
    ``(cell, reply line)`` for every request.
    """
    conns = [
        await asyncio.open_unix_connection(sock, limit=1 << 24)
        for _ in range(CONNECTIONS)
    ]
    sent: List = []
    replies: List[bytes] = []
    start = time.perf_counter()
    stop_at = start + seconds
    last = start

    async def loop(reader, writer):
        nonlocal last
        outstanding = 0

        def send() -> None:
            cell = cells[len(sent) % len(cells)]
            sent.append(cell)
            writer.write(frame(len(sent) - 1, "compile",
                               {"workload": cell[0], "target": cell[1]}))

        for _ in range(DEPTH):
            send()
            outstanding += 1
        await writer.drain()
        while outstanding:
            line = await reader.readline()
            if not line:
                return
            outstanding -= 1
            last = time.perf_counter()
            replies.append(line)
            if last < stop_at:
                send()
                outstanding += 1
                await writer.drain()

    try:
        await asyncio.wait_for(
            asyncio.gather(*(loop(r, w) for r, w in conns)),
            seconds + DRAIN_TIMEOUT_S,
        )
    finally:
        for _, writer in conns:
            writer.close()
    # replies are matched to requests after timing, to keep the
    # generator's own work per reply small
    return last - start, [
        (sent[json.loads(line)["id"]], line) for line in replies
    ]


def _check(op: str, params: dict, reply: Optional[dict], ref: Reference,
           expected: Dict[str, dict]) -> Optional[str]:
    if reply is None:
        return f"{op} {params}: no reply within {DRAIN_TIMEOUT_S:g}s"
    if not reply.get("ok"):
        return f"{op} {params}: error {reply.get('error')}"
    result = reply["result"]
    if op == "compile":
        cell = (params["workload"], params["target"])
        if result["listing"] != ref.listings[cell]:
            return f"{cell_key(cell)}: served listing differs from compile_listing"
    elif op == "evaluate":
        key = f"{params['workload']}|{params['target']}"
        if (
            not params["leave_one_out"]
            and result["pitchfork_cycles"] != expected[key]["cycles"]
        ) or not result["verified"]:
            return f"{key}: evaluate gave {result}"
    elif not result["ok"]:
        return f"verify-rule {params['rule']}: {result}"
    return None


def _prime(daemon: Daemon, run: Run) -> None:
    """Send the ``PRIME`` requests and check their replies."""
    raw = asyncio.run(_drive(
        daemon.sock,
        [frame(i, op, params) for i, (op, params) in enumerate(PRIME)],
        [0.0] * len(PRIME),
    ))[3]
    for (op, params), line in zip(PRIME, raw):
        ok = line is not None and json.loads(line).get("ok")
        run.outcome.record(None if ok else f"priming {op} {params}: {line}")


def serve_mix(seed: int, seconds: float, trace: bool) -> Run:
    """``ROUNDS`` fresh daemons, each primed, driven open-loop, then
    closed-loop (see the module docstring)."""
    run = Run("serve-mix")
    ref = Reference(all_cells())
    run.check_reference(ref, seed)
    expected = expected_outputs()
    open_s = seconds * (1 - CAPACITY_SHARE)
    capacity_cells = rng(seed, "capacity").sample(ref.cells, len(ref.cells))

    # per scheduled request, over all rounds
    requests: List[Request] = []
    round_of: List[int] = []
    frames: List[bytes] = []
    due_at: List[float] = []
    sent: List[Optional[float]] = []
    recv: List[Optional[float]] = []
    raw: List[Optional[bytes]] = []
    setups: List[float] = []
    rates: List[float] = []
    rss_mb: List[float] = []
    batch_sum = batch_count = 0.0
    capacity_replies = []
    tmp = os.path.join(TMP_DIR, f"serve-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        for k, round_requests in enumerate(schedule(seed, open_s)):
            for j in range(LAUNCHES // ROUNDS):
                daemon, ratio = _launch(tmp, f"r{k}-{j}")
                setups.append(ratio)
                if j < LAUNCHES // ROUNDS - 1:
                    daemon.stop()
            try:
                _prime(daemon, run)
                round_frames = [
                    frame(i, op, params)
                    for i, (_, op, params) in enumerate(round_requests)
                ]
                start, round_sent, round_recv, round_raw = asyncio.run(_drive(
                    daemon.sock, round_frames,
                    [due for due, _, _ in round_requests],
                ))
                requests += round_requests
                round_of += [k] * len(round_requests)
                frames += round_frames
                due_at += [start + due for due, _, _ in round_requests]
                sent += round_sent
                recv += round_recv
                raw += round_raw
                # both describe the open-loop traffic: the capacity
                # burst's reply count, and so its memory, varies with
                # the host's speed
                total, count = daemon.batch_totals()
                batch_sum, batch_count = batch_sum + total, batch_count + count
                rss_mb.append(daemon.peak_rss_mb())
                elapsed, replies = asyncio.run(_capacity(
                    daemon.sock, capacity_cells, (seconds - open_s) / ROUNDS
                ))
                rates.append(len(replies) / elapsed)
                capacity_replies += replies
            finally:
                daemon.stop()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(TMP_DIR)

    replies = [None if line is None else json.loads(line) for line in raw]
    # per round: every reply time, in due order; per cell: its misses
    latencies: List[List[float]] = [[] for _ in range(ROUNDS)]
    miss_latencies: Dict[Tuple[str, str], List[float]] = {}
    quality = {}
    for i, (_, op, params) in enumerate(requests):
        reply = replies[i]
        ok = run.outcome.record(_check(op, params, reply, ref, expected))
        if recv[i] is None:
            continue
        k = round_of[i]
        latencies[k].append(recv[i] - due_at[i])
        if op == "compile" and ok:
            cell = (params["workload"], params["target"])
            if not reply["cached"]:
                miss_latencies.setdefault(cell, []).append(latencies[k][-1])
            quality[cell] = (
                reply["result"]["cycles"], reply["result"]["instructions"]
            )

    for cell, line in capacity_replies:
        run.outcome.record(
            _check("compile", {"workload": cell[0], "target": cell[1]},
                   json.loads(line), ref, expected)
        )

    if trace:
        misses = sorted({
            (p["workload"], p["target"])
            for (_, op, p), rep in zip(requests, replies)
            if op == "compile" and rep and rep.get("ok") and not rep["cached"]
        })
        traced_layers(run, misses, None)
        run.metrics.update(_serve_layers(
            requests, frames, raw, replies, due_at, sent, recv, run
        ))
        run.metrics["daemon.batch_size"] = batch_sum / batch_count
        _, run.metrics["session.warm_up_ms"] = SetupTimer(
            ("x86-avx2", "arm-neon", "hexagon-hvx"), 0.0
        ).result()
        return run
    run.metrics["setup_s"] = statistics.median(setups) * REFERENCE_MS / 1e3
    # Host load delays the wake-ups every reply waits on (generator,
    # daemon, worker: three processes on two cores) by 20-100% for
    # seconds at a time, and an interpreter start does not slow with it
    # (no reference can be timed during the open loop without competing
    # for the two cores).  So the best of many samples is reported: the
    # lowest median over short windows, and a tail over the cells of
    # each one's fastest miss; a change in the program moves every
    # sample, host load the slow ones
    windows = [
        statistics.median(part)
        for lat in latencies for w in range(WINDOWS)
        for part in [lat[len(lat) * w // WINDOWS:len(lat) * (w + 1) // WINDOWS]]
        if part
    ]
    run.metrics["p50_ms"] = min(windows) * 1e3
    per_cell = [min(v) * 1e3 for v in miss_latencies.values()]
    run.metrics["compile_tail_ms"] = quantile(per_cell, TAIL_Q["serve-mix"])
    run.metrics["ops_per_s"] = max(rates)
    run.metrics["peak_rss_mb"] = max(rss_mb)
    run.quality(quality)
    run.notes.append(
        f"open loop: offered {RATE:g} req/s over {CONNECTIONS} connections "
        f"for {open_s:.3g} s in {ROUNDS} rounds, {len(requests)} requests; "
        f"capacity: {len(capacity_replies)} cached compiles at depth {DEPTH} "
        f"per connection, per-round rates "
        + ", ".join(f"{rate:.0f}/s" for rate in rates)
    )
    run.notes.append(
        f"p50 = lowest of {len(windows)} window medians, "
        f"{len(latencies[0]) // WINDOWS}+ replies each; per round: p50 "
        + ", ".join(f"{statistics.median(v) * 1e3:.2f}" for v in latencies)
        + " ms, p95 of all replies (not a metric: too noisy) "
        + ", ".join(f"{quantile(v, 0.95) * 1e3:.1f}" for v in latencies)
        + " ms"
    )
    run.notes.append(
        f"compile tail = p{TAIL_Q['serve-mix'] * 100:g} over "
        f"{len(per_cell)} cells of each cell's fastest miss "
        f"({beyond(len(per_cell), TAIL_Q['serve-mix'])} beyond)"
    )
    return run


def _serve_layers(requests, frames, raw, replies, due_at, sent, recv, run: Run):
    """Protocol, cache, daemon and fabric layers of one serve-mix run."""
    from repro.fabric import ResultCache
    from repro.serve.protocol import encode_reply, parse_request

    spans = run.spans
    out: Dict[str, float] = {}
    with spans.span("protocol"):
        for i, data in enumerate(frames):
            with spans.span("protocol.parse", i):
                parse_request(data)
        decoded = [(i, json.loads(line)) for i, line in enumerate(raw) if line]
        for i, reply in decoded:
            with spans.span("protocol.encode", i):
                encode_reply(reply)
    self_s = spans.self_seconds()
    out["protocol.parse_ms"] = self_s["protocol.parse"][0] * 1e3 / len(frames)
    out["protocol.encode_ms"] = (
        self_s["protocol.encode"][0] * 1e3 / max(1, len(decoded))
    )

    compiles = [
        (i, p) for i, (_, op, p) in enumerate(requests)
        if op == "compile" and replies[i] and replies[i].get("ok")
    ]
    tmp = os.path.join(TMP_DIR, f"cache-replay-{os.getpid()}")
    cache = ResultCache(root=tmp)
    gets, puts = [], []
    try:
        for i, p in compiles:
            key = cache.key("compile", p["workload"], p["target"])
            with spans.span("cache.get", i) as sp:
                hit, _ = cache.get("compile", key)
            gets.append(sp[2] - sp[1])
            if not hit:
                with spans.span("cache.put", i) as sp:
                    cache.put("compile", key, replies[i]["result"])
                puts.append(sp[2] - sp[1])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(TMP_DIR)
    out["cache.get_ms"] = mean_or_zero(gets) * 1e3
    out["cache.put_ms"] = mean_or_zero(puts) * 1e3
    out["cache.compile_requests"] = len(compiles)
    out["cache.hit_ratio"] = (
        sum(1 for i, _ in compiles if replies[i]["cached"]) / len(compiles)
        if compiles else 0.0
    )

    waits, lags = [], []
    task_s: Dict[str, List[float]] = {op: [] for op, _ in OP_MIX}
    for i, (_, op, _) in enumerate(requests):
        lags.append(sent[i] - due_at[i])
        reply = replies[i]
        if reply and reply.get("ok"):
            waits.append(recv[i] - sent[i] - reply["seconds"])
            task_s[op].append(reply["seconds"])
    out["daemon.wait_ms"] = mean_or_zero(waits) * 1e3
    out["generator.lag_ms"] = mean_or_zero(lags) * 1e3
    for op, values in task_s.items():
        out[f"fabric.task_ms.{op}"] = mean_or_zero(values) * 1e3
    return out
