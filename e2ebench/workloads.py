"""The four end-to-end workloads (``--trace 0``).

Every workload reports the same six metrics, each measured on its own
traffic (see README.md for the per-workload meaning):

* ``setup_s``        median of several repetitions of the set-up step;
* ``main_p50_ms``    median time of the workload's main operation;
* ``main_tail_ms``   its 95th percentile (build: the slowest cycle);
* ``second_p50_ms``  median time of the workload's second operation;
* ``work_per_s``     answers (build: indexes) completed per second;
* ``memory_mb``      server PSS (build: largest build-interpreter VmHWM).
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    GRAPH_FILE, QUERIES, SERVED, Size, family_pids, grid_edges, grid_text, median,
    percentile, probes, pss_mb, run_child,
)
from loadgen import Connection, Reply, closed_loop
from oracle import Checker, Oracle
from servers import ServerProcess

SERVING = {
    "read-single": [],
    "read-pool": ["--pool-workers", "2"],
    "write-mix": [],  # plus a fresh --snapshot-dir per set-up
}


@dataclass
class Outcome:
    """What one run measured, checked and counted."""

    checker: Checker
    metrics: dict[str, float] = field(default_factory=dict)  # units: BENCHMARK.json
    ops: dict[str, dict[str, int]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def count(self, kind: str, failed: bool = False, stale: bool = False) -> None:
        """One attempted operation of ``kind``; a stale cursor (409) is
        counted apart from failures."""
        entry = self.ops.setdefault(kind, {"attempted": 0, "failed": 0, "stale_409": 0})
        entry["attempted"] += 1
        entry["failed"] += int(failed)
        entry["stale_409"] += int(stale)


def run(workload: str, size: Size, seed: int, seconds: float, work: Path,
        corrupt: bool = False) -> Outcome:
    if workload == "build":
        return run_build(size, seed, seconds, work, corrupt)
    return run_serving(workload, size, seed, seconds, work, corrupt)


# ----------------------------------------------------------------------
# build: cold open_index + snapshot save, then load, in fresh interpreters


def _child(command: str, args: dict) -> tuple[dict | None, float]:
    result, wall, error = run_child("build_child.py", command, args)
    if result is None:
        sys.stderr.write(error)
    return result, wall


def run_build(size: Size, seed: int, seconds: float, work: Path, corrupt: bool) -> Outcome:
    text = grid_text(size.build_side, seed)
    graph = work / GRAPH_FILE
    graph.write_text(text)
    n = size.build_side ** 2
    checkers = {case: Checker(Oracle(text, query, corrupt and case == "far"))
                for case, query in QUERIES.items()}
    out = Outcome(Checker(checkers["far"].oracle))
    rng = random.Random(seed)
    setups: list[float] = []
    cycles: list[dict] = []  # per cycle: summed build/load seconds, wall
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        # set-up samples are spread over the window, so their median does
        # not hang on the host's speed during one second of the run
        for _ in range(size.build_setup_per_cycle):
            result, wall = _child("setup", {"graph": str(graph)})
            out.count("setup", failed=result is None)
            setups.append(wall)
        tick = time.perf_counter()
        cycle = {"build_s": 0.0, "load_s": 0.0, "vmhwm_mb": 0.0}
        for case, query in QUERIES.items():
            snapshot = str(work / f"{case}.rpx")
            built, _ = _child("build", {"graph": str(graph), "query": query,
                                        "snapshot": snapshot})
            out.count("build", failed=built is None)
            if built is None:
                continue
            asked = probes(rng, n)
            loaded, _ = _child("load", {"snapshot": snapshot, "probes": asked})
            out.count("load", failed=loaded is None)
            if loaded is None:
                continue
            cycle["build_s"] += built["build_s"]
            cycle["load_s"] += loaded["load_s"]
            cycle["vmhwm_mb"] = max(cycle["vmhwm_mb"], built["vmhwm_mb"])
            checkers[case].answers(None, asked, loaded, f"build cycle {len(cycles)} {case}")
        cycle["wall_s"] = time.perf_counter() - tick
        cycles.append(cycle)
    for checker in checkers.values():
        out.checker.merge(checker)

    builds = [c["build_s"] * 1e3 for c in cycles]
    out.metrics = {
        "setup_s": median(setups),
        "main_p50_ms": median(builds),
        "main_tail_ms": max(builds),
        "second_p50_ms": median([c["load_s"] * 1e3 for c in cycles]),
        "work_per_s": len(QUERIES) * len(cycles) / sum(c["wall_s"] for c in cycles),
        "memory_mb": max(c["vmhwm_mb"] for c in cycles),
    }
    return out


# ----------------------------------------------------------------------
# serving workloads: closed-loop HTTP traffic against `repro serve`


class BatchDriver:
    """Fixed-size /v1/batch requests of test/next calls at uniform tuples."""

    def __init__(self, base: dict, n: int, calls: int, rng: random.Random) -> None:
        self.base, self.n, self.calls, self.rng = base, n, calls, rng

    def request(self):
        calls = [
            {"op": self.rng.choice(("test", "next")),
             "tuple": [self.rng.randrange(self.n), self.rng.randrange(self.n)]}
            for _ in range(self.calls)
        ]
        return "batch", "/v1/batch", {**self.base, "calls": calls}, None

    def observe(self, reply: Reply) -> None:
        pass


class PageDriver:
    """/v1/enumerate cursor chains of a fixed page size, pinned to the
    index version of their first page; a new chain every few pages."""

    def __init__(self, base: dict, n: int, limit: int, pages: int, rng: random.Random) -> None:
        self.base, self.n, self.limit, self.pages, self.rng = base, n, limit, pages, rng
        self.cursor = None
        self.version = None
        self.left = 0

    def request(self):
        if self.left == 0 or self.cursor is None:
            self.cursor, self.version, self.left = [self.rng.randrange(self.n), 0], None, self.pages
        payload = {**self.base, "limit": self.limit, "cursor": self.cursor}
        if self.version is not None:
            payload["cursor_version"] = self.version
        return "page", "/v1/enumerate", payload, None

    def observe(self, reply: Reply) -> None:
        if reply.status != 200:
            self.left = 0
            return
        self.cursor = reply.body["next_cursor"]
        self.version = reply.body["index"]["index_version"]
        self.left -= 1


class UpdateDriver:
    """/v1/update delete/insert pairs over a fixed edge list; every pair
    restores the graph, so version ``v`` is the base graph when even and
    the base graph without ``edges[(v - 1) // 2 % len(edges)]`` when odd."""

    def __init__(self, base: dict, edges: list[tuple[int, int]]) -> None:
        self.base, self.edges, self.sent = base, edges, 0

    def request(self):
        op = "delete" if self.sent % 2 == 0 else "insert"
        edge = self.edges[self.sent // 2 % len(self.edges)]
        self.sent += 1
        return "update", "/v1/update", {**self.base, "op": op, "edge": list(edge)}, self.sent

    def observe(self, reply: Reply) -> None:
        pass


def update_edges(side: int, count: int) -> list[tuple[int, int]]:
    """``count`` grid edges spread evenly over the grid, the same for every
    seed, so the repair cost does not depend on which edges a seed drew."""
    edges = grid_edges(side)
    step = len(edges) // count
    return [edges[i * step + step // 2] for i in range(count)]


def state_at(version: int, edges: list[tuple[int, int]]):
    """The write-mix graph state at an index version (see UpdateDriver)."""
    return None if version % 2 == 0 else tuple(edges[(version - 1) // 2 % len(edges)])


def run_serving(workload: str, size: Size, seed: int, seconds: float, work: Path,
                corrupt: bool) -> Outcome:
    text = grid_text(size.serve_side, seed)
    (work / GRAPH_FILE).write_text(text)
    n = size.serve_side ** 2
    base = {"graph_path": GRAPH_FILE, "query": QUERIES[SERVED]}
    out = Outcome(Checker(Oracle(text, QUERIES[SERVED], corrupt)))
    rng = random.Random(seed)
    edges = update_edges(size.serve_side, size.update_edges)

    drivers: list = [BatchDriver(base, n, size.batch_calls, rng)]
    if workload == "write-mix":
        drivers.append(UpdateDriver(base, edges))
    else:
        drivers.append(PageDriver(base, n, size.page_limit, size.chain_pages, rng))
    setups: list[float] = []

    def start_warm() -> ServerProcess:
        """Set-up: start the server, warm it to its first correct answer."""
        rep = len(setups)
        extra = list(SERVING[workload])
        if workload == "write-mix":
            extra += ["--snapshot-dir", str(work / f"snapshots{rep}")]
        tick = time.perf_counter()
        server = ServerProcess(work, extra, f"serve{rep}.log")
        try:
            warm = drivers[0].request()[2]
            conn = Connection(server.address)
            reply = conn.post("/v1/batch", warm)
            setups.append(time.perf_counter() - tick)
            conn.close()
        except BaseException:
            server.stop()
            raise
        out.count("warm", failed=reply.status != 200)
        if reply.status == 200:
            out.checker.calls(None, warm["calls"], reply.body["results"], f"warm-up {rep}")
        return server

    # set-up is repeated before and after the window (the median is
    # reported); the last server started before the window is measured
    for _ in range(size.serve_setup_reps - 1):
        start_warm().stop()
    server = start_warm()
    try:
        records, window = closed_loop(server.address, drivers, seconds)
        memory = pss_mb(family_pids(server.pid))
    finally:
        server.stop()
    for _ in range(size.serve_setup_reps):
        start_warm().stop()

    answered = 0
    times: dict[str, list[float]] = {}
    ok: dict[str, list] = {}
    for record in records:
        reply = record.reply
        stale = reply.status == 409 and record.kind == "page"  # StaleCursor
        out.count(record.kind, failed=reply.status != 200 and not stale, stale=stale)
        if reply.status != 200:
            continue
        times.setdefault(record.kind, []).append(reply.ms)
        ok.setdefault(record.kind, []).append(record)
        if record.kind == "batch":
            answered += len(record.request["calls"])
        elif record.kind == "page":
            answered += len(reply.body["items"])

    for record in _sample(ok.get("batch", []), size.checked_batches, rng):
        state = state_at(record.reply.body["index"]["index_version"], edges)
        out.checker.calls(state, record.request["calls"], record.reply.body["results"],
                          "batch")
    for record in _sample(ok.get("page", []), size.checked_pages, rng):
        version = record.reply.body["index"]["index_version"]
        out.checker.page(state_at(version, edges), record.request["cursor"],
                         record.request["limit"], record.reply.body, "page")
    for record in ok.get("update", []):
        out.checker.checked += 1
        if (record.reply.body.get("version") != record.state
                or record.reply.body.get("applied") != record.request["op"]):
            out.checker.wrong.append(
                f"update {record.state}: got {record.reply.body}, want version "
                f"{record.state} after {record.request['op']}"
            )

    second = "update" if workload == "write-mix" else "page"
    if not times.get("batch") or not times.get(second):
        raise RuntimeError(f"no successful {'batch' if not times.get('batch') else second} requests")
    out.metrics = {
        "setup_s": median(setups),
        "main_p50_ms": median(times["batch"]),
        "main_tail_ms": percentile(times["batch"], 95),
        "second_p50_ms": median(times[second]),
        "work_per_s": answered / window,
        "memory_mb": memory,
    }
    return out


def _sample(records: list, k: int, rng: random.Random) -> list:
    return records if len(records) <= k else rng.sample(records, k)
