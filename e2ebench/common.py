"""Shared plumbing: paths, sizes, the seeded inputs, statistics, /proc readings.

Nothing here imports ``repro``: the benchmark drives the program from
outside, through child interpreters and HTTP, and only the oracle
(:mod:`oracle`) and the traced anatomy import the library itself.
"""

from __future__ import annotations

import compileall
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".e2ebench_work"

#: The two build cases: ``far`` spends its build on skip pointers, far
#: structures and the distance index; ``near`` on the Theorem 5.1 prefix
#: sweep and has no skip pointers at all.
QUERIES = {
    "far": "dist(x, y) > 2 & Blue(y)",
    "near": "exists z. E(x, z) & E(z, y)",
}
#: The served query (read-single, read-pool, write-mix).
SERVED = "far"
GRAPH_FILE = "grid.txt"


@dataclass(frozen=True)
class Size:
    """Input sizes of one benchmark run."""

    build_side: int  # build: grid side (n = side^2)
    serve_side: int  # serving workloads: grid side
    batch_calls: int  # test/next calls per /v1/batch
    page_limit: int  # items per /v1/enumerate page
    chain_pages: int  # pages per cursor chain before a new start
    update_edges: int  # write-mix: edges cycled by delete/insert pairs
    build_setup_per_cycle: int  # build: set-up repetitions per cycle
    serve_setup_reps: int  # serving workloads: set-ups before and after the window
    checked_batches: int  # replies compared against the oracle, per kind
    checked_pages: int
    anatomy_rtts: int  # traced mode: unloaded round trips per kind
    anatomy_updates: int  # traced mode: delete/insert pairs per layer


FULL = Size(
    build_side=24, serve_side=32, batch_calls=64, page_limit=100,
    chain_pages=5, update_edges=8, build_setup_per_cycle=2, serve_setup_reps=2,
    checked_batches=40, checked_pages=25, anatomy_rtts=25, anatomy_updates=3,
)
TINY = Size(
    build_side=7, serve_side=8, batch_calls=8, page_limit=10,
    chain_pages=2, update_edges=2, build_setup_per_cycle=1, serve_setup_reps=1,
    checked_batches=5, checked_pages=5, anatomy_rtts=3, anatomy_updates=1,
)


def require_program() -> None:
    """Exit non-zero (printing no result) when the program is not here."""
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC_FILE.is_file():
        raise SystemExit(
            f"e2ebench: no program to measure (expected {SRC / 'repro'} and "
            f"{SPEC_FILE.name} in {ROOT})"
        )


def load_spec() -> dict:
    return json.loads(SPEC_FILE.read_text())


def prepare_program() -> None:
    """Byte-compile the program once, untimed, so no timed start compiles."""
    if not compileall.compile_dir(str(SRC / "repro"), quiet=1):
        raise SystemExit("e2ebench: the program does not byte-compile")


def child_env() -> dict[str, str]:
    """The environment every program process runs in: stock defaults."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_STORAGE_LAYOUT", None)
    return env


def run_child(script: str, command: str, args: dict) -> tuple[dict | None, float, str]:
    """Run ``python <script> COMMAND JSON`` in a fresh interpreter.

    Returns its JSON result (None when it failed), its wall seconds and
    the tail of its standard error.
    """
    tick = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / script), command, json.dumps(args)],
        cwd=ROOT, env=child_env(), capture_output=True, timeout=170,
    )
    wall = time.perf_counter() - tick
    if proc.returncode != 0:
        return None, wall, proc.stderr.decode()[-3000:]
    return json.loads(proc.stdout.decode().strip().splitlines()[-1]), wall, ""


class WorkDir:
    """A scratch directory inside the checkout, removed on exit."""

    def __init__(self) -> None:
        self.path = WORK_ROOT / str(os.getpid())

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc_info: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


# ----------------------------------------------------------------------
# the benchmark's own seeded inputs


def grid_text(side: int, seed: int) -> str:
    """A ``side x side`` grid in repro's edge-list format, colors seeded.

    Each of Red/Blue/Green holds each vertex with probability 0.3, the
    density the program's own generators use.
    """
    rng = random.Random(seed)
    n = side * side
    lines = [f"n {n}"]
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                lines.append(f"e {v} {v + 1}")
            if r + 1 < side:
                lines.append(f"e {v} {v + side}")
    for name in ("Blue", "Green", "Red"):
        members = [v for v in range(n) if rng.random() < 0.3]
        if members:
            lines.append(f"c {name} " + " ".join(map(str, members)))
    return "\n".join(lines) + "\n"


def probes(rng: random.Random, n: int) -> dict:
    """Answers asked of an index outside the HTTP traffic: 8 ``test``,
    8 ``next`` at uniform tuples and one 20-item page."""
    return {
        "tests": [[rng.randrange(n), rng.randrange(n)] for _ in range(8)],
        "nexts": [[rng.randrange(n), rng.randrange(n)] for _ in range(8)],
        "cursor": [rng.randrange(n), 0],
        "limit": 20,
    }


def grid_edges(side: int) -> list[tuple[int, int]]:
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((v, v + 1))
            if r + 1 < side:
                edges.append((v, v + side))
    return edges


# ----------------------------------------------------------------------
# statistics


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return statistics.median(values)


# ----------------------------------------------------------------------
# /proc readings of a process family


def family_pids(root_pid: int) -> list[int]:
    """``root_pid`` and every live descendant (one /proc scan)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    out, frontier = [], [root_pid]
    while frontier:
        pid = frontier.pop()
        out.append(pid)
        frontier.extend(children.get(pid, ()))
    return out


def pss_mb(pids: list[int]) -> float:
    """Proportional set size of ``pids`` together, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as handle:
                for line in handle:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def cpu_seconds(pids: list[int]) -> float:
    """User + system CPU seconds consumed so far by ``pids``."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / ticks
