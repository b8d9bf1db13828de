"""One fresh interpreter of the build workload.

``python build_child.py COMMAND JSON-ARGS`` prints one JSON line:

* ``setup``: import the build entry points and read the graph — the
  fixed cost every build interpreter pays before ``open_index``;
* ``build``: cold ``repro.api.open_index`` of one case, then
  ``save_index``; reports the build and save seconds, the snapshot
  size and the interpreter's peak RSS;
* ``load``: ``load_index`` to the first answer (timed), then the probe
  answers the parent checks against the oracle (see :func:`answers`).

The program is imported from ``PYTHONPATH`` as set by the parent.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _vmhwm_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def setup(args: dict) -> dict:
    import repro.api  # noqa: F401
    import repro.persist  # noqa: F401
    from repro.graphs.io import read_edge_list

    return {"n": read_edge_list(args["graph"]).n}


def build(args: dict) -> dict:
    from repro.api import open_index
    from repro.graphs.io import read_edge_list
    from repro.persist import save_index

    graph = read_edge_list(args["graph"])
    tick = time.perf_counter()
    index = open_index(graph, args["query"])
    built = time.perf_counter()
    save_index(index, args["snapshot"], index.static_fingerprint)
    saved = time.perf_counter()
    return {
        "build_s": built - tick,
        "save_s": saved - built,
        "snapshot_bytes": os.path.getsize(args["snapshot"]),
        "vmhwm_mb": _vmhwm_mb(),
        "method": index.method,
    }


def load(args: dict) -> dict:
    from repro.persist import load_index

    probes = args["probes"]
    tick = time.perf_counter()
    index = load_index(args["snapshot"])
    first = index.next_solution(tuple(probes["nexts"][0]))
    load_s = time.perf_counter() - tick
    return {"load_s": load_s, "first": _listed(first), **answers(index, probes)}


def answers(index, probes: dict) -> dict:
    """The index's answers to :func:`common.probes`, JSON-ready."""
    page = index.enumerate_page(start=tuple(probes["cursor"]), limit=probes["limit"])
    return {
        "tests": [index.test(tuple(t)) for t in probes["tests"]],
        "nexts": [_listed(index.next_solution(tuple(t))) for t in probes["nexts"]],
        "page": {"items": [list(item) for item in page.items],
                 "next_cursor": _listed(page.next_cursor)},
    }


def _listed(values):
    return None if values is None else list(values)


COMMANDS = {"setup": setup, "build": build, "load": load}

if __name__ == "__main__":
    print(json.dumps(COMMANDS[sys.argv[1]](json.loads(sys.argv[2]))))
