"""One fresh interpreter of the traced run (``--trace 1``).

``python anatomy_child.py COMMAND JSON-ARGS`` prints one JSON line.

* ``build``: one cold ``open_index``.  Untraced it reports only the wall
  time.  Traced, it runs under :func:`repro.trace.tracing` with the
  program's own build spans plus spans this file puts around the public
  entry points of the layers the program does not span yet, and
  reports each layer's self time, the structure counts and the
  snapshot save/load times.
* ``request``: the service, cache, engine and storage layers of one
  ``/v1/batch`` / ``/v1/enumerate`` request, timed in process.
* ``update``: the repair, snapshot and service layers of ``/v1/update``,
  timed in process.

Wrapping methods is confined to this traced interpreter; the end-to-end
runs measure the unmodified program.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import random
import statistics
import sys
import time

from build_child import answers

#: Span name -> per-layer metric (self seconds) of the build anatomy.
#: Names starting with ``bench.`` are the spans this file adds.
BUILD_LAYERS = {
    "cover.build": "covers.cover_s",
    "last.kernels": "covers.kernels_s",
    "kernel.compute": "covers.kernels_s",
    "bench.splitter_choose": "splitter.choose_s",
    "splitter.play_game": "splitter.choose_s",
    "splitter.move": "splitter.choose_s",
    "last.distance_index": "core.distance_index_s",
    "distance.build": "core.distance_index_s",
    "skip_pointers.build": "core.skip_pointers_s",
    "last.far_structures": "core.far_structures_s",
    "last.bag_solver": "core.bag_solver_s",
    "bench.bag_solver": "core.bag_solver_s",
    "bench.prefix_sweep": "core.prefix_sweep_s",
    "bench.local_eval": "core.local_eval_s",
    "trie.create": "storage.bulk_load_s",
    "bench.bulk_load": "storage.bulk_load_s",
}


def _wrap(cls, attr: str, name: str) -> None:
    """Put a ``bench.*`` span around ``cls.attr`` (this process only)."""
    from repro.trace.runtime import span

    original = cls.__dict__[attr]

    @functools.wraps(original)
    def spanned(*args, **kwargs):
        with span(name):
            return original(*args, **kwargs)

    setattr(cls, attr, spanned)


def _install_build_spans() -> None:
    from repro.core.bag_solver import BagSolver
    from repro.core.last_coordinate import LastCoordinateIndex
    from repro.core.local_eval import LocalEvaluator
    from repro.splitter import strategies
    from repro.storage.trie import TrieStore

    # k = 2: the Theorem 5.1 prefix sweep is n calls of first_last
    _wrap(LastCoordinateIndex, "first_last", "bench.prefix_sweep")
    for attr in ("test", "column", "first_at_least"):
        _wrap(BagSolver, attr, "bench.bag_solver")
    for attr in ("test", "unary_column", "column", "first_at_least"):
        _wrap(LocalEvaluator, attr, "bench.local_eval")
    for cls in (strategies.TopmostStrategy, strategies.GreedySeparatorStrategy,
                strategies.CentroidStrategy):
        _wrap(cls, "choose", "bench.splitter_choose")
    _wrap(TrieStore, "bulk_load", "bench.bulk_load")


def _self_times(spans) -> dict[str, float]:
    """Self seconds per layer metric: each span minus its children."""
    children: dict[str, float] = {}
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id] = children.get(s.parent_id, 0.0) + s.duration
    out = {metric: 0.0 for metric in set(BUILD_LAYERS.values())}
    for s in spans:
        metric = BUILD_LAYERS.get(s.name)
        if metric is not None:
            out[metric] += s.duration - children.get(s.span_id, 0.0)
    return out


def _tries(index) -> list:
    """Every trie (Theorem 3.1 store) reachable from ``index``."""
    from repro.storage.trie import TrieStore

    found, seen, stack = [], set(), [index]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, int, str, float, bytes)):
            continue
        seen.add(id(obj))
        if isinstance(obj, TrieStore):
            found.append(obj)
        else:
            stack.extend(gc.get_referents(obj))
    return found


def build(args: dict) -> dict:
    from repro.api import open_index
    from repro.graphs.io import read_edge_list

    graph = read_edge_list(args["graph"])
    if not args["traced"]:
        tick = time.perf_counter()
        open_index(graph, args["query"])
        return {"build_s": time.perf_counter() - tick}

    from repro.persist import load_index, save_index
    from repro.trace.runtime import tracing

    _install_build_spans()
    with tracing("bench.build", max_spans=10_000_000) as tracer:
        tick = time.perf_counter()
        index = open_index(graph, args["query"])
        build_s = time.perf_counter() - tick
    if tracer.dropped:
        raise RuntimeError(f"{tracer.dropped} spans dropped")
    metrics = _self_times(tracer.spans)
    metrics["unattributed_s"] = build_s - sum(metrics.values())
    metrics["build_s"] = build_s
    last = index._impl.last
    tick = time.perf_counter()
    save_index(index, args["snapshot"], index.static_fingerprint)
    metrics["persist.save_s"] = time.perf_counter() - tick
    tick = time.perf_counter()
    loaded = load_index(args["snapshot"])
    metrics["persist.load_s"] = time.perf_counter() - tick
    metrics["persist.snapshot_bytes"] = os.path.getsize(args["snapshot"])
    metrics["covers.bags"] = last.cover.num_bags
    metrics["covers.max_bag"] = max(len(bag) for bag in last.cover.bags)
    metrics["core.skip_pointers_stored"] = sum(
        skips.stored_pointers for _, skips in last._far_structures_cache.values()
    )
    metrics["core.distance_index_size"] = last.dist.index_size()
    metrics["storage.registers"] = sum(t.registers_used for t in _tries(index))
    return {"metrics": metrics, "answers": answers(loaded, args["probes"])}


# ----------------------------------------------------------------------
# request path


def _per_call_us(fn, items, reps: int = 5) -> float:
    """Median over ``reps`` passes of the mean microseconds per item."""
    passes = []
    for _ in range(reps):
        tick = time.perf_counter()
        for item in items:
            fn(item)
        passes.append((time.perf_counter() - tick) / len(items) * 1e6)
    return statistics.median(passes)


def _timed_ms(fn, reps: int) -> float:
    samples = []
    for _ in range(reps):
        tick = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - tick) * 1e3)
    return statistics.median(samples)


def _record_calls(targets, run) -> dict[tuple, list]:
    """Run ``run()`` with each ``(cls, attr)`` recording its arguments."""
    recorded: dict[tuple, list] = {}
    originals = []
    for cls, attr in targets:
        original = cls.__dict__[attr]
        calls = recorded.setdefault((cls, attr), [])

        def recorder(*args, _original=original, _calls=calls, **kwargs):
            _calls.append((args, kwargs))
            return _original(*args, **kwargs)

        originals.append((cls, attr, original))
        setattr(cls, attr, recorder)
    try:
        run()
    finally:
        for cls, attr, original in originals:
            setattr(cls, attr, original)
    return recorded


def request(args: dict) -> dict:
    from repro.core.bag_solver import BagSolver
    from repro.core.skip_pointers import SkipPointers
    from repro.logic.parser import parse_formula
    from repro.metrics import collect
    from repro.serve.service import QueryService

    service = QueryService(graph_root=args["graph_root"])
    batch = args["batch"]
    page = args["page"]
    body = json.dumps(batch).encode()
    service.handle_batch(batch)  # cold build, untimed
    reps = args["reps"]
    out: dict = {}
    out["json.decode_us"] = _timed_ms(lambda: json.loads(body), reps * 4) * 1e3
    graph, digest = service.graphs.resolve(batch)

    def resolve():
        g, d = service.graphs.resolve(batch)
        phi = parse_formula(batch["query"])
        service.cache.fingerprint(g, phi, method="auto", graph_digest_hint=d)

    out["service.resolve_us"] = _timed_ms(resolve, reps * 4) * 1e3
    phi = parse_formula(batch["query"])
    out["cache.get_us"] = _timed_ms(
        lambda: service.cache.get(graph, phi, method="auto", graph_digest_hint=digest),
        reps * 4,
    ) * 1e3
    result = service.handle_batch(batch)
    out["service.batch_ms"] = _timed_ms(lambda: service.handle_batch(batch), reps)
    out["json.encode_us"] = _timed_ms(
        lambda: json.dumps({"ok": True, **result}).encode(), reps * 4
    ) * 1e3
    out["service.page_ms"] = _timed_ms(lambda: service.handle_enumerate(page), reps)

    index, _ = service.cache.get(graph, phi, method="auto", graph_digest_hint=digest)
    tuples = [tuple(call["tuple"]) for call in batch["calls"]]
    out["engine.test_us"] = _per_call_us(index.test, tuples)
    out["engine.next_us"] = _per_call_us(index.next_solution, tuples)
    cursors = [tuple(c) for c in args["cursors"]]
    limit = page["limit"]
    items = sum(len(index.enumerate_page(start=c, limit=limit).items) for c in cursors)
    out["engine.page_item_us"] = _per_call_us(
        lambda c: index.enumerate_page(start=c, limit=limit), cursors
    ) * len(cursors) / items
    for op, fn in (("test", index.test), ("next", index.next_solution)):
        with collect(ops=True) as registry:
            for t in tuples:
                fn(t)
        ops = sum(c for name, c in registry.op_counts.items() if ".RegisterFile." in name)
        out[f"engine.{op}_ops"] = ops / len(tuples)

    # skip pointers and bag solvers: replay the arguments they really
    # receive on this request path
    recorded = _record_calls([(SkipPointers, "skip"), (BagSolver, "first_at_least")],
                             lambda: [index.next_solution(t) for t in tuples])
    for metric, cls, attr in (
        ("core.skip_pointers.skip_us", SkipPointers, "skip"),
        ("core.bag_solver.first_at_least_us", BagSolver, "first_at_least"),
    ):
        calls = recorded[cls, attr]
        if not calls:
            raise RuntimeError(f"no {cls.__name__}.{attr} calls on the request path")
        fn = getattr(cls, attr)
        out[metric] = _per_call_us(lambda call: fn(*call[0], **call[1]), calls)
    # the distance oracle and the largest trie: direct calls at uniform
    # arguments (arity 2 answers without them on most calls)
    rng = random.Random(args["seed"])
    dist = index._impl.last.dist
    pairs = [(rng.randrange(dist.graph.n), rng.randrange(dist.graph.n)) for _ in range(500)]
    out["core.distance_index.test_us"] = _per_call_us(lambda p: dist.test(*p), pairs)
    trie = max(_tries(index), key=len)
    keys = [tuple(rng.randrange(trie.n) for _ in range(trie.k)) for _ in range(500)]
    out["storage.lookup_us"] = _per_call_us(trie.lookup, keys)
    out["storage.successor_us"] = _per_call_us(trie.successor, keys)
    return {"metrics": out, "results": result["results"],
            "page": service.handle_enumerate(page)}


# ----------------------------------------------------------------------
# update path


def update(args: dict) -> dict:
    from repro.api import open_index
    from repro.graphs.io import read_edge_list
    from repro.persist import save_index
    from repro.serve.service import QueryService

    graph = read_edge_list(args["graph"])
    index = open_index(graph, args["query"])
    deletes, inserts, saves, replies = [], [], [], []
    for u, v in args["edges"]:
        tick = time.perf_counter()
        cut = index.delete_edge(u, v)
        deletes.append((time.perf_counter() - tick) * 1e3)
        replies.append({"edge": [u, v], "version": cut.version,
                        **answers(cut, args["probes"])})
        tick = time.perf_counter()
        save_index(cut, args["snapshot"], cut.static_fingerprint)
        saves.append((time.perf_counter() - tick) * 1e3)
        tick = time.perf_counter()
        index = cut.insert_edge(u, v)
        inserts.append((time.perf_counter() - tick) * 1e3)

    service = QueryService(graph_root=args["graph_root"], snapshot_dir=args["snapshot_dir"])
    base = {"graph_path": args["graph_file"], "query": args["query"]}
    service.handle_batch({**base, "calls": [{"op": "test", "tuple": [0, 0]}]})
    handled, versions = [], []
    for u, v in args["edges"]:
        for op in ("delete", "insert"):
            tick = time.perf_counter()
            reply = service.handle_update({**base, "op": op, "edge": [u, v]})
            handled.append((time.perf_counter() - tick) * 1e3)
            versions.append(reply["version"])
    return {
        "metrics": {
            "core.repair.delete_ms": statistics.median(deletes),
            "core.repair.insert_ms": statistics.median(inserts),
            "persist.save_ms": statistics.median(saves),
            "service.update_ms": statistics.median(handled),
        },
        "answers": replies,
        "versions": versions,
    }


COMMANDS = {"build": build, "request": request, "update": update}

if __name__ == "__main__":
    print(json.dumps(COMMANDS[sys.argv[1]](json.loads(sys.argv[2]))))
