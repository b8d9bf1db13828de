"""The traced run (``--trace 1``): the per-layer anatomy.

It is separate from the end-to-end runs and prints the whole anatomy on
every workload: the build path of both build cases, the request path on
one server and on the pool, and the update path.  In-process layer
timings come from fresh interpreters (:mod:`anatomy_child`); round trips
come from the stock ``repro serve`` command, driven over HTTP.
"""

from __future__ import annotations

import random
from pathlib import Path

from common import (
    GRAPH_FILE, QUERIES, SERVED, Size, cpu_seconds, family_pids, grid_text, median,
    probes, run_child,
)
from loadgen import Connection, closed_loop
from oracle import Checker, Oracle
from servers import ServerProcess
from workloads import (
    BatchDriver, Outcome, PageDriver, UpdateDriver, state_at, update_edges,
)

def _child(command: str, args: dict) -> dict:
    result, _, error = run_child("anatomy_child.py", command, args)
    if result is None:
        raise RuntimeError(f"anatomy_child {command} failed:\n{error}")
    return result


def run(size: Size, seed: int, work: Path, corrupt: bool = False) -> Outcome:
    rng = random.Random(seed)
    build_text = grid_text(size.build_side, seed)
    serve_text = grid_text(size.serve_side, seed)
    out = Outcome(Checker(Oracle(serve_text, QUERIES[SERVED], corrupt)))
    v: dict[str, float] = {}

    # -- build path ----------------------------------------------------
    build_graph = work / "build-grid.txt"
    build_graph.write_text(build_text)
    n_build = size.build_side ** 2
    for case, query in QUERIES.items():
        args = {"graph": str(build_graph), "query": query,
                "snapshot": str(work / f"{case}.rpx")}
        untraced = _child("build", {**args, "traced": False})
        out.count("build.untraced")
        asked = probes(rng, n_build)
        traced = _child("build", {**args, "traced": True, "probes": asked})
        out.count("build.traced")
        p = f"build.{case}."
        v.update({p + name: value for name, value in traced["metrics"].items()})
        v[p + "tracing_overhead_s"] = v[p + "build_s"] - untraced["build_s"]
        checker = Checker(Oracle(build_text, query))
        checker.answers(None, asked, traced["answers"], f"build {case}")
        out.checker.merge(checker)

    # -- request path: one server, then the pool -------------------------
    (work / GRAPH_FILE).write_text(serve_text)
    n = size.serve_side ** 2
    base = {"graph_path": GRAPH_FILE, "query": QUERIES[SERVED]}
    batches = BatchDriver(base, n, size.batch_calls, rng)

    def page_request() -> dict:
        return {**base, "limit": size.page_limit, "cursor": [rng.randrange(n), 0]}

    def unloaded(server: ServerProcess, tag: str) -> tuple[list, list, list]:
        conn = Connection(server.address)
        conn.post("/v1/batch", batches.request()[2])  # cold build, untimed
        batch_ms, page_ms, workers = [], [], []
        for _ in range(size.anatomy_rtts):
            payload = batches.request()[2]
            reply = conn.post("/v1/batch", payload)
            out.count(f"{tag}.batch", reply.status != 200)
            if reply.status == 200:
                batch_ms.append(reply.ms)
                workers.append(reply.worker)
                out.checker.calls(None, payload["calls"], reply.body["results"], tag)
            payload = page_request()
            reply = conn.post("/v1/enumerate", payload)
            out.count(f"{tag}.page", reply.status != 200)
            if reply.status == 200:
                page_ms.append(reply.ms)
                workers.append(reply.worker)
                out.checker.page(None, payload["cursor"], payload["limit"], reply.body, tag)
        conn.close()
        return batch_ms, page_ms, workers

    server = ServerProcess(work, [], "anatomy-single.log")
    try:
        batch_ms, page_ms, _ = unloaded(server, "single")
        pids = family_pids(server.pid)
        cpu_before = cpu_seconds(pids)
        records, _ = closed_loop(
            server.address,
            [BatchDriver(base, n, size.batch_calls, rng),
             PageDriver(base, n, size.page_limit, size.chain_pages, rng)],
            min(3.0, size.anatomy_rtts * 0.12),
        )
        cpu = cpu_seconds(pids) - cpu_before
        conn = Connection(server.address)
        stats = conn.get("/v1/stats").body["cache"]
        conn.close()
    finally:
        server.stop()
    loaded_batch = [r.reply.ms for r in records if r.kind == "batch" and r.reply.status == 200]
    for r in records:
        out.count(f"single.loaded.{r.kind}", r.reply.status != 200)
    v["http.batch_rtt_ms"] = median(batch_ms)
    v["http.page_rtt_ms"] = median(page_ms)
    v["serve.cpu_ms_per_request"] = cpu * 1e3 / len(records)
    lookups = stats["hits"] + stats["builds"] + stats["snapshot_loads"] + stats["joined"]
    v["cache.hit_ratio"] = stats["hits"] / lookups

    pool = ServerProcess(work, ["--pool-workers", "2"], "anatomy-pool.log")
    try:
        pool_batch_ms, _, workers = unloaded(pool, "pool")
    finally:
        pool.stop()
    v["pool.batch_rtt_ms"] = median(pool_batch_ms)
    v["pool.hop_ms"] = v["pool.batch_rtt_ms"] - v["http.batch_rtt_ms"]
    v["pool.busiest_worker_share"] = max(workers.count(w) for w in set(workers)) / len(workers)

    cursors = [page_request()["cursor"] for _ in range(8)]
    batch_payload = batches.request()[2]
    page_payload = page_request()
    inproc = _child("request", {
        "graph_root": str(work), "batch": batch_payload, "page": page_payload,
        "cursors": cursors, "reps": max(5, size.anatomy_rtts), "seed": seed,
    })
    out.count("inprocess.batch")
    out.checker.calls(None, batch_payload["calls"], inproc["results"], "in-process batch")
    out.checker.page(None, page_payload["cursor"], page_payload["limit"], inproc["page"],
                     "in-process page")
    v.update(inproc["metrics"])
    in_process_ms = (v["json.decode_us"] + v["json.encode_us"]) / 1e3 + v["service.batch_ms"]
    v["http.framing_ms"] = v["http.batch_rtt_ms"] - in_process_ms
    loaded_p50 = median(loaded_batch)
    v["http.framing_share_of_batch_p50"] = (loaded_p50 - in_process_ms) / loaded_p50
    out.notes.append(
        f"framing: an unloaded {size.batch_calls}-call /v1/batch takes "
        f"{v['http.batch_rtt_ms']:.1f} ms over HTTP but {in_process_ms:.2f} ms in "
        f"process (decode + handle_batch + encode): {v['http.framing_ms']:.1f} ms "
        f"of framing; under load {v['http.framing_share_of_batch_p50']:.0%} of the "
        f"batch p50 ({loaded_p50:.1f} ms) is outside the service"
    )
    out.notes.append(
        "framing: RequestHandler._send writes headers and body as two sends on a "
        "socket without TCP_NODELAY; the ~40 ms is a delayed-ACK stall (not fixed here)"
    )

    # -- update path -----------------------------------------------------
    edges = update_edges(size.serve_side, size.anatomy_updates)
    asked = probes(rng, n)
    upd = _child("update", {
        "graph": str(work / GRAPH_FILE), "graph_root": str(work), "graph_file": GRAPH_FILE,
        "query": QUERIES[SERVED], "edges": edges, "probes": asked,
        "snapshot": str(work / "updated.rpx"), "snapshot_dir": str(work / "update-snapshots"),
    })
    for answers in upd["answers"]:
        out.count("inprocess.update")
        out.checker.answers(tuple(answers["edge"]), asked, answers, "repaired index")
    want = list(range(1, 2 * len(edges) + 1))
    out.checker.checked += 1
    if upd["versions"] != want:
        out.checker.wrong.append(f"service versions {upd['versions']}, want {want}")
    v.update(upd["metrics"])

    server = ServerProcess(work, ["--snapshot-dir", str(work / "http-snapshots")],
                           "anatomy-update.log")
    rtts = []
    try:
        conn = Connection(server.address)
        conn.post("/v1/batch", batches.request()[2])  # cold build, untimed
        writer = UpdateDriver(base, edges)
        for _ in range(2 * len(edges)):
            _, path, payload, version = writer.request()
            reply = conn.post(path, payload)
            out.count("http.update", reply.status != 200)
            rtts.append(reply.ms)
            out.checker.checked += 1
            if reply.body.get("version") != version:
                out.checker.wrong.append(f"update {version}: got {reply.body}")
            payload = batches.request()[2]
            reply = conn.post("/v1/batch", payload)
            out.count("http.batch", reply.status != 200)
            if reply.status == 200:
                state = state_at(reply.body["index"]["index_version"], edges)
                out.checker.calls(state, payload["calls"], reply.body["results"], "after update")
        conn.close()
    finally:
        server.stop()
    v["http.update_rtt_ms"] = median(rtts)

    out.metrics = v
    return out
