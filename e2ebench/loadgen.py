"""A closed-loop HTTP load generator: stdlib only, one process.

Each connection is one thread over one keep-alive ``http.client``
connection that sends its next request only after it has read the reply
to the previous one: callers of this service wait for each reply, and a
cursor chain is sequential by nature.  What to send next is up to the
connection's *driver* (see :mod:`workloads`), which also sees each reply.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any


@dataclass
class Reply:
    status: int  # HTTP status; 0 when the transport failed
    body: dict[str, Any]
    worker: str | None  # the pool's X-Repro-Worker header
    ms: float  # round trip, request write to last body byte


class Connection:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, address: tuple[str, int], timeout: float = 120.0) -> None:
        self.address = address
        self.timeout = timeout
        self._conn = http.client.HTTPConnection(*address, timeout=timeout)

    def post(self, path: str, payload: dict[str, Any]) -> Reply:
        return self._exchange("POST", path, json.dumps(payload).encode())

    def get(self, path: str) -> Reply:
        return self._exchange("GET", path, None)

    def _exchange(self, method: str, path: str, body: bytes | None) -> Reply:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        tick = time.perf_counter()
        try:
            self._conn.request(method, path, body, headers)
            response = self._conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            self._conn = http.client.HTTPConnection(*self.address, timeout=self.timeout)
            return Reply(0, {"error": repr(exc)}, None, (time.perf_counter() - tick) * 1e3)
        ms = (time.perf_counter() - tick) * 1e3
        try:
            parsed = json.loads(data)
        except ValueError:
            parsed = {"error": "reply is not JSON"}
        return Reply(response.status, parsed, response.getheader("X-Repro-Worker"), ms)

    def close(self) -> None:
        self._conn.close()


@dataclass
class Record:
    kind: str
    request: dict[str, Any]
    reply: Reply
    state: Any = field(default=None)  # what the driver knew when sending


def closed_loop(
    address: tuple[str, int], drivers: list, seconds: float
) -> tuple[list[Record], float]:
    """Run one thread per driver until ``seconds`` pass; return the records
    and the window length (first send to the last reply read)."""
    records: list[list[Record]] = [[] for _ in drivers]
    errors: list[BaseException] = []
    start = time.perf_counter()
    deadline = start + seconds
    finished = [start] * len(drivers)

    def loop(slot: int) -> None:
        driver = drivers[slot]
        conn = Connection(address)
        try:
            while time.perf_counter() < deadline:
                kind, path, payload, state = driver.request()
                reply = conn.post(path, payload)
                driver.observe(reply)
                records[slot].append(Record(kind, payload, reply, state))
            finished[slot] = time.perf_counter()
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=loop, args=(i,)) for i in range(len(drivers))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 150)
        if thread.is_alive():
            raise RuntimeError("a load-generator connection did not finish")
    if errors:
        raise errors[0]
    return [r for slot in records for r in slot], max(finished) - start
