"""Expected answers from repro's naive evaluator, and the reply checker.

The reference is the textbook evaluator that
:class:`repro.baselines.NaiveIndex` materializes
(:func:`repro.logic.semantics.satisfies`), asked tuple by tuple instead
of for all ``n^2`` tuples up front, so one run can afford every graph
state it meets.  It shares no code with the index under test beyond the
graph and formula types.
"""

from __future__ import annotations

import sys

from common import SRC

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.graphs.io import loads_edge_list  # noqa: E402
from repro.logic.parser import parse_formula  # noqa: E402
from repro.logic.semantics import satisfies  # noqa: E402
from repro.logic.transform import free_variables  # noqa: E402


class Oracle:
    """Answers for one query over a base graph and its edge-toggled states.

    ``state`` selects the graph: ``None`` is the base graph, an edge
    ``(u, v)`` is the base graph without that edge (write-mix deletes
    one edge at a time and re-inserts it).  With ``corrupt`` set, the
    first answer given is deliberately wrong, so a harness that fails
    to notice it is caught by the self-test.
    """

    def __init__(self, graph_text: str, query: str, corrupt: bool = False) -> None:
        self.base = loads_edge_list(graph_text)
        self.n = self.base.n
        self.phi = parse_formula(query)
        self.order = sorted(free_variables(self.phi), key=lambda v: v.name)
        self._graphs = {None: self.base}
        self._memo: dict[tuple, bool] = {}
        self._corrupt = corrupt

    def graph(self, state):
        found = self._graphs.get(state)
        if found is None:
            found = self._graphs[state] = self.base.without_edge(*state)
        return found

    def holds(self, state, values: tuple[int, ...]) -> bool:
        key = (state, values)
        found = self._memo.get(key)
        if found is None:
            found = self._memo[key] = satisfies(
                self.graph(state), self.phi, values, self.order
            )
        return found

    def test(self, state, values: tuple[int, ...]) -> bool:
        return self._spoil(self.holds(state, tuple(values)))

    def next(self, state, values: tuple[int, ...]) -> list[int] | None:
        found = self._scan(state, tuple(values))
        return self._spoil(None if found is None else list(found))

    def page(self, state, cursor, limit: int) -> tuple[list[list[int]], list[int] | None]:
        """Up to ``limit`` solutions from ``cursor`` and the resume cursor."""
        out: list[list[int]] = []
        current = tuple(cursor) if cursor is not None else (0,) * len(self.order)
        while current is not None:
            found = self._scan(state, current)
            if found is None:
                return self._spoil(out), None
            if len(out) == limit:
                return self._spoil(out), list(found)
            out.append(list(found))
            current = next_tuple(found, self.n)
        return self._spoil(out), None

    def _scan(self, state, start):
        """Smallest solution ``>= start`` in lexicographic order."""
        current = start
        while current is not None:
            if self.holds(state, current):
                return current
            current = next_tuple(current, self.n)
        return None

    def _spoil(self, answer):
        if not self._corrupt:
            return answer
        self._corrupt = False
        if isinstance(answer, bool):
            return not answer
        if answer is None:
            return [0] * len(self.order)
        if not answer or isinstance(answer[0], list):  # a page's items
            return answer[1:] or [[0] * len(self.order)]
        return [v + 1 for v in answer]


def next_tuple(values: tuple[int, ...], n: int) -> tuple[int, ...] | None:
    """The lexicographic successor of ``values`` in ``[0, n)^k``."""
    out = list(values)
    for i in range(len(out) - 1, -1, -1):
        if out[i] + 1 < n:
            out[i] += 1
            return tuple(out)
        out[i] = 0
    return None


class Checker:
    """Compares replies with the oracle and keeps every mismatch."""

    def __init__(self, oracle: Oracle) -> None:
        self.oracle = oracle
        self.checked = 0
        self.wrong: list[str] = []

    def calls(self, state, calls: list[dict], results: list, where: str) -> None:
        if len(results) != len(calls):
            self._miss(where, f"{len(results)} results for {len(calls)} calls")
            return
        for call, got in zip(calls, results):
            values = tuple(call["tuple"])
            if call["op"] == "test":
                want = self.oracle.test(state, values)
            else:
                want = self.oracle.next(state, values)
            self.checked += 1
            if got != want:
                self._miss(where, f"{call['op']}{list(values)}: got {got}, want {want}")

    def page(self, state, cursor, limit: int, reply: dict, where: str) -> None:
        items, resume = self.oracle.page(state, cursor, limit)
        self.checked += 1
        if reply["items"] != items or reply["next_cursor"] != resume:
            self._miss(
                where,
                f"page from {cursor}: got {reply['items'][:2]}.. resume "
                f"{reply['next_cursor']}, want {items[:2]}.. resume {resume}",
            )

    def answers(self, state, probes: dict, got: dict, where: str) -> None:
        """Check an index's answers to :func:`common.probes`."""
        calls = ([{"op": "test", "tuple": t} for t in probes["tests"]]
                 + [{"op": "next", "tuple": t} for t in probes["nexts"]])
        results = got["tests"] + got["nexts"]
        if "first" in got:  # a load's timed first answer
            calls.append(calls[len(probes["tests"])])
            results.append(got["first"])
        self.calls(state, calls, results, where)
        self.page(state, probes["cursor"], probes["limit"], got["page"], where)

    def merge(self, other: "Checker") -> None:
        self.checked += other.checked
        self.wrong.extend(other.wrong)

    def _miss(self, where: str, detail: str) -> None:
        self.wrong.append(f"{where}: {detail}")
