"""Shared test plumbing: the Hypothesis profile, the random chordal graph
strategy, a counter of separator searches and the acceptance-criteria
reporter.

Property tests run derandomized, so every run draws the same examples, and
without a deadline, since a single example can be slow on a busy host.

Acceptance tests register one line per criterion through the ``criteria``
fixture; the lines are echoed in a dedicated section of the terminal
summary so every criterion shows a PASS/FAIL verdict even under output
capture.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from gwish.errors import NoValidMove
from gwish.graph import UndirectedGraph, random_decomposable_move

settings.register_profile("gwish", derandomize=True, deadline=None)
settings.load_profile("gwish")


def random_chordal_graph(p, seed, steps):
    """A decomposable graph reached by seeded random add/delete moves."""
    rng = np.random.default_rng(seed)
    g = UndirectedGraph.empty(p)
    for _ in range(steps):
        kind = "add" if g.size == 0 or rng.random() < 0.7 else "delete"
        try:
            g = random_decomposable_move(g, kind, rng)
        except NoValidMove:
            pass
    return g


chordal_graphs = st.builds(
    random_chordal_graph,
    p=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    steps=st.integers(min_value=0, max_value=40),
)


@pytest.fixture
def separator_searches(monkeypatch):
    """The argument tuples of every ``UndirectedGraph.connected`` call, the
    one separator BFS behind every single-edge addition test."""
    calls = []
    search = UndirectedGraph.connected

    def counted(g, *args, **kwargs):
        calls.append(args)
        return search(g, *args, **kwargs)

    monkeypatch.setattr(UndirectedGraph, "connected", counted)
    return calls


class CriterionLog:
    def __init__(self):
        self.lines: list[tuple[str, str]] = []

    def record(self, number: str, name: str, ok: bool, detail: str = "") -> bool:
        status = "PASS" if ok else "FAIL"
        line = f"{status} criterion {number}: {name}"
        if detail:
            line += f" [{detail}]"
        self.lines.append((number, line))
        print(line)
        return ok


_LOG = CriterionLog()


def pytest_configure(config):
    config._criterion_log = _LOG


@pytest.fixture(scope="session")
def criteria():
    return _LOG


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    log = getattr(config, "_criterion_log", None)
    if log and log.lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(log.lines):
            terminalreporter.write_line(line)
