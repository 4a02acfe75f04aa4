"""Shared fixtures and suite-level wiring.

The wall-clock acceptance test must observe the whole run, so collection
moves it to the very end of the session.
"""
import importlib.machinery
import importlib.util
import time

import numpy as np
import pytest

from abelift import spectral
from abelift.hikes import singleton_free

SESSION_T0 = time.perf_counter()

# one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES: list[str] = []


def pytest_collection_modifyitems(items):
    last = [it for it in items if "wall_clock" in it.name]
    rest = [it for it in items if "wall_clock" not in it.name]
    items[:] = rest + last


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def acceptance_log() -> list[str]:
    return ACCEPTANCE_LINES


@pytest.fixture(scope="session")
def session_start() -> float:
    return SESSION_T0


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def _nb_walk_counts(g, k):
    """(n, n) counts of the non-backtracking k-walks from o to v, by the
    recurrence over directed edges: a walk ending on u -> v extends by
    each v -> w with w != u."""
    tails = np.repeat(np.arange(g.n), g.d)
    heads = g.adj.reshape(-1)
    follows = ((heads[:, None] == tails[None, :])
               & (heads[None, :] != tails[:, None])).astype(np.int64)
    # walks[o, i]: walks from o whose last step is directed edge i
    walks = (tails[None, :] == np.arange(g.n)[:, None]).astype(np.int64)
    for _ in range(k - 1):
        walks = walks @ follows
    return walks @ (heads[:, None] == np.arange(g.n)[None, :])


@pytest.fixture
def nb_walk_counts():
    return _nb_walk_counts


def _recursive_hikes(G, k, singleton_free_only):
    """The walks in the order of a plain recursive depth-first search."""
    def rec(walk):
        if len(walk) > 2 * k:
            if walk[-1] == walk[0] and (not singleton_free_only
                                        or singleton_free(walk)):
                yield tuple(walk)
            return
        p = len(walk)
        for w in map(int, G.adj[walk[-1]]):
            if p >= 2 and p != k + 1 and w == walk[-2]:
                continue
            yield from rec(walk + [w])
    for v0 in range(G.n):
        yield from rec([v0])


@pytest.fixture
def recursive_hikes():
    return _recursive_hikes


@pytest.fixture(params=["extension", "scipy"])
def lapack_missing(request, monkeypatch):
    """spectral._potrf with scipy's LAPACK extension file (or the whole
    scipy package) out of reach: the message its RuntimeError carries."""
    if request.param == "extension":
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES",
                            [".missing.so"])
        reason = "_flapack.missing.so'] is a file"
    else:
        find = importlib.util.find_spec
        monkeypatch.setattr(importlib.util, "find_spec", lambda name, *a: (
            None if name == "scipy" else find(name, *a)))
        reason = "no scipy package is on sys.path"
    spectral._flapack.cache_clear()
    spectral._potrf.cache_clear()
    yield reason
    monkeypatch.undo()
    spectral._flapack.cache_clear()
    spectral._potrf.cache_clear()
