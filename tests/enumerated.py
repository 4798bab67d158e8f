"""Enumerated models shared by the test modules: each (size, class) is searched once per run."""

import functools

from nearsemiring.search import EnumerationTask, _Search


@functools.lru_cache(maxsize=None)
def searched(n, cls):
    """(models, nodes) of one search; the size-7 runs are too slow to repeat."""
    search = _Search(EnumerationTask(n, cls))
    return search.run(), search.nodes


def models(n, cls):
    """enumerate_algebras(EnumerationTask(n, cls)), from the shared search."""
    return searched(n, cls)[0]
