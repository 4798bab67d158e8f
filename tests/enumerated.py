"""Enumerated models shared by the test modules: each (size, class) is searched once per run."""

import functools
import random

from nearsemiring import bundled_file
from nearsemiring.algfile import load
from nearsemiring.axioms import INRS, LUK_NRS, LUK_RS
from nearsemiring.catalog import luk_chain
from nearsemiring.core import FiniteAlgebra, product
from nearsemiring.mv import from_mv
from nearsemiring.search import EnumerationTask, _Search

BUNDLED = ("b2", "b2xb2", "b2xl3", "g3", "l3-mv", "l3", "l3xb2", "l4", "trivial")


@functools.lru_cache(maxsize=None)
def searched(n, cls):
    """(models, nodes) of one search; the size-7 runs are too slow to repeat."""
    search = _Search(EnumerationTask(n, cls))
    return search.run(), search.nodes


def models(n, cls):
    """enumerate_algebras(EnumerationTask(n, cls)), from the shared search."""
    return searched(n, cls)[0]


def table_algebra(name):
    """A bundled document as a table algebra; an mv document is translated."""
    structure = load(bundled_file(name + ".alg")).to_algebra()
    return structure if isinstance(structure, FiniteAlgebra) else from_mv(structure)


def mutants(alg, rng):
    """One one-cell mutant each of +, * and alpha.  + changes a cell off the
    diagonal and its mirror, so x+x = x and x+y = y+x survive and the later
    laws of (i) are reached."""
    n = alg.size
    if n < 2:
        return ()

    def other(v):
        return rng.choice([w for w in range(n) if w != v])

    plus, times, alpha = [list(r) for r in alg.plus], [list(r) for r in alg.times], list(alg.alpha)
    a, b = rng.sample(range(n), 2)
    plus[a][b] = plus[b][a] = other(plus[a][b])
    c, d = rng.randrange(n), rng.randrange(n)
    times[c][d] = other(times[c][d])
    e = rng.randrange(n)
    alpha[e] = other(alpha[e])
    tables = {"plus": alg.plus, "times": alg.times, "alpha": alg.alpha}
    return tuple(FiniteAlgebra(n, **{**tables, key: value}, zero=alg.zero, one=alg.one)
                 for key, value in (("plus", plus), ("times", times), ("alpha", alpha)))


@functools.lru_cache(maxsize=None)
def oracle_pool():
    """Every enumerated model (inrs n <= 5, luk-nrs and luk-rs n <= 7), the
    bundled documents, b2^3, l3^2 and l12, then a seeded one-cell mutant of
    +, * and alpha of each."""
    b2, l3 = luk_chain(2), luk_chain(3)
    base = ([alg for n in range(1, 6) for alg in models(n, INRS)]
            + [alg for n in range(1, 8) for cls in (LUK_NRS, LUK_RS) for alg in models(n, cls)]
            + [table_algebra(name) for name in BUNDLED]
            + [product(product(b2, b2), b2), product(l3, l3), luk_chain(12)])
    rng = random.Random(27)
    return tuple(base) + tuple(m for alg in base for m in mutants(alg, rng))
