"""Spans around the program's public functions, recorded from outside.

`Tracer.install()` replaces each traced function at every name under which a
`nearsemiring` module looks it up (for example `nearsemiring.cli.center` and
`nearsemiring.search.check_axioms`) with a wrapper that records a span;
`uninstall()` puts the originals back. Work is single-threaded, so the open
spans form a stack and each span's parent is the span below it. Spans stay in
memory until `write()`. A span's counters are computed after it closes, and
that time is added to its parent's child time, so the harness's own work is
in no span's self time (only the open/close bookkeeping is).
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Optional

# span name -> (module, function) of every function recorded under that name
SPANS = {
    "algfile.parse": [("nearsemiring.algfile", "parse")],
    "algfile.serialize": [("nearsemiring.algfile", "serialize")],
    "hasse.dot": [("nearsemiring.hasse", "hasse_dot")],
    "axioms.check_axioms": [("nearsemiring.axioms", "check_axioms")],
    "congruences.all_congruences": [("nearsemiring.congruences", "all_congruences")],
    "congruences.malcev": [("nearsemiring.congruences", "malcev_and_regularity_report")],
    "ideals.all_ideals": [("nearsemiring.ideals", "all_ideals")],
    "ideals.claims": [("nearsemiring.ideals", "semiring_claims_report")],
    "ideals.principal_ideal": [("nearsemiring.ideals", "principal_ideal_report")],
    "center.center": [("nearsemiring.center", "center")],
    "center.central_laws": [("nearsemiring.center", "central_laws_report")],
    "center.decompose": [("nearsemiring.center", "decompose")],
    "core.find_isomorphism": [("nearsemiring.core", "find_isomorphism")],
    "core.product": [("nearsemiring.core", "product")],
    "mv.translate": [("nearsemiring.mv", "to_mv"), ("nearsemiring.mv", "from_mv"),
                     ("nearsemiring.mv", "roundtrip_check")],
    "cantor_bernstein.cb_search": [("nearsemiring.cantor_bernstein", "cb_search")],
    "search.enumerate": [("nearsemiring.search", "enumerate_algebras")],
    "search.canonical_form": [("nearsemiring.search", "canonical_form")],
}


def _argument(fn: Callable, name: str) -> Callable[[tuple, dict], Any]:
    """Picks argument `name` out of a call's (args, kwargs), default included.

    The position is looked up here, once, not on every call."""
    params = list(inspect.signature(fn).parameters.values())
    pos = [p.name for p in params].index(name)
    default = params[pos].default

    def get(args: tuple, kwargs: dict) -> Any:
        if name in kwargs:
            return kwargs[name]
        return args[pos] if pos < len(args) else default

    return get


def identity_arities() -> dict[str, tuple[int, ...]]:
    """Per class, the variable count of every identity check_axioms evaluates.

    Learned by running check_axioms once per class on the 2-element Boolean
    algebra, which passes every axiom, so no bundle stops early.
    """
    axioms = sys.modules["nearsemiring.axioms"]
    original = axioms.check_identity
    seen: list[int] = []

    def record(alg, name, lhs, rhs, *rest, **kwargs):
        seen.append(len(dict.fromkeys(lhs.variables() + rhs.variables())))
        return original(alg, name, lhs, rhs, *rest, **kwargs)

    b2 = sys.modules["nearsemiring.catalog"].boolean2()
    out = {}
    axioms.check_identity = record
    try:
        for cls in axioms.CLASSES:
            seen.clear()
            axioms.check_axioms(b2, cls)
            out[cls] = tuple(seen)
    finally:
        axioms.check_identity = original
    return out


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index, job index, child seconds, attrs]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.arities: dict[str, tuple[int, ...]] = {}
        self._patched: list[tuple[Any, str, Callable]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job, 0.0, None])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self.stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += span[2] - span[1]

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        counters = self._counters(name, fn)

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counters is not None:
                # harness work: counted as child time of the parent, so it
                # lands in no span's self time
                start = time.perf_counter()
                span = tracer.spans[idx]
                span[6] = counters(args, kwargs, result)
                if span[3] >= 0:
                    tracer.spans[span[3]][5] += time.perf_counter() - start
            return result

        return traced

    def _counters(self, name: str, fn: Callable) -> Optional[Callable]:
        """Counters taken at the boundary, from a call's arguments and result."""
        if name == "axioms.check_axioms":
            alg_of, class_of = _argument(fn, "alg"), _argument(fn, "algebra_class")
            arities = self.arities

            def check_axioms(args, kwargs, result):
                n = alg_of(args, kwargs).size
                return {"ok": result.ok,
                        "instances": sum(n ** k for k in arities[class_of(args, kwargs)])}
            return check_axioms
        if name == "congruences.all_congruences":
            alg_of = _argument(fn, "alg")

            def all_congruences(args, kwargs, result):
                n = alg_of(args, kwargs).size
                return {"pairs": n * (n - 1) // 2, "size": len(result)}
            return all_congruences
        if name == "ideals.all_ideals":
            alg_of, threshold_of = _argument(fn, "alg"), _argument(fn, "threshold")

            def all_ideals(args, kwargs, result):
                n = alg_of(args, kwargs).size
                return {"masks": 2 ** n if n <= threshold_of(args, kwargs) else 0,
                        "size": len(result.ideals)}
            return all_ideals
        if name == "center.center":
            return lambda args, kwargs, result: {"size": len(result.elements)}
        if name == "center.central_laws":
            alg_of = _argument(fn, "alg")
            return lambda args, kwargs, result: {
                "families": len(result.elements) * (2 ** alg_of(args, kwargs).size - 1)}
        if name == "search.enumerate":
            return lambda args, kwargs, result: {"models": len(result)}
        return None

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        self.arities = identity_arities()
        replacements: dict[int, Callable] = {}
        for name, targets in SPANS.items():
            for module, attr in targets:
                fn = getattr(sys.modules[module], attr)
                replacements[id(fn)] = self._wrap(name, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "nearsemiring" and not mod_name.startswith("nearsemiring."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, replacements[id(value)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        return [s[2] - s[1] - s[5] for s in self.spans]

    def write(self, path: Path, *more: "Tracer") -> None:
        """One JSON object per span; spans of `more` follow, parents renumbered."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            offset = 0
            for tracer in (self, *more):
                for s in tracer.spans:
                    parent = s[3] + offset if s[3] >= 0 else -1
                    fh.write(json.dumps({"name": s[0], "start": s[1], "end": s[2],
                                         "parent": parent, "job": s[4],
                                         "attrs": s[6]}) + "\n")
                offset += len(tracer.spans)
