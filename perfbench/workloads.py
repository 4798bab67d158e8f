"""The three workloads: their job lists, generated inputs and correctness checks.

A workload is built by `prepare(name, seed)`. The seed sets the job order of
every pass and the relabelling permutations of the ladder's library jobs; the
program only ever sees the generated inputs. Checks that need their own
computation (the oracles) run in `Oracles`, outside the timed region.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA = SRC / "nearsemiring" / "data"
WORK = BENCH_DIR / "_work"
EXPECTED = BENCH_DIR / "expected"

WORKLOADS = ("corpus", "ladder", "enumerate")

# every subcommand that takes one document, with its extra arguments; "{e}" is
# the file's element for decompose and principal-ideal
CORPUS_COMMANDS = (
    ("check",), ("congruences",), ("ideals",), ("center",),
    ("decompose", "--element", "{e}"), ("principal-ideal", "--element", "{e}"),
    ("claims",), ("to-mv",), ("from-mv",), ("roundtrip",),
    ("dot", "--lattice", "con"), ("dot", "--lattice", "id"), ("dot", "--lattice", "ce"),
)
CORPUS_EXTRA = (("cb", "b2xl3.alg", "l3xb2.alg", "--search"),)
# element 1 is central in the other products; in b2xl3 it is not, 3 = (1,0) is
CORPUS_ELEMENT = {"b2xl3.alg": "3"}

LADDER_COMMANDS = ("check", "congruences", "ideals", "center", "claims")
# name -> chain factors; |Con| = |Id| = |Ce| = 2^len(factors)
LADDER = {
    "b2x3": (2, 2, 2),
    "l3x2": (3, 3),
    "l12": (12,),
    "l3xl4": (3, 4),
    "b2x4": (2, 2, 2, 2),
}
RELABELLED = ("b2x3", "l3x2")

# (size, class); expected counts and their provenance are in expected/enumerate.json
ENUMERATE = (
    (6, "luk-rs"),
    (6, "luk-nrs"),
    (5, "inrs"),
)

# per-job limits (s): a timer stops a job that runs longer, and the job fails
LIMIT_S = {"corpus": 10.0, "ladder": 60.0, "enumerate": 120.0}


def import_program():
    """Import nearsemiring from this checkout's src/ and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import nearsemiring
        import nearsemiring.cli  # noqa: F401  (part of set-up by definition)
    except ImportError as err:
        raise SystemExit(f"perfbench: cannot import nearsemiring from {SRC}: {err}")
    where = Path(nearsemiring.__file__).resolve().parent
    if where != SRC / "nearsemiring":
        raise SystemExit(f"perfbench: nearsemiring imported from {where}, not {SRC}")
    return nearsemiring


@dataclass
class Job:
    key: str                                   # stable across seeds
    argv: Optional[tuple[str, ...]] = None     # a CLI job: cli.main(argv)
    call: Optional[Callable[[], Any]] = None   # a library job
    ref: Any = None                            # what the oracle needs to check it


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    cwd: Path                                  # CLI jobs run here, with bare file names
    files: dict[str, str] = field(default_factory=dict)   # serialized inputs to write

    def order(self, rng: random.Random) -> list[Job]:
        jobs = list(self.jobs)
        rng.shuffle(jobs)
        return jobs

    def materialize(self) -> None:
        if not self.files:
            return
        self.cwd.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (self.cwd / name).write_text(text, encoding="utf-8")


def relabel_tables(alg, perm, FiniteAlgebra):
    """Relabel every table (old index -> perm[old]).

    Kept apart from search.relabel, which canonical_form uses internally, so
    that the input to the canonical-form check does not come from the code
    under test.
    """
    n = alg.size
    plus = [[0] * n for _ in range(n)]
    times = [[0] * n for _ in range(n)]
    alpha = [0] * n
    for i in range(n):
        alpha[perm[i]] = perm[alg.alpha[i]]
        for j in range(n):
            plus[perm[i]][perm[j]] = perm[alg.plus[i][j]]
            times[perm[i]][perm[j]] = perm[alg.times[i][j]]
    return FiniteAlgebra(size=n, plus=plus, times=times, alpha=alpha,
                         zero=perm[alg.zero], one=perm[alg.one])


def ladder_algebra(ns, factors):
    alg = ns.luk_chain(factors[0])
    for k in factors[1:]:
        alg = ns.product(alg, ns.luk_chain(k))
    return alg


def prepare(name: str, seed: int) -> Workload:
    """Build the workload's inputs; everything a fresh process needs to start."""
    ns = import_program()
    from nearsemiring import algfile
    from nearsemiring.algfile import AlgebraDocument
    from nearsemiring.search import EnumerationTask

    if name == "corpus":
        files = sorted(p.name for p in DATA.glob("*.alg"))
        jobs = []
        for f in files:
            for cmd in CORPUS_COMMANDS:
                argv = (cmd[0], f) + tuple(
                    a.format(e=CORPUS_ELEMENT.get(f, "1")) for a in cmd[1:])
                jobs.append(Job(" ".join(argv), argv=argv))
        jobs += [Job(" ".join(argv), argv=argv) for argv in CORPUS_EXTRA]
        return Workload(name, jobs, DATA)

    if name == "ladder":
        rng = random.Random(seed)
        texts: dict[str, str] = {}
        jobs: list[Job] = []
        for stem, factors in LADDER.items():
            alg = ladder_algebra(ns, factors)
            texts[stem + ".alg"] = algfile.serialize(
                AlgebraDocument.from_algebra(alg, "luk-rs"))
            jobs += [Job(f"{cmd} {stem}.alg", argv=(cmd, stem + ".alg"))
                     for cmd in LADDER_COMMANDS]
            if stem in RELABELLED:
                perm = list(range(alg.size))
                rng.shuffle(perm)
                copy = relabel_tables(alg, perm, ns.FiniteAlgebra)
                jobs.append(Job(f"canonical_form {stem}~",
                                call=lambda c=copy: ns.search.canonical_form(c),
                                ref=(alg, copy)))
                jobs.append(Job(f"find_isomorphism {stem} {stem}~",
                                call=lambda a=alg, c=copy: ns.core.find_isomorphism(a, c),
                                ref=(alg, copy)))
        return Workload(name, jobs, WORK / "ladder", texts)

    if name == "enumerate":
        jobs = []
        for size, cls in ENUMERATE:
            task = EnumerationTask(size, cls, threads=1)
            jobs.append(Job(f"enumerate {size},{cls}",
                            call=lambda t=task: ns.search.enumerate_algebras(t),
                            ref=(size, cls)))
        return Workload(name, jobs, BENCH_DIR)

    raise SystemExit(f"perfbench: unknown workload {name!r}; expected one of {WORKLOADS}")


# -- correctness -------------------------------------------------------------


def unordered_factorizations(n: int, least: int = 2) -> int:
    """Ways to write n as a product of factors >= least, ignoring order."""
    if n == 1:
        return 1
    return sum(unordered_factorizations(n // d, d)
               for d in range(least, n + 1) if n % d == 0)


def load_expected(directory: Path, workload: str) -> dict:
    path = directory / f"{workload}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


LADDER_COUNT_HEADERS = {
    "congruences": "== congruences (",
    "ideals": "== ideals (",
    "center": "== central elements (",
}


def _header_count(stdout: str, prefix: str) -> Optional[int]:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return int(line[len(prefix):].split(")")[0])
    return None


def _invariant(alg) -> tuple:
    """Multiset of per-element isomorphism invariants (bounds fixed)."""
    n = alg.size
    t_occ = [0] * n
    p_occ = [0] * n
    below = [0] * n
    for a in range(n):
        for b in range(n):
            t_occ[alg.times[a][b]] += 1
            p_occ[alg.plus[a][b]] += 1
            if alg.plus[a][b] == b:
                below[b] += 1
    square = [alg.times[a][a] == a for a in range(n)]
    return tuple(sorted((alg.alpha[a] == a, t_occ[a], p_occ[a], below[a], square[a])
                        for a in range(n)))


def _is_isomorphism(a, b, mapping) -> bool:
    n = a.size
    if sorted(mapping) != list(range(n)) or mapping[a.zero] != b.zero \
            or mapping[a.one] != b.one:
        return False
    m = mapping
    return all(m[a.alpha[u]] == b.alpha[m[u]]
               and all(m[a.plus[u][v]] == b.plus[m[u]][m[v]]
                       and m[a.times[u][v]] == b.times[m[u]][m[v]] for v in range(n))
               for u in range(n))


class Oracles:
    """Expected answers and independent checks for one workload.

    `check(job, outcome)` returns None when the output is right, else a
    one-line reason. It runs after each pass, with tracing off; expensive
    references are computed once, on first use.
    """

    def __init__(self, workload: Workload, expected_dir: Path = EXPECTED):
        self.workload = workload
        expected = load_expected(expected_dir, workload.name)
        self.counts = expected.get("counts", {})
        self.answers = expected.get("answers", {})
        self._reference: dict[str, Any] = {}
        self._models: dict[str, tuple] = {}

    def check(self, job: Job, outcome) -> Optional[str]:
        if outcome.error is not None:
            return f"raised {outcome.error}"
        if outcome.seconds > LIMIT_S[self.workload.name]:
            return f"took {outcome.seconds:.1f} s, over the {LIMIT_S[self.workload.name]} s limit"
        if job.argv is not None:
            return self._check_cli(job, outcome)
        if job.key.startswith("canonical_form"):
            return self._check_canonical(job, outcome.result)
        if job.key.startswith("find_isomorphism"):
            return self._check_isomorphism(job, outcome.result)
        return self._check_models(job, outcome.result)

    def _check_cli(self, job: Job, outcome) -> Optional[str]:
        answer = self.answers.get(job.key)
        if answer is None:
            # the exit contract: 0, 1 or 2, never a traceback
            if outcome.status not in (0, 1, 2) or "Traceback" in outcome.stderr:
                return f"no recorded answer and exit status {outcome.status}"
        elif outcome.status != answer["status"]:
            return f"exit status {outcome.status}, expected {answer['status']}"
        elif outcome.stdout != answer["stdout"]:
            return "stdout differs from the recorded answer"
        cmd, fname = job.argv[0], job.argv[1]
        if self.workload.name == "ladder" and cmd in LADDER_COUNT_HEADERS:
            want = 2 ** len(LADDER[fname[:-len(".alg")]])
            got = _header_count(outcome.stdout, LADDER_COUNT_HEADERS[cmd])
            if got != want:
                return f"{cmd} found {got}, structure theorem says 2^m = {want}"
        return None

    def _check_canonical(self, job: Job, form) -> Optional[str]:
        import nearsemiring.search as search
        alg, _ = job.ref
        if job.key not in self._reference:
            self._reference[job.key] = search.canonical_form(alg).data
        if form.data != self._reference[job.key]:
            return "relabelled copy has a different canonical form"
        return None

    def _check_isomorphism(self, job: Job, hom) -> Optional[str]:
        from nearsemiring.core import Homomorphism
        alg, copy = job.ref
        if not isinstance(hom, Homomorphism):
            return f"returned {type(hom).__name__}, not a Homomorphism"
        if not _is_isomorphism(alg, copy, list(hom.mapping)):
            return "returned map is not an isomorphism onto the relabelled copy"
        return None

    def _check_models(self, job: Job, models) -> Optional[str]:
        size, cls = job.ref
        key = f"{size},{cls}"
        if cls == "luk-rs":
            want = unordered_factorizations(size)
        else:
            want = self.counts.get(key, {}).get("count")
        if want is None:
            return f"no expected count for {key}"
        if len(models) != want:
            return f"{len(models)} models, expected {want}"
        tables = tuple((m.plus, m.times, m.alpha) for m in models)
        if key in self._models:
            if tables != self._models[key]:
                return "models differ from the previous pass"
            return None
        reason = self._pairwise_non_isomorphic(models)
        if reason is None:
            self._models[key] = tables
        return reason

    @staticmethod
    def _pairwise_non_isomorphic(models) -> Optional[str]:
        """Pairs with different invariants cannot be isomorphic; test the rest."""
        from nearsemiring.core import find_isomorphism
        buckets: dict[tuple, list] = {}
        for m in models:
            buckets.setdefault(_invariant(m), []).append(m)
        for group in buckets.values():
            for i, a in enumerate(group):
                for b in group[i + 1:]:
                    if find_isomorphism(a, b) is not None:
                        return "two enumerated models are isomorphic"
        return None
