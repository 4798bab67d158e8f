"""Command-line surface: batch checks, lattice reports, translations, DOT export.

Exit status contract: 0 = everything passed, 1 = an adjudicated disagreement
or failed check was found (and reported with a witness), 2 = input or usage
error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional

from . import algfile
from .algfile import AlgebraDocument, ParseError
from .axioms import CLASSES, INRS, LUK_NRS, check_axioms, require_class
from .cantor_bernstein import cb_search, cb_sequences, make_cb_instance
from .center import center, central_elements, decompose
from .congruences import all_congruences, malcev_and_regularity_report
from .core import AlgebraError, FiniteAlgebra
from .hasse import covering_pairs, hasse_dot
from .ideals import (DEFAULT_SUBSET_THRESHOLD, all_ideals, principal_ideal_report,
                     semiring_claims_report)
from .mv import AdjudicationError, check_mv_axioms, from_mv, roundtrip_check, to_mv
from .reports import EXIT_USAGE, Report
from .search import EnumerationCapExceeded, EnumerationTask, enumerate_with_forms


class UsageError(Exception):
    pass


def _load(path: str, reader=algfile.load):
    try:
        return reader(path)
    except FileNotFoundError:
        raise UsageError(f"{path}: no such file")
    except ParseError as err:
        raise UsageError(f"{path}: {err}")
    except OSError as err:  # a directory, no permission, ...
        raise UsageError(f"{path}: {err.strerror or err}")
    except UnicodeDecodeError as err:
        raise UsageError(f"{path}: not UTF-8 text: invalid byte at offset {err.start}")


def _load_table_algebra(path: str) -> FiniteAlgebra:
    doc = _load(path)
    if doc.is_mv:
        raise UsageError(f"{path}: this command needs a table algebra, got kind mv")
    return doc.to_algebra()


def _resolve_element(alg: FiniteAlgebra, token: str) -> int:
    if token in alg.name_to_index:
        return alg.name_to_index[token]
    try:
        idx = int(token)
    except ValueError:
        raise UsageError(f"unknown element name {token!r}")
    if not 0 <= idx < alg.size:
        raise UsageError(f"element index {idx} is outside the universe [0, {alg.size})")
    return idx


def _partition_label(alg: FiniteAlgebra, partition) -> str:
    return "{" + ", ".join(
        "{" + ", ".join(alg.label(v) for v in block) + "}"
        for block in partition.blocks) + "}"


def _echo(args: argparse.Namespace) -> str:
    return " ".join(args.command_echo)


# -- command handlers -------------------------------------------------------


def cmd_check(args) -> tuple[str, int]:
    doc = _load(args.file)
    if doc.is_mv:
        if args.algebra_class:
            raise UsageError(f"{args.file}: --class applies to table documents, got kind mv")
        mv = doc.to_algebra()
        report = Report(_echo(args))
        report.universe(mv)
        report.section("mv axioms")
        for c in check_mv_axioms(mv).checks:
            report.verdict(c.ok, c.name, c.witness.render(mv) if c.witness else "")
        return report.render(), report.exit_status
    alg = doc.to_algebra()
    cls = args.algebra_class or doc.kind
    axioms = check_axioms(alg, cls)
    report = Report(_echo(args))
    report.universe(alg)
    report.section(f"axioms ({cls})")
    for c in axioms.axioms:
        witness = c.witness.render(alg) if c.witness else ""
        report.verdict(c.ok, f"{c.name}{' ' + c.detail if c.detail and not c.ok else ''}",
                       witness)
    report.section("derived identities")
    for c in axioms.derived:
        witness = c.witness.render(alg) if c.witness else ""
        if cls == "inrs":
            # theorems of the Lukasiewicz classes only: informational here
            state = "holds" if c.ok else f"fails at {witness}"
            report.info(f"{c.name} {state}")
        else:
            report.verdict(c.ok, c.name, witness)
    return report.render(), report.exit_status


def cmd_congruences(args) -> tuple[str, int]:
    alg = _load_table_algebra(args.file)
    cons = all_congruences(alg)
    report = Report(_echo(args))
    report.universe(alg)
    report.section(f"congruences ({len(cons)})")
    for i, p in enumerate(cons):
        report.info(f"congruence {i}: {_partition_label(alg, p)}")
    report.section("permutability and regularity")
    for c in malcev_and_regularity_report(alg).checks:
        witness = c.witness.render(alg) if c.witness else c.detail
        report.verdict(c.ok, c.name, witness)
    return report.render(), report.exit_status


def cmd_ideals(args) -> tuple[str, int]:
    alg = _load_table_algebra(args.file)
    lattice = all_ideals(alg, threshold=args.threshold)
    report = Report(_echo(args))
    report.universe(alg)
    report.section(f"ideals ({len(lattice.ideals)})")
    for i, s in enumerate(lattice.ideals):
        star = lattice.pseudocomplement_of(s)
        report.info(f"ideal {i}: {s.render(alg)}  pseudocomplement: {star.render(alg)}")
    report.section("lattice edges (covering)")
    for i, j in covering_pairs(len(lattice.ideals), lattice.leq):
        report.info(f"{lattice.ideals[i].render(alg)} < {lattice.ideals[j].render(alg)}")
    if lattice.oracle_partial:
        report.info("oracle partial: subset scan skipped (size above threshold); "
                    "kernels only")
    else:
        report.verdict(True, "subset scan cross-checked congruence kernels")
    return report.render(), report.exit_status


def cmd_center(args) -> tuple[str, int]:
    alg = _load_table_algebra(args.file)
    rep = center(alg)
    report = Report(_echo(args))
    report.universe(alg)
    report.section(f"central elements ({len(rep.elements)})")
    report.info("center: {" + ", ".join(alg.label(e) for e in rep.elements) + "}")
    report.verdict(not rep.agreement_failures, "syntactic and semantic centrality agree",
                   ", ".join(alg.label(e) for e in rep.agreement_failures))
    report.verdict(not rep.closure_failures, "center closed under +, *, alpha",
                   "; ".join(rep.closure_failures))
    # the Boolean laws of a closed Ce(A) and the central-element law are
    # theorems on every inrs (center.center)
    report.verdict(True, "boolean algebra laws")
    report.verdict(rep.factor_bijection_ok,
                   "e -> theta(e,0) bijects onto factor congruences",
                   f"center size {len(rep.elements)}")
    report.section("central element laws")
    report.verdict(True, "all central-element laws")
    return report.render(), report.exit_status


def cmd_decompose(args) -> tuple[str, int]:
    alg = _load_table_algebra(args.file)
    require_class(alg, INRS, "decompose")
    e = _resolve_element(alg, args.element)
    d = decompose(alg, e)
    report = Report(_echo(args))
    report.universe(alg)
    report.section(f"decomposition along {alg.label(e)}")
    report.info(f"interval [0, {alg.label(e)}]: size {d.part.algebra.size}, "
                f"members {{{', '.join(alg.label(v) for v in d.part.members)}}}")
    report.info(f"interval [0, {alg.label(alg.alpha[e])}]: size {d.co_part.algebra.size}, "
                f"members {{{', '.join(alg.label(v) for v in d.co_part.members)}}}")
    report.verdict(d.pair_map.bijective, "pair map is an isomorphism onto the product")
    report.section("pair map table")
    m = d.co_part.algebra.size
    for a in range(alg.size):
        pair = d.pair_map(a)
        report.info(f"{alg.label(a)} -> ({d.part.algebra.label(pair // m)}, "
                    f"{d.co_part.algebra.label(pair % m)})")
    return report.render(), report.exit_status


def cmd_principal_ideal(args) -> tuple[str, int]:
    alg = _load_table_algebra(args.file)
    a = _resolve_element(alg, args.element)
    rep = principal_ideal_report(alg, a)
    report = Report(_echo(args))
    report.universe(alg)
    report.section(f"principal ideal I({alg.label(a)})")
    report.info(f"I({alg.label(a)}) = {rep.ideal.render(alg)}")
    report.verdict(rep.agree, "0-coset route agrees with the unary-polynomial route",
                   rep.polynomial_route.render(alg))
    return report.render(), report.exit_status


def cmd_claims(args) -> tuple[str, int]:
    alg = _load_table_algebra(args.file)
    rep = semiring_claims_report(alg, threshold=args.threshold)
    report = Report(_echo(args))
    report.universe(alg)
    report.section("adjudicated claims")
    report.info(f"{rep.agree} claims AGREE, {len(rep.disagreements)} claims DISAGREE")
    if not rep.subsets_scanned:
        report.info("subset scan skipped (size above threshold); element claims only")
    report.blank()
    for finding in rep.disagreements:
        report.claim(finding)
    return report.render(), report.exit_status


def cmd_to_mv(args) -> tuple[str, int]:
    alg = _load_table_algebra(args.file)
    mv = to_mv(alg)
    return algfile.serialize(AlgebraDocument.from_algebra(mv)), 0


def cmd_from_mv(args) -> tuple[str, int]:
    doc = _load(args.file)
    if not doc.is_mv:
        raise UsageError(f"{args.file}: from-mv needs kind mv")
    alg = from_mv(doc.to_algebra())
    return algfile.serialize(AlgebraDocument.from_algebra(alg, "luk-rs")), 0


def cmd_roundtrip(args) -> tuple[str, int]:
    doc = _load(args.file)
    structure = doc.to_algebra()
    rt = roundtrip_check(structure)
    report = Report(_echo(args))
    report.universe(structure)
    report.verdict(rt.ok, "round trip is table-identical", rt.mismatch)
    return report.render(), report.exit_status


def _load_map(path: str, alg_from, alg_to) -> tuple[int, ...]:
    out = [v if isinstance(v, int) else _resolve_element(alg_to, v)
           for v in _load(path, algfile.load_map)]
    if len(out) != alg_from.size:
        raise UsageError(f"{path}: map must have {alg_from.size} entries")
    for v in out:
        if not 0 <= v < alg_to.size:
            raise UsageError(f"{path}: map value {v} outside the target universe")
    return tuple(out)


def cmd_cb(args) -> tuple[str, int]:
    alg_a = _load_table_algebra(args.file_a)
    alg_b = _load_table_algebra(args.file_b)
    report = Report(_echo(args))
    report.plain(f"algebra A: size {alg_a.size}; algebra B: size {alg_b.size}")
    if args.search:
        res = cb_search(alg_a, alg_b)
        report.section(f"search over central pairs ({res.searched_pairs} examined)")
        for note in res.notes:
            report.info(note)
        for f in res.found:
            report.info(f"found a={alg_a.label(f.a)}, b={alg_b.label(f.b)}; "
                        f"isomorphism {list(f.iso.mapping)}")
        report.info(f"{len(res.found)} verified instance(s)")
        return report.render(), 0
    if not (args.gamma and args.beta and args.a is not None and args.b is not None):
        raise UsageError("cb needs either --search or all of --gamma, --beta, --a, --b")
    a = _resolve_element(alg_a, args.a)
    b = _resolve_element(alg_b, args.b)
    gamma = _load_map(args.gamma, alg_a, alg_b)
    beta = _load_map(args.beta, alg_b, alg_a)
    try:
        inst = make_cb_instance(alg_a, alg_b, a, b, gamma, beta)
    except Exception as err:
        raise UsageError(f"instance rejected: {err}")
    trace = cb_sequences(inst)
    report.section("chains")
    report.info("v: " + " -> ".join(alg_a.label(v) for v in trace.vs))
    report.info("u: " + " -> ".join(alg_b.label(u) for u in trace.us))
    report.info(f"v_inf = {alg_a.label(trace.v_inf)}, u_inf = {alg_b.label(trace.u_inf)}")
    report.info("difference elements e: [" +
                ", ".join(alg_a.label(e) for e in trace.es) + "]")
    report.info("difference elements d: [" +
                ", ".join(alg_b.label(d) for d in trace.ds) + "]")
    report.section("construction checks")
    for c in trace.checks:
        report.verdict(c.ok, c.name, c.detail)
    if trace.iso is not None:
        report.section("assembled isomorphism")
        for x in range(alg_a.size):
            report.info(f"{alg_a.label(x)} -> {alg_b.label(trace.iso(x))}")
    return report.render(), report.exit_status


def cmd_enumerate(args) -> tuple[str, int]:
    if args.out == "":      # an unset shell variable: refused before the search
        raise UsageError("--out must name a directory, got ''")
    task = EnumerationTask(args.size, args.algebra_class or LUK_NRS)
    models = enumerate_with_forms(task)
    report = Report(_echo(args))
    report.info(f"{len(models)} model(s) of class {task.algebra_class} at size {args.size}")
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
            for form, alg in models:
                name = form.hexdigest() + ".alg"
                path = os.path.join(args.out, name)
                doc = AlgebraDocument.from_algebra(alg, task.algebra_class)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(algfile.serialize(doc))
                report.info(f"wrote {path}")
        except OSError as err:  # --out names a file, no permission, ...
            raise UsageError(f"{args.out}: {err.strerror or err}")
    return report.render(), 0


def cmd_dot(args) -> tuple[str, int]:
    alg = _load_table_algebra(args.file)
    if args.lattice == "con":
        cons = all_congruences(alg)
        labels = [_partition_label(alg, p) for p in cons]
        return hasse_dot("congruence_lattice", labels,
                         lambda i, j: cons[i].refines(cons[j])), 0
    if args.lattice == "id":
        lattice = all_ideals(alg)
        labels = [s.render(alg) for s in lattice.ideals]
        return hasse_dot("ideal_lattice", labels, lattice.leq), 0
    require_class(alg, INRS, "dot --lattice ce")
    elems = central_elements(alg)
    labels = [alg.label(e) for e in elems]
    return hasse_dot("center", labels,
                     lambda i, j: alg.plus[elems[i]][elems[j]] == elems[j]), 0


# -- argument parsing --------------------------------------------------------


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    # --threshold goes only to ideals and claims, the commands that read it
    threshold = argparse.ArgumentParser(add_help=False)
    threshold.add_argument("--threshold", type=_positive, default=DEFAULT_SUBSET_THRESHOLD,
                           help="universe-size bound for listing every closed subset")

    parser = argparse.ArgumentParser(
        prog="nsr", description="finite near-semiring workbench")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="axiom report for a file")
    p.add_argument("file")
    p.add_argument("--class", dest="algebra_class", choices=CLASSES, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("congruences", help="Con(A) and structure checks")
    p.add_argument("file")
    p.set_defaults(func=cmd_congruences)

    p = sub.add_parser("ideals", parents=[threshold], help="Id(A) with pseudocomplements")
    p.add_argument("file")
    p.set_defaults(func=cmd_ideals)

    p = sub.add_parser("center", help="central elements and laws")
    p.add_argument("file")
    p.set_defaults(func=cmd_center)

    p = sub.add_parser("decompose", help="direct decomposition along a central element")
    p.add_argument("file")
    p.add_argument("--element", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("principal-ideal", help="I(a) with the polynomial cross-check")
    p.add_argument("file")
    p.add_argument("--element", required=True)
    p.set_defaults(func=cmd_principal_ideal)

    p = sub.add_parser("claims", parents=[threshold],
                       help="adjudicate the semiring-style ideal claims")
    p.add_argument("file")
    p.set_defaults(func=cmd_claims)

    p = sub.add_parser("to-mv", help="translate to the mv document")
    p.add_argument("file")
    p.set_defaults(func=cmd_to_mv)

    p = sub.add_parser("from-mv", help="translate an mv document back")
    p.add_argument("file")
    p.set_defaults(func=cmd_from_mv)

    p = sub.add_parser("roundtrip", help="verify the double translation")
    p.add_argument("file")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("cb",
                       help="run or search the interval-isomorphism construction")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--gamma", help="map file: A -> B landing in [0, b]")
    p.add_argument("--beta", help="map file: B -> A landing in [0, a]")
    p.add_argument("--a", help="central element of A")
    p.add_argument("--b", help="central element of B")
    p.add_argument("--search", action="store_true")
    p.set_defaults(func=cmd_cb)

    p = sub.add_parser("enumerate", help="models up to isomorphism")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--class", dest="algebra_class", choices=CLASSES, default=None)
    p.add_argument("--out", help="directory for the enumerated .alg files")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("dot", help="Hasse diagram as DOT text")
    p.add_argument("file")
    p.add_argument("--lattice", choices=("con", "id", "ce"), required=True)
    p.set_defaults(func=cmd_dot)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # built on the first main() call, not at import; parse_args keeps no state
    # between calls, so every later call reuses this tree
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0
    args.command_echo = ["nsr"] + argv
    try:
        text, status = args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except AdjudicationError as err:
        print(f"adjudication: {err}", file=sys.stderr)
        return 1
    except (ValueError, AlgebraError, EnumerationCapExceeded) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(text)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
