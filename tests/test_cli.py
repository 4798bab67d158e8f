import argparse
import dataclasses
import functools
import importlib
import io
import json
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearsemiring import bundled_file, cli
from nearsemiring.algfile import AlgebraDocument, load, parse, serialize
from nearsemiring.axioms import check_axioms
from nearsemiring.catalog import luk_chain
from nearsemiring.cli import build_parser, main
from nearsemiring.search import EnumerationTask, canonical_form, enumerate_algebras

from test_algfile import BUNDLED, mutate


def path(name):
    return str(bundled_file(name))


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_check_b2_luk_rs_all_pass(capsys):
    status, out, _ = run(capsys, "check", path("b2.alg"), "--class", "luk-rs")
    assert status == 0
    assert "FAIL" not in out
    assert "PASS (vii)" in out


def test_check_g3_fails_vii_with_witness(capsys):
    status, out, _ = run(capsys, "check", path("g3.alg"), "--class", "luk-nrs")
    assert status == 1
    assert "FAIL (vii) -- witness: x=1, y=h" in out
    fails = [l for l in out.splitlines()
             if l.startswith("FAIL (") and "derived" not in l]
    assert fails[0].startswith("FAIL (vii)")


def test_check_mv_document(capsys):
    status, out, _ = run(capsys, "check", path("l3-mv.alg"))
    assert status == 0
    assert "mv axioms" in out


def test_check_mv_document_prints_the_witness_of_a_failed_axiom(capsys, tmp_path):
    doc = tmp_path / "broken-mv.alg"
    doc.write_text("kind = mv\nsize = 2\nzero = 0\noplus = [[0, 0], [0, 1]]\nneg = [1, 0]\n")
    status, out, _ = run(capsys, "check", str(doc))
    assert status == 1
    assert "FAIL zero is neutral -- witness: x=1: lhs=0 rhs=1\n" in out


def test_ideals_l3(capsys):
    status, out, _ = run(capsys, "ideals", path("l3.alg"))
    assert status == 0
    assert "ideals (2)" in out
    assert "INFO {0} < {0, h, 1}" in out


def test_congruences_includes_malcev_checks(capsys):
    status, out, _ = run(capsys, "congruences", path("b2xb2.alg"))
    assert status == 0
    assert "congruences (4)" in out
    assert "PASS p(x,y,y) = x" in out
    assert "PASS 0-regularity" in out


def test_center_report(capsys):
    status, out, _ = run(capsys, "center", path("b2xl3.alg"))
    assert status == 0
    assert "center: {(0,0), (0,1), (1,0), (1,1)}" in out
    assert "PASS boolean algebra laws" in out


def test_claims_l3_exits_one_with_blocks(capsys):
    status, out, _ = run(capsys, "claims", path("l3.alg"))
    assert status == 1
    assert "CLAIM semiring-ideal-conditions subset={0, h}" in out
    assert "WITNESS (I1) a=1, b=h" in out
    assert "CLAIM principal-ideal-products element=h" in out


def test_congruences_exits_one_on_non_permuting_congruences(tmp_path, capsys):
    table = tmp_path / "inrs4.alg"
    alg = enumerate_algebras(EnumerationTask(4, "inrs"))[11]
    table.write_text(serialize(AlgebraDocument.from_algebra(alg)))
    status, out, _ = run(capsys, "congruences", str(table))
    assert status == 1
    assert ("FAIL congruences permute -- witness: blocks ((0,), (1, 2), (3,)) "
            "and ((0, 2), (1, 3)) do not permute\n") in out


def test_claims_rejects_non_semiring(capsys):
    status, _, err = run(capsys, "claims", path("g3.alg"))
    assert status == 2
    assert "(vii)" in err


def test_decompose_by_name_and_non_central_rejection(capsys):
    status, out, _ = run(capsys, "decompose", path("b2xl3.alg"),
                         "--element", "(1,0)")
    assert status == 0
    assert "PASS pair map is an isomorphism onto the product" in out
    status, _, err = run(capsys, "decompose", path("l3.alg"), "--element", "h")
    assert status == 2
    assert "not central" in err


def test_repeated_element_names_are_a_usage_error(tmp_path, capsys):
    # with two elements named "a", --element a would pick one of them silently
    doc = tmp_path / "dup.alg"
    doc.write_text(bundled_file("b2.alg").read_text().replace('names = ["0", "1"]', 'names = ["a", "a"]'))
    status, _, err = run(capsys, "decompose", str(doc), "--element", "a")
    assert status == 2
    assert err == f"error: {doc}: line 3, col 15: duplicate name 'a'\n"


def test_principal_ideal(capsys):
    status, out, _ = run(capsys, "principal-ideal", path("l3.alg"),
                         "--element", "h")
    assert status == 0
    assert "I(h) = {0, h, 1}" in out


def test_unknown_element_distinct_diagnostic(capsys):
    status, _, err = run(capsys, "principal-ideal", path("l3.alg"),
                         "--element", "q")
    assert status == 2
    assert "unknown element name" in err
    status, _, err = run(capsys, "principal-ideal", path("l3.alg"),
                         "--element", "7")
    assert status == 2
    assert "outside the universe" in err


def test_missing_file_and_parse_error(tmp_path, capsys):
    status, _, err = run(capsys, "check", str(tmp_path / "nope.alg"))
    assert status == 2 and "no such file" in err
    bad = tmp_path / "bad.alg"
    bad.write_text("kind = luk-nrs\nsize = 2\nzero = 0\none = 1\n"
                   "plus = [[0,1],[1]]\ntimes = [[0,0],[0,1]]\nalpha = [1,0]\n")
    status, _, err = run(capsys, "check", str(bad))
    assert status == 2
    assert "line 5" in err and "row 1" in err


def test_deeply_nested_lists_are_a_positioned_usage_error(tmp_path, capsys):
    # each open list is one level of the parser's recursion; the whole of
    # stderr is the diagnostic at the 33rd bracket, with no traceback
    deep = tmp_path / "deep.alg"
    deep.write_text("kind = " + "[" * 3000 + "\n")
    status, _, err = run(capsys, "check", str(deep))
    assert status == 2
    assert err == f"error: {deep}: line 1, col 40: lists nested more than 32 deep\n"


def test_to_mv_from_mv_pipeline(tmp_path, capsys):
    status, out, _ = run(capsys, "to-mv", path("l3.alg"))
    assert status == 0
    mv_file = tmp_path / "chain.alg"
    mv_file.write_text(out)
    status, out2, _ = run(capsys, "from-mv", str(mv_file))
    assert status == 0
    alg = parse(out2).to_algebra()
    assert alg == luk_chain(3)


def test_roundtrip_command(capsys):
    for name in ("l3.alg", "l3-mv.alg"):
        status, out, _ = run(capsys, "roundtrip", path(name))
        assert status == 0
        assert "PASS round trip is table-identical" in out


def test_cb_search_command(capsys):
    status, out, _ = run(capsys, "cb", path("b2.alg"), path("l3.alg"), "--search")
    assert status == 0
    assert "sizes differ" in out


def test_cb_explicit_command(tmp_path, capsys):
    m = tmp_path / "ident.map"
    m.write_text("map = [0, 1]\n")
    status, out, _ = run(capsys, "cb", path("b2.alg"), path("b2.alg"),
                         "--gamma", str(m), "--beta", str(m), "--a", "1", "--b", "1")
    assert status == 0
    assert "PASS assembled map is an isomorphism" in out


def test_cb_usage_error(capsys):
    status, _, err = run(capsys, "cb", path("b2.alg"), path("b2.alg"))
    assert status == 2
    assert "--search" in err


def test_enumerate_writes_directory(tmp_path, capsys):
    out_dir = tmp_path / "models"
    status, out, _ = run(capsys, "enumerate", "--size", "3",
                         "--class", "luk-nrs", "--out", str(out_dir))
    assert status == 0
    files = sorted(os.listdir(out_dir))
    assert len(files) == 1 and files[0].endswith(".alg")
    alg = load(out_dir / files[0]).to_algebra()
    assert check_axioms(alg, "luk-nrs").ok
    assert files[0] == canonical_form(alg).hexdigest() + ".alg"


def test_enumerate_out_on_a_file_is_a_usage_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    status, out, err = run(capsys, "enumerate", "--size", "2", "--out", str(taken))
    assert (status, out, err) == (2, "", f"error: {taken}: File exists\n")


def test_enumerate_out_empty_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # an unset shell variable gives --out "": refused, and nothing written
    monkeypatch.chdir(tmp_path)
    status, out, err = run(capsys, "enumerate", "--size", "3", "--out", "")
    assert (status, out, err) == (2, "", "error: --out must name a directory, got ''\n")
    assert os.listdir(tmp_path) == []


def test_enumerate_size_7_luk_rs_finishes_under_the_default_cap(capsys):
    # one model: 7 has one unordered factorization
    status, out, err = run(capsys, "enumerate", "--size", "7", "--class", "luk-rs")
    assert (status, err) == (0, "")
    assert "1 model(s) of class luk-rs at size 7" in out


def test_enumerate_node_cap_is_an_error_with_the_partial_count(monkeypatch, capsys):
    cli = importlib.import_module("nearsemiring.cli")
    search = importlib.import_module("nearsemiring.search")
    monkeypatch.setattr(cli, "EnumerationTask",
                        functools.partial(search.EnumerationTask, max_nodes=40))
    status, out, err = run(capsys, "enumerate", "--size", "4", "--class", "inrs")
    assert status == 2 and out == ""
    with pytest.raises(search.EnumerationCapExceeded) as cap:
        search.enumerate_algebras(search.EnumerationTask(4, "inrs", max_nodes=40))
    assert err == (f"error: node cap exceeded after 40 nodes with {len(cap.value.partial)}"
                   " model(s) found\n")


def test_enumerate_size_beyond_the_cap_is_a_usage_error(capsys):
    # refused by the task before the search builds its 11! relabellings
    status, out, err = run(capsys, "enumerate", "--size", "13")
    assert (status, out) == (2, "")
    assert err == ("error: size 13 needs 11! = 39916800 relabellings per lattice child, "
                   "more than the node cap of 5000000\n")


def test_dot_exports(capsys):
    status, out, _ = run(capsys, "dot", path("l3.alg"), "--lattice", "id")
    assert status == 0
    assert out.count("->") == 1 and 'label="{0, h, 1}"' in out
    status, out, _ = run(capsys, "dot", path("b2xb2.alg"), "--lattice", "ce")
    assert status == 0
    assert out.count("->") == 4  # diamond covering relation
    status, out, _ = run(capsys, "dot", path("trivial.alg"), "--lattice", "id")
    assert status == 0
    assert out.count("->") == 0 and out.count("label=") == 1


def test_usage_exit_code(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["check"]) == 2
    capsys.readouterr()


def test_check_class_on_an_mv_document_is_a_usage_error(capsys):
    mv_doc = path("l3-mv.alg")
    assert run(capsys, "check", mv_doc, "--class", "inrs") == (
        2, "", f"error: {mv_doc}: --class applies to table documents, got kind mv\n")


def test_exit_statuses_deterministic(capsys):
    # identical body (everything after the argv echo) on a repeated run
    s1, out1, _ = run(capsys, "claims", path("l3.alg"))
    s2, out2, _ = run(capsys, "claims", path("l3.alg"))
    body1 = out1.split("\n", 1)[1]
    body2 = out2.split("\n", 1)[1]
    assert s1 == s2 == 1
    assert body1 == body2


def test_check_inrs_class_derived_identities_are_informational(capsys):
    # G3 is a genuine inrs; the derived interchange consequences fail but
    # must not gate admission for the requested class
    status, out, _ = run(capsys, "check", path("g3.alg"), "--class", "inrs")
    assert status == 0
    assert "INFO x*x^a = x^a*x = 0 fails at" in out
    assert "FAIL" not in out


def test_check_defaults_to_file_kind(capsys):
    # g3.alg declares kind inrs, which it satisfies
    status, out, _ = run(capsys, "check", path("g3.alg"))
    assert status == 0
    assert "axioms (inrs)" in out


def test_cb_map_parse_and_missing_file_errors(tmp_path, capsys):
    ok = tmp_path / "ok.map"
    ok.write_text("map = [0, 1, 2, 3, 4, 5]\n")
    bad = tmp_path / "bad.map"
    bad.write_text("map = [0, 1,\n")
    common = ("cb", path("b2xl3.alg"), path("l3xb2.alg"), "--a", "5", "--b", "5")
    status, _, err = run(capsys, *common, "--gamma", str(bad), "--beta", str(ok))
    assert status == 2
    assert err.startswith(f"error: {bad}: line 1, col 7: unterminated list")
    missing = tmp_path / "nope.map"
    status, _, err = run(capsys, *common, "--gamma", str(ok), "--beta", str(missing))
    assert status == 2
    assert err == f"error: {missing}: no such file\n"


def test_unreadable_paths_are_usage_errors(tmp_path, capsys):
    latin1 = tmp_path / "latin1.alg"
    latin1.write_bytes('kind = inrs\nnames = ["\u00e9"]\n'.encode("latin-1"))
    maps = ("cb", path("b2xl3.alg"), path("l3xb2.alg"), "--a", "5", "--b", "5",
            "--gamma", str(tmp_path), "--beta", str(tmp_path))
    for argv, err in ((("check", str(tmp_path)), f"error: {tmp_path}: Is a directory\n"),
                      (maps, f"error: {tmp_path}: Is a directory\n"),
                      (("check", str(latin1)),
                       f"error: {latin1}: not UTF-8 text: invalid byte at offset 22\n")):
        assert run(capsys, *argv) == (2, "", err)


NOT_INRS = ("kind = inrs\nsize = 2\nzero = 0\none = 1\n"
            "plus = [[0, 1], [1, 0]]\ntimes = [[0, 0], [0, 1]]\nalpha = [1, 0]\n")


def test_center_and_decompose_reject_non_inrs(tmp_path, capsys):
    table = tmp_path / "xor.alg"
    table.write_text(NOT_INRS)  # x+x = 0: fails axiom (i)
    for argv in (("center", str(table)), ("decompose", str(table), "--element", "1")):
        status, out, err = run(capsys, *argv)
        assert status == 2 and out == ""
        assert err.startswith("error: algebra fails inrs axiom (i)")
        assert "Traceback" not in err


def test_center_evaluates_syntactic_centrality_once_per_element(monkeypatch, capsys):
    center_module = importlib.import_module("nearsemiring.center")
    calls = []
    original = center_module.syntactic_centrality

    def counting(alg, e):
        calls.append(e)
        return original(alg, e)

    monkeypatch.setattr(center_module, "syntactic_centrality", counting)
    status, _, _ = run(capsys, "center", path("b2xl3.alg"))
    assert status == 0
    assert sorted(calls) == list(range(6))


def test_the_center_submodule_is_not_hidden_by_the_function():
    import nearsemiring.center as m
    assert m is importlib.import_module("nearsemiring.center")
    assert callable(m.center)


def test_threads_is_not_a_flag(capsys):
    # the search is single-threaded; enumerate has no --threads
    for argv in (("ideals", path("l3.alg")), ("enumerate", "--size", "4", "--class", "luk-nrs")):
        status, out, _ = run(capsys, *argv, "--threads", "2")
        assert status == 2 and out == ""


def test_size_guard_is_a_usage_error(capsys, monkeypatch):
    from nearsemiring import core
    monkeypatch.setattr(core, "DEFAULT_MAX_SIZE", 4)
    status, out, err = run(capsys, "congruences", path("b2xl3.alg"))
    assert (status, out) == (2, "")
    assert err == "error: universe size 6 exceeds the 4 limit\n"


#: each command with the arguments it needs, and whether it reads --threshold
THRESHOLD_READERS = {("cb", "--search"): False, ("congruences",): False,
                     ("ideals",): True, ("claims",): True,
                     ("dot", "--lattice", "id"): False, ("dot", "--lattice", "con"): False,
                     ("dot", "--lattice", "ce"): False,
                     ("check",): False, ("center",): False, ("roundtrip",): False}


def test_threshold_goes_only_to_ideals_and_claims_and_no_command_reads_max_size(capsys):
    b2 = path("b2.alg")
    for (command, *extra), reads in THRESHOLD_READERS.items():
        files = [b2, b2] if command == "cb" else [b2]
        for flag in ("--max-size", "--threshold"):
            status, out, err = run(capsys, command, *files, *extra, flag, "3")
            if reads and flag == "--threshold":
                assert status == 0 and out, (command, flag)
            else:
                assert (status, out) == (2, ""), (command, extra, flag)
                assert f"unrecognized arguments: {flag} 3" in err
    status, out, _ = run(capsys, "enumerate", "--size", "3", "--max-size", "3")
    assert (status, out) == (2, "")


def test_threshold_below_one_is_a_usage_error(capsys):
    b2 = path("b2.alg")
    for argv in (("ideals", b2, "--threshold"), ("claims", b2, "--threshold")):
        for value in ("0", "-1"):
            status, out, err = run(capsys, *argv, value)
            assert (status, out) == (2, ""), (argv, value)
            assert f"must be at least 1, got {value}" in err
        status, out, err = run(capsys, *argv, "many")
        assert (status, out) == (2, "") and "invalid integer 'many'" in err


# fails axiom (i), since 0+1 = 0 but 1+0 = 1; the interval construction over
# its central elements used to end in an AssertionError
NOT_INRS_CENTRAL = ("kind = inrs\nsize = 2\nzero = 0\none = 1\n"
                    "plus = [[0, 0], [1, 1]]\ntimes = [[1, 1], [0, 1]]\nalpha = [1, 1]\n")


def test_cb_search_and_dot_center_reject_non_inrs(tmp_path, capsys):
    for i, text in enumerate((NOT_INRS, NOT_INRS_CENTRAL)):
        table = tmp_path / f"t{i}.alg"
        table.write_text(text)
        for argv in (("cb", str(table), path("b2.alg"), "--search"),
                     ("cb", path("b2.alg"), str(table), "--search"),
                     ("dot", str(table), "--lattice", "ce"),
                     ("congruences", str(table)),
                     ("dot", str(table), "--lattice", "con"),
                     ("principal-ideal", str(table), "--element", "1")):
            status, out, err = run(capsys, *argv)
            assert status == 2 and out == "", argv
            assert err.startswith("error: algebra fails inrs axiom (i)"), argv


TABLE_COMMANDS = (("check",), ("congruences",), ("ideals",), ("center",),
                  ("decompose", "--element", "1"), ("principal-ideal", "--element", "1"),
                  ("claims",), ("to-mv",), ("roundtrip",), ("cb", "--search"),
                  ("dot", "--lattice", "con"), ("dot", "--lattice", "id"),
                  ("dot", "--lattice", "ce"))


@st.composite
def table_documents(draw):
    n = draw(st.integers(2, 4))
    cell = st.integers(0, n - 1)
    square = st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n)
    return (f"kind = inrs\nsize = {n}\nzero = {draw(cell)}\none = {draw(cell)}\n"
            f"plus = {draw(square)}\ntimes = {draw(square)}\n"
            f"alpha = {draw(st.lists(cell, min_size=n, max_size=n))}\n")


@given(table_documents())
@settings(max_examples=50, deadline=None)
def test_every_table_command_exits_with_a_status_on_random_tables(text):
    with tempfile.TemporaryDirectory() as tmp:
        table = os.path.join(tmp, "t.alg")
        with open(table, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command, *extra in TABLE_COMMANDS:
            argv = [command, table, table, *extra] if command == "cb" else [command, table, *extra]
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                assert main(argv) in (0, 1, 2)


def structural_mutant(rng, doc):
    """A bundled document with one whole-structure defect that a character
    edit rarely makes: a wrong or huge size, a non-square table, an alpha
    that is not an involution, swapped tables or a repeated key."""
    kind = rng.choice(("size", "huge size", "ragged", "alpha", "duplicate key")
                      + (() if doc.is_mv else ("swap",)))
    first, unary = ("oplus", "neg") if doc.is_mv else ("plus", "alpha")
    if kind == "size":
        doc = dataclasses.replace(doc, size=doc.size + rng.choice((-1, 1)))
    elif kind == "huge size":
        doc = dataclasses.replace(doc, size=10 ** rng.randint(4, 30))
    elif kind == "ragged":
        table = [list(row) for row in getattr(doc, first)]
        row = table[rng.randrange(doc.size)]
        if rng.random() < 0.5:
            row.pop()
        else:
            row.append(0)
        doc = dataclasses.replace(doc, **{first: table})
    elif kind == "alpha":
        n = doc.size
        # a rotation (an involution only at n <= 2), or a constant map
        vec = [(x + 1) % n for x in range(n)] if rng.random() < 0.5 else [doc.zero] * n
        doc = dataclasses.replace(doc, **{unary: vec})
    elif kind == "swap":
        doc = dataclasses.replace(doc, plus=doc.times, times=doc.plus)
    text = serialize(doc)
    if kind == "duplicate key":
        lines = text.splitlines(keepends=True)
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
        text = "".join(lines)
    return text


def test_every_command_exits_with_a_status_on_seeded_mutants(tmp_path):
    # one command per mutant, in turn; half the mutants are one-character
    # edits of the bundled documents, half structural (structural_mutant)
    rng = random.Random(9)
    texts = [bundled_file(name).read_text() for name in BUNDLED]
    docs = [parse(text) for text in texts]
    commands = TABLE_COMMANDS + (("from-mv",),)
    table = str(tmp_path / "t.alg")
    for case in range(300):
        if case % 2:
            text = structural_mutant(rng, rng.choice(docs))
        else:
            text = mutate(rng, rng.choice(texts))
        with open(table, "w", encoding="utf-8") as fh:
            fh.write(text)
        command, *extra = commands[case % len(commands)]
        argv = [command, table, table, *extra] if command == "cb" else [command, table, *extra]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            status = main(argv)
        assert status in (0, 1, 2) and "Traceback" not in err.getvalue(), (argv, text)


# Recorded stdout and exit status of every command on every bundled document
# (the benchmark's corpus answers); the key split on spaces is the argv.
CORPUS_ANSWERS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "corpus.json")
    .read_text(encoding="utf-8"))["answers"]


@pytest.mark.parametrize("key", sorted(CORPUS_ANSWERS))
def test_corpus_outputs_are_unchanged(key, capsys, monkeypatch):
    monkeypatch.chdir(Path(path("b2.alg")).parent)
    status, out, _ = run(capsys, *key.split(" "))
    assert (status, out) == (CORPUS_ANSWERS[key]["status"], CORPUS_ANSWERS[key]["stdout"])


def test_the_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser()
    per_tree = len(built)
    built.clear()
    cli._shared_parser.cache_clear()
    for argv in (("check", path("b2.alg")), ("ideals", path("l3.alg")), ("check",),
                 ("ideals", path("l3.alg"), "--threshold", "0")):
        run(capsys, *argv)
    assert len(built) == per_tree


def test_no_parsed_state_leaks_into_the_next_call(capsys, monkeypatch):
    monkeypatch.chdir(Path(path("b2.alg")).parent)
    status, out, _ = run(capsys, "ideals", "l3.alg", "--threshold", "2")
    assert status == 0 and "oracle partial" in out
    status, out, _ = run(capsys, "ideals", "l3.alg")
    assert (status, out) == (CORPUS_ANSWERS["ideals l3.alg"]["status"],
                             CORPUS_ANSWERS["ideals l3.alg"]["stdout"])
    status, out, _ = run(capsys, "check", "b2.alg", "--class", "inrs")
    assert status == 0 and "axioms (inrs)" in out
    status, out, _ = run(capsys, "check", "b2.alg")
    assert (status, out) == (CORPUS_ANSWERS["check b2.alg"]["status"],
                             CORPUS_ANSWERS["check b2.alg"]["stdout"])
    assert "axioms (luk-rs)" in out


def fresh_parse(argv):
    """Exit code, stdout and stderr of a newly built parser on argv."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        build_parser().parse_args(list(argv))
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    (), ("check",), ("check", "b2.alg", "--bogus"), ("ideals", "b2.alg", "--threshold", "0"),
    ("dot", "b2.alg", "--lattice", "xx"), ("decompose", "b2.alg"), ("--help",),
    ("ideals", "--help")])
def test_the_shared_parser_prints_what_a_fresh_parser_prints(argv, capsys):
    run(capsys, "check", path("b2.alg"), "--class", "inrs")  # the shared parser is in use
    status, out, err = run(capsys, *argv)
    assert (status, out, err) == fresh_parse(argv)
    assert out or err
