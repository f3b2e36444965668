"""Command-line behavior: exit codes, artifacts, determinism.

Runs main() in-process; every invocation writes into a fresh tmp dir.
"""

import argparse
import ast
import contextlib
import io
import json
import logging
import runpy

import pytest

from obfloer import cli, domains, floer
from obfloer.cli import main
from obfloer.diagram import build_diagram, parse_region_list, region_list_to_json
from obfloer.domains import DomainCalculator
from obfloer.floer import NiceComplex
from obfloer.linalg import F2Map

from conftest import FIXTURES, pushed_variant, run_cli_optimized

DEMOS = FIXTURES.parent / "demos"


def run(capsys, *args):
    rc = main([str(a) for a in args])
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def fix(name):
    return FIXTURES / (name + ".json")


# -- analyze ----------------------------------------------------------------


def test_analyze_r22_counts(tmp_path, capsys):
    rc, out, _ = run(capsys, "analyze", "--input", fix("r22"),
                     "--out-dir", tmp_path)
    assert rc == 0
    doc = json.loads((tmp_path / "r22_analysis.json").read_text())
    assert doc["points"] == 26
    assert doc["regions"] == 22
    assert doc["pointed"] == 1
    assert doc["curves"] == 3
    assert doc["b1"] == 2
    assert doc["generators"] == 120
    assert doc["spinc_classes"] == 18
    assert doc["weakly_admissible"] is True
    assert not doc["nice"]
    assert "26 points, 22 regions" in out
    txt = (tmp_path / "r22_possible_differentials.txt").read_text()
    assert len(txt.splitlines()) == doc["candidate_pairs"]
    # every line names a pair and carries the J+ split
    assert all(" -> " in ln and "J0=" in ln for ln in txt.splitlines())


def test_analyze_r6_counts(tmp_path, capsys):
    rc, out, _ = run(capsys, "analyze", "--input", fix("r6"),
                     "--out-dir", tmp_path, "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert (doc["points"], doc["regions"], doc["pointed"]) == (10, 6, 1)
    assert doc["generators"] == 12
    assert doc["spinc_classes"] == 4
    assert doc["b1"] == 0


def test_analyze_malformed_leaves_no_outputs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "bad", "num_pointed": 1, "regions": [[0, 1, 2]]}')
    dest = tmp_path / "out"
    rc, _, err = run(capsys, "analyze", "--input", bad, "--out-dir", dest)
    assert rc == 2
    assert "odd-length" in err
    assert not dest.exists()


def test_json_typo_is_bad_input_with_the_decoder_position(tmp_path, capsys):
    typo = tmp_path / "typo.json"
    typo.write_text('{"num_pointed": 1, "regions": [[0, 1] [1, 0]]}')
    dest = tmp_path / "out"
    rc, out, err = run(capsys, "analyze", "--input", typo, "--out-dir", dest)
    assert (rc, out) == (2, "")
    assert err == ("error: cannot parse input: Expecting ',' delimiter: "
                   "line 1 column 39 (char 38)\n")
    assert not dest.exists()


def test_analyze_unparseable_and_missing(tmp_path, capsys):
    junk = tmp_path / "junk.json"
    junk.write_text("not json {{")
    rc, _, err = run(capsys, "analyze", "--input", junk, "--out-dir", tmp_path)
    assert rc == 2 and "cannot parse" in err
    rc, _, err = run(capsys, "analyze", "--input", tmp_path / "nope.json",
                     "--out-dir", tmp_path)
    assert rc == 2 and "cannot read" in err
    raw = tmp_path / "raw.json"
    raw.write_bytes(b"\xff\xfe")  # not UTF-8
    rc, _, err = run(capsys, "analyze", "--input", raw, "--out-dir", tmp_path)
    assert rc == 2 and "cannot read" in err


@pytest.mark.parametrize("text", [
    "[" * 100000,
    '{"num_pointed": 1, "regions": %s}' % ("[" * 3000 + "]" * 3000),
], ids=["brackets", "regions"])
def test_deeply_nested_input_is_bad_input(tmp_path, capsys, text):
    deep = tmp_path / "deep.json"
    deep.write_text(text)
    dest = tmp_path / "out"
    rc, _, err = run(capsys, "analyze", "--input", deep, "--out-dir", dest)
    assert rc == 2
    assert err == "error: cannot parse input: nested too deeply\n"
    assert not dest.exists()


@pytest.mark.parametrize("command,first", [
    ("analyze", "r6_analysis.json"),
    ("makenice", "r6_nice.json"),
    ("all", "r6_analysis.json"),
])
def test_unwritable_out_dir_is_bad_input(tmp_path, capsys, command, first):
    # an out-dir that is a regular file, or lies under one
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    for dest in (blocker, blocker / "sub"):
        rc, out, err = run(capsys, command, "--input", fix("r6"),
                           "--out-dir", dest)
        assert rc == 2 and out == ""
        assert err.startswith("error: cannot write %s: " % (dest / first))
        assert err.count("\n") == 1
    assert blocker.read_text() == "keep"


def test_unwritable_stuck_dump_is_bad_input(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    rc, _, err = run(capsys, "makenice", "--input", fix("r6"),
                     "--out-dir", blocker, "--move-cap", 0)
    assert rc == 2
    assert err.startswith("refused: move cap 0 reached\nerror: cannot write %s: "
                          % (blocker / "r6_stuck.json"))
    assert blocker.read_text() == "keep"


def test_huge_point_label_is_a_short_error(tmp_path, capsys):
    src = tmp_path / "big.json"
    src.write_text('{"num_pointed": 1, "regions": [[0, 1000000], [1000000, 0]]}')
    rc, _, err = run(capsys, "analyze", "--input", src,
                     "--out-dir", tmp_path / "o")
    assert rc == 2
    assert "0..1000000: 2 labels, 999999 missing" in err
    assert len(err) < 1024


def test_regions_not_a_list_is_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"num_pointed": 1, "regions": {"a": 1}}')
    dest = tmp_path / "out"
    rc, out, err = run(capsys, "analyze", "--input", bad, "--out-dir", dest)
    assert (rc, out) == (2, "")
    assert err == "error: regions must be a list of regions, got dict\n"
    assert not dest.exists()


@pytest.mark.parametrize("circuit", ["2", "[]"], ids=["int", "empty"])
def test_circuit_that_is_not_a_nonempty_list_is_bad_input(tmp_path, capsys,
                                                          circuit):
    bad = tmp_path / "bad.json"
    bad.write_text('{"num_pointed": 1, "regions": [[[0, 1], %s]]}' % circuit)
    dest = tmp_path / "out"
    rc, out, err = run(capsys, "analyze", "--input", bad, "--out-dir", dest)
    assert (rc, out) == (2, "")
    assert err == ("error: region 0 circuit 1 is not a nonempty list of "
                   "point labels\n")
    assert not dest.exists()


@pytest.mark.parametrize("text,msg", [
    ('{"regions": [[0, 1], [1, 0]]}',
     'input object lacks a "num_pointed" field'),
    ("[[0, 1], [1, 0]]", "a bare region list has no num_pointed; use the "
     'object form {"num_pointed": N, "regions": [...]}'),
], ids=["object", "bare-list"])
def test_missing_num_pointed_is_bad_input(tmp_path, capsys, text, msg):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    dest = tmp_path / "out"
    rc, out, err = run(capsys, "analyze", "--input", bad, "--out-dir", dest)
    assert (rc, out) == (2, "")
    assert err == "error: %s\n" % msg
    assert not dest.exists()


@pytest.mark.parametrize("value,kind", [
    ('["a", "/b"]', "list"), ("7", "int"), ("null", "NoneType"),
    ("true", "bool"),
])
def test_name_that_is_not_a_string_is_bad_input(tmp_path, capsys, value,
                                                 kind):
    # the name becomes the artifact stem, so anything but a string is
    # refused before a file is written
    doc = json.loads(fix("s3_tight").read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc)[:-1] + ', "name": %s}' % value)
    dest = tmp_path / "out"
    rc, out, err = run(capsys, "analyze", "--input", bad, "--out-dir", dest)
    assert (rc, out) == (2, "")
    assert err == 'error: "name" must be a string, got %s\n' % kind
    assert not dest.exists()


@pytest.mark.parametrize("value", ['"x"', "[1]", "1.7"])
def test_analyze_non_integer_num_pointed(tmp_path, capsys, value):
    bad = tmp_path / "bad.json"
    bad.write_text('{"num_pointed": %s, "regions": [[0, 1], [1, 0]]}' % value)
    rc, _, err = run(capsys, "analyze", "--input", bad, "--out-dir", tmp_path)
    assert rc == 2 and "num_pointed must be an integer" in err


def test_analyze_spinc_filter_and_range(tmp_path, capsys):
    rc, _, _ = run(capsys, "analyze", "--input", fix("r6"),
                   "--out-dir", tmp_path, "--spinc", 0)
    assert rc == 0
    sub = (tmp_path / "r6_differentials_in_spinc_0.txt").read_text()
    full = (tmp_path / "r6_possible_differentials.txt").read_text()
    assert set(sub.splitlines()) <= set(full.splitlines())
    rc, _, err = run(capsys, "analyze", "--input", fix("r6"),
                     "--out-dir", tmp_path, "--spinc", 99)
    assert rc == 2 and "out of range" in err


@pytest.mark.parametrize("command", ["analyze", "all"])
def test_spinc_out_of_range_is_refused_before_any_table(tmp_path, capsys,
                                                        monkeypatch, command):
    def refuse(self, class_index=None):
        raise AssertionError("index-1 table built for class %s" % class_index)

    monkeypatch.setattr(DomainCalculator, "index1_differentials", refuse)
    rc, out, err = run(capsys, command, "--input", fix("r6"),
                       "--out-dir", tmp_path / "out", "--spinc", 4)
    assert (rc, out) == (2, "")
    assert err == "error: spinc index 4 out of range (4 classes)\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "plot"])
def test_index1_shape_check_guards_every_reader(tmp_path, capsys, monkeypatch,
                                                command):
    # on a nice diagram the index-1 table itself checks each domain's J+
    # (domains._j_plus, the formula the table and j_plus share), so analyze
    # and plot refuse a bad one as nice-only commands do, also under
    # python -O
    args = [command, "--input", fix("s3_overtwisted"), "--out-dir", tmp_path]
    want = "internal error: index-1 domain 1 -> 0 has J+ = 1, not 0 or 2"
    rc, _, err = run_cli_optimized(
        args, prelude="import obfloer.domains\n"
                      "obfloer.domains._j_plus = lambda *args: 1")
    assert (rc, err.strip()) == (4, want)
    monkeypatch.setattr(domains, "_j_plus", lambda *args: 1)
    rc, _, err = run(capsys, *args)
    assert (rc, err.strip()) == (4, want)
    assert not any(tmp_path.iterdir())


# -- makenice ----------------------------------------------------------------


def test_makenice_r6(tmp_path, capsys):
    rc, out, _ = run(capsys, "makenice", "--input", fix("r6"),
                     "--out-dir", tmp_path)
    assert rc == 0
    assert "region sizes before: 4:2 6:2 8:1 12:1" in out
    rl = parse_region_list((tmp_path / "r6_nice.json").read_text())
    fin = build_diagram(rl)
    assert fin.nice
    assert fin.num_regions - fin.num_points == -4  # same surface
    log = (tmp_path / "r6_makenice_log.txt").read_text()
    assert len(log.splitlines()) == 4
    assert log.startswith("move 0: region=")


def test_makenice_idempotent(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    rc, _, _ = run(capsys, "makenice", "--input", fix("r6"), "--out-dir", a)
    assert rc == 0
    rc, out, _ = run(capsys, "makenice", "--input", a / "r6_nice.json",
                     "--out-dir", b)
    assert rc == 0
    assert "moves: 0" in out
    assert (a / "r6_nice.json").read_bytes() == (b / "r6_nice.json").read_bytes()
    assert (b / "r6_makenice_log.txt").read_text() == ""


def test_makenice_cap_exhaustion_dumps_state(tmp_path, capsys):
    rc, _, err = run(capsys, "makenice", "--input", fix("r6"),
                     "--out-dir", tmp_path, "--move-cap", 2)
    assert rc == 3
    assert "move cap 2 reached" in err
    dumped = parse_region_list((tmp_path / "r6_stuck.json").read_text())
    dg = build_diagram(dumped)  # intermediate state is still a valid diagram
    assert not dg.nice


@pytest.mark.parametrize("command", ["makenice", "all"])
def test_negative_move_cap_is_bad_input(tmp_path, capsys, command):
    # a cap below 0 is an invalid argument (exit 2, nothing written), not a
    # cap reached after no moves; 0 is a valid cap and refuses with exit 3
    dest = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", str(fix("r6")), "--out-dir", str(dest),
              "--move-cap", "-1"])
    assert exc.value.code == 2
    assert "--move-cap: expected an integer >= 0, got '-1'" in \
        capsys.readouterr().err
    assert not dest.exists()
    rc, _, err = run(capsys, command, "--input", fix("r6"),
                     "--out-dir", dest, "--move-cap", 0)
    assert rc == 3 and "move cap 0 reached" in err
    assert (dest / "r6_stuck.json").exists()


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    # in-process calls share the parser built at import: none is built per
    # call, and a usage error still exits 2 with argparse's message
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *a, **kw):
        built.append(a or kw)
        init(self, *a, **kw)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(2):
        rc, _, _ = run(capsys, "analyze", "--input", fix("s3_tight"),
                       "--out-dir", tmp_path)
        assert rc == 0
        assert built == []
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--input", str(fix("r6"))])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: obfloer [-h] --input INPUT")
    assert ("\nobfloer: error: argument command: invalid choice: 'frobnicate'"
            in err)
    assert built == []


def test_each_call_logs_to_its_own_stderr(tmp_path, monkeypatch):
    # two in-process calls, each with its own stderr: each sees its own
    # INFO lines, and the root logger's handlers are left as they were
    monkeypatch.setenv("OBFLOER_LOG", "info")
    root = list(logging.getLogger().handlers)
    for k in range(2):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = main(["analyze", "--input", str(fix("s3_tight")),
                       "--out-dir", str(tmp_path / str(k))])
        assert rc == 0
        assert err.getvalue().splitlines() == [
            "INFO obfloer: wrote %s" % (tmp_path / str(k) / name)
            for name in ("s3_tight_analysis.json",
                         "s3_tight_possible_differentials.txt")]
    assert logging.getLogger().handlers == root
    assert logging.getLogger("obfloer").handlers == []


# -- nice-only commands -------------------------------------------------------


def _nice_r6(tmp_path, capsys):
    rc, _, _ = run(capsys, "makenice", "--input", fix("r6"),
                   "--out-dir", tmp_path)
    assert rc == 0
    return tmp_path / "r6_nice.json"


def test_homology_refuses_raw_input(tmp_path, capsys):
    rc, _, err = run(capsys, "homology", "--input", fix("r6"),
                     "--out-dir", tmp_path)
    assert rc == 3
    assert "makenice" in err  # hint names the command to run first


def test_homology_r6(tmp_path, capsys):
    nice = _nice_r6(tmp_path, capsys)
    rc, out, _ = run(capsys, "homology", "--input", nice, "--out-dir", tmp_path)
    assert rc == 0
    doc = json.loads((tmp_path / "r6_homology.json").read_text())
    assert doc["total_rank"] == 4
    assert [c["total"] for c in doc["classes"]] == [1, 1, 1, 1]
    assert all(c["div"] == 0 for c in doc["classes"])
    assert "total rank: 4" in out


def test_homology_spinc_writes_entry_file(tmp_path, capsys):
    nice = _nice_r6(tmp_path, capsys)
    rc, _, _ = run(capsys, "homology", "--input", nice, "--out-dir", tmp_path,
                   "--spinc", 2)
    assert rc == 0
    lines = (tmp_path / "r6_differentials_in_spinc_2.txt").read_text().splitlines()
    assert lines  # the contact class of this diagram has differentials
    for ln in lines:
        c = int(ln.split("count=")[1].split()[0])
        j0 = int(ln.split("J0=")[1].split()[0])
        j2 = int(ln.split("J2=")[1].split()[0])
        assert c == j0 + j2 >= 1


def test_homology_inadmissible_refused(tmp_path, capsys):
    rc, _, err = run(capsys, "homology", "--input", fix("sphere4"),
                     "--out-dir", tmp_path)
    assert rc == 3
    assert "admissible" in err


def test_refusal_and_internal_error_under_python_O(tmp_path):
    # exit codes 3 and 4 do not depend on asserts, which -O strips
    rc, _, err = run_cli_optimized(["homology", "--input", fix("sphere4"),
                                    "--out-dir", tmp_path])
    assert rc == 3
    assert "admissible" in err
    rc, _, _ = run_cli_optimized(["makenice", "--input", fix("s3_wiggle"),
                                  "--out-dir", tmp_path])
    assert rc == 0
    rc, _, err = run_cli_optimized(
        ["contact", "--input", tmp_path / "s3_wiggle_nice.json",
         "--out-dir", tmp_path])
    assert rc == 3
    assert "refused: distinguished generator has nonzero boundary" in err
    rc, _, err = run_cli_optimized(
        ["homology", "--input", fix("s3_overtwisted"), "--out-dir", tmp_path],
        prelude="import obfloer.domains\n"
                "obfloer.domains._j_plus = lambda *args: 1")
    assert rc == 4
    assert "internal error: index-1 domain 1 -> 0 has J+ = 1" in err
    rc, _, err = run_cli_optimized(
        ["order", "--input", fix("s3_overtwisted"), "--out-dir", tmp_path],
        prelude="import obfloer.floer\n"
                "obfloer.floer.check_zigzag = lambda *args: False")
    assert rc == 4
    assert "internal error: order 0 certificate fails" in err
    rc, _, err = run_cli_optimized(
        ["contact", "--input", fix("s3_overtwisted"), "--out-dir", tmp_path],
        # the calculator enumerates first and gets the true generators; the
        # contact lookup then reads a generator 0 with a wrong permutation
        prelude="from obfloer.diagram import HeegaardDiagram\n"
                "_gens = HeegaardDiagram.generators\n"
                "HeegaardDiagram.generators = lambda self: _gens(self) "
                "if self._generators is None else "
                "(self._generators[0]._replace(permutation=(1,)),) "
                "+ self._generators[1:]")
    assert rc == 4
    assert "internal error: beta curves are not indexed" in err
    # make_nice's postconditions: relabeling back to the raw input leaves
    # a diagram that is not nice
    rc, _, err = run_cli_optimized(
        ["makenice", "--input", fix("r6"), "--out-dir", tmp_path],
        prelude="import obfloer.nicefy\n"
                "from obfloer.diagram import parse_region_list\n"
                "raw = parse_region_list(open(%r).read())\n"
                "obfloer.nicefy._relabel = lambda dg: raw" % str(fix("r6")))
    assert rc == 4
    assert "internal error: make_nice ended on a diagram that is not nice" in err


def test_package_has_no_assert_statements():
    # python -O strips asserts, so an invariant written as one would turn an
    # exit 4 into a wrong answer; invariants raise typed errors instead
    sources = sorted((FIXTURES.parent / "src" / "obfloer").glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert not lines, "%s: assert on lines %s" % (path.name, lines)


def test_contact_and_order_tight(tmp_path, capsys):
    rc, out, _ = run(capsys, "contact", "--input", fix("s3_tight"),
                     "--out-dir", tmp_path, "--format", "json")
    assert rc == 0
    assert json.loads(out)["contact_class"] == "nonzero"
    rc, out, _ = run(capsys, "order", "--input", fix("s3_tight"),
                     "--out-dir", tmp_path, "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["contact_class"] == "nonzero"
    assert doc["order"] == "infinity"
    same = json.loads((tmp_path / "s3_tight_order.json").read_text())
    assert same == doc


def test_order_overtwisted(tmp_path, capsys):
    rc, out, _ = run(capsys, "order", "--input", fix("s3_overtwisted"),
                     "--out-dir", tmp_path, "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["contact_class"] == "zero"
    assert doc["order"] == 0
    assert doc["certificate"] == [[1]]


def test_order_refuses_raw_input(tmp_path, capsys):
    rc, _, err = run(capsys, "order", "--input", fix("r6"),
                     "--out-dir", tmp_path)
    assert rc == 3
    assert "makenice" in err
    assert not (tmp_path / "r6_order.json").exists()


def test_contact_convention_violation_refused(tmp_path, capsys):
    # nicefication preserves misalignment, so the contact stage still refuses
    rc, _, _ = run(capsys, "makenice", "--input", fix("octa2"),
                   "--out-dir", tmp_path)
    assert rc == 0
    rc, _, err = run(capsys, "contact", "--input", tmp_path / "octa2_nice.json",
                     "--out-dir", tmp_path)
    assert rc == 3
    assert "convention" in err


def test_contact_non_open_book_is_refused(tmp_path, capsys):
    # a distinguished generator that is not a cycle is a property of the
    # input, not a fault of the program
    rc, _, _ = run(capsys, "makenice", "--input", fix("s3_wiggle"),
                   "--out-dir", tmp_path)
    assert rc == 0
    rc, _, err = run(capsys, "contact", "--input", tmp_path / "s3_wiggle_nice.json",
                     "--out-dir", tmp_path)
    assert rc == 3
    assert "refused: distinguished generator has nonzero boundary" in err
    assert not (tmp_path / "s3_wiggle_nice_contact.json").exists()
    rc, _, err = run(capsys, "order", "--input", tmp_path / "s3_wiggle_nice.json",
                     "--out-dir", tmp_path)
    assert rc == 3
    assert "refused: distinguished generator has nonzero boundary" in err
    assert not (tmp_path / "s3_wiggle_nice_order.json").exists()


# -- plot ---------------------------------------------------------------------


def test_plot_nice_diagram(tmp_path, capsys):
    rc, _, _ = run(capsys, "plot", "--input", fix("s3_overtwisted"),
                   "--out-dir", tmp_path)
    assert rc == 0
    dot = (tmp_path / "s3_overtwisted_spinc_0.dot").read_text()
    assert dot.startswith('digraph "s3_overtwisted_spinc_0" {')
    assert 'x1 -> x0 [label="J+=0"];' in dot


def test_plot_general_diagram(tmp_path, capsys):
    rc, _, _ = run(capsys, "plot", "--input", fix("r6"), "--out-dir", tmp_path,
                   "--spinc", 0)
    assert rc == 0
    dot = (tmp_path / "r6_spinc_0.dot").read_text()
    assert dot.startswith('digraph "r6_spinc_0" {')
    assert "->" in dot
    assert not (tmp_path / "r6_spinc_1.dot").exists()


def test_plot_escapes_the_diagram_name(tmp_path, capsys):
    # a name with a quote and a backslash stays one DOT string
    doc = json.loads(fix("r6").read_text())
    doc["name"] = 'a"b\\c'
    src = tmp_path / "odd.json"
    src.write_text(json.dumps(doc))
    rc, _, _ = run(capsys, "plot", "--input", src, "--out-dir", tmp_path,
                   "--spinc", 0)
    assert rc == 0
    dot = (tmp_path / "a_b_c_spinc_0.dot").read_text()
    assert dot.startswith('digraph "a\\"b\\\\c_spinc_0" {\n')


@pytest.mark.parametrize("name,pushes,seed", [
    (n, 0, 0) for n in ("l21", "l31", "octa2", "r22", "r6", "s1s2",
                        "s3_overtwisted", "s3_tight", "s3_twopoint",
                        "s3_wiggle", "sphere4")
] + [("octa2", 1, 1), ("octa2", 2, 1), ("r6", 1, 1), ("s1s2", 1, 1),
     ("s3_wiggle", 1, 1), ("r22", 1, 2), ("r22", 2, 1), ("r22", 3, 1)])
def test_plot_never_fails_internally(tmp_path, capsys, name, pushes, seed):
    # a finger move presents the same manifold, so its plot is no less valid
    src = tmp_path / (name + ".json")
    src.write_text(region_list_to_json(pushed_variant(name, pushes, seed)))
    rc, _, err = run(capsys, "plot", "--input", src, "--out-dir", tmp_path)
    assert rc in (0, 3), err


def test_dot_flag_on_homology(tmp_path, capsys):
    nice = _nice_r6(tmp_path, capsys)
    rc, _, _ = run(capsys, "homology", "--input", nice, "--out-dir", tmp_path,
                   "--dot")
    assert rc == 0
    for k in range(4):
        assert (tmp_path / ("r6_spinc_%d.dot" % k)).exists()


# -- all ----------------------------------------------------------------------


def test_all_chain_r6(tmp_path, capsys):
    rc, out, _ = run(capsys, "all", "--input", fix("r6"), "--out-dir", tmp_path)
    assert rc == 0
    for suffix in ("analysis.json", "possible_differentials.txt", "nice.json",
                   "makenice_log.txt", "homology.json", "contact.json",
                   "order.json"):
        assert (tmp_path / ("r6_" + suffix)).exists(), suffix
    order = json.loads((tmp_path / "r6_order.json").read_text())
    assert order["contact_class"] == "zero"
    assert order["order"] == 1
    assert order["certificate"] == [[64], [39]]
    assert "[analyze]" in out and "[order]" in out


def test_all_dot_writes_raw_and_nice_plots_once_each(tmp_path, capsys):
    rc, out, _ = run(capsys, "all", "--input", fix("r6"), "--out-dir",
                     tmp_path / "all", "--dot")
    assert rc == 0
    wrote = [line for line in out.splitlines() if line.startswith("wrote ")]
    assert len(wrote) == len(set(wrote))
    raw = sorted(p.name for p in (tmp_path / "all").glob("r6_spinc_*.dot"))
    nice = sorted(p.name for p in (tmp_path / "all").glob("r6_nice_spinc_*"))
    assert raw == ["r6_spinc_%d.dot" % k for k in range(4)]
    assert nice == ["r6_nice_spinc_%d.dot" % k for k in range(4)]
    # the nice plots are the ones `homology --dot` draws from the nice
    # diagram, under their own names
    rc, _, _ = run(capsys, "homology", "--input", tmp_path / "all/r6_nice.json",
                   "--out-dir", tmp_path / "hom", "--dot")
    assert rc == 0
    for k in range(4):
        got = (tmp_path / "all" / ("r6_nice_spinc_%d.dot" % k)).read_text()
        want = (tmp_path / "hom" / ("r6_spinc_%d.dot" % k)).read_text()
        assert got.startswith('digraph "r6_nice_spinc_%d" {' % k)
        assert got.split("\n", 1)[1] == want.split("\n", 1)[1]
    # analyze's plots stay those of the raw diagram
    rc, _, _ = run(capsys, "plot", "--input", fix("r6"),
                   "--out-dir", tmp_path / "plot")
    assert rc == 0
    for name in raw:
        assert ((tmp_path / "all" / name).read_bytes()
                == (tmp_path / "plot" / name).read_bytes())


def test_all_spinc_writes_raw_and_nice_differentials_once_each(tmp_path,
                                                              capsys):
    rc, out, _ = run(capsys, "all", "--input", fix("r6"), "--out-dir",
                     tmp_path / "all", "--spinc", 0)
    assert rc == 0
    wrote = [line for line in out.splitlines() if line.startswith("wrote ")]
    assert len(wrote) == len(set(wrote))
    # the raw diagram's class 0 is analyze's, the made-nice diagram's class
    # 0 is homology's on the nice diagram
    for cmd, src, name in (
            ("analyze", fix("r6"), "r6_differentials_in_spinc_0.txt"),
            ("homology", tmp_path / "all/r6_nice.json",
             "r6_nice_differentials_in_spinc_0.txt")):
        rc, _, _ = run(capsys, cmd, "--input", src, "--out-dir",
                       tmp_path / cmd, "--spinc", 0)
        assert rc == 0
        want = (tmp_path / cmd / "r6_differentials_in_spinc_0.txt").read_text()
        assert (tmp_path / "all" / name).read_text() == want


def test_all_on_nice_input_writes_each_artifact_once(tmp_path, capsys):
    rc, out, _ = run(capsys, "all", "--input", fix("s3_overtwisted"),
                     "--out-dir", tmp_path / "all", "--spinc", 0, "--dot")
    assert rc == 0
    wrote = [line for line in out.splitlines() if line.startswith("wrote ")]
    assert len(wrote) == len(set(wrote)) == 7
    # analyze and homology would have written the same bytes
    for cmd in ("analyze", "homology"):
        rc, _, _ = run(capsys, cmd, "--input", fix("s3_overtwisted"),
                       "--out-dir", tmp_path / cmd, "--spinc", 0, "--dot")
        assert rc == 0
        for name in ("s3_overtwisted_differentials_in_spinc_0.txt",
                     "s3_overtwisted_spinc_0.dot"):
            assert ((tmp_path / "all" / name).read_bytes()
                    == (tmp_path / cmd / name).read_bytes())


def test_all_on_nice_input_renders_each_artifact_once(tmp_path, capsys,
                                                      monkeypatch):
    # analyze and homology both reach each class's plot and differentials
    # text; the second one finds the file written and renders nothing
    calls = []

    def counted(fn):
        return lambda *args, **kw: calls.append(fn.__name__) or fn(*args, **kw)

    monkeypatch.setattr(cli, "plot_complex", counted(cli.plot_complex))
    monkeypatch.setattr(cli, "_diff_lines", counted(cli._diff_lines))
    rc, out, _ = run(capsys, "all", "--input", fix("l31"), "--out-dir",
                     tmp_path / "dot", "--dot")
    assert rc == 0
    assert calls.count("plot_complex") == 3  # one per class
    assert out.count("_spinc_") == 3
    calls.clear()
    rc, out, _ = run(capsys, "all", "--input", fix("l31"), "--out-dir",
                     tmp_path / "spinc", "--spinc", 2)
    assert rc == 0
    # analyze's whole table and its class 2
    assert calls == ["_diff_lines", "_diff_lines"]
    assert out.count("l31_differentials_in_spinc_2.txt") == 1


def test_all_skips_makenice_when_nice(tmp_path, capsys):
    rc, _, _ = run(capsys, "all", "--input", fix("s3_tight"),
                   "--out-dir", tmp_path)
    assert rc == 0
    assert not (tmp_path / "s3_tight_nice.json").exists()
    doc = json.loads((tmp_path / "s3_tight_homology.json").read_text())
    assert doc["total_rank"] == 1


def test_outputs_byte_identical_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    outs = []
    for dest in (a, b):
        rc, out, _ = run(capsys, "all", "--input", fix("r6"), "--out-dir", dest)
        assert rc == 0
        outs.append(out.replace(str(dest), "DIR"))
    assert outs[0] == outs[1]
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for n in names:
        assert (a / n).read_bytes() == (b / n).read_bytes(), n


def test_json_stdout_is_machine_readable(tmp_path, capsys):
    rc, out, _ = run(capsys, "all", "--input", fix("s3_overtwisted"),
                     "--out-dir", tmp_path, "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["order"]["order"] == 0
    assert doc["analyze"]["points"] == 3
    assert "makenice" not in doc  # already nice


def test_genus_2000_runs_every_form(tmp_path, capsys):
    # the connected sum of 2000 tight tori, a diagram of S^3 with one
    # generator: nothing may recurse once per curve
    src = tmp_path / "g2000.json"
    src.write_text(json.dumps({"num_pointed": 1, "regions": [
        [[i, i, i, i] for i in range(2000)]]}))
    for command in ("analyze", "plot", "makenice"):
        rc, _, err = run(capsys, command, "--input", src,
                         "--out-dir", tmp_path / command)
        assert (rc, err) == (0, ""), command
    rc, out, _ = run(capsys, "all", "--input", src, "--out-dir",
                     tmp_path / "all", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["analyze"]["curves"] == 2000
    assert doc["analyze"]["generators"] == 1
    assert doc["contact"]["contact_class"] == "nonzero"
    assert (doc["order"]["order"], doc["order"]["certificate"]) == (
        "infinity", "K = C1")


# -- engines per request ------------------------------------------------------


@pytest.mark.parametrize("args,complexes,calcs", [
    (("all", "r6"), 1, 2),  # the raw diagram's calculator, then the nice one's
    (("all", "s3_tight"), 1, 1),
    (("homology", "s3_overtwisted", "--dot"), 1, 1),
])
def test_one_engine_per_request(tmp_path, capsys, monkeypatch, args,
                                complexes, calcs):
    built = {DomainCalculator: 0, NiceComplex: 0}

    def count_builds(cls):
        init = cls.__init__

        def counted(self, *a):
            built[cls] += 1
            init(self, *a)

        monkeypatch.setattr(cls, "__init__", counted)

    for cls in built:
        count_builds(cls)
    command, name, *rest = args
    rc, _, _ = run(capsys, command, "--input", fix(name),
                   "--out-dir", tmp_path, *rest)
    assert rc == 0
    assert (built[NiceComplex], built[DomainCalculator]) == (complexes, calcs)


def test_one_contact_class_solve_per_request(tmp_path, capsys, monkeypatch):
    # the contact class is one GF(2) solve of the distinguished piece's hat
    # map for its bit x; `all` reports it from contact and from order
    pieces, solves = [], []
    make_piece, solve = floer.CanonicalPiece, F2Map.solve

    def recorded_piece(*a):
        pieces.append(make_piece(*a))
        return pieces[-1]

    def recorded_solve(self, b):
        solves.append((self, b))
        return solve(self, b)

    monkeypatch.setattr(floer, "CanonicalPiece", recorded_piece)
    monkeypatch.setattr(F2Map, "solve", recorded_solve)
    rc, _, _ = run(capsys, "all", "--input", fix("s3_overtwisted"),
                   "--out-dir", tmp_path)
    assert rc == 0
    cp, = pieces
    assert sum(m is cp.maps[0] and b == cp.x for m, b in solves) == 1


# -- demos --------------------------------------------------------------------


def test_pipeline_demo_artifacts_are_golden(tmp_path, capsys):
    # the commands of demos/pipeline.sh reproduce every committed artifact
    for args in (("analyze", "r22"), ("all", "r6"),
                 ("order", "s3_tight", "--format", "json"),
                 ("order", "s3_overtwisted", "--format", "json"),
                 ("plot", "s3_overtwisted"), ("plot", "s1s2")):
        command, name, *rest = args
        rc, _, _ = run(capsys, command, "--input", fix(name),
                       "--out-dir", tmp_path, *rest)
        assert rc == 0, args
    golden = sorted(p.name for p in (DEMOS / "out").iterdir())
    assert len(golden) == 14
    assert sorted(p.name for p in tmp_path.iterdir()) == golden
    for n in golden:
        want = (DEMOS / "out" / n).read_bytes()
        assert (tmp_path / n).read_bytes() == want, n


def test_walkthrough_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "walkthrough.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "== r22 ==" in out
    assert "spectral order: 1" in out
