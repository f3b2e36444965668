"""Golden outputs: every command form on the small fixtures, byte for byte.

Each case runs cli.main in-process on one diagram and one command form,
and digests what the run produced: the exit code, stdout, stderr and
every artifact (name and contents), with the output directory and the
input's directory replaced by placeholders.  The digests live beside
this file in golden_outputs.json.

Diagrams: every fixture but r22, the distinct one-push variants of each
(seeds 0-2 of conftest.pushed_variant; nice fixtures admit no push), and
r22 for analyze alone.  A refusal or an error is an output like any
other, so the variants' refused nice-only commands are pinned too.

A change that must not move any output (a refactor, a speed-up) leaves
this test passing unchanged.  Re-record the table only for a change
whose new outputs are intended and checked, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import hashlib
import io
import json
import pathlib
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from obfloer.cli import main  # noqa: E402
from obfloer.diagram import region_list_to_json  # noqa: E402

from conftest import FIXTURES, pushed_variant  # noqa: E402

TABLE = pathlib.Path(__file__).resolve().parent / "golden_outputs.json"

FORMS = (
    ("analyze",),
    ("analyze", "--spinc", "0", "--dot", "--format", "json"),
    ("makenice",),
    ("makenice", "--format", "json"),
    ("homology",),
    ("homology", "--spinc", "0", "--dot", "--format", "json"),
    ("contact",),
    ("contact", "--format", "json"),
    ("order",),
    ("order", "--format", "json"),
    ("plot",),
    ("plot", "--spinc", "0"),
    ("all",),
    ("all", "--dot", "--format", "json"),
)
SMALL = sorted(p.stem for p in FIXTURES.glob("*.json") if p.stem != "r22")
SEEDS = (0, 1, 2)


def _diagrams():
    """Case name -> (region-list JSON text, the command forms it runs)."""
    out = {}
    for name in SMALL:
        out[name] = ((FIXTURES / (name + ".json")).read_text(), FORMS)
        seen = set()
        for seed in SEEDS:
            rl = pushed_variant(name, 1, seed)
            if rl is None:
                continue
            text = region_list_to_json(rl) + "\n"
            if text not in seen:
                seen.add(text)
                out["%s+push%d" % (name, seed)] = (text, FORMS)
    out["r22"] = ((FIXTURES / "r22.json").read_text(), (("analyze",),))
    return out


DIAGRAMS = _diagrams()


def _digest(text, form, tmp):
    """sha256 of one run: exit code, stdout, stderr and every artifact."""
    src = pathlib.Path(tmp) / "in"
    dst = pathlib.Path(tmp) / "out"
    src.mkdir()
    inp = src / "diagram.json"
    inp.write_text(text)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        rc = main([form[0], "--input", str(inp), "--out-dir", str(dst)]
                  + list(form[1:]))
    files = sorted(dst.iterdir()) if dst.exists() else []
    record = [rc, stdout.getvalue(), stderr.getvalue()]
    record += [[p.name, p.read_text()] for p in files]
    blob = json.dumps(record)
    blob = blob.replace(str(dst), "<OUT>").replace(str(src), "<IN>")
    return hashlib.sha256(blob.encode()).hexdigest()


def digests(case):
    """Form (its arguments joined by spaces) -> digest, for one case."""
    text, forms = DIAGRAMS[case]
    out = {}
    for form in forms:
        with tempfile.TemporaryDirectory() as tmp:
            out[" ".join(form)] = _digest(text, form, tmp)
    return out


def record():
    """Rewrite the digest table from the code as it stands."""
    table = {case: digests(case) for case in DIAGRAMS}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return table


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE.read_text())


def test_table_covers_every_case(table):
    assert sorted(table) == sorted(DIAGRAMS)


@pytest.mark.parametrize("case", sorted(DIAGRAMS))
def test_outputs_match_golden(case, table):
    assert digests(case) == table[case]


if __name__ == "__main__":
    got = record()
    print("recorded %d runs of %d diagrams in %s"
          % (sum(map(len, got.values())), len(got), TABLE))
