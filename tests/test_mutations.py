"""Mutated region lists are refused or computed, never crash the program.

Each example takes one small fixture (r22 is left out for time) and
mutates it once: swap two corners of a circuit, rotate or reverse a
circuit, relabel one corner, reorder the regions, or change num_pointed.
`analyze` and `all` on the result must exit 0, 2 or 3: a mutant is
either a valid diagram or bad input, and neither is an internal error
(exit 4) or a traceback.  The examples are derandomized, so every run
checks the same mutants.
"""

import json
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from obfloer.cli import main

from conftest import FIXTURES, load_region_list

SMALL = sorted(p.stem for p in FIXTURES.glob("*.json") if p.stem != "r22")
KINDS = ("swap", "rotate", "reverse", "relabel", "reorder", "num_pointed")


@st.composite
def mutants(draw):
    """(fixture name, kind, region-list JSON object) of one mutation."""
    name = draw(st.sampled_from(SMALL))
    rl = load_region_list(name)
    regions = [[list(cir) for cir in reg] for reg in rl.regions]
    num_pointed = rl.num_pointed
    kind = draw(st.sampled_from(KINDS))
    reg = regions[draw(st.integers(0, len(regions) - 1))]
    cir = reg[draw(st.integers(0, len(reg) - 1))]
    corner = st.integers(0, len(cir) - 1)
    if kind == "swap":
        i, j = draw(corner), draw(corner)
        cir[i], cir[j] = cir[j], cir[i]
    elif kind == "rotate":
        k = draw(st.integers(1, len(cir) - 1))
        cir[:] = cir[k:] + cir[:k]
    elif kind == "reverse":
        cir.reverse()
    elif kind == "relabel":
        top = max(c for r in regions for ci in r for c in ci)
        cir[draw(corner)] = draw(st.integers(0, top + 1))
    elif kind == "reorder":
        regions = draw(st.permutations(regions))
    else:
        num_pointed = draw(st.integers(0, len(regions) + 1))
    doc = {"name": "mutant", "num_pointed": num_pointed, "regions": regions}
    return name, kind, doc


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(mutants())
def test_mutated_region_lists_exit_cleanly(mutant):
    name, kind, doc = mutant
    with tempfile.TemporaryDirectory() as tmp:
        inp = pathlib.Path(tmp) / "mutant.json"
        inp.write_text(json.dumps(doc))
        for command in ("analyze", "all"):
            rc = main([command, "--input", str(inp),
                       "--out-dir", str(pathlib.Path(tmp) / command)])
            assert rc in (0, 2, 3), (command, name, kind, doc)
