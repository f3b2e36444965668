"""build_boundary's near-pair rule against find_diffs on every pair.

On a nice diagram every positive index-1 domain is an empty embedded
bigon (one point moves) or rectangle (two points move), so
NiceComplex.build_boundary calls find_diffs only on the grading-adjacent
pairs whose generators differ in at most two points.  find_diffs itself
still scans whatever pair it is given, which makes it the oracle: a pair
with more than two moving points must count 0, and the boundary's
entries must be exactly the nonzero find_diffs entries over all
grading-adjacent pairs.

Inputs: the made-nice diagram of every fixture except r22, whose nice
diagram (4280 generators) is too slow for this suite, and sphere4, which
is not weakly admissible, so its boundary is refused (see test_cli); r6's
fourteen one-push variants; and four seeded two-push r6 variants (seeds
chosen for run time: 84-176 nice generators).
"""

import pytest

from obfloer import linalg
from obfloer.diagram import build_diagram
from obfloer.domains import DomainCalculator
from obfloer.floer import NiceComplex
from obfloer.nicefy import make_nice

from conftest import (
    FIXTURES,
    load_diagram,
    load_region_list,
    one_push_variants,
    pushed_variant,
)

NICE_FIXTURES = sorted(
    p.stem for p in FIXTURES.glob("*.json")
    if p.stem not in ("r22", "sphere4"))
R6_ONE_PUSH = one_push_variants("r6")


def _adjacent_pairs(table, k):
    gr, d = table.gradings[k], table.div[k]
    for i in table.classes[k]:
        for j in table.classes[k]:
            drop = gr[i] - gr[j] - 1
            if i != j and (drop % d if d else drop) == 0:
                yield i, j


def _moved(gens, i, j):
    """How many points move between generators i and j."""
    return len(set(gens[i].points) ^ set(gens[j].points)) // 2


def check_near_pairs(region_list):
    """Compare every class's boundary with the all-pairs oracle; return
    (pairs with more than two moving points, nonzero rectangle pairs)."""
    calc = DomainCalculator(make_nice(build_diagram(region_list)).diagram)
    cx = NiceComplex(calc)
    oracle = NiceComplex(calc)  # its own find_diffs cache
    gens = calc.dg.generators()
    far = rectangles = 0
    for k in range(len(cx.table.classes)):
        want = {}
        for i, j in _adjacent_pairs(cx.table, k):
            e = oracle.find_diffs(i, j)
            moved = _moved(gens, i, j)
            if moved > 2:
                assert e.count == 0, (i, j)
                far += 1
            elif e.count:
                want[(i, j)] = e
                rectangles += moved == 2
        assert cx.build_boundary(k).entries == want, k
    return far, rectangles


@pytest.mark.parametrize("name", NICE_FIXTURES)
def test_fixture_boundaries_match_all_pairs(name):
    check_near_pairs(load_region_list(name))


@pytest.mark.parametrize("k", range(len(R6_ONE_PUSH)))
def test_r6_one_push_boundaries_match_all_pairs(k):
    far, rectangles = check_near_pairs(R6_ONE_PUSH[k])
    assert far > 0 and rectangles > 0


@pytest.mark.parametrize("seed", [1, 2, 9, 13])
def test_r6_two_push_boundaries_match_all_pairs(seed):
    far, rectangles = check_near_pairs(pushed_variant("r6", 2, seed))
    assert far > 0 and rectangles > 0


def test_build_boundary_scans_near_pairs_only(monkeypatch):
    calc = DomainCalculator(make_nice(load_diagram("r6")).diagram)
    assert calc.periodic_domain_basis().rank == 0
    cx = NiceComplex(calc)
    gens = calc.dg.generators()
    pairs = [p for k in range(len(cx.table.classes))
             for p in _adjacent_pairs(cx.table, k)]
    near = sorted(p for p in pairs if _moved(gens, *p) <= 2)
    assert 0 < len(near) < len(pairs)

    scanned, projected = [], []
    find_pos_domains = DomainCalculator.find_pos_domains
    fm_chain = linalg.fm_chain

    def counted_scan(self, x, y):
        scanned.append((x, y))
        return find_pos_domains(self, x, y)

    def counted_fm(rows, nvars):
        projected.append(nvars)
        return fm_chain(rows, nvars)

    monkeypatch.setattr(DomainCalculator, "find_pos_domains", counted_scan)
    monkeypatch.setattr(linalg, "fm_chain", counted_fm)
    for k in range(len(cx.table.classes)):
        cx.build_boundary(k)
    assert sorted(scanned) == near
    assert projected == []  # b1 = 0: no scan has a variable to project
