"""The index-1 table's near-pair rule against a scan of every pair.

On a nice diagram every positive index-1 domain is an empty embedded
bigon (one point moves) or rectangle (two points move), so
DomainCalculator.index1_differentials scans only the grading-adjacent
pairs whose generators differ in at most two points, and
NiceComplex.build_boundary reads its entries from that table.  The oracle
is a scan in this file: find_pos_domains on every grading-adjacent pair,
kept to the domains of Maslov index 1.  A pair with more than two moving
points must carry none, the table must hold exactly the oracle's
nonempty pairs, and each entry's J+ split must cover its whole count
(every domain of a nice diagram has J+ 0 or 2).

Inputs: the made-nice diagram of every fixture except r22, whose nice
diagram (4280 generators) is too slow for this suite, and sphere4, which
is not weakly admissible, so its boundary is refused (see test_cli); r6's
fourteen one-push variants; and four seeded two-push r6 variants (seeds
chosen for run time: 84-176 nice generators).
"""

import pytest

from obfloer import linalg
from obfloer.cli import main
from obfloer.diagram import build_diagram, region_list_to_json
from obfloer.domains import DomainCalculator
from obfloer.floer import NiceComplex
from obfloer.nicefy import make_nice

from conftest import (
    FIXTURES,
    check_potential_differences,
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


def scan_every_pair(calc, k):
    """Positive index-1 domains of every grading-adjacent pair of class k."""
    out = {}
    for i, j in _adjacent_pairs(calc.spinc_partition(), k):
        doms = [d for d in calc.find_pos_domains(i, j)
                if calc.maslov_index(d) == 1]
        if doms:
            out[(i, j)] = doms
    return out


def check_near_pairs(region_list):
    """Compare every class's table and boundary with the all-pairs scan;
    return (pairs with more than two moving points, nonzero rectangle
    pairs)."""
    calc = DomainCalculator(make_nice(build_diagram(region_list)).diagram)
    oracle = DomainCalculator(calc.dg)
    cx = NiceComplex(calc)
    gens = calc.dg.generators()
    far = rectangles = 0
    for k in range(len(cx.table.classes)):
        want = scan_every_pair(oracle, k)
        for i, j in _adjacent_pairs(cx.table, k):
            moved = _moved(gens, i, j)
            if moved > 2:
                assert (i, j) not in want, (i, j)
                far += 1
            elif (i, j) in want:
                rectangles += moved == 2
        table = calc.index1_differentials(k)
        assert {p: e.domains for p, e in table.items()} == {
            p: tuple(doms) for p, doms in want.items()}, k
        for p, e in table.items():
            jps = [oracle.j_plus(d) for d in want[p]]
            assert (e.count, e.j0, e.j2) == (
                len(jps), jps.count(0), jps.count(2)), p
            assert e.j0 + e.j2 == e.count, p
        cx.build_boundary(k)
    assert check_potential_differences(calc) > 0
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


def _count_scans(monkeypatch):
    """Patch the positive-domain scan of one pair, which the index-1 table
    and find_pos_domains share, to log (calculator, src, dst) per call."""
    scanned = []
    positive_domains = DomainCalculator._positive_domains

    def counted_scan(self, x, y, base):
        scanned.append((id(self), x, y))
        return positive_domains(self, x, y, base)

    monkeypatch.setattr(DomainCalculator, "_positive_domains", counted_scan)
    return scanned


def test_build_boundary_scans_near_pairs_only(monkeypatch):
    calc = DomainCalculator(make_nice(load_diagram("r6")).diagram)
    assert len(calc.periodic_domain_basis()) == 0
    cx = NiceComplex(calc)
    gens = calc.dg.generators()
    pairs = [p for k in range(len(cx.table.classes))
             for p in _adjacent_pairs(cx.table, k)]
    near = sorted(p for p in pairs if _moved(gens, *p) <= 2)
    assert 0 < len(near) < len(pairs)

    projected = []
    fm_chain = linalg.fm_chain

    def counted_fm(rows, nvars):
        projected.append(nvars)
        return fm_chain(rows, nvars)

    scanned = _count_scans(monkeypatch)
    monkeypatch.setattr(linalg, "fm_chain", counted_fm)
    for k in range(len(cx.table.classes)):
        cx.build_boundary(k)
    assert sorted((x, y) for _, x, y in scanned) == near
    assert projected == []  # b1 = 0: no scan has a variable to project


def test_all_on_nice_input_scans_each_pair_once(tmp_path, monkeypatch):
    # analyze's table is the one homology, contact and order read
    fin = make_nice(load_diagram("r6")).diagram
    src = tmp_path / "r6_nice.json"
    src.write_text(region_list_to_json(fin.to_region_list()) + "\n")
    calc = DomainCalculator(fin)
    table = calc.spinc_partition()
    gens = fin.generators()
    near = [p for k in range(len(table.classes))
            for p in _adjacent_pairs(table, k) if _moved(gens, *p) <= 2]

    scanned = _count_scans(monkeypatch)
    rc = main(["all", "--input", str(src), "--out-dir", str(tmp_path / "o")])
    assert rc == 0
    assert len(set(scanned)) == len(scanned) == len(near)


def test_analyze_dot_scans_each_pair_once(tmp_path, monkeypatch):
    # a diagram that is not nice is never pruned, and the general plot
    # reads analyze's table instead of scanning again
    dg = load_diagram("r22")
    assert not dg.nice
    calc = DomainCalculator(dg)
    table = calc.spinc_partition()
    pairs = [p for k in range(len(table.classes))
             for p in _adjacent_pairs(table, k)]
    gens = dg.generators()
    moved = [_moved(gens, *p) for p in calc.index1_differentials()]
    assert moved.count(3) == 42

    scanned = _count_scans(monkeypatch)
    rc = main(["analyze", "--dot", "--input", str(FIXTURES / "r22.json"),
               "--out-dir", str(tmp_path)])
    assert rc == 0
    assert len(set(scanned)) == len(scanned) == len(pairs)
