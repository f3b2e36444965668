"""Domain machinery: periodic domains, positive-domain scans, index, gradings.

Frozen values below were produced by this package and spot-checked by hand
(small fixtures) or by independent in-test oracles (kernel ranks via sympy,
positive-domain scans via a plain box enumeration).
"""

import itertools
import random
import tracemalloc

import pytest
import sympy

from obfloer import domains, linalg
from obfloer.cli import main
from obfloer.diagram import build_diagram, make_region_list
from obfloer.domains import (
    AdmissibilityError,
    DiffEntry,
    Domain,
    DomainCalculator,
    DomainError,
    SpinCTable,
)
from obfloer.linalg import IntSolver
from obfloer.nicefy import make_nice

from conftest import (
    FIXTURES,
    box_scan,
    columns,
    dense_incidence,
    load_diagram,
    load_region_list,
    pm4_sum,
    pushed_variant,
    run_cli_optimized,
)
from test_known_answers import lens_region_list


@pytest.fixture(scope="module")
def calc_r22():
    return DomainCalculator(load_diagram("r22"))


@pytest.fixture(scope="module")
def calc_r6():
    return DomainCalculator(load_diagram("r6"))


@pytest.fixture(scope="module")
def calc_ot():
    return DomainCalculator(load_diagram("s3_overtwisted"))


@pytest.fixture(scope="module")
def calc_l21():
    return DomainCalculator(load_diagram("l21"))


@pytest.fixture(scope="module")
def calc_sphere4():
    return DomainCalculator(load_diagram("sphere4"))


# sphere with three of its four bigons pointed: the lone unpointed bigon
# forces unique coefficients, so the periodic group is trivial
@pytest.fixture(scope="module")
def calc_sphere3pt():
    rl = make_region_list([[0, 1], [1, 0], [0, 1], [1, 0]], 3, name="sphere3pt")
    return DomainCalculator(build_diagram(rl))


# -- periodic domains and admissibility ------------------------------------


def test_periodic_ranks(calc_r22, calc_r6, calc_ot, calc_sphere4, calc_sphere3pt):
    assert len(calc_r22.periodic_domain_basis()) == 2
    assert len(calc_r6.periodic_domain_basis()) == 0
    assert len(calc_ot.periodic_domain_basis()) == 0
    assert len(calc_sphere4.periodic_domain_basis()) == 1
    assert len(calc_sphere3pt.periodic_domain_basis()) == 0


def test_periodic_rank_matches_sympy_nullity(calc_r22):
    # independent kernel computation over the same unpointed matrix
    d = calc_r22.dg
    m = sympy.Matrix(
        [row[: d.num_unpointed] for row in dense_incidence(d)[1]]
    )
    assert len(calc_r22.periodic_domain_basis()) == d.num_unpointed - m.rank()


def test_periodic_basis_maps_to_zero(calc_r22):
    rows = dense_incidence(calc_r22.dg)[1]
    for per in calc_r22.periodic_domain_basis():
        for row in rows:
            assert sum(row[r] * c for r, c in enumerate(per)) == 0


def test_admissibility(calc_r22, calc_r6, calc_ot, calc_l21, calc_sphere4):
    assert calc_r22.check_weak_admissibility() is True
    assert calc_r6.check_weak_admissibility() is True
    assert calc_ot.check_weak_admissibility() is True  # rank 0
    assert calc_l21.check_weak_admissibility() is True
    # sphere4's hat-periodic basis element is nonnegative outright
    assert calc_sphere4.check_weak_admissibility() is False


def test_inadmissible_scan_raises(calc_sphere4):
    with pytest.raises(AdmissibilityError):
        calc_sphere4.find_pos_domains(0, 0)
    with pytest.raises(AdmissibilityError):
        calc_sphere4.find_pos_domains(1, 0)


# -- connecting domains ------------------------------------------------------


def test_connecting_self_is_zero(calc_r6):
    dom = calc_r6.connecting_domain(0, 0)
    assert dom is not None
    assert all(c == 0 for c in dom.coeffs)


def test_connecting_single_bigon(calc_ot):
    # generator {1} flows across bigon region 0 into the contact generator {0}
    dom = calc_ot.connecting_domain(1, 0)
    assert dom.coeffs == (1, 0)
    assert calc_ot.connecting_domain(2, 0).coeffs == (0, 1)


def test_connecting_sphere_bigons_differ_by_one(calc_sphere4):
    dom = calc_sphere4.connecting_domain(0, 1)
    assert dom is not None
    assert abs(dom.coeffs[0] - dom.coeffs[1]) == 1


def test_connecting_separated_classes_is_none(calc_l21):
    # determinant-2 diagram: the two generators live in different classes
    assert calc_l21.connecting_domain(0, 1) is None
    assert calc_l21.full_connecting_domain(0, 1) is None


def test_boundary_check_rejects_corruption(calc_r6):
    bad = Domain((1,) + (0,) * (calc_r6.num_unpointed - 1), 0, 0)
    with pytest.raises(DomainError):
        calc_r6._check_boundary(bad)


# a positive domain of r22 from generator 7 to the contact generator 0
R22_7_TO_0 = (0, 1, 1, 1, 0, 1, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0)


def test_boundary_check_multi_region_corruption(calc_r22):
    good = Domain(R22_7_TO_0, 7, 0)
    assert calc_r22._check_boundary(good) is good
    # the message names the first point whose boundary is off
    bumped = tuple(c + (r == 3) for r, c in enumerate(R22_7_TO_0))
    with pytest.raises(DomainError,
                       match=r"^boundary mismatch at point 3: -1 != 0$"):
        calc_r22._check_boundary(Domain(bumped, 7, 0))
    full = Domain(tuple(-c for c in R22_7_TO_0) + (2,), 0, 7)
    with pytest.raises(DomainError,
                       match=r"^boundary mismatch at point 0: 4 != 0$"):
        calc_r22._check_boundary(full)


def test_analyze_reduces_each_generator_once(tmp_path, monkeypatch):
    # classes and connecting domains come from one reduction per generator
    # of one system; no integer solve runs for a pair of generators
    reduces, solves = {}, []
    reduce, solve = IntSolver.reduce, IntSolver.solve

    def counted_reduce(self, b):
        reduces[id(self)] = reduces.get(id(self), 0) + 1
        return reduce(self, b)

    def counted_solve(self, b):
        solves.append(b)
        return solve(self, b)

    monkeypatch.setattr(IntSolver, "reduce", counted_reduce)
    monkeypatch.setattr(IntSolver, "solve", counted_solve)
    rc = main(["analyze", "--input", str(FIXTURES / "r22.json"),
               "--out-dir", str(tmp_path), "--format", "json"])
    assert rc == 0
    ngens = len(load_diagram("r22").generators())
    assert list(reduces.values()) == [ngens]
    assert solves == []


def test_echelon_forms_per_request(tmp_path, monkeypatch):
    # building a diagram (make_nice builds one per finger move) echelons
    # nothing; analyze echelons the calculator's one system (boundary and
    # pointed rows) and the unpointed lattice once each
    calls = []
    echelon = linalg._column_echelon

    def counted(cols):
        calls.append(len(cols))
        return echelon(cols)

    monkeypatch.setattr(linalg, "_column_echelon", counted)
    make_nice(load_diagram("r6"))
    assert calls == []
    rc = main(["analyze", "--input", str(FIXTURES / "r22.json"),
               "--out-dir", str(tmp_path), "--format", "json"])
    assert rc == 0
    assert len(calls) == 2


def test_calculator_memory_does_not_scale_with_points_times_regions():
    # L(800, 1): 800 points and 800 regions.  Dense points x regions rows
    # for the two echelons, and a dense regions x regions U, peaked at
    # about 27 MB traced; the sparse columns stay near 2 MB
    rl = lens_region_list(800, 1)
    tracemalloc.start()
    try:
        calc = DomainCalculator(build_diagram(rl))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(calc.periodic_domain_basis()) == 0
    assert peak < 8 * 2**20, peak


@pytest.mark.parametrize("name, nice", [("r22", False), ("r6", True)])
def test_potentials_keep_one_copy_of_each_fact(name, nice):
    # each generator keeps its class index, pointed residue, hat chain,
    # index vector and cycle count: about 580 and 520 B traced per
    # generator here (Python 3.11), against 1,070 and 940 B when each also
    # kept its SpinC key and a second copy of its chain over all regions
    dg = load_diagram(name)
    calc = DomainCalculator(make_nice(dg).diagram if nice else dg)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        pots = calc._potentials
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 800 * len(pots), kept / len(pots)


# -- positive-domain scans ---------------------------------------------------


def test_find_pos_trivial_cases(calc_sphere3pt):
    doms = calc_sphere3pt.find_pos_domains(0, 0)
    assert [d.coeffs for d in doms] == [(0,)]
    doms = calc_sphere3pt.find_pos_domains(0, 1)
    assert [d.coeffs for d in doms] == [(1,)]
    assert calc_sphere3pt.find_pos_domains(1, 0) == []


def test_no_positive_domains_out_of_contact_generator(calc_r22, calc_r6, calc_ot):
    for calc in (calc_r22, calc_r6, calc_ot):
        xi = calc.dg.contact_generator().index
        for g in calc.dg.generators():
            if g.index != xi:
                assert calc.find_pos_domains(xi, g.index) == []


def test_corner_bound_all_pairs_r22(calc_r22):
    # at most 2^(contact points picked up by the target), every pair
    d = calc_r22.dg
    contact = set(d.contact_points)
    gens = d.generators()
    nonempty = 0
    total = 0
    for x in gens:
        xset = set(x.points)
        for y in gens:
            k = len(contact & (set(y.points) - xset))
            doms = calc_r22.find_pos_domains(x.index, y.index)
            assert len(doms) <= 2 ** k
            if doms:
                nonempty += 1
                total += len(doms)
    assert nonempty == 402
    assert total == 422


def test_scan_matches_box_oracle(calc_r22, calc_r6):
    for calc in (calc_r6, calc_r22):
        for x in calc.dg.generators():
            for y in calc.dg.generators():
                got = [d.coeffs for d in calc.find_pos_domains(x.index, y.index)]
                assert got == box_scan(calc, x.index, y.index), (x.index, y.index)


# -- Maslov index, J+, domain type -------------------------------------------


def test_maslov_zero_domain(calc_r6):
    assert calc_r6.maslov_index(calc_r6.connecting_domain(0, 0)) == 0
    assert calc_r6.j_plus(calc_r6.connecting_domain(0, 0)) == 0


def test_maslov_bigon_and_square(calc_ot, calc_r6):
    # bigon: quadrant sums 1/4 + 1/4, euler 1/2
    assert calc_ot.maslov_index(Domain((1, 0), 1, 0)) == 1
    # square region 0 of the 6-region diagram: quadrants 1/2 + 1/2, euler 0
    sq = calc_r6.connecting_domain(4, 2)
    assert sq.coeffs == (1, 0, 0, 0, 0)
    assert calc_r6.dg.euler_measures_2[0] == 0
    assert calc_r6.maslov_index(sq) == 1


def test_maslov_rejects_nonintegral(calc_r6):
    # self-pair with a single 6-cornered region is not a quarter-integer match
    found = False
    gens = calc_r6.dg.generators()
    for g in gens:
        for r in range(calc_r6.num_unpointed):
            coeffs = tuple(1 if i == r else 0 for i in range(calc_r6.num_unpointed))
            dom = Domain(coeffs, g.index, g.index)
            tot = (
                2 * pm4_sum(calc_r6, coeffs, g.points)
                + 2 * calc_r6._em2_total(coeffs)
            )
            if tot % 4:
                found = True
                with pytest.raises(DomainError):
                    calc_r6.maslov_index(dom)
    assert found


def test_domain_type_zero(calc_r6):
    assert calc_r6.domain_type(calc_r6.connecting_domain(0, 0)) == (0, 0, 0, 0)


def test_domain_type_bigon(calc_ot):
    assert calc_ot.domain_type(Domain((1, 0), 1, 0)) == (0, 1, 1, 0)


def test_stored_differential_types_r6(calc_r6):
    types = {}
    for (i, j), e in calc_r6.index1_differentials().items():
        for dom in e.domains:
            types[(i, j)] = (dom.coeffs, calc_r6.domain_type(dom))
    assert types == {
        (4, 2): ((1, 0, 0, 0, 0), (0, 1, 1, 0)),
        (5, 3): ((1, 0, 0, 0, 0), (0, 1, 1, 0)),
        (7, 0): ((0, 0, 0, 1, 1), (2, 0, 2, 0)),
        (8, 0): ((1, 1, 0, 0, 0), (2, 0, 2, 0)),
        (9, 1): ((1, 1, 0, 0, 0), (2, 0, 2, 0)),
        (9, 2): ((0, 0, 0, 1, 1), (2, 0, 2, 0)),
        (10, 1): ((0, 0, 0, 0, 1), (0, 1, 1, 0)),
        (11, 3): ((0, 0, 0, 0, 1), (0, 1, 1, 0)),
    }


def test_rectangle_jplus_values(calc_r22):
    # embedded disks among the stored differentials come in both J+ flavors:
    # cycle-merging ones at 0 and cycle-splitting ones at 2
    seen = set()
    for e in calc_r22.index1_differentials().values():
        for dom in e.domains:
            t = calc_r22.domain_type(dom)
            if t[1:] == (1, 1, 0):
                seen.add(t[0])
    assert {0, 2} <= seen


def test_domain_type_s1s2_reads_one_circle_per_curve():
    # one alpha and one beta curve carry one boundary arc each, so every
    # curve of s1s2 has one boundary circle; (0, 2, 1) is a disk
    calc = DomainCalculator(load_diagram("s1s2"))
    assert calc.domain_type(Domain((0, 2, 1), 0, 1)) == (0, 1, 1, 0)
    assert calc.domain_type(Domain((1, 0, 0), 0, 1)) == (0, 1, 1, 0)


def _index1_types(dg):
    calc = DomainCalculator(dg)
    return [calc.domain_type(dom)
            for e in calc.index1_differentials().values() for dom in e.domains]


# every admissible fixture, and seeded finger-moved variants of those that
# take a push; a finger move presents the same manifold
PUSHABLE = ("octa2", "r6", "s1s2", "s3_wiggle")
READOUT_INPUTS = (
    [(n, 0, 0) for n in ("l21", "l31", "octa2", "r22", "r6", "s1s2",
                         "s3_overtwisted", "s3_tight", "s3_twopoint",
                         "s3_wiggle")]
    + [(n, 1, s) for n in PUSHABLE for s in (1, 2, 3)]
    + [(n, 2, s) for n in ("octa2", "r6", "s3_wiggle") for s in (1, 2, 3)]
    + [("r22", k, s) for k in (1, 2, 3) for s in (1, 2, 3, 4)]
)


@pytest.mark.parametrize("name,pushes,seed", READOUT_INPUTS)
def test_domain_type_is_a_surface_on_pushed_variants(name, pushes, seed):
    for _, chi, b, g in _index1_types(
            build_diagram(pushed_variant(name, pushes, seed))):
        assert (chi + b) % 2 == 0 and b >= 1 and g >= 0


@pytest.mark.parametrize("name,pushes,seed", [
    ("octa2", 0, 0), ("r6", 0, 0), ("s1s2", 0, 0), ("s3_overtwisted", 0, 0),
    ("s3_twopoint", 0, 0), ("s3_wiggle", 0, 0), ("octa2", 1, 1),
    ("r6", 1, 1), ("s1s2", 1, 2), ("s3_wiggle", 1, 3),
])
def test_domain_type_reads_disks_on_nice_diagrams(name, pushes, seed):
    # every positive index-1 domain of a nice diagram is an embedded
    # bigon or rectangle
    fin = make_nice(build_diagram(pushed_variant(name, pushes, seed))).diagram
    types = _index1_types(fin)
    assert types
    assert {t[1:] for t in types} == {(1, 1, 0)}
    assert {t[0] for t in types} <= {0, 2}


def test_maslov_additivity_random_composable(calc_r22):
    rng = random.Random(7)
    table = calc_r22.spinc_partition()
    triples = 0
    while triples < 40:
        members = table.classes[rng.randrange(len(table.classes))]
        if len(members) < 3:
            continue
        x, y, z = (rng.choice(members) for _ in range(3))
        d1 = calc_r22.connecting_domain(x, y)
        d2 = calc_r22.connecting_domain(y, z)
        if d1 is None or d2 is None:
            continue
        summed = Domain(
            tuple(a + b for a, b in zip(d1.coeffs, d2.coeffs)), x, z
        )
        assert calc_r22.maslov_index(summed) == calc_r22.maslov_index(
            d1
        ) + calc_r22.maslov_index(d2)
        triples += 1


# -- SpinC partition and gradings ---------------------------------------------


def test_spinc_r22_frozen(calc_r22):
    t = calc_r22.spinc_partition()
    assert [len(c) for c in t.classes] == [
        12, 6, 16, 6, 6, 2, 10, 2, 10, 10, 10, 6, 2, 2, 6, 4, 4, 6,
    ]
    assert t.div == (0, 2, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2)
    xi = calc_r22.dg.contact_generator().index
    assert xi == 0
    assert t.class_of[xi] == 0
    # contact class Chern numbers vanish: torsion class
    assert t.chern[t.class_of[xi]] == (0, 0)
    assert {i: t.level[i] for i in t.classes[0]} == {
        0: 0, 7: 1, 16: 0, 24: 1, 32: 2, 36: 1,
        54: 2, 62: 1, 74: 1, 95: 2, 111: 1, 116: 2,
    }
    assert {i: t.level[i] for i in t.classes[1]} == {
        1: 0, 26: 1, 75: 1, 78: 0, 94: 0, 110: 1}


def test_spinc_r6_frozen(calc_r6):
    t = calc_r6.spinc_partition()
    assert t.classes == ((0, 7, 8), (1, 2, 4, 9, 10), (3, 5, 11), (6,))
    assert t.div == (0, 0, 0, 0)
    assert t.level == (0, 0, 0, 0, 1, 1, 0, 1, 1, 1, 1, 1)


def test_spinc_small_fixtures(calc_ot, calc_l21, calc_sphere4):
    t = calc_ot.spinc_partition()
    assert t.classes == ((0, 1, 2),)
    assert t.div == (0,)
    assert t.level == (0, 1, 1)

    t = calc_l21.spinc_partition()
    assert t.classes == ((0,), (1,))
    assert t.level == (0, 0)

    t = calc_sphere4.spinc_partition()
    assert t.classes == ((0, 1),)
    assert t.div == (2,)
    assert set(t.level) == {0, 1}


def check_level_layout(table):
    """SpinCTable.levels and .slot against their definition, from the
    classes and each generator's level alone; returns how many classes are graded mod
    div.  Each member sits once, at its grading, ascending within its
    level and at its slot; levels run top first, one step down each, and
    every step from a level lands on a level, bar the two ends of a
    ZZ-graded class's span."""
    for k, members in enumerate(table.classes):
        gr, d, lv = table.level, table.div[k], table.levels[k]
        placed = [i for m in lv.values() for i in m]
        assert sorted(placed) == list(members), k
        for g, m in lv.items():
            assert list(m) == sorted(m), (k, g)
            assert all(gr[i] == g for i in m), (k, g)
            assert [table.slot[i] for i in m] == list(range(len(m))), (k, g)
        keys = list(lv)
        assert keys == [table.step(k, keys[0], -n)
                        for n in range(len(keys))], k
        if d:
            assert sorted(keys) == list(range(d)), k
        else:
            assert (keys[0], keys[-1]) == (max(gr[i] for i in members),
                                           min(gr[i] for i in members)), k
        for g in keys:
            for n in (1, -1):
                s = table.step(k, g, n)
                assert s in lv or (not d and s in (keys[0] + 1,
                                                   keys[-1] - 1)), (k, g, n)
    return sum(1 for d in table.div if d)


# every fixture's nice diagram, the seeded variants whose nice diagrams
# other tests use, and the seeded raw variants above
LAYOUT_INPUTS = (
    [(p.stem, 0, 0, True) for p in sorted(FIXTURES.glob("*.json"))]
    + [(n, 1, s, True) for n, s in (("octa2", 1), ("r6", 1), ("s1s2", 1),
                                    ("s1s2", 2), ("s1s2", 3),
                                    ("s3_wiggle", 3))]
    + [("r6", 2, s, True) for s in (1, 2, 9, 13)]
    + [(n, k, s, False) for n, k, s in READOUT_INPUTS if k]
)


@pytest.mark.parametrize("name,pushes,seed,nice", LAYOUT_INPUTS)
def test_level_layout_follows_gradings(name, pushes, seed, nice):
    dg = build_diagram(pushed_variant(name, pushes, seed))
    if nice:
        dg = make_nice(dg).diagram
    cyclic = check_level_layout(DomainCalculator(dg).spinc_partition())
    if name == "s1s2":
        assert cyclic > 0


def test_level_layout_check_rejects_descending_members():
    table = DomainCalculator(load_diagram("r6")).spinc_partition()
    check_level_layout(table)
    k, g = next((k, g) for k, lv in enumerate(table.levels)
                for g, m in lv.items() if len(m) > 1)
    levels = [dict(lv) for lv in table.levels]
    levels[k][g] = levels[k][g][::-1]
    with pytest.raises(AssertionError):
        check_level_layout(table._replace(levels=tuple(levels)))


def test_chern_constant_on_classes(calc_r22):
    # every generator's own Chern numbers are its class's
    t = calc_r22.spinc_partition()
    basis = calc_r22.periodic_domain_basis()
    for g, k in enumerate(t.class_of):
        assert tuple(calc_r22.maslov_index(Domain(P, g, g))
                     for P in basis) == t.chern[k]


def test_table_keeps_each_fact_at_its_grain(calc_r22):
    # Chern numbers and div per class; level, class and column per
    # generator; an index-1 entry sits under its pair and does not repeat it
    t = calc_r22.spinc_partition()
    n = len(calc_r22.dg.generators())
    assert "gradings" not in SpinCTable._fields
    assert len(t.chern) == len(t.div) == len(t.levels) == len(t.classes)
    assert len(t.level) == len(t.class_of) == len(t.slot) == n
    assert DiffEntry._fields == ("domains", "j0", "j2")
    assert not hasattr(DiffEntry, "parity")


def _relabeled_r22_nice(seed):
    """r22's nice diagram with its points relabeled and its unpointed
    regions reordered at random, the pointed regions kept last."""
    dg = make_nice(build_diagram(load_region_list("r22"))).diagram
    rng = random.Random(seed)
    perm = list(range(dg.num_points))
    rng.shuffle(perm)
    regs = [[[perm[p] for p in cir] for cir in reg] for reg in dg.regions]
    unpointed = regs[:dg.num_unpointed]
    rng.shuffle(unpointed)
    return build_diagram(make_region_list(
        unpointed + regs[dg.num_unpointed:], dg.num_pointed, name="r22nice"))


def test_chern_numbers_read_the_unpointed_lattice_echelon():
    # the calculator echelons the unpointed lattice on its own, apart from
    # its one system, and homology prints Chern numbers over that basis.
    # On this relabeling the system's kernel, cut to the unpointed regions,
    # is another basis of the same lattice and gives other numbers.
    dg = _relabeled_r22_nice(154)
    assert dg.nice and dg.contact_aligned
    calc = DomainCalculator(dg)
    nu = dg.num_unpointed
    own = IntSolver(columns(dense_incidence(dg)[1])[:nu]).kernel_basis()
    one = [v[:nu] for v in calc._system.kernel_basis()]
    t = calc.spinc_partition()
    moved = 0
    for k, members in enumerate(t.classes):
        g = members[0]
        chern = tuple(calc.maslov_index(Domain(tuple(P), g, g)) for P in own)
        assert t.chern[k] == chern
        moved += chern != tuple(calc.maslov_index(Domain(tuple(P), g, g))
                                for P in one)
    assert moved > 0


def test_grading_formula_random_pairs(calc_r22):
    # grading difference equals index minus twice the pointed weight, for
    # any full connecting chain, independent of which solution the solver picked
    rng = random.Random(3)
    t = calc_r22.spinc_partition()
    npt = calc_r22.dg.num_pointed
    checked = 0
    while checked < 30:
        members = t.classes[rng.randrange(len(t.classes))]
        i, j = rng.choice(members), rng.choice(members)
        dom = calc_r22.full_connecting_domain(i, j)
        assert dom is not None
        lhs = t.level[i] - t.level[j]
        rhs = calc_r22.maslov_index(dom) - 2 * sum(dom.coeffs[-npt:])
        div = t.div[t.class_of[i]]
        assert (lhs - rhs) % div == 0 if div else lhs == rhs
        checked += 1


def test_periodic_jplus_vanishes_in_torsion_class(calc_r22):
    # all Chern numbers of the contact class vanish, so every hat-periodic
    # chain has zero euler weight and zero J+ read at the contact generator
    xi = calc_r22.dg.contact_generator().index
    t = calc_r22.spinc_partition()
    assert t.chern[t.class_of[xi]] == (0, 0)
    basis = calc_r22.periodic_domain_basis()
    rng = random.Random(11)
    combos = [b for b in basis]
    for _ in range(10):
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        combos.append(
            tuple(a * u + b * v for u, v in zip(basis[0], basis[1]))
        )
    for q in combos:
        assert calc_r22._em2_total(q) == 0
        assert (calc_r22.maslov_index(Domain(q, xi, xi))
                - calc_r22._em2_total(q) == 0)


# -- stored candidate differentials -------------------------------------------


def test_index1_ot(calc_ot):
    diffs = calc_ot.index1_differentials()
    assert {(i, j): [d.coeffs for d in e.domains]
            for (i, j), e in diffs.items()} == {
        (1, 0): [(1, 0)],
        (2, 0): [(0, 1)],
    }
    for e in diffs.values():
        for dom in e.domains:
            assert calc_ot.maslov_index(dom) == 1
            assert calc_ot.j_plus(dom) == 0


def test_index1_r22_frozen(calc_r22):
    diffs = calc_r22.index1_differentials()
    assert len(diffs) == 182
    assert sum(e.count for e in diffs.values()) == 190
    hist = {}
    for e in diffs.values():
        for dom in e.domains:
            jp = calc_r22.j_plus(dom)
            assert jp >= 0 and jp % 2 == 0
            hist[jp] = hist.get(jp, 0) + 1
    assert hist == {0: 70, 2: 116, 4: 4}
    # every stored pair drops the relative grading by exactly one
    t = calc_r22.spinc_partition()
    for i, j in diffs:
        ci = t.class_of[i]
        assert ci == t.class_of[j]
        drop = t.level[i] - t.level[j] - 1
        assert drop % t.div[ci] == 0 if t.div[ci] else drop == 0


def _diffs_from(calc, i):
    diffs = calc.index1_differentials()
    return {b: d for (a, b), d in diffs.items() if a == i}


def _diffs_to(calc, j):
    diffs = calc.index1_differentials()
    return {a: d for (a, b), d in diffs.items() if b == j}


def _unpointed_regions_are_squares_or_bigons(dg):
    return all(len(reg) == 1 and len(reg[0]) in (2, 4)
               for r, reg in enumerate(dg.regions) if not dg.is_pointed(r))


def test_diagram_nice_matches_region_definition():
    for path in sorted(FIXTURES.glob("*.json")):
        dg = load_diagram(path.stem)
        assert dg.nice is _unpointed_regions_are_squares_or_bigons(dg)
        fin = make_nice(dg).diagram
        assert fin.nice is _unpointed_regions_are_squares_or_bigons(fin)
        assert fin.nice


def test_near_pair_rule_follows_diagram_nice(monkeypatch):
    # the index-1 table skips pairs moving more than two points, and
    # checks each domain's bigon-or-rectangle shape, exactly when
    # calc.dg.nice
    scanned, shaped = [], []
    scan = DomainCalculator._positive_domains
    monkeypatch.setattr(
        DomainCalculator, "_positive_domains",
        lambda self, i, j, base: scanned.append((i, j)) or scan(self, i, j,
                                                                base))
    monkeypatch.setattr(domains, "_check_nice_shape",
                        lambda *a: shaped.append(a))

    def run(dg):
        """Far pairs scanned, shape checks run, and the table."""
        scanned.clear()
        shaped.clear()
        calc = DomainCalculator(dg)
        assert len(calc.spinc_partition().classes) > 1
        diffs = calc.index1_differentials()
        pts = [set(g.points) for g in dg.generators()]
        far = sum(len(pts[i] ^ pts[j]) > 4 for i, j in scanned)
        return far, len(shaped), diffs

    def ndomains(diffs):
        return sum(len(e.domains) for e in diffs.values())

    r22, l21 = load_diagram("r22"), load_diagram("l21")
    assert not r22.nice and l21.nice
    far, checks, _ = run(r22)
    assert far and not checks
    far, checks, diffs = run(l21)
    assert not far and checks == ndomains(diffs)
    fin = make_nice(load_diagram("r6")).diagram
    far, checks, diffs = run(fin)
    assert not far and checks == ndomains(diffs) > 0
    # the rule reads the attribute: flipped, each diagram gets the other
    # rule, and on a nice diagram no far pair has an index-1 domain
    fin.nice = False
    far, checks, flipped = run(fin)
    assert far and not checks and flipped == diffs
    r22.nice = True
    far, checks, _ = run(r22)
    assert not far and checks


def test_index1_views(calc_r6):
    assert set(_diffs_from(calc_r6, 9)) == {1, 2}
    assert set(_diffs_to(calc_r6, 0)) == {7, 8}
    assert _diffs_from(calc_r6, 0) == {}


def test_arrows_into_contact_generator_r22(calc_r22):
    xi = calc_r22.dg.contact_generator().index
    incoming = _diffs_to(calc_r22, xi)
    assert set(incoming) == {7, 24, 36, 62, 74, 111}
    assert sorted(e.count for e in incoming.values()) == [1, 1, 1, 1, 2, 2]


# -- invariants raise DomainError ---------------------------------------------


def test_chern_split_is_an_internal_error(tmp_path, monkeypatch, capsys):
    # Chern numbers that differ inside one class break an exact invariant;
    # it raises DomainError (exit 4) even under python -O.  Every Maslov
    # index, Chern numbers included, is read through domains._quarter;
    # patched to count its calls, no two generators share Chern numbers
    monkeypatch.setattr(domains, "_quarter",
                        lambda num, calls=itertools.count(): next(calls))
    with pytest.raises(DomainError, match="^Chern split a class$"):
        DomainCalculator(load_diagram("r22")).spinc_partition()
    rc = main(["analyze", "--input", str(FIXTURES / "r22.json"),
               "--out-dir", str(tmp_path)])
    assert rc == 4
    assert "internal error: Chern split a class" in capsys.readouterr().err


# IntSolver.reduce that adds 1 to region 0 of the third chain it builds
# (the calculator's system reduces once per generator): that generator's
# potential misses its boundary identity
CORRUPT_REDUCE = """
def corrupt_reduce(self, b, reduce=IntSolver.reduce):
    x, r = reduce(self, b)
    self.reduced = getattr(self, "reduced", 0) + 1
    if self.reduced == 3:
        x[0] += 1
    return x, r
"""


def test_corrupted_potential_is_an_internal_error(tmp_path, monkeypatch,
                                                  capsys):
    # each potential is checked once, when potentials are built, and the
    # failure is a DomainError (exit 4), also under python -O
    space = {"IntSolver": IntSolver}
    exec(CORRUPT_REDUCE, space)
    monkeypatch.setattr(IntSolver, "reduce", space["corrupt_reduce"])
    dg = load_diagram("r22")
    want = "potential of generator %s fails its boundary identity" % (
        dg.generators()[2],)
    with pytest.raises(DomainError) as exc:
        DomainCalculator(dg).spinc_partition()
    assert str(exc.value) == want
    rc = main(["analyze", "--input", str(FIXTURES / "r22.json"),
               "--out-dir", str(tmp_path)])
    assert rc == 4
    assert "internal error: " + want in capsys.readouterr().err
    rc, _, err = run_cli_optimized(
        ["analyze", "--input", FIXTURES / "r22.json", "--out-dir", tmp_path],
        prelude="from obfloer.linalg import IntSolver\n" + CORRUPT_REDUCE
                + "IntSolver.reduce = corrupt_reduce")
    assert rc == 4
    assert "internal error: " + want in err


def test_scan_point_outside_the_cone_is_an_internal_error(monkeypatch):
    calc = DomainCalculator(load_diagram("r22"))
    assert calc.find_pos_domains(7, 0)
    monkeypatch.setattr(linalg.PolytopeScan, "points",
                        lambda self, consts: [(-1,) + tuple(consts[1:])])
    with pytest.raises(DomainError, match="left the nonnegative cone"):
        calc.find_pos_domains(7, 0)


def test_analyze_runs_fourier_motzkin_once_per_calculator(tmp_path,
                                                          monkeypatch):
    # the positive-domain scan compiles its projection into one kernel
    # once per calculator (PolytopeScan), and the admissibility check
    # reads the same kernel; fm_chain never runs.  The index-1 table scans
    # each pair through _positive_domains, as find_pos_domains does
    counts = {"fm_chain": 0, "calculators": 0, "scans": 0, "kernels": 0}
    fm_chain = linalg.fm_chain
    scan_source = linalg._scan_source
    init = DomainCalculator.__init__
    positive_domains = DomainCalculator._positive_domains

    def counted_fm(rows, nvars):
        counts["fm_chain"] += 1
        return fm_chain(rows, nvars)

    def counted_source(*args):
        counts["kernels"] += 1
        return scan_source(*args)

    def counted_init(self, diagram):
        counts["calculators"] += 1
        init(self, diagram)

    def counted_scan(self, x, y, base):
        counts["scans"] += 1
        return positive_domains(self, x, y, base)

    monkeypatch.setattr(linalg, "fm_chain", counted_fm)
    monkeypatch.setattr(linalg, "_scan_source", counted_source)
    monkeypatch.setattr(DomainCalculator, "__init__", counted_init)
    monkeypatch.setattr(DomainCalculator, "_positive_domains", counted_scan)
    rc = main(["analyze", "--input", str(FIXTURES / "r22.json"),
               "--out-dir", str(tmp_path)])
    assert rc == 0
    assert counts["calculators"] == 1 and counts["scans"] > 300
    assert counts["fm_chain"] == 0
    assert counts["kernels"] == counts["calculators"]
