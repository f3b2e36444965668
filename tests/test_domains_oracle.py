"""Spin-c classes, positive domains, index-1 tables and Maslov indices
against the per-pair paths they replaced.

DomainCalculator finds classes and connecting domains from one reduction
per generator.  The oracles below are the per-pair path it replaced: a
generator joins the first class anchor it has a full solve to, and the
positive-domain scan starts from one hat solve of the pair.  Both must
give the same SpinCTable and the same positive domains, on every fixture
and on seeded finger-moved variants.  Each generator's potential is
checked once, so the connecting domains are checked per pair here.

The index-1 table is built in one pass per pair, reading each domain's
index and J+ off the two generators' index vectors.  Its oracle is the
table built the old way: find_pos_domains on each pair, kept to
maslov_index(d) == 1, then j_plus per domain.  That table, the Chern
numbers and the gradings are checked against indices summed point by
point (conftest.pm4_sum), on every fixture, r22's nice diagram, seeded
r22 variants and r6's nice variants.

The SpinC and hat keys come from one reduction per generator of one
integer system; the oracle is the two-solver path it replaced (a full
reduction, then the pointed residue modulo the full periodic lattice),
which must split the generators into the same classes.  Admissibility
reads the positive-domain scan's compiled projection; the oracle is
linalg.cone_is_trivial on the same rows.

Maslov indices, J+ and domain shapes read the point measures through
per-generator index vectors; the oracle is the sum over regions and
both generators' points (conftest.pm4_sum).

The calculator's two integer echelons run on sparse columns; the oracle
is the dense echelon they replaced (conftest.dense_column_echelon) on
dense rows built from the regions alone, which must give the same H, U,
pivots, kernel basis and reductions.
"""

import random
from math import gcd

import pytest

from obfloer.diagram import build_diagram, cycle_count, make_region_list
from obfloer.domains import (
    AdmissibilityError,
    Domain,
    DomainCalculator,
    DomainError,
    SpinCTable,
)
from obfloer.linalg import (
    IntSolver,
    UnboundedPolytopeError,
    cone_is_trivial,
    lattice_points,
)
from obfloer.nicefy import make_nice

from conftest import (
    FIXTURES,
    check_echelon_against_dense,
    check_potential_differences,
    columns,
    corner_occurrences,
    dense_incidence,
    load_diagram,
    load_region_list,
    one_push_variants,
    pm4_sum,
    pushed_variant,
)

FIXTURE_NAMES = sorted(p.stem for p in FIXTURES.glob("*.json"))


def _indicator_diff(dg, xg, yg):
    rhs = [0] * dg.num_points
    for p in xg.points:
        rhs[p] += 1
    for p in yg.points:
        rhs[p] -= 1
    return rhs


def oracle_spinc_partition(calc):
    """Anchor loop: each generator solved against every anchor in turn;
    then graded by oracle_grading."""
    dg = calc.dg
    full = IntSolver(columns(dense_incidence(dg)[1]))
    gens = dg.generators()
    members, conn = [], {}
    for g in gens:
        for mem in members:
            sol = full.solve(_indicator_diff(dg, gens[mem[0]], g))
            if sol is not None:
                mem.append(g.index)
                conn[g.index] = sol
                break
        else:
            members.append([g.index])
            conn[g.index] = [0] * dg.num_regions
    return oracle_grading(calc, members, conn)


def oracle_grading(calc, members, conn):
    """The SpinCTable of these classes, each member i reached from its
    class's first member by the full chain conn[i], with every Chern
    number, divisor and grading summed point by point, and each level's
    members found by sorting the class on its gradings.  Every member's
    own Chern numbers are summed and must agree across its class."""
    dg = calc.dg
    full = IntSolver(columns(dense_incidence(dg)[1]))
    gens = dg.generators()
    class_of = [None] * len(gens)
    for ci, mem in enumerate(members):
        for i in mem:
            class_of[i] = ci
    basis = calc.periodic_domain_basis()
    chern = []
    for mem in members:
        own = {tuple(oracle_maslov(calc, Domain(b, i, i)) for b in basis)
               for i in mem}
        assert len(own) == 1, mem
        chern.append(own.pop())
    npt = dg.num_pointed
    divs, level = [], [None] * len(gens)
    for mem in members:
        d, a = 0, mem[0]
        for q in full.kernel_basis():
            d = gcd(d, oracle_maslov(calc, Domain(tuple(q), a, a))
                    - 2 * sum(q[-npt:]))
        divs.append(d)
        for i in mem:
            c = conn[i]
            mu = oracle_maslov(calc, Domain(tuple(c), a, i))
            val = -(mu - 2 * sum(c[-npt:]))
            level[i] = val % d if d else val
    levels, slot = [], [None] * len(gens)
    for mem, d in zip(members, divs):
        gr = [level[i] for i in mem]
        span = range(d) if d else range(min(gr), max(gr) + 1)
        levels.append({g: tuple(sorted(i for i in mem if level[i] == g))
                       for g in sorted(span, reverse=True)})
        for m in levels[-1].values():
            for n, i in enumerate(m):
                slot[i] = n
    return SpinCTable(
        classes=tuple(tuple(m) for m in members),
        class_of=tuple(class_of),
        chern=tuple(chern),
        div=tuple(divs),
        level=tuple(level),
        levels=tuple(levels),
        slot=tuple(slot),
    )


def oracle_generator_keys(calc):
    """Per generator, its (full residue, pointed residue) by two solvers.

    Reducing -indicator(g) modulo the full column lattice gives the full
    residue r_g and a chain P_g; the pointed residue s_g is the canonical
    residue of P_g's pointed coefficients modulo the pointed rows of the
    full periodic lattice.  A full domain x -> y exists iff r_x == r_y,
    and a hat domain iff also s_x == s_y.  The chain brought down to s_g
    must pass the boundary identity, as the calculator once checked.
    """
    dg = calc.dg
    nu = dg.num_unpointed
    full = IntSolver(columns(dense_incidence(dg)[1]))
    kern = full.kernel_basis()
    pointed = IntSolver(columns([[k[nu + p] for k in kern]
                                 for p in range(dg.num_pointed)]))
    keys = []
    for g in dg.generators():
        rhs = [0] * dg.num_points
        for p in g.points:
            rhs[p] -= 1
        chain, r = full.reduce(rhs)
        w, s = pointed.reduce(chain[nu:])
        for k, wk in zip(kern, w):
            chain = [c - wk * v for c, v in zip(chain, k)]
        assert calc._boundary(chain) == [a - b for a, b in zip(rhs, r)]
        assert chain[nu:] == s
        keys.append((tuple(r), tuple(s)))
    return keys


def _same_partition(a, b):
    """Whether key lists a and b split the indices into the same classes,
    that is a[x] == a[y] iff b[x] == b[y] for every pair."""
    a_to_b, b_to_a = {}, {}
    return all(a_to_b.setdefault(u, v) == v and b_to_a.setdefault(v, u) == u
               for u, v in zip(a, b))


def check_keys_and_admissibility(calc):
    """The calculator's SpinC and hat keys split the generators as the
    two-solver oracle does, and admissibility is cone_is_trivial's."""
    old = oracle_generator_keys(calc)
    pots = calc._potentials
    assert _same_partition([r for r, _ in old], [p.spinc_class for p in pots])
    assert _same_partition(old, [(p.spinc_class, p.pointed) for p in pots])
    basis = calc.periodic_domain_basis()
    rows = [tuple(b[r] for b in basis) for r in range(calc.num_unpointed)]
    assert calc.check_weak_admissibility() == cone_is_trivial(
        rows, len(basis))


def _oracle_corner_cuts(dg, xg, yg, base, basis):
    contact = set(dg.contact_points)
    xset, yset = set(xg.points), set(yg.points)
    rows = []
    for c in contact & (xset ^ yset):
        rhs = 1 if c in xset else -1
        cnt = ({}, {})
        for r, _, i in corner_occurrences(dg, c):
            if not dg.is_pointed(r):
                d = cnt[i % 2]
                d[r] = d.get(r, 0) + 1
        if cnt[0] and cnt[1]:
            continue
        if cnt[0]:
            live, total = cnt[0], rhs
        elif cnt[1]:
            live, total = cnt[1], -rhs
        else:
            return None
        if total < 0:
            return None
        for r, m in live.items():
            rows.append(tuple(-m * b[r] for b in basis) + (1 - m * base[r],))
    return rows


class PairOracle:
    """Positive hat domains of a pair, scanned from one solve of the pair."""

    def __init__(self, calc):
        self.calc = calc
        dg = calc.dg
        self.hat = IntSolver(
            columns(dense_incidence(dg)[1])[:dg.num_unpointed])
        self.basis = calc.periodic_domain_basis()

    def connecting(self, xg, yg):
        return self.hat.solve(_indicator_diff(self.calc.dg, xg, yg))

    def pos_domains(self, i, j):
        """Sorted coefficient tuples, or AdmissibilityError (the class)."""
        dg, basis = self.calc.dg, self.basis
        gens = dg.generators()
        xg, yg = gens[i], gens[j]
        base = self.connecting(xg, yg)
        if base is None:
            return []
        rows = [tuple(b[r] for b in basis) + (base[r],)
                for r in range(dg.num_unpointed)]
        cuts = _oracle_corner_cuts(dg, xg, yg, base, basis)
        if cuts is None:
            return []
        try:
            ts = lattice_points(rows + cuts, len(basis))
        except UnboundedPolytopeError:
            return AdmissibilityError
        return sorted(
            tuple(base[r] + sum(t[k] * b[r] for k, b in enumerate(basis))
                  for r in range(dg.num_unpointed))
            for t in ts
        )


def _adjacent_pairs(table, classes=None):
    """Grading-adjacent pairs of every class, or of the given ones."""
    for ci in range(len(table.classes)) if classes is None else classes:
        gr, d = table.level, table.div[ci]
        members = table.classes[ci]
        for i in members:
            for j in members:
                drop = gr[i] - gr[j] - 1
                if (drop % d if d else drop) == 0:
                    yield i, j


def _fast_pos_domains(calc, i, j):
    try:
        doms = calc.find_pos_domains(i, j)
    except AdmissibilityError:
        return AdmissibilityError
    assert all((d.src, d.dst) == (i, j) for d in doms)
    return [d.coeffs for d in doms]


def oracle_index1_table(calc, k):
    """Class k's index-1 table built the old way, as (src, dst) ->
    (domains, count, j0, j2): find_pos_domains on every grading-adjacent
    pair (on a nice diagram, the pairs that move at most two points),
    kept to maslov_index(d) == 1, then j_plus per domain.  Every index and
    J+ read is checked against the sum over points."""
    table = calc.spinc_partition()
    gens = calc.dg.generators()
    nice = calc.dg.nice
    out = {}
    for i, j in _adjacent_pairs(table, [k]):
        if i == j or (
                nice and len(set(gens[i].points) ^ set(gens[j].points)) > 4):
            continue
        doms, jps = [], []
        for d in calc.find_pos_domains(i, j):
            assert calc.maslov_index(d) == oracle_maslov(calc, d), d
            if calc.maslov_index(d) == 1:
                jp = calc.j_plus(d)
                assert jp == (1 - calc._em2_total(d.coeffs) + gens[i].cycles()
                              - gens[j].cycles()), d
                doms.append(d)
                jps.append(jp)
        if doms:
            out[(i, j)] = (tuple(doms), len(doms), jps.count(0), jps.count(2))
    return out


def check_tables(calc, want=None):
    """The SpinCTable against want (default: the anchor loop's) and every
    class's index-1 table against the old path, indices summed point by
    point; returns how many table entries were compared
    (AdmissibilityError when both paths refuse)."""
    table = calc.spinc_partition()
    if want is None:
        want = oracle_spinc_partition(calc)
    for field in ("classes", "class_of", "chern", "div", "level", "slot"):
        assert getattr(table, field) == getattr(want, field), field
    assert ([list(lv.items()) for lv in table.levels]
            == [list(lv.items()) for lv in want.levels])
    entries = 0
    for k in range(len(table.classes)):
        try:
            old = oracle_index1_table(calc, k)
        except AdmissibilityError:
            with pytest.raises(AdmissibilityError):
                calc.index1_differentials(k)
            return AdmissibilityError
        got = calc.index1_differentials(k)
        assert {p: (e.domains, e.count, e.j0, e.j2)
                for p, e in got.items()} == old, k
        entries += len(old)
    return entries


def check_against_oracles(dg):
    calc = DomainCalculator(dg)
    check_keys_and_admissibility(calc)
    check_tables(calc)
    table = calc.spinc_partition()
    pairs = PairOracle(calc)
    checked = 0
    for i, j in _adjacent_pairs(table):
        assert _fast_pos_domains(calc, i, j) == pairs.pos_domains(i, j), (i, j)
        checked += 1
    return calc, checked


# Sphere with alpha and beta meeting in four points and the two basepoints
# in the bigons on the same sides of both curves: every full periodic
# domain covers both basepoints equally, so pairs of generators whose
# full domains cover them unequally have no hat domain.
TWICE_POINTED = [[3, 0, 1, 2], [0, 3], [2, 1], [1, 0, 3, 2], [0, 1], [2, 3]]


def _fixture(name):
    if name == "twice_pointed":
        return build_diagram(make_region_list(TWICE_POINTED, 2, name=name))
    return build_diagram(load_region_list(name))


@pytest.mark.parametrize("name", FIXTURE_NAMES + ["twice_pointed"])
def test_fixture_matches_oracles(name):
    calc, _ = check_against_oracles(_fixture(name))
    assert check_potential_differences(calc) > 0
    # hat connecting domains exist for exactly the pairs the solve finds
    pairs = PairOracle(calc)
    gens = calc.dg.generators()
    full_only = 0
    if len(gens) <= 40:
        for x in gens:
            for y in gens:
                hat = calc.connecting_domain(x.index, y.index)
                assert (hat is None) == (pairs.connecting(x, y) is None)
                full = calc.full_connecting_domain(x.index, y.index)
                full_only += hat is None and full is not None
    assert (full_only > 0) == (name == "twice_pointed")


def test_key_oracle_tells_classes_apart():
    # the partition check is not vacuous: a merged and a split class fail
    assert _same_partition([1, 1, 2], ["a", "a", "b"])
    assert not _same_partition([1, 1, 2], ["a", "a", "a"])
    assert not _same_partition([1, 1, 2], ["a", "b", "c"])


def test_sphere4_is_inadmissible_by_both_paths():
    calc = DomainCalculator(load_diagram("sphere4"))
    check_keys_and_admissibility(calc)
    assert calc.check_weak_admissibility() is False


@pytest.fixture(scope="module")
def nice_r22_calc():
    return DomainCalculator(make_nice(load_diagram("r22")).diagram)


def test_nice_r22_keys_match_oracle(nice_r22_calc):
    calc = nice_r22_calc
    check_keys_and_admissibility(calc)
    assert len(calc.spinc_partition().classes) > 1


def test_nice_r22_tables_match_old_path(nice_r22_calc):
    # the anchor loop takes half a minute on 4280 generators in 53
    # classes; the classes here are the key oracle's (previous test), and
    # each member is reached by a checked difference of potentials
    calc = nice_r22_calc
    classes = calc.spinc_partition().classes
    conn = {i: calc._check_boundary(calc.full_connecting_domain(m[0], i)).coeffs
            for m in classes for i in m}
    assert check_tables(calc, oracle_grading(calc, classes, conn)) > 10000


@pytest.mark.parametrize("pushes,seed", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_r22_variants_match_oracles(pushes, seed):
    _, checked = check_against_oracles(
        build_diagram(pushed_variant("r22", pushes, seed)))
    assert checked > 0


R6_ONE_PUSH = one_push_variants("r6")


def test_r6_has_fourteen_one_push_variants():
    assert len(R6_ONE_PUSH) == 14


@pytest.mark.parametrize("k", range(len(R6_ONE_PUSH)))
def test_r6_nice_variants_match_oracles(k):
    nice = make_nice(build_diagram(R6_ONE_PUSH[k])).diagram
    _, checked = check_against_oracles(nice)
    assert checked > 0


# -- Maslov index, J+ and domain type against the sum over points ------------


def oracle_maslov_numerator(calc, dom):
    gens = calc.dg.generators()
    pts = gens[dom.src].points + gens[dom.dst].points
    return pm4_sum(calc, dom.coeffs, pts) + 2 * calc._em2_total(dom.coeffs)


def oracle_maslov(calc, dom):
    """maslov_index with its point measures summed point by point."""
    num = oracle_maslov_numerator(calc, dom)
    assert num % 4 == 0, dom
    return num // 4


def oracle_domain_type(calc, dom, jp):
    """domain_type with its point measures summed point by point."""
    dg, c = calc.dg, dom.coeffs
    xg, yg = dg.generators()[dom.src], dg.generators()[dom.dst]
    if not any(c):
        return (jp, 0, 0, 0)
    pm4 = dense_incidence(dg)[0]
    s = sum(1 for p in set(xg.points) & set(yg.points)
            if all(pm4[r][p] == 0 for r, cr in enumerate(c) if cr))
    num = (4 * (dg.num_curves - s) + 2 * calc._em2_total(c)
           - pm4_sum(calc, c, xg.points + yg.points))
    assert num % 4 == 0
    alpha_at = {j: i for i, j in enumerate(xg.permutation)}
    b = cycle_count([alpha_at[j] for j in yg.permutation]) - s
    return (jp, num // 4, b, (2 - num // 4 - b) // 2)


def check_maslov_oracle(calc):
    """Every index-1 domain and every periodic domain read from g to g, as
    the calculator reads them: hat ones from every generator (Chern
    numbers), full ones from each class's anchor (divisibility); returns
    how many domains were compared."""
    gens = calc.dg.generators()
    full = IntSolver(columns(dense_incidence(calc.dg)[1]))
    doms = [Domain(q, g.index, g.index)
            for g in gens for q in calc.periodic_domain_basis()]
    doms += [Domain(tuple(q), members[0], members[0])
             for members in calc.spinc_partition().classes
             for q in full.kernel_basis()]
    try:
        doms += [d for e in calc.index1_differentials().values()
                 for d in e.domains]
    except AdmissibilityError:
        pass
    for dom in doms:
        num = oracle_maslov_numerator(calc, dom)
        if num % 4:
            with pytest.raises(DomainError, match="not divisible by 4"):
                calc.maslov_index(dom)
            continue
        assert calc.maslov_index(dom) == num // 4, dom
        jp = (num // 4 - calc._em2_total(dom.coeffs)
              + gens[dom.src].cycles() - gens[dom.dst].cycles())
        assert calc.j_plus(dom) == jp, dom
        if any(v < 0 for v in dom.coeffs):
            with pytest.raises(DomainError, match="nonnegative"):
                calc.domain_type(dom)
        else:
            assert calc.domain_type(dom) == oracle_domain_type(calc, dom, jp)
    return len(doms)


@pytest.mark.parametrize("name", FIXTURE_NAMES + ["twice_pointed"])
def test_maslov_index_matches_point_sums(name):
    assert check_maslov_oracle(DomainCalculator(_fixture(name))) > 0


def test_maslov_index_matches_point_sums_on_nice_r22(nice_r22_calc):
    assert check_maslov_oracle(nice_r22_calc) > 10000


# -- the calculator's two echelons against the dense reference --------------


ECHELON_INPUTS = ([(name, 0, 0, False) for name in FIXTURE_NAMES]
                  + [(name, pushes, seed, False) for name in ("r6", "r22")
                     for pushes in (1, 2, 3) for seed in (1, 2, 3)]
                  + [("r6", 0, 0, True), ("r22", 0, 0, True)])


@pytest.mark.parametrize(
    "name,pushes,seed,nice", ECHELON_INPUTS,
    ids=["%s-%d-%d%s" % (n, p, s, "-nice" * k)
         for n, p, s, k in ECHELON_INPUTS])
def test_calculator_echelons_match_the_dense_reference(monkeypatch, name,
                                                       pushes, seed, nice):
    # the system (boundary rows, then one row per pointed region) and the
    # boundary rows on the unpointed regions, each as dense rows built
    # from the regions alone, echelon to the dense reference's H, U and
    # pivots
    dg = build_diagram(pushed_variant(name, pushes, seed) if pushes
                       else load_region_list(name))
    if nice:
        dg = make_nice(dg).diagram
    solvers, init = [], IntSolver.__init__

    def recorded(self, cols):
        init(self, cols)
        solvers.append((self, [list(c) for c in cols]))

    monkeypatch.setattr(IntSolver, "__init__", recorded)
    calc = DomainCalculator(dg)
    nu, nr = dg.num_unpointed, dg.num_regions
    rows = [list(row) for row in dense_incidence(dg)[1]]
    system = rows + [[int(r == p) for r in range(nr)] for p in range(nu, nr)]
    unpointed = [row[:nu] for row in rows]
    rng = random.Random("%s/%d/%d" % (name, pushes, seed))
    assert [s for s, _ in solvers] == [calc._system, solvers[1][0]]
    for (solver, cols), mat, n in ((solvers[0], system, nr),
                                   (solvers[1], unpointed, nu)):
        assert cols == columns(mat, n)
        b = [rng.randint(-3, 3) for _ in mat]
        check_echelon_against_dense(mat, n, solver, b)
