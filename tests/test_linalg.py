import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import invariant_factors

from fractions import Fraction

from obfloer import linalg
from obfloer.domains import DomainCalculator
from obfloer.linalg import (
    F2Map,
    F2Quotient,
    F2Subspace,
    IntSolver,
    PolytopeScan,
    UnboundedPolytopeError,
    affine_meets_subspace,
    cone_is_trivial,
    lattice_points,
)

from conftest import (
    check_echelon_against_dense,
    columns,
    load_diagram,
    polytope_box_bounds,
)


def _mat_vec(mat, vec):
    return [sum(a * b for a, b in zip(row, vec)) for row in mat]


def _rank(mat):
    # the rank is the number of pivots of the echelon form
    return len(IntSolver(columns(mat)).pivots)


# ---------------------------------------------------------------------------
# integers: frozen cases


def test_kernel_frozen_small():
    assert IntSolver(columns([[1, 1]])).kernel_basis() == [[1, -1]]
    assert IntSolver(columns([[1, 2], [2, 4]])).kernel_basis() == [[2, -1]]
    assert IntSolver(columns([[1, 0], [0, 1]])).kernel_basis() == []
    # zero matrix: kernel is everything, basis sorted with positive leads
    assert (IntSolver(columns([[0, 0], [0, 0]])).kernel_basis()
            == [[0, 1], [1, 0]])


def test_rank_frozen():
    assert _rank([[1, 2], [2, 4]]) == 1
    assert _rank([[1, 0], [0, 1]]) == 2
    assert _rank([[0]]) == 0


def test_solve_frozen():
    assert IntSolver(columns([[2, 0], [0, 2]])).solve([2, 4]) == [1, 2]
    # divisibility fails
    assert IntSolver(columns([[2, 0], [0, 2]])).solve([1, 0]) is None
    assert IntSolver(columns([[2]])).solve([1]) is None
    # inconsistent rows
    assert IntSolver(columns([[1], [1]])).solve([1, 2]) is None
    x = IntSolver(columns([[1, 1]])).solve([5])
    assert x is not None and sum(x) == 5
    # 3x + 6y = 3 is solvable even though no single coefficient divides rhs... it does
    x = IntSolver(columns([[3, 6]])).solve([3])
    assert x is not None and 3 * x[0] + 6 * x[1] == 3
    assert IntSolver(columns([[3, 6]])).solve([2]) is None


# ---------------------------------------------------------------------------
# integers: randomized cross-checks against sympy


def _random_mat(rng, m, n, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def test_rank_matches_sympy():
    rng = random.Random(101)
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mat = _random_mat(rng, m, n)
        assert _rank(mat) == sympy.Matrix(mat).rank()


def test_kernel_is_saturated_basis():
    rng = random.Random(202)
    for _ in range(120):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mat = _random_mat(rng, m, n)
        ker = IntSolver(columns(mat)).kernel_basis()
        assert len(ker) == n - sympy.Matrix(mat).rank()
        for v in ker:
            assert _mat_vec(mat, v) == [0] * m
            lead = next((x for x in v if x != 0), 0)
            assert lead > 0
        if ker:
            bmat = sympy.Matrix(ker).T  # columns = basis vectors
            assert bmat.rank() == len(ker)
            # saturated lattice: all invariant factors are 1, so every integer
            # kernel vector is an integer combination of the basis
            assert list(invariant_factors(bmat)) == [1] * len(ker)


def test_solve_finds_constructed_solutions():
    rng = random.Random(303)
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mat = _random_mat(rng, m, n)
        x0 = [rng.randint(-5, 5) for _ in range(n)]
        b = _mat_vec(mat, x0)
        x = IntSolver(columns(mat)).solve(b)
        assert x is not None
        assert _mat_vec(mat, x) == b


def test_solve_none_agrees_with_rational_rank():
    rng = random.Random(404)
    seen_none = 0
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        mat = _random_mat(rng, m, n, -3, 3)
        b = [rng.randint(-6, 6) for _ in range(m)]
        x = IntSolver(columns(mat)).solve(b)
        sm = sympy.Matrix(mat)
        aug = sm.row_join(sympy.Matrix(b))
        if aug.rank() > sm.rank():
            assert x is None
            seen_none += 1
        elif x is not None:
            assert _mat_vec(mat, x) == b
    assert seen_none > 20  # the distribution actually exercises the branch


def test_sparse_echelon_matches_the_dense_reference():
    # 10,200 matrices of 0-7 rows and 0-7 columns, entries -5..5 at three
    # densities: H, U, pivots, kernel basis and a reduction all agree
    rng = random.Random(505)
    for density in (0.2, 0.5, 1.0):
        for _ in range(3400):
            m, n = rng.randint(0, 7), rng.randint(0, 7)
            mat = [[rng.randint(-5, 5) if rng.random() < density else 0
                    for _ in range(n)] for _ in range(m)]
            b = [rng.randint(-9, 9) for _ in range(m)]
            check_echelon_against_dense(mat, n, IntSolver(columns(mat, n)), b)


@st.composite
def _system(draw):
    """(M, b, z): a small integer matrix, a right-hand side, a coefficient
    vector for the columns."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    entry = st.integers(-4, 4)
    mat = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                        min_size=m, max_size=m))
    b = draw(st.lists(st.integers(-9, 9), min_size=m, max_size=m))
    z = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return mat, b, z


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_system())
def test_reduce_residue_is_canonical(system):
    mat, b, z = system
    solver = IntSolver(columns(mat))
    x, r = solver.reduce(b)
    # b = M x + r, with each pivot-row residue in [0, pivot)
    assert [u + v for u, v in zip(_mat_vec(mat, x), r)] == b
    for row, col in solver.pivots:
        assert 0 <= r[row] < solver.hcols[col][row]
    # b and b + M z share a residue
    shifted = [u + v for u, v in zip(b, _mat_vec(mat, z))]
    assert solver.reduce(shifted)[1] == r
    # solve succeeds exactly on a zero residue, and then solves
    sol = solver.solve(b)
    assert (sol is not None) == (not any(r))
    if sol is not None:
        assert _mat_vec(mat, sol) == b


# ---------------------------------------------------------------------------
# GF(2): exhaustive on 3x3


def test_f2_exhaustive_3x3():
    for code in range(512):
        cols = [(code >> (3 * j)) & 7 for j in range(3)]
        f = F2Map(cols, nrows=3)
        ker = f.kernel_basis()
        span = F2Subspace(ker)
        assert f.rank() + span.dim() == 3
        for x in range(8):
            inker = f.apply(x) == 0
            assert span.contains(x) == inker
        for b in range(8):
            want = any(f.apply(x) == b for x in range(8))
            got = f.solve(b)
            assert (got is not None) == want
            if got is not None:
                assert f.apply(got) == b


def test_f2_subspace_membership():
    rng = random.Random(505)
    for _ in range(60):
        n = 6
        gens = [rng.randrange(1, 1 << n) for _ in range(rng.randint(0, 4))]
        sub = F2Subspace(gens)
        # brute-force span
        span = {0}
        for g in gens:
            span |= {s ^ g for s in span}
        while True:
            grown = span | {a ^ b for a in span for b in span}
            if grown == span:
                break
            span = grown
        assert sub.dim() == len(span).bit_length() - 1
        for v in range(1 << n):
            assert sub.contains(v) == (v in span)
            r = sub.reduce(v)
            assert sub.reduce(r) == r
            assert sub.contains(v ^ r)


def test_f2_quotient_roundtrip():
    rng = random.Random(606)
    n = 5
    for _ in range(40):
        sub = F2Subspace([rng.randrange(1 << n) for _ in range(rng.randint(0, 3))])
        q = F2Quotient(n, sub)
        assert q.dim() == n - sub.dim()
        for c in range(1 << q.dim()):
            assert q.project(q.lift(c)) == c
        for _ in range(30):
            v, w = rng.randrange(1 << n), rng.randrange(1 << n)
            assert (q.project(v) == q.project(w)) == sub.contains(v ^ w)
            assert sub.contains(v ^ q.lift(q.project(v)))


def test_f2_map_solution_and_kernel():
    # one-row system x0 + x1 = 1: particular solution plus kernel
    f = F2Map([1, 1], 1)
    assert f.solve(1) == 0b01 and f.kernel_basis() == [0b11]
    assert F2Map([0], 1).solve(1) is None
    f = F2Map([1, 2], 2)
    assert f.solve(0b01) == 0b01 and f.kernel_basis() == []


def test_affine_meets_subspace():
    rng = random.Random(707)
    n = 4
    for _ in range(120):
        sub = F2Subspace([rng.randrange(1 << n) for _ in range(rng.randint(0, 2))])
        offset = rng.randrange(1 << n)
        dirs = [rng.randrange(1 << n) for _ in range(rng.randint(0, 3))]
        got = affine_meets_subspace(offset, dirs, sub)
        # brute force over all combinations of dirs
        pts = set()
        for mask in range(1 << len(dirs)):
            a = offset
            for j in range(len(dirs)):
                if (mask >> j) & 1:
                    a ^= dirs[j]
            pts.add(a)
        hits = {a for a in pts if sub.contains(a)}
        if hits:
            assert got in hits
        else:
            assert got is None


# ---------------------------------------------------------------------------
# lattice points


def test_lattice_points_frozen():
    # 0 <= x <= 2, 0 <= y <= 2
    box = [(1, 0, 0), (-1, 0, 2), (0, 1, 0), (0, -1, 2)]
    pts = lattice_points(box, 2)
    assert pts == [(x, y) for x in range(3) for y in range(3)]
    # x, y >= 0, x + y <= 2
    tri = [(1, 0, 0), (0, 1, 0), (-1, -1, 2)]
    assert lattice_points(tri, 2) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    # infeasible: x >= 1 and x <= 0
    assert lattice_points([(1, -1), (-1, 0)], 1) == []
    # no variables at all
    assert lattice_points([], 0) == [()]
    assert lattice_points([(-1,)], 0) == []
    # narrow rational slab with no integer inside: 1/3 <= x <= 2/3
    assert lattice_points([(3, -1), (-3, 2)], 1) == []


@pytest.mark.parametrize("rows", [
    [], [(0,)], [(0,), (3,)], [(2,), (0,), (-1,)], [(-5,)],
])
def test_lattice_points_without_variables_skips_projection(rows,
                                                           monkeypatch):
    # the projection path's answer: [] iff S_0 holds a negative constant
    want = [] if any(r[0] < 0 for r in linalg.fm_chain(rows, 0)[0]) else [()]

    def no_projection(rows, nvars):
        raise AssertionError("fm_chain called with no variables")

    monkeypatch.setattr(linalg, "fm_chain", no_projection)
    assert lattice_points(rows, 0) == want


def test_lattice_points_unbounded():
    with pytest.raises(UnboundedPolytopeError):
        lattice_points([(1, 0)], 1)  # x >= 0
    with pytest.raises(UnboundedPolytopeError):
        lattice_points([], 1)  # whole line
    with pytest.raises(UnboundedPolytopeError):
        # x bounded, y free above: x in [0,1], y >= x
        lattice_points([(1, 0, 0), (-1, 0, 1), (-1, 1, 0)], 2)


def test_lattice_points_fractional_bounds():
    # -7/2 <= x <= 5/3: a ceiling from 2x + 7 >= 0, a floor from -3x + 5 >= 0
    assert lattice_points([(2, 7), (-3, 5)], 1) == [(-3,), (-2,), (-1,),
                                                      (0,), (1,)]
    # -20/3 <= x <= -5/2: both bounds negative, where floor is not truncation
    assert lattice_points([(3, 20), (-2, -5)], 1) == [(-6,), (-5,), (-4,),
                                                       (-3,)]
    # -1 <= x <= 1 and (x - 1)/2 <= y <= (x + 2)/3: y's bounds depend on x
    rows = [(1, 0, 1), (-1, 0, 1), (-1, 2, 1), (1, -3, 2)]
    assert lattice_points(rows, 2) == [(-1, -1), (-1, 0), (0, 0), (1, 0),
                                       (1, 1)]
    # x >= 1/2 with nothing above
    with pytest.raises(UnboundedPolytopeError):
        lattice_points([(2, -1)], 1)


def test_lattice_points_vs_bruteforce():
    rng = random.Random(808)
    for _ in range(100):
        k = rng.randint(1, 3)
        rows = [
            tuple(rng.randint(-3, 3) for _ in range(k)) + (rng.randint(-4, 4),)
            for _ in range(rng.randint(0, 4))
        ]
        # clamp into a box so everything is bounded
        for i in range(k):
            e = [0] * k
            e[i] = 1
            rows.append(tuple(e) + (6,))
            rows.append(tuple(-v for v in e) + (6,))
        got = lattice_points(rows, k)
        grid = [(v,) for v in range(-6, 7)]
        for _ in range(k - 1):
            grid = [t + (v,) for t in grid for v in range(-6, 7)]
        want = [
            t
            for t in grid
            if all(sum(a * x for a, x in zip(row, t)) + row[-1] >= 0 for row in rows)
        ]
        assert got == want


def _scan(rows, k):
    """PolytopeScan of the basis whose rows are rows: its transpose."""
    return PolytopeScan([tuple(a[j] for a in rows) for j in range(k)],
                        len(rows))


def _lifted(rows, k, consts):
    """lattice_points of the rows with these constants, each point t
    lifted to c + A t, in the same order; raises as lattice_points does."""
    full = [tuple(a) + (c,) for a, c in zip(rows, consts)]
    return [tuple(c + sum(x * tj for x, tj in zip(a, t))
                  for a, c in zip(rows, consts))
            for t in lattice_points(full, k)]


def _points_or_raise(scan, *args):
    try:
        return scan(*args)
    except UnboundedPolytopeError:
        return "unbounded"


def _random_scan_rows(rng, k, directions=4, copies=3):
    rows = []
    for _ in range(rng.randint(0, directions)):
        a = [rng.randint(-3, 3) for _ in range(k)]
        # parallel copies with different multiples
        for _ in range(rng.randint(1, copies)):
            m = rng.choice([1, 1, 2, 3])
            rows.append(tuple(m * v for v in a))
    if rng.random() < 0.5:  # box most systems in, leave the rest open
        for i in range(k):
            e = [0] * k
            e[i] = rng.randint(1, 3)
            rows += [tuple(e), tuple(-v for v in e)]
    rng.shuffle(rows)
    return rows


def _check_scan(rng, rows, k, seen, lo=-6, hi=9):
    scan = _scan(rows, k)
    for _ in range(4):
        consts = [rng.randint(lo, hi) for _ in rows]
        want = _points_or_raise(_lifted, rows, k, consts)
        assert _points_or_raise(scan.points, consts) == want, (rows, consts)
        seen.add((k, "unbounded" if want == "unbounded" else bool(want),
                  not rows))


def test_polytope_scan_vs_lattice_points():
    # one compiled scan per basis, several constant vectors; lattice_points
    # on the full rows, lifted to c + A t, is the oracle, raise included
    rng = random.Random(2024)
    seen = set()
    for _ in range(400):
        k = rng.randint(0, 3)
        _check_scan(rng, _random_scan_rows(rng, k), k, seen)
    # four coordinates, on smaller systems: the oracle's projection chain
    # grows fast with parallel rows
    rng = random.Random(2025)
    for _ in range(150):
        _check_scan(rng, _random_scan_rows(rng, 4, 3, 2), 4, seen, -4, 6)
    for k in range(1, 5):
        assert {(k, "unbounded", False), (k, False, False),
                (k, True, False), (k, "unbounded", True)} <= seen


def test_polytope_scan_on_r22_periodic_rows():
    # the rows find_pos_domains scans on r22, with constants drawn around
    # the connecting domains of real pairs (and far outside them)
    calc = DomainCalculator(load_diagram("r22"))
    basis = calc.periodic_domain_basis()
    rows = [tuple(b[r] for b in basis) for r in range(calc.num_unpointed)]
    scan = _scan(rows, len(basis))
    rng = random.Random(22)
    members = max(calc.spinc_partition().classes, key=len)
    outcomes = set()
    for _ in range(300):
        base = calc.connecting_domain(rng.choice(members),
                                      rng.choice(members)).coeffs
        spread = rng.choice([0, 1, 2, 6, 40])
        consts = [c + rng.randint(-spread, spread) for c in base]
        want = _lifted(rows, len(basis), consts)
        assert scan.points(consts) == want, consts
        assert scan.points(tuple(consts)) == want
        outcomes.add(len(want) > 1 if want else None)
    assert outcomes == {None, False, True}


def test_polytope_scan_with_entries_above_2_64():
    # rows and constants scaled by M = 2**70, constants shifted by less
    # than M: exact integer arithmetic keeps every strict/nonstrict edge
    rng = random.Random(64)
    big = 2 ** 70
    for _ in range(120):
        k = rng.randint(1, 3)
        rows = [tuple(rng.randint(-3, 3) for _ in range(k))
                for _ in range(rng.randint(1, 4))]
        for i in range(k):
            e = [0] * k
            e[i] = 1
            rows += [tuple(e), tuple(-v for v in e)]
        rows = [tuple(big * v for v in a) for a in rows]
        scan = _scan(rows, k)
        for _ in range(3):
            consts = [big * rng.randint(-3, 5)
                      + rng.choice([0, 1, -1, big - 1, 1 - big,
                                    rng.randint(1 - big, big - 1)])
                      for _ in rows]
            assert scan.points(consts) == _lifted(rows, k, consts), consts


def test_polytope_scan_past_sixteen_coordinates():
    # more nested loops than one compiled function can hold: the kernel
    # goes on in a nested function; rows couple t_0, t_17 and t_20
    k = 21

    def unit(*coeffs):  # (index, coefficient) pairs
        a = [0] * k
        for i, v in coeffs:
            a[i] = v
        return tuple(a)

    rows, consts = [], []
    for i in range(k):
        rows += [unit((i, 1)), unit((i, -1))]
        consts += [0, 1 if i in (0, 3, 17, 20) else 0]
    rows += [unit((0, 1), (17, -1)), unit((17, -1), (20, -1))]
    consts += [0, 1]  # t_0 >= t_17, t_17 + t_20 <= 1
    want = _lifted(rows, k, consts)
    assert len(want) == 10
    assert _scan(rows, k).points(consts) == want
    # t_18 without an upper bound raises from inside the nested function
    rows, consts = rows[:37] + rows[38:], consts[:37] + consts[38:]
    with pytest.raises(UnboundedPolytopeError, match="t_18 "):
        _lifted(rows, k, consts)
    with pytest.raises(UnboundedPolytopeError, match="t_18 "):
        _scan(rows, k).points(consts)


def test_polytope_scan_keeps_rational_constants():
    # t0 = 0, t1 >= 0 with no upper bound, and 2 t2 = 1: real-feasible but
    # integer-empty.  The scan reaches t1 and raises before it meets t2;
    # rounding t2's constants (t2 >= 1, t2 <= 0) would return [] instead
    rows = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 2), (0, 0, -2)]
    consts = [0, 0, 0, -1, 1]
    with pytest.raises(UnboundedPolytopeError, match="t_1"):
        _lifted(rows, 3, consts)
    with pytest.raises(UnboundedPolytopeError, match="t_1"):
        _scan(rows, 3).points(consts)
    # t0 free, but 1 <= t1 <= 0: the empty real set returns [] before
    # the scan could find t0 unbounded
    rows = [(0, 1), (0, -1)]
    assert _lifted(rows, 2, [-1, 0]) == []
    assert _scan(rows, 2).points([-1, 0]) == []


def test_polytope_scan_writes_multiples_into_each_point():
    # basis entries +-2 and +-3 enter each point as k*tj terms; a row with
    # only zero entries is a constant check
    basis = [(1, 0, -2, 0, 3), (0, 1, -3, 0, -2)]
    scan = PolytopeScan(basis, 5)
    rows = [tuple(b[r] for b in basis) for r in range(5)]
    rng = random.Random(23)
    sizes = set()
    for _ in range(60):
        consts = [rng.randint(-2, 12), rng.randint(-2, 12), rng.randint(-2, 12),
                  rng.randint(-1, 2), rng.randint(0, 12)]
        want = _lifted(rows, 2, consts)
        assert scan.points(consts) == want, consts
        sizes.add(min(len(want), 2))
    assert sizes == {0, 1, 2}
    # in lexicographic order of t: (0, 0), (0, 1), (1, 0), (1, 1), (2, 0)
    assert scan.points([0, 0, 5, 0, 2]) == [
        (0, 0, 5, 0, 2), (0, 1, 2, 0, 0), (1, 0, 3, 0, 5), (1, 1, 0, 0, 3),
        (2, 0, 1, 0, 8)]


def test_polytope_scan_with_an_empty_basis():
    # no periodic coordinate: the constants are the only point, or none
    scan = PolytopeScan([], 3)
    assert scan.points([0, 2, 1]) == [(0, 2, 1)]
    assert scan.points((4, 0, 0)) == [(4, 0, 0)]
    assert scan.points([0, -1, 1]) == []
    assert PolytopeScan([], 0).points([]) == [()]


def test_polytope_box_bounds():
    # 0 <= t <= 1
    assert polytope_box_bounds([(1, 0), (-1, 1)], 1) == [(0, 1)]
    # t >= 0: upper side unbounded
    assert polytope_box_bounds([(1, 0)], 1) == [(Fraction(0), None)]
    # box [0,2]^2 cut by t1 + t2 <= 3: both ranges stay [0,2]
    rows = [(1, 0, 0), (-1, 0, 2), (0, 1, 0), (0, -1, 2), (-1, -1, 3)]
    assert polytope_box_bounds(rows, 2) == [(0, 2), (0, 2)]
    # empty
    assert polytope_box_bounds([(1, -1), (-1, 0)], 1) is None
    # triangle with a rational vertex: 2t1 <= 1, t1 >= 0 crossed with t2 = t1
    rows = [(1, 0, 0), (-2, 0, 1), (1, -1, 0), (-1, 1, 0)]
    assert polytope_box_bounds(rows, 2) == [
        (0, Fraction(1, 2)),
        (0, Fraction(1, 2)),
    ]


def test_box_bounds_contain_lattice_points():
    rng = random.Random(111)
    for _ in range(60):
        k = rng.randint(1, 3)
        rows = [
            tuple(rng.randint(-3, 3) for _ in range(k)) + (rng.randint(-4, 4),)
            for _ in range(rng.randint(0, 4))
        ]
        for i in range(k):
            e = [0] * k
            e[i] = 1
            rows.append(tuple(e) + (5,))
            rows.append(tuple(-v for v in e) + (5,))
        pts = lattice_points(rows, k)
        bounds = polytope_box_bounds(rows, k)
        if not pts:
            continue
        assert bounds is not None
        for j in range(k):
            lo, hi = bounds[j]
            vals = [p[j] for p in pts]
            assert lo <= min(vals) and max(vals) <= hi


def test_cone_is_trivial():
    assert not cone_is_trivial([(1,)], 1)  # half line
    assert cone_is_trivial([(1,), (-1,)], 1)
    assert not cone_is_trivial([(1, 0), (0, 1)], 2)  # quadrant
    assert not cone_is_trivial([(1, -1), (-1, 1)], 2)  # full diagonal line
    assert cone_is_trivial([(1, 0), (-1, 0), (0, 1), (0, -1)], 2)
    assert cone_is_trivial([(1, 1), (-1, 0), (0, -1)], 2)  # x<=0, y<=0, x+y>=0
    assert cone_is_trivial([], 0)
    # three vectors whose only common nonnegative combination is zero
    assert cone_is_trivial([(1, 1, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)], 3)
    rng = random.Random(909)
    for _ in range(80):
        k = 2
        rows = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(rng.randint(1, 5))]
        got = cone_is_trivial(rows, k)
        want = not any(
            all(sum(a * x for a, x in zip(row, t)) >= 0 for row in rows)
            for t in (
                (x, y) for x in range(-12, 13) for y in range(-12, 13)
            )
            if t != (0, 0)
        )
        assert got == want
