"""End-to-end acceptance checks, one test per contract.

Expected values come from hand reductions or from exhaustive searches
written in the tests (this file, with its own GF(2) helpers, and the box
scan shared through conftest.py), so a bug in the library's linear
algebra cannot hide itself.  Stated runtime budgets are asserted, not
just hoped for.
"""

import random
import time

from obfloer.diagram import build_diagram
from obfloer.domains import DomainCalculator
from obfloer.floer import NiceComplex, order_from_split
from obfloer.linalg import F2Map
from obfloer.nicefy import make_nice, random_push

from conftest import box_scan, load_diagram, load_region_list


# -- independent GF(2) helpers (no imports from the library) -----------------


def _rank(cols):
    pivots = []
    for c in cols:
        for p in pivots:
            c = min(c, c ^ p)
        if c:
            pivots.append(c)
    return len(pivots)


def _apply(cols, v):
    out = 0
    for i, c in enumerate(cols):
        if (v >> i) & 1:
            out ^= c
    return out


# -- 1: the 22-region list ----------------------------------------------------


def test_ingest_r22_diagram():
    t0 = time.monotonic()
    dg = load_diagram("r22")
    assert dg.num_regions == 22 and dg.num_points == 26
    assert sum(dg.euler_measures_2) == -8 == 2 * (22 - 26)
    alpha_of = {p: a for a, cyc in enumerate(dg.alpha_curves) for p in cyc}
    assert sorted(alpha_of) == list(range(dg.num_points))
    n_alpha = len(set(alpha_of.values()))
    n_beta = len(set(dg.beta_of))
    assert n_alpha == n_beta == dg.num_curves
    for a in range(dg.num_curves):
        pts = [p for p in range(dg.num_points) if alpha_of[p] == a]
        assert dg.contact_points[a] == min(pts)
    assert time.monotonic() - t0 < 1.0


# -- 2: the 6-region list -----------------------------------------------------


def test_ingest_r6_diagram():
    t0 = time.monotonic()
    dg = load_diagram("r6")
    assert dg.num_regions == 6 and dg.num_points == 10
    assert not dg.nice
    sizes = sorted(
        sum(len(c) for c in dg.regions[r])
        for r in range(dg.num_regions) if not dg.is_pointed(r)
    )
    assert sizes.count(6) == 2
    assert sizes.count(8) == 1
    assert sizes[-1] == 8  # nothing larger among unpointed regions
    assert sum(dg.euler_measures_2) == -8 == 2 * (6 - 10)
    assert time.monotonic() - t0 < 1.0


# -- 3: count bound over all generator pairs ----------------------------------


def test_positive_domain_count_bound():
    t0 = time.monotonic()
    dg = load_diagram("r22")
    calc = DomainCalculator(dg)
    contact = set(dg.contact_points)
    gens = dg.generators()
    violations = []
    for x in gens:
        xset = set(x.points)
        for y in gens:
            k = len(contact & (set(y.points) - xset))
            n = len(calc.find_pos_domains(x.index, y.index))
            if n > 2 ** k:
                violations.append((x.index, y.index, n, k))
    assert violations == []
    assert time.monotonic() - t0 < 300.0


# -- 4: pruned scan against plain box enumeration ------------------------------


def test_positive_domain_scan_oracle():
    t0 = time.monotonic()
    bases = ["s3_overtwisted", "l21", "l31", "octa2", "r6", "s3_wiggle",
             "s3_twopoint", "s1s2"]
    rng = random.Random(20260816)
    lists, seen = [], set()
    for name in bases:
        rl = load_region_list(name)
        lists.append(rl)
        seen.add((rl.num_pointed, rl.regions))
    while len(lists) < 22:
        rl = load_region_list(bases[rng.randrange(len(bases))])
        for _ in range(rng.randrange(1, 3)):
            nxt = random_push(rl, rng)
            if nxt is None:
                break
            rl = nxt
        key = (rl.num_pointed, rl.regions)
        if key not in seen:
            seen.add(key)
            lists.append(rl)
    assert len(lists) >= 20
    for rl in lists:
        dg = build_diagram(rl)
        calc = DomainCalculator(dg)
        assert len(calc.periodic_domain_basis()) <= 3
        for x in dg.generators():
            for y in dg.generators():
                got = [d.coeffs for d in calc.find_pos_domains(x.index, y.index)]
                assert got == box_scan(calc, x.index, y.index), \
                    (rl.name, x.index, y.index)
    assert time.monotonic() - t0 < 60.0


# -- 5: nicefication contract --------------------------------------------------


def test_nicefication_contract():
    t0 = time.monotonic()
    dg = load_diagram("r6")
    res = make_nice(dg)
    # validators run again on the emitted region list
    fin = build_diagram(res.diagram.to_region_list())
    assert fin.nice
    assert fin.num_regions - fin.num_points == -4
    again = make_nice(fin)
    assert again.moves == ()
    assert again.diagram is fin
    # squared boundary vanishes downstream, checked with local arithmetic
    nc = NiceComplex(DomainCalculator(fin))
    for ci in range(len(nc.table.classes)):
        sd = nc.build_boundary(ci)
        div = nc.table.div[ci]
        for g in nc.table.levels[ci]:
            nxt = (g - 1) % div if div else g - 1
            if g in sd.d_hat and nxt in sd.d_hat:
                for c in sd.d_hat[g].cols:
                    assert _apply(sd.d_hat[nxt].cols, c) == 0
    assert time.monotonic() - t0 < 10.0


# -- 6: known manifolds ---------------------------------------------------------


def _reduced_rank(dg):
    """Homology rank by exhaustive reduction of the parity matrix.

    Counts positive index-1 domains mod 2 over each partition class and
    uses rank(H) = n - 2 rank(d), valid whenever d squares to zero.
    """
    calc = DomainCalculator(dg)
    table = calc.spinc_partition()
    diffs = calc.index1_differentials()
    total = 0
    for members in table.classes:
        pos = {g: t for t, g in enumerate(members)}
        cols = [0] * len(members)
        for (i, j), e in diffs.items():
            if i in pos and len(e.domains) % 2:
                cols[pos[i]] ^= 1 << pos[j]
        sq = [_apply(cols, c) for c in cols]
        assert all(s == 0 for s in sq)
        total += len(members) - 2 * _rank(cols)
    return total


def _oracle_order(d0cols, d1cols, n1, x):
    """Exhaustive zigzag search; None means no finite order exists.

    Level sets: A_0 is the whole remainder set x + im(d0); each later set
    is d0 of every d1-preimage of the previous one.  The order is the first
    level containing 0; a repeated level without a hit means none exists.
    """
    level = {x ^ _apply(d0cols, a) for a in range(1 << n1)}
    history = []
    while True:
        if 0 in level:
            return len(history)
        if not level or level in history:
            return None
        history.append(level)
        level = {_apply(d0cols, b) for b in range(1 << n1)
                 if _apply(d1cols, b) in level}


def test_known_manifold_values():
    # tight: one generator, empty differential, nothing ever kills the cycle
    t0 = time.monotonic()
    dg = load_diagram("s3_tight")
    nc = NiceComplex(DomainCalculator(dg))
    assert _reduced_rank(dg) == 1
    assert sum(nc.compute_homology(ci).total
               for ci in range(len(nc.table.classes))) == 1
    assert nc.check_contact_class() == "nonzero"
    res = nc.compute_order()
    assert res.value is None
    cp = nc._canonical
    _, m0, m1 = cp.maps
    assert _oracle_order(m0.cols, m1.cols, m0.ncols, cp.x) is None
    assert time.monotonic() - t0 < 10.0

    # overtwisted: rank 1 but the distinguished cycle is already a boundary
    t0 = time.monotonic()
    dg = load_diagram("s3_overtwisted")
    nc = NiceComplex(DomainCalculator(dg))
    assert _reduced_rank(dg) == 1
    assert sum(nc.compute_homology(ci).total
               for ci in range(len(nc.table.classes))) == 1
    assert nc.check_contact_class() == "zero"
    res = nc.compute_order()
    assert res.value == 0
    cp = nc._canonical
    _, m0, m1 = cp.maps
    assert _oracle_order(m0.cols, m1.cols, m0.ncols, cp.x) == 0
    assert time.monotonic() - t0 < 10.0

    # two-bigon pair: both arrows carry two domains, so everything survives
    t0 = time.monotonic()
    dg = load_diagram("s3_twopoint")
    nc = NiceComplex(DomainCalculator(dg))
    assert _reduced_rank(dg) == 2
    assert nc.compute_homology(0).total == 2
    assert nc.check_contact_class() == "nonzero"
    assert nc.compute_order().value is None
    assert time.monotonic() - t0 < 10.0

    # wiggled product manifold: rank 2 in the torsion class, 0 in the other
    t0 = time.monotonic()
    fin = make_nice(load_diagram("s1s2")).diagram
    nc = NiceComplex(DomainCalculator(fin))
    assert _reduced_rank(fin) == 2
    assert nc.compute_homology(0).total == 2
    assert nc.compute_homology(1).total == 0
    assert time.monotonic() - t0 < 10.0


# -- 7: order machinery against exhaustive search -------------------------------


def test_order_machinery_oracle():
    t0 = time.monotonic()
    rng = random.Random(97)
    finite = infinite = 0
    for _ in range(200):
        n0 = rng.randrange(1, 5)
        n1 = rng.randrange(1, 5)
        d0 = [rng.randrange(1 << n0) for _ in range(n1)]
        d1 = [rng.randrange(1 << n0) for _ in range(n1)]
        x = rng.randrange(1 << n0)
        res = order_from_split(F2Map(d0, n0), F2Map(d1, n0), x)
        want = _oracle_order(d0, d1, n1, x)
        assert res.value == want, (n0, n1, d0, d1, x)
        if want is None:
            infinite += 1
        else:
            finite += 1
    assert finite and infinite  # both outcomes exercised
    assert time.monotonic() - t0 < 60.0


# -- 8: structural identities on every processed nice diagram -------------------


def test_structural_identities():
    # the wiggled toys model lists that no arc pipeline produces; the engine
    # refuses their distinguished generator, so the cycle identity and the
    # contact/order cross-check run on the open-book fixtures only
    open_book = ["s3_tight", "s3_overtwisted", "l21", "l31", "s3_twopoint"]
    wiggled = ["s3_wiggle", "octa2", "s1s2"]
    complexes = []
    for name in open_book:
        calc = DomainCalculator(load_diagram(name))
        complexes.append((NiceComplex(calc), True))
    for name in wiggled:
        fin = make_nice(load_diagram(name)).diagram
        complexes.append((NiceComplex(DomainCalculator(fin)), False))
    fin = make_nice(load_diagram("r6")).diagram
    complexes.append((NiceComplex(DomainCalculator(fin)), True))

    for nc, from_open_book in complexes:
        for ci in range(len(nc.table.classes)):
            sd = nc.build_boundary(ci)
            div = nc.table.div[ci]
            for g in nc.table.levels[ci]:
                nxt = (g - 1) % div if div else g - 1
                if g not in sd.d_hat or nxt not in sd.d_hat:
                    continue
                for name_map, m in (("hat", sd.d_hat), ("d0", sd.d0),
                                    ("d1", sd.d1)):
                    for c in m[g].cols:
                        assert _apply(m[nxt].cols, c) == 0, (name_map, ci, g)
                mixed_a = [_apply(sd.d0[nxt].cols, c) for c in sd.d1[g].cols]
                mixed_b = [_apply(sd.d1[nxt].cols, c) for c in sd.d0[g].cols]
                assert mixed_a == mixed_b, (ci, g)
            for e in nc.calc.index1_differentials(ci).values():
                assert e.j0 + e.j2 == e.count
                for dom in e.domains:
                    assert nc.calc.j_plus(dom) in (0, 2)

        if not from_open_book:
            continue
        cp = nc._canonical  # raises if not a cycle
        contact = nc.check_contact_class()
        xi = nc.diagram.contact_generator().index
        ci = nc.table.class_of[xi]
        assert (cp.div, cp.chern) == (nc.table.div[ci], nc.table.chern[ci])
        assert cp.c0[cp.x.bit_length() - 1] == xi
        torsion = nc.table.div[ci] == 0 and all(
            c == 0 for c in nc.table.chern[ci])
        if contact == "zero" and torsion:
            assert nc.compute_order().value is not None, nc.diagram.name
