"""Hat complex, homology, contact class, spectral order, DOT plots.

Frozen values were produced by this package and cross-checked with the
in-test oracles: a plain bit-int Gaussian eliminator for ranks and
membership, an exhaustive subspace-chain computation for the order, and
brute-force enumeration of all small subspaces for the reduction step.
"""

import itertools
import random
import re

import pytest

from obfloer import domains, floer
from obfloer.diagram import ContactConventionError
from obfloer.domains import (
    AdmissibilityError,
    DiffEntry,
    DomainCalculator,
    DomainError,
)
from obfloer.floer import (
    FloerError,
    NiceComplex,
    NotNiceError,
    OrderResult,
    check_zigzag,
    order_from_split,
    plot_complex,
    reduce_by_K,
)
from obfloer.linalg import F2Map
from obfloer.nicefy import make_nice

from conftest import load_diagram


# -- independent GF(2) helpers (bit-packed ints, no linalg imports) ----------


def _rank(vectors):
    lead = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top in lead:
                v ^= lead[top]
            else:
                lead[top] = v
                break
    return len(lead)


def _member(vectors, x):
    return _rank(list(vectors)) == _rank(list(vectors) + [x])


def _apply(cols, v):
    out = 0
    for i in range(v.bit_length()):
        if (v >> i) & 1:
            out ^= cols[i]
    return out


def _canon(vectors):
    lead = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top in lead:
                v ^= lead[top]
            else:
                lead[top] = v
                break
    tops = sorted(lead, reverse=True)
    for i, t in enumerate(tops):
        for u in tops[:i]:
            if (lead[u] >> t) & 1:
                lead[u] ^= lead[t]
    return tuple(sorted(lead.values()))


def _order_oracle(d0cols, d1cols, n1, x, cap=8):
    """Order by the textbook chain S_k = d1(preimage of S_{k-1} under d0),
    with the preimage enumerated exhaustively over all of C1.  The chain
    only grows, so equality of consecutive terms certifies infinity."""
    if _member(d0cols, x):
        return 0
    s_prev = None
    s_cur = ()
    for k in range(1, cap + 1):
        pre = [b for b in range(1 << n1) if _member(s_cur, _apply(d0cols, b))]
        s_cur = _canon([_apply(d1cols, b) for b in pre])
        if _member(list(s_cur) + list(d0cols), x):
            return k
        if s_cur == s_prev:
            return None
        s_prev = s_cur
    raise AssertionError("oracle cap exceeded")


# -- fixtures -----------------------------------------------------------------


@pytest.fixture(scope="module")
def nc_tight(s3_tight):
    return NiceComplex(DomainCalculator(s3_tight))


@pytest.fixture(scope="module")
def nc_ot(s3_overtwisted):
    return NiceComplex(DomainCalculator(s3_overtwisted))


@pytest.fixture(scope="module")
def nc_l21(l21):
    return NiceComplex(DomainCalculator(l21))


@pytest.fixture(scope="module")
def nc_l31(l31):
    return NiceComplex(DomainCalculator(l31))


@pytest.fixture(scope="module")
def nc_twopoint(s3_twopoint):
    return NiceComplex(DomainCalculator(s3_twopoint))


@pytest.fixture(scope="module")
def nc_r6(r6):
    return NiceComplex(DomainCalculator(make_nice(r6).diagram))


@pytest.fixture(scope="module")
def nc_octa2(octa2):
    return NiceComplex(DomainCalculator(make_nice(octa2).diagram))


@pytest.fixture(scope="module")
def nc_wiggle(s3_wiggle):
    return NiceComplex(DomainCalculator(make_nice(s3_wiggle).diagram))


@pytest.fixture(scope="module")
def nc_s1s2(s1s2):
    return NiceComplex(DomainCalculator(make_nice(s1s2).diagram))


ALL_NICE = ["nc_tight", "nc_ot", "nc_l21", "nc_l31", "nc_twopoint",
            "nc_r6", "nc_octa2", "nc_wiggle", "nc_s1s2"]


# -- construction and differential entries ------------------------------------


def test_not_nice_refused(r6, s3_wiggle):
    with pytest.raises(NotNiceError):
        NiceComplex(DomainCalculator(r6))
    with pytest.raises(NotNiceError):
        NiceComplex(DomainCalculator(s3_wiggle))


def test_diff_entries_ot(nc_ot):
    e = nc_ot.find_diffs(1, 0)
    assert e == nc_ot.calc.index1_differentials(0)[(1, 0)]
    assert (e.count, e.j0, e.j2, e.count % 2) == (1, 1, 0, 1)
    assert len(e.domains) == 1
    e = nc_ot.find_diffs(2, 0)
    assert (e.count, e.j0, e.j2) == (1, 1, 0)


def test_diff_entry_even_count_cancels(nc_twopoint):
    # the doubly-pointed sphere has two rectangles between its generators;
    # they cancel mod 2, leaving the differential zero
    e = nc_twopoint.find_diffs(0, 1)
    assert (e.count, e.j0, e.j2, e.count % 2) == (2, 2, 0, 0)
    sd = nc_twopoint.build_boundary(0)
    assert sd.d_hat[0].cols == [0]


def test_find_diffs_of_a_pair_with_no_domain_is_empty(nc_octa2):
    # generators 2 and 5 of octa2's nice diagram are one grading step
    # apart in one class, and no index-1 domain joins them
    t = nc_octa2.table
    assert t.class_of[2] == t.class_of[5] == 0
    assert t.level[2] == t.step(0, t.level[5], 1)
    assert (2, 5) not in nc_octa2.calc.index1_differentials(0)
    e = nc_octa2.find_diffs(2, 5)
    assert e == DiffEntry((), 0, 0) and e.count == 0


def test_find_diffs_rejects_bad_pairs(nc_ot, nc_l21):
    with pytest.raises(FloerError):
        nc_l21.find_diffs(0, 1)  # different classes
    with pytest.raises(FloerError):
        nc_ot.find_diffs(0, 1)  # grading goes up
    with pytest.raises(FloerError):
        nc_ot.find_diffs(1, 2)  # same grading


def test_index1_invariants_are_typed_errors(s3_overtwisted, monkeypatch):
    # the near-pair pruning rests on every index-1 domain being a bigon or
    # a rectangle with J+ in {0, 2}; the table build raises DomainError, not
    # an assert that python -O would strip.  domains._j_plus is the J+
    # formula the table build and DomainCalculator.j_plus share
    monkeypatch.setattr(domains, "_j_plus", lambda *args: 1)
    nc = NiceComplex(DomainCalculator(s3_overtwisted))
    with pytest.raises(DomainError, match="J\\+ = 1, not 0 or 2"):
        nc.find_diffs(1, 0)
    monkeypatch.setattr(domains, "_j_plus", lambda *args: 2)
    with pytest.raises(DomainError, match="bigons always have J\\+ = 0"):
        NiceComplex(DomainCalculator(s3_overtwisted)).find_diffs(1, 0)


def test_negative_homology_rank_is_a_typed_error(s3_overtwisted,
                                                  monkeypatch):
    nc = NiceComplex(DomainCalculator(s3_overtwisted))
    nc.build_boundary(0)
    monkeypatch.setattr(F2Map, "rank", lambda self: 5)
    with pytest.raises(FloerError, match="negative homology rank"):
        nc.compute_homology(0)


def test_order_invariants_are_typed_errors(s3_overtwisted, monkeypatch):
    # the order path raises FloerError, not an assert that python -O strips
    nc = NiceComplex(DomainCalculator(s3_overtwisted))
    monkeypatch.setattr(floer, "order_from_split",
                        lambda d0, d1, x: OrderResult(None, (), "x", None))
    with pytest.raises(FloerError, match="finite-order obstruction missing"):
        nc.compute_order()
    monkeypatch.undo()
    monkeypatch.setattr(floer, "check_zigzag", lambda d0, d1, x, chains: False)
    with pytest.raises(FloerError, match="order 0 certificate fails"):
        order_from_split(F2Map([3, 0], 3), F2Map([4, 2], 3), 3)
    with pytest.raises(FloerError, match="order 1 certificate fails"):
        order_from_split(F2Map([0b011, 0b000], 3), F2Map([0b100, 0b010], 3),
                         0b001)
    monkeypatch.setattr(F2Map, "rank", lambda self: -1)
    with pytest.raises(FloerError, match="reduced d1 must be injective"):
        reduce_by_K(F2Map([3, 0], 3), F2Map([4, 2], 3))


def test_inadmissible_diagram_fails_at_boundary_build(sphere4):
    # construction only needs the partition
    nc = NiceComplex(DomainCalculator(sphere4))
    assert nc.table.div == (2,)
    with pytest.raises(AdmissibilityError):
        nc.compute_homology(0)


# -- split boundary maps -------------------------------------------------------


def test_split_structure_ot(nc_ot):
    sd = nc_ot.build_boundary(0)
    assert tuple(nc_ot.table.levels[0]) == (1, 0)
    assert nc_ot.table.levels[0] == {1: (1, 2), 0: (0,)}
    assert sd.d_hat[1].cols == [1, 1]
    assert sd.d0[1].cols == [1, 1]
    assert sd.d1[1].cols == [0, 0]
    assert set(nc_ot.calc.index1_differentials(0)) == {(1, 0), (2, 0)}


def test_split_structure_r6_contact_class(nc_r6):
    sd = nc_r6.build_boundary(0)
    assert tuple(nc_r6.table.levels[0]) == (1, 0, -1)
    assert nc_r6.table.levels[0] == {
        1: (19, 26, 39, 40, 64),
        0: (0, 15, 18, 32, 58),
        -1: (14,),
    }
    assert sd.d_hat[1].cols == [7, 9, 16, 8, 17]
    assert sd.d0[1].cols == [7, 9, 0, 0, 17]
    assert sd.d1[1].cols == [0, 0, 16, 8, 0]
    assert sd.d_hat[0].cols == [0, 1, 1, 0, 0]


def test_split_has_both_flavors(nc_r6, nc_octa2):
    # J+ = 2 rectangles appear in real diagrams, not just J+ = 0
    sd = nc_octa2.build_boundary(0)
    assert sd.d0[0].cols == [0, 1, 2]
    assert sd.d1[0].cols == [3, 0, 0]
    sd = nc_r6.build_boundary(2)
    assert any(c for c in sd.d1[1].cols)
    assert any(c for c in sd.d0[1].cols)


def test_boundary_identities_all_fixtures(request):
    # build_boundary asserts d^2 = 0 for every flavor and that the flavors
    # commute; re-verify the composites here with the independent helpers
    for name in ALL_NICE:
        nc = request.getfixturevalue(name)
        for ci in range(len(nc.table.classes)):
            try:
                sd = nc.build_boundary(ci)
            except AdmissibilityError:
                pytest.fail("admissible fixture raised on class %d" % ci)
            div, levels = nc.table.div[ci], nc.table.levels[ci]
            for s in levels:
                t = (s - 1) % div if div else s - 1
                if s not in sd.d_hat or t not in sd.d_hat:
                    continue
                for maps in (sd.d_hat, sd.d0, sd.d1):
                    for col in maps[s].cols:
                        assert _apply(maps[t].cols, col) == 0
                # commuting flavors, checked on unit vectors
                for pos in range(len(levels[s])):
                    u = 1 << pos
                    lhs = _apply(sd.d0[t].cols, _apply(sd.d1[s].cols, u))
                    rhs = _apply(sd.d1[t].cols, _apply(sd.d0[s].cols, u))
                    assert lhs == rhs


# -- homology -------------------------------------------------------------------


def test_homology_frozen_small(nc_tight, nc_ot, nc_l21, nc_l31, nc_twopoint):
    assert nc_tight.compute_homology(0).ranks == ((0, 1),)
    h = nc_ot.compute_homology(0)
    assert h.ranks == ((1, 1), (0, 0))
    assert h.total == 1
    assert [nc_l21.compute_homology(ci).total for ci in (0, 1)] == [1, 1]
    assert [nc_l31.compute_homology(ci).total for ci in (0, 1, 2)] == [1, 1, 1]
    h = nc_twopoint.compute_homology(0)
    assert h.ranks == ((0, 1), (-1, 1))
    assert h.total == 2


def test_homology_frozen_r6(nc_r6):
    assert [len(c) for c in nc_r6.table.classes] == [11, 21, 27, 17]
    hs = [nc_r6.compute_homology(ci) for ci in range(4)]
    assert [h.total for h in hs] == [1, 1, 1, 1]
    assert hs[0].ranks == ((1, 1), (0, 0), (-1, 0))
    assert hs[2].ranks == ((2, 0), (1, 1), (0, 0), (-1, 0))


def test_homology_frozen_octa2_and_wiggle(nc_octa2, nc_wiggle):
    assert [len(c) for c in nc_octa2.table.classes] == [5, 1]
    assert [nc_octa2.compute_homology(ci).total for ci in (0, 1)] == [1, 1]
    assert sum(nc_wiggle.compute_homology(ci).total
               for ci in range(len(nc_wiggle.table.classes))) == 1


def test_cyclic_grading_class_s1s2(nc_s1s2):
    # four generators land in the torsion class and two in a class whose
    # grading only makes sense mod 2; those two cancel, as they must for a
    # product manifold away from its torsion structure
    t = nc_s1s2.table
    assert t.classes == ((0, 1, 4, 5), (2, 3))
    assert t.div == (0, 2)
    assert t.chern == ((0,), (-2,))
    assert (t.level[2], t.level[3]) == (0, 1)
    sd = nc_s1s2.build_boundary(1)
    assert tuple(t.levels[1]) == (1, 0)
    assert t.levels[1] == {1: (3,), 0: (2,)}
    # both level maps exist in a cyclically graded class
    assert sd.d_hat[1].cols == [1]
    assert sd.d_hat[0].cols == [0]
    assert nc_s1s2.compute_homology(1).ranks == ((1, 0), (0, 0))
    h = nc_s1s2.compute_homology(0)
    assert h.ranks == ((0, 1), (-1, 1))
    assert h.total == 2


def test_homology_matches_elimination_oracle(request):
    # rank of the full parity matrix per class, built straight from the
    # domain layer's stored candidates, reduced with the in-test eliminator
    for name in ALL_NICE:
        nc = request.getfixturevalue(name)
        diffs = nc.calc.index1_differentials()
        for ci, members in enumerate(nc.table.classes):
            pos = {g: k for k, g in enumerate(members)}
            cols = [0] * len(members)
            for (i, j), e in diffs.items():
                if i in pos and len(e.domains) % 2:
                    cols[pos[i]] |= 1 << pos[j]
            r = _rank(cols)
            expect = len(members) - 2 * r
            assert nc.compute_homology(ci).total == expect, (name, ci)


# -- the reduction step ----------------------------------------------------------


def test_reduce_trivial_cases():
    # injective d1 reduces by nothing
    red = reduce_by_K(F2Map([3, 0], 3), F2Map([4, 2], 3))
    assert red.K.dim() == 0
    assert red.d1bar.cols == [4, 2]
    # zero d1 (and zero d0) reduces by everything
    red = reduce_by_K(F2Map([0, 0], 3), F2Map([0, 0], 3))
    assert red.K.dim() == 2
    assert red.dom.dim() == 0


def test_reduce_r6_contact_maps():
    # the contact-level maps of the nicefied 6-region diagram, by hand:
    # the kernel grows once (e2 + e3 enters because their d1 images agree
    # modulo d0 of the kernel) and then stabilizes
    d0 = F2Map([7, 9, 0, 0, 17], 5)
    d1 = F2Map([0, 0, 16, 8, 0], 5)
    red = reduce_by_K(d0, d1)
    assert red.K.dim() == 4
    for v in (1, 2, 16, 0b01100):
        assert red.K.contains(v)
    assert not red.K.contains(4)
    assert red.dom.dim() == 1 and red.cod.dim() == 2
    assert red.d1bar.rank() == 1
    assert red.d0bar.cols == [0]


def _has_reduction_property(d0cols, d1cols, n1, sub):
    d0s = [_apply(d0cols, v) for v in sub]
    for v in sub:
        if not _member(d0s, _apply(d1cols, v)):
            return False
    for b in range(1 << n1):
        if _member(d0s, _apply(d1cols, b)) and not _member(list(sub), b):
            return False
    return True


def _all_subspaces(n):
    out = {()}
    vecs = list(range(1, 1 << n))
    for r in range(1, n + 1):
        for combo in itertools.combinations(vecs, r):
            out.add(_canon(combo))
    return sorted(out)


def test_reduction_subspace_is_minimum():
    # K must itself satisfy the reduction property and sit inside every
    # other subspace that does; brute-forced over all subspaces
    rng = random.Random(5)
    for _ in range(30):
        n1 = rng.randint(1, 3)
        n0 = rng.randint(1, 3)
        d0cols = [rng.randrange(1 << n0) for _ in range(n1)]
        d1cols = [rng.randrange(1 << n0) for _ in range(n1)]
        red = reduce_by_K(F2Map(d0cols, n0), F2Map(d1cols, n0))
        kbasis = list(red.K.vectors())
        assert _has_reduction_property(d0cols, d1cols, n1, kbasis)
        for sub in _all_subspaces(n1):
            if _has_reduction_property(d0cols, d1cols, n1, sub):
                for v in kbasis:
                    assert _member(list(sub), v)


# -- order of a two-level piece ---------------------------------------------------


def test_order_zero():
    d0 = F2Map([3, 0], 3)
    d1 = F2Map([4, 2], 3)
    res = order_from_split(d0, d1, 0)
    assert res.value == 0 and res.certificate == (0,)
    res = order_from_split(d0, d1, 3)
    assert res.value == 0 and res.certificate == (1,)
    assert check_zigzag(d0, d1, 3, res.certificate)


def test_order_one_worked():
    # d0 sends the first chain to a two-element sum, d1 splits the two
    # chains across independent targets; x needs exactly one zigzag step
    d0 = F2Map([0b011, 0b000], 3)
    d1 = F2Map([0b100, 0b010], 3)
    res = order_from_split(d0, d1, 0b001)
    assert res.value == 1
    assert res.certificate == (1, 2)
    assert res.m == 2
    assert check_zigzag(d0, d1, 0b001, res.certificate)


def test_order_two_constructed():
    d0 = F2Map([0b0100, 0b0000, 0b0011], 4)
    d1 = F2Map([0b0010, 0b0100, 0b1000], 4)
    res = order_from_split(d0, d1, 0b0001)
    assert res.value == 2
    assert check_zigzag(d0, d1, 0b0001, res.certificate)
    assert _order_oracle(d0.cols, d1.cols, 3, 0b0001) == 2


def test_order_infinite_reasons():
    res = order_from_split(F2Map([0, 0], 3), F2Map([0, 0], 3), 1)
    assert res.value is None and res.reason == "K = C1"
    res = order_from_split(F2Map([], 3), F2Map([], 3), 5)
    assert res.value is None and res.reason == "K = C1"
    res = order_from_split(F2Map([1], 3), F2Map([2], 3), 4)
    assert res.value is None and res.reason == "reduced d0 injective"
    # the kernel chain stabilizes immediately but the image chain shrinks
    # once, so the joint stabilization index is 2
    res = order_from_split(F2Map([3, 0], 3), F2Map([4, 2], 3), 4)
    assert res.value is None
    assert res.reason == "ker delta^2 misses x + im d0"
    assert res.m == 2


def test_zigzag_rejects_corruption():
    d0 = F2Map([0b011, 0b000], 3)
    d1 = F2Map([0b100, 0b010], 3)
    assert check_zigzag(d0, d1, 1, (1, 2))
    assert not check_zigzag(d0, d1, 1, (1, 1))
    assert not check_zigzag(d0, d1, 1, (2, 2))
    assert not check_zigzag(d0, d1, 2, (1, 2))
    assert not check_zigzag(d0, d1, 1, ())
    # a final chain with nonzero d0 breaks the tail condition
    assert not check_zigzag(d0, d1, 0b011 ^ 0b100, (0, 1))


def test_order_matches_exhaustive_oracle():
    rng = random.Random(17)
    finite = 0
    for _ in range(150):
        n0 = rng.randint(1, 4)
        n1 = rng.randint(0, 4)
        d0cols = [rng.randrange(1 << n0) for _ in range(n1)]
        d1cols = [rng.randrange(1 << n0) for _ in range(n1)]
        x = rng.randrange(1 << n0)
        d0m, d1m = F2Map(d0cols, n0), F2Map(d1cols, n0)
        res = order_from_split(d0m, d1m, x)
        assert res.value == _order_oracle(d0cols, d1cols, n1, x)
        if res.value is not None:
            assert check_zigzag(d0m, d1m, x, res.certificate)
            finite += 1
    assert finite > 30


def test_order_jsonable_shapes():
    assert OrderResult(2, ((3, 5), (1,)), None, 1).as_jsonable() == {
        "order": 2,
        "certificate": [[3, 5], [1]],
    }
    assert OrderResult(None, (), "K = C1", None).as_jsonable() == {
        "order": "infinity",
        "certificate": "K = C1",
    }
    assert OrderResult(1, ((4,),), None, 1, graded_mod=2).as_jsonable() == {
        "order": 1,
        "certificate": [[4]],
        "graded_mod": 2,
    }


# -- contact class and its order on the fixtures ----------------------------------


def test_contact_tight(nc_tight):
    assert (nc_tight._canonical.c0, nc_tight._canonical.c1) == ((0,), ())
    assert nc_tight.check_contact_class() == "nonzero"
    res = nc_tight.compute_order()
    assert res.value is None and res.reason == "K = C1"
    assert res.as_jsonable() == {"order": "infinity", "certificate": "K = C1"}


def test_contact_overtwisted(nc_ot):
    assert (nc_ot._canonical.c0, nc_ot._canonical.c1) == ((0,), (1, 2))
    assert nc_ot.check_contact_class() == "zero"
    res = nc_ot.compute_order()
    assert res.value == 0
    assert res.certificate == ((1,),)
    assert res.as_jsonable() == {"order": 0, "certificate": [[1]]}
    # substitute the certificate back into the split maps
    sd = nc_ot.build_boundary(0)
    assert check_zigzag(sd.d0[1], sd.d1[1], 1, (0b01,))


def test_contact_lens_spaces(nc_l21, nc_l31):
    for nc in (nc_l21, nc_l31):
        assert nc.check_contact_class() == "nonzero"
        res = nc.compute_order()
        assert res.value is None and res.reason == "K = C1"


def test_contact_twopoint(nc_twopoint):
    assert nc_twopoint.check_contact_class() == "nonzero"
    assert nc_twopoint.compute_order().reason == "K = C1"


def test_contact_r6(nc_r6):
    assert (nc_r6._canonical.c0, nc_r6._canonical.c1) == (
        (0, 15, 18, 32, 58), (19, 26, 39, 40, 64)
    )
    assert nc_r6.check_contact_class() == "zero"
    res = nc_r6.compute_order()
    assert res.value == 1
    assert res.certificate == ((64,), (39,))
    assert res.m == 1
    assert res.as_jsonable() == {"order": 1, "certificate": [[64], [39]]}
    # the certificate chains satisfy the zigzag equations on the real maps
    sd = nc_r6.build_boundary(0)
    c1 = nc_r6.table.levels[0][1]
    chains = tuple(sum(1 << c1.index(g) for g in part)
                   for part in res.certificate)
    assert check_zigzag(sd.d0[1], sd.d1[1], 1, chains)


def test_contact_unaligned_raises(nc_octa2):
    with pytest.raises(ContactConventionError):
        nc_octa2.check_contact_class()
    with pytest.raises(ContactConventionError):
        nc_octa2.compute_order()


def test_contact_noncycle_raises(nc_wiggle, nc_s1s2):
    # distinguished generator with an outgoing differential: the diagram
    # does not come from an open book, refuse loudly
    for nc in (nc_wiggle, nc_s1s2):
        with pytest.raises(FloerError, match="nonzero boundary"):
            nc.check_contact_class()
        with pytest.raises(FloerError, match="nonzero boundary"):
            nc.compute_order()


# -- DOT output -------------------------------------------------------------------


_DOT_LINE = re.compile(
    r"^(digraph \"[\w.-]+\" \{"
    r"|  rankdir=TB;"
    r"|  node \[shape=box, fontsize=10\];"
    r"|  x\d+ \[label=\"x\d+ gr=-?\d+( mod \d+)?\"\];"
    r"|  x\d+ -> x\d+( \[[^\]]*\])?;"
    r"|\})$"
)


def _assert_wellformed(dot):
    lines = dot.strip().split("\n")
    assert lines[0].startswith('digraph "')
    assert lines[-1] == "}"
    for ln in lines:
        assert _DOT_LINE.match(ln), ln


def test_plot_nice_ot(nc_ot):
    dot = plot_complex(nc_ot, 0)
    _assert_wellformed(dot)
    assert dot == (
        'digraph "s3_overtwisted_spinc_0" {\n'
        "  rankdir=TB;\n"
        "  node [shape=box, fontsize=10];\n"
        '  x0 [label="x0 gr=0"];\n'
        '  x1 [label="x1 gr=1"];\n'
        '  x2 [label="x2 gr=1"];\n'
        '  x1 -> x0 [label="J+=0"];\n'
        '  x2 -> x0 [label="J+=0"];\n'
        "}\n"
    )


def test_plot_nice_flavors_and_parity(nc_octa2, nc_twopoint):
    dot = plot_complex(nc_octa2, 0)
    _assert_wellformed(dot)
    assert '[style=dashed, label="J+=2"]' in dot
    # parity-zero pairs draw no edge at all
    dot = plot_complex(nc_twopoint, 0)
    _assert_wellformed(dot)
    assert "->" not in dot


def test_plot_general_r6(r6):
    dot = plot_complex(DomainCalculator(r6), 1)
    _assert_wellformed(dot)
    assert dot == (
        'digraph "r6_spinc_1" {\n'
        "  rankdir=TB;\n"
        "  node [shape=box, fontsize=10];\n"
        '  x1 [label="x1 gr=0"];\n'
        '  x2 [label="x2 gr=0"];\n'
        '  x4 [label="x4 gr=1"];\n'
        '  x9 [label="x9 gr=1"];\n'
        '  x10 [label="x10 gr=1"];\n'
        "  x4 -> x2 [color=blue];\n"
        "  x9 -> x1;\n"
        "  x9 -> x2;\n"
        "  x10 -> x1 [color=blue];\n"
        "}\n"
    )


def test_plot_cyclic_grading_labels(nc_s1s2):
    dot = plot_complex(nc_s1s2, 1)
    _assert_wellformed(dot)
    assert dot == (
        'digraph "s1s2_spinc_1" {\n'
        "  rankdir=TB;\n"
        "  node [shape=box, fontsize=10];\n"
        '  x2 [label="x2 gr=0 mod 2"];\n'
        '  x3 [label="x3 gr=1 mod 2"];\n'
        '  x3 -> x2 [label="J+=0"];\n'
        "}\n"
    )


def test_plot_general_blue_means_unique(r22):
    # blue edges are embedded disks, which contribute exactly one domain
    calc = DomainCalculator(r22)
    dot = plot_complex(calc, 0)
    _assert_wellformed(dot)
    assert "[color=blue]" in dot


def test_plot_name_and_empty_class(nc_ot):
    dot = plot_complex(nc_ot, 0, name="zzz")
    assert dot.startswith('digraph "zzz" {')
    dot = plot_complex(nc_ot, 99)
    _assert_wellformed(dot)
    assert "x0" not in dot
