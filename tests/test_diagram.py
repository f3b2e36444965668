import itertools
import sys

import pytest

from obfloer.diagram import (
    ArcPairingError,
    ContactConventionError,
    CurveCountError,
    DiagramError,
    MassFormulaError,
    PointDegreeError,
    RegionListError,
    build_diagram,
    circuit_alpha_arcs,
    circuit_beta_arcs,
    euler_measure_2,
    make_region_list,
    parse_region_list,
    region_list_to_json,
)
from obfloer.domains import DomainCalculator
from obfloer.nicefy import make_nice

from conftest import (
    FIXTURES,
    corner_occurrences,
    load_diagram,
    load_region_list,
    pushed_variant,
)

# every fixture (no push) and seeded finger-moved variants of those that
# admit a push
MEASURED = [(p.stem, 0, 0) for p in sorted(FIXTURES.glob("*.json"))] + [
    (name, pushes, seed)
    for name in ("r6", "r22", "s1s2", "octa2", "s3_wiggle")
    for pushes, seed in ((1, 1), (2, 2))
] + [("r6", 3, 3), ("r22", 3, 3), ("s3_wiggle", 3, 3)]


def _b1(d):
    return len(DomainCalculator(d).periodic_domain_basis())


# ---------------------------------------------------------------------------
# parsing


def test_parse_json_object():
    rl = parse_region_list('{"name": "t", "num_pointed": 1, "regions": [[0,0,0,0]]}')
    assert rl.name == "t" and rl.num_pointed == 1
    assert rl.regions == (((0, 0, 0, 0),),)


def test_parse_bare_list_needs_num_pointed():
    with pytest.raises(RegionListError, match="use the object form"):
        parse_region_list("[[0,0,0,0]]")


def test_parse_object_without_num_pointed():
    text = '{"name": "t", "regions": [[0,0,0,0]]}'
    with pytest.raises(RegionListError) as info:
        parse_region_list(text)
    assert str(info.value) == 'input object lacks a "num_pointed" field'


@pytest.mark.parametrize("text,msg", [
    ('{"num_pointed": 1}', 'input object lacks a "regions" field'),
    ("5", "input is neither an object nor a region list"),
    ('"[[0, 1], [1, 0]]"', "input is neither an object nor a region list"),
], ids=["no-regions", "number", "string"])
def test_parse_refuses_what_is_not_the_object(text, msg):
    with pytest.raises(RegionListError) as info:
        parse_region_list(text)
    assert str(info.value) == msg


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="no integer digit limit in this interpreter")
def test_parse_integer_past_the_digit_limit_is_a_parse_error():
    # the decoder raises a plain ValueError here, not a JSONDecodeError
    text = '{"num_pointed": 1, "regions": [[0, %s]]}' % ("1" * 5000)
    with pytest.raises(RegionListError, match="^cannot parse input: "):
        parse_region_list(text)


def test_parse_python_literal_gets_the_decoder_message():
    # a python-style literal (trailing comma) is not JSON: the decoder's
    # own message, with its line and column, is the refusal
    text = '{"num_pointed": 1, "regions": [\n  [1,0,3,2],\n  [0,1,2,3],\n]}'
    with pytest.raises(RegionListError) as info:
        parse_region_list(text)
    assert str(info.value) == ("cannot parse input: Expecting value: "
                               "line 4 column 1 (char 58)")


@pytest.mark.parametrize("value,kind", [
    ('["a", "/b"]', "list"), ("7", "int"), ("null", "NoneType"),
    ("false", "bool"), ("1.5", "float"),
])
def test_parse_refuses_a_name_that_is_not_a_string(value, kind):
    text = '{"name": %s, "num_pointed": 1, "regions": [[0,0,0,0]]}' % value
    with pytest.raises(RegionListError) as info:
        parse_region_list(text, name="stem")
    assert str(info.value) == '"name" must be a string, got ' + kind


def test_parse_name_defaults():
    text = '{"num_pointed": 1, "regions": [[0,0,0,0]]}'
    assert parse_region_list(text).name == "diagram"
    assert parse_region_list(text, name="stem").name == "stem"
    named = '{"name": "", "num_pointed": 1, "regions": [[0,0,0,0]]}'
    assert parse_region_list(named, name="stem").name == ""


def test_parse_nested_circuits():
    rl = parse_region_list('{"num_pointed": 1, "regions": [[[0,1],[2,3]], [0,1,2,3]]}')
    assert rl.regions[0] == ((0, 1), (2, 3))
    assert rl.regions[1] == ((0, 1, 2, 3),)


@pytest.mark.parametrize(
    "regions,num_pointed",
    [
        ([[0, 1, 2]], 1),  # odd circuit
        ([[0, -1]], 1),  # negative label
        ([[0, 1], [1, 0]], 0),  # num_pointed too small
        ([[0, 1], [1, 0]], 3),  # num_pointed too big
        ([[0, 2], [2, 0]], 1),  # label 1 missing
        ([], 1),  # no regions
        ([[0, "x"]], 1),  # non-integer
    ],
)
def test_parse_rejects(regions, num_pointed):
    with pytest.raises(RegionListError):
        make_region_list(regions, num_pointed)


@pytest.mark.parametrize("regions,kind", [
    ({"a": 1}, "dict"), ("abc", "str"), (5, "int"),
])
def test_parse_rejects_regions_that_are_not_a_list(regions, kind):
    with pytest.raises(RegionListError) as info:
        make_region_list(regions, 1)
    assert str(info.value) == "regions must be a list of regions, got " + kind
    with pytest.raises(RegionListError, match="^empty region list$"):
        make_region_list([], 1)


@pytest.mark.parametrize("text", [
    "[" * 100000,
    '{"num_pointed": 1, "regions": %s}' % ("[" * 3000 + "]" * 3000),
], ids=["brackets", "regions"])
def test_parse_rejects_deep_nesting(text):
    # the decoder recurses per level; too deep is bad input, not a crash
    with pytest.raises(RegionListError, match="nested too deeply"):
        parse_region_list(text)


def test_huge_label_error_is_short():
    # the missing labels are read off the present ones, not listed in full
    with pytest.raises(RegionListError) as info:
        make_region_list([[0, 10 ** 6], [10 ** 6, 0]], 1)
    msg = str(info.value)
    assert len(msg) < 1024
    assert msg == ("point labels are not the contiguous range 0..1000000: "
                   "2 labels, 999999 missing, first [1, 2, 3, 4, 5]")
    with pytest.raises(RegionListError, match=r"1 missing, first \[1\]$"):
        make_region_list([[0, 2], [2, 0]], 1)


def test_region_list_roundtrip_json():
    rl = make_region_list([[[0, 1], [2, 3]], [0, 1, 2, 3]], 1, name="nested")
    back = parse_region_list(region_list_to_json(rl))
    assert back == rl


# ---------------------------------------------------------------------------
# measures


def test_euler_measure_2_values():
    assert euler_measure_2(((5, 9),)) == 1  # bigon
    assert euler_measure_2(((0, 1, 2, 3),)) == 0  # square
    assert euler_measure_2(((3, 2, 5, 4, 1, 2, 8, 7),)) == -2  # octagon
    assert euler_measure_2(((0, 1, 6, 17, 18, 19, 0, 5, 6, 7, 18, 25),)) == -4
    # annular region, two square circuits
    assert euler_measure_2([[1, 0, 1, 0], [2, 3, 2, 3]]) == -4


@pytest.mark.parametrize("name,pushes,seed", MEASURED)
def test_point_measures_4_match_corner_occurrences(name, pushes, seed):
    d = build_diagram(pushed_variant(name, pushes, seed))
    want = [[0] * d.num_points for _ in range(d.num_regions)]
    for p in range(d.num_points):
        for r, _, _ in corner_occurrences(d, p):
            want[r][p] += 1
    assert [list(row) for row in d.point_measures_4] == want


def test_point_measures_4_values(r22):
    # r22's regions 0 = [1,0,19,20,13,14] and 11 = [13,12,23,22,11,12,21,22]
    assert r22.point_measures_4[0][19] == 1
    assert r22.point_measures_4[11][12] == 2
    assert r22.point_measures_4[11][5] == 0


@pytest.mark.parametrize("name,pushes,seed", MEASURED)
def test_boundary_identities(name, pushes, seed):
    # each corner is the head of one arc of its circuit and the tail of the
    # next, so the alpha-arc boundary is minus the beta-arc boundary, and
    # every column sums to zero
    d = build_diagram(pushed_variant(name, pushes, seed))
    amat = [[0] * d.num_regions for _ in range(d.num_points)]
    bmat = [[0] * d.num_regions for _ in range(d.num_points)]
    for r, reg in enumerate(d.regions):
        for cir in reg:
            for mat, arcs in ((amat, circuit_alpha_arcs(cir)),
                              (bmat, circuit_beta_arcs(cir))):
                for a, b in arcs:
                    mat[b][r] += 1
                    mat[a][r] -= 1
    assert [list(row) for row in d.boundary_mat] == bmat
    assert amat == [[-v for v in row] for row in bmat]
    assert all(sum(col) == 0 for col in zip(*bmat))


# ---------------------------------------------------------------------------
# validation errors


def test_two_bigons_fail_point_degree():
    # each point would have only two corners: not a closed surface
    with pytest.raises(PointDegreeError):
        build_diagram(make_region_list([[0, 1], [1, 0]], 1))


def test_arc_pairing_error():
    # all four alpha arcs run 0->1 with no reversed sides
    with pytest.raises(ArcPairingError) as info:
        build_diagram(make_region_list([[0, 1, 0, 1], [0, 1, 0, 1]], 1))
    assert str(info.value) == "alpha arc (0,1) occurs 4 times but reversed 0 times"


def test_odd_loop_error():
    # the alpha loop at 0 has one side only: its other side would be a
    # second (0,0) arc
    with pytest.raises(ArcPairingError) as info:
        build_diagram(make_region_list([[0, 0, 1, 1], [0, 1, 1, 0]], 1))
    assert str(info.value) == "alpha arc (0,0) has an odd number of sides"


def test_curve_count_error():
    # two alpha loops but a single beta curve
    with pytest.raises(CurveCountError) as info:
        build_diagram(make_region_list([[0, 0, 1, 1], [1, 1, 0, 0]], 1))
    assert str(info.value) == "2 alpha curves vs 1 beta curves"


def test_mass_parity_error():
    # two bigons glued along both arcs: chi = 1, no oriented surface
    with pytest.raises(MassFormulaError):
        build_diagram(make_region_list([[0, 0], [0, 0]], 1))


def test_contact_convention_error(octa2):
    assert not octa2.contact_aligned
    with pytest.raises(ContactConventionError):
        octa2.contact_generator()


# ---------------------------------------------------------------------------
# curves, read against the arc sides of the circuits


@pytest.mark.parametrize("name,pushes,seed", MEASURED)
def test_curves_follow_the_arc_sides(name, pushes, seed):
    d = build_diagram(pushed_variant(name, pushes, seed))
    points = list(range(d.num_points))
    for curves, arcs in ((d.alpha_curves, circuit_alpha_arcs),
                         (d.beta_curves, circuit_beta_arcs)):
        # the curves partition the points
        assert sorted(p for cyc in curves for p in cyc) == points
        # consecutive points, cyclically, are joined by an arc side
        sides = {arc for reg in d.regions for cir in reg for arc in arcs(cir)}
        for cyc in curves:
            for i, p in enumerate(cyc):
                assert (p, cyc[(i + 1) % len(cyc)]) in sides, (cyc, p)
            # each starts at its least point, heading to its smaller
            # neighbour
            assert cyc[0] == min(cyc)
            if len(cyc) >= 3:
                assert cyc[1] < cyc[-1]
        # in order of their least points
        firsts = [cyc[0] for cyc in curves]
        assert firsts == sorted(firsts)
    assert d.contact_points == tuple(cyc[0] for cyc in d.alpha_curves)
    for i, cyc in enumerate(d.beta_curves):
        assert all(d.beta_of[p] == i for p in cyc)
    if d.contact_aligned:
        for i, cp in enumerate(d.contact_points):
            assert cp in d.beta_curves[i]


# ---------------------------------------------------------------------------
# fixture diagrams: frozen structure


def test_r22_structure(r22):
    assert r22.num_points == 26
    assert r22.num_regions == 22
    assert r22.num_pointed == 1
    assert sum(r22.euler_measures_2) == -8 == 2 * (22 - 26)
    assert len(r22.alpha_curves) == len(r22.beta_curves) == 3
    assert r22.contact_points == (0, 6, 18)
    for cyc, cp in zip(r22.alpha_curves, r22.contact_points):
        assert min(cyc) == cp == cyc[0]
    assert r22.alpha_curves[0] == (0, 1, 2, 3, 4, 5)
    assert r22.alpha_curves[1] == (6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17)
    assert r22.alpha_curves[2] == (18, 19, 20, 21, 22, 23, 24, 25)
    assert _b1(r22) == 2
    g = r22.contact_generator()
    assert g.points == (0, 6, 18)
    assert g.permutation == (0, 1, 2)
    assert g.cycles() == 3


def test_r22_boundary_column(r22):
    # region [2,1,14,15]: beta arcs (1->14) and (15->2)
    col = [r22.boundary_mat[p][1] for p in range(r22.num_points)]
    want = [0] * 26
    want[14] += 1
    want[1] -= 1
    want[2] += 1
    want[15] -= 1
    assert col == want


def test_r6_structure(r6):
    assert r6.num_points == 10
    assert r6.num_regions == 6
    assert sum(r6.euler_measures_2) == -8 == 2 * (6 - 10)
    assert len(r6.alpha_curves) == len(r6.beta_curves) == 3
    assert r6.contact_points == (0, 4, 7)
    assert _b1(r6) == 0
    # unpointed polygon sizes: two hexagons, one octagon, two squares
    sizes = sorted(
        sum(len(c) for c in r6.regions[r]) for r in range(r6.num_unpointed)
    )
    assert sizes == [4, 4, 6, 6, 8]
    assert r6.contact_generator().points == (0, 4, 7)


def test_small_fixture_structure(s3_tight, s3_overtwisted, l21, sphere4):
    assert s3_tight.alpha_curves == ((0,),)
    assert s3_tight.num_curves == 1
    assert len(s3_tight.generators()) == 1
    assert _b1(s3_tight) == 0

    assert s3_overtwisted.alpha_curves == ((0, 1, 2),)
    assert len(s3_overtwisted.generators()) == 3
    assert [s3_overtwisted.boundary_mat[p][2] for p in range(3)] == [2, -1, -1]
    assert _b1(s3_overtwisted) == 0
    assert sum(s3_overtwisted.euler_measures_2) == 0

    assert len(l21.generators()) == 2
    assert _b1(l21) == 0
    assert [l21.boundary_mat[p][0] for p in range(2)] == [-2, 2]

    assert sphere4.num_curves == 1
    assert len(sphere4.generators()) == 2
    assert sphere4.contact_generator().points == (0,)
    assert _b1(sphere4) == 1  # the two unpointed lunes stack to a cylinder


# ---------------------------------------------------------------------------
# generators


def brute_force_generators(d):
    per_alpha = [sorted(c) for c in d.alpha_curves]
    out = []
    for tup in itertools.product(*per_alpha):
        betas = [d.beta_of[p] for p in tup]
        if len(set(betas)) == d.num_curves:
            out.append(tup)
    out.sort()
    return out


def test_generators_match_brute_force(r22, r6, s3_overtwisted, octa2):
    for d in (r22, r6, s3_overtwisted, octa2):
        got = [g.points for g in d.generators()]
        assert got == brute_force_generators(d)
        assert [g.index for g in d.generators()] == list(range(len(got)))
        for g in d.generators():
            assert g.permutation == tuple(d.beta_of[p] for p in g.points)
            assert sorted(g.permutation) == list(range(d.num_curves))


def test_generators_of_genus_2000():
    # the connected sum of 2000 tight tori: one generator, found without
    # one stack frame per curve
    d = build_diagram(make_region_list(
        [[[i, i, i, i] for i in range(2000)]], 1))
    assert d.num_curves == 2000
    (g,) = d.generators()
    assert g.points == tuple(range(2000))
    assert g.permutation == tuple(range(2000))


def _contact_by_sorted_points(d):
    """The distinguished generator found by scanning every generator for
    the contact points as a set: the lookup contact_generator made before
    it read generator 0."""
    if not d.contact_aligned:
        raise ContactConventionError("minima not aligned")
    key = tuple(sorted(d.contact_points))
    for g in d.generators():
        if tuple(sorted(g.points)) == key:
            assert g.permutation == tuple(range(d.num_curves))
            return g
    raise DiagramError("no generator with points %r" % (key,))


def _generator0_inputs():
    for p in sorted(FIXTURES.glob("*.json")):
        d = load_diagram(p.stem)
        yield p.stem, d
        yield p.stem + " made nice", make_nice(d).diagram
    for name in ("r6", "r22"):
        for pushes in (1, 2, 3):
            for seed in (1, 2, 3):
                yield ("%s/%d/%d" % (name, pushes, seed),
                       build_diagram(pushed_variant(name, pushes, seed)))


def test_contact_generator_is_generator0_by_the_sorted_points_oracle():
    aligned = refused = 0
    for label, d in _generator0_inputs():
        try:
            want = _contact_by_sorted_points(d)
        except ContactConventionError:
            with pytest.raises(ContactConventionError):
                d.contact_generator()
            refused += 1
            continue
        got = d.contact_generator()
        assert got == d.generators()[0] == want, label
        assert got.points == d.contact_points, label
        aligned += 1
    # octa2 and its made-nice diagram break the convention
    assert (aligned, refused) == (38, 2)


def test_generator_counts_frozen(r22, r6):
    assert len(r22.generators()) == 120
    assert len(r6.generators()) == 12


def _intersection_matrix(d):
    mat = [[0] * d.num_curves for _ in range(d.num_curves)]
    for a, cyc in enumerate(d.alpha_curves):
        for p in cyc:
            mat[a][d.beta_of[p]] += 1
    return mat


def test_intersection_matrix(r6):
    mat = _intersection_matrix(r6)
    assert sum(sum(row) for row in mat) == r6.num_points
    # diagonal incidence product rule on a one-curve diagram
    d = load_diagram("l21")
    assert _intersection_matrix(d) == [[2]]
    assert len(d.generators()) == 2


def test_cycles_counting():
    d = load_diagram("octa2")
    gens = d.generators()
    perms = sorted(g.permutation for g in gens)
    assert perms == [(0, 1), (1, 0)]
    by_perm = {g.permutation: g for g in gens}
    assert by_perm[(0, 1)].cycles() == 2
    assert by_perm[(1, 0)].cycles() == 1


# ---------------------------------------------------------------------------
# round trip


@pytest.mark.parametrize(
    "name", ["r22", "r6", "s3_tight", "s3_overtwisted", "l21", "sphere4", "octa2"]
)
def test_roundtrip_determinism(name):
    d1 = load_diagram(name)
    text = region_list_to_json(d1.to_region_list())
    d2 = build_diagram(parse_region_list(text))
    assert d2.alpha_curves == d1.alpha_curves
    assert d2.beta_curves == d1.beta_curves
    assert d2.contact_points == d1.contact_points
    assert d2.euler_measures_2 == d1.euler_measures_2
    assert d2.boundary_mat == d1.boundary_mat
    assert [g.points for g in d2.generators()] == [g.points for g in d1.generators()]


def test_region_list_preserved(r22):
    rl = load_region_list("r22")
    assert r22.to_region_list() == rl
