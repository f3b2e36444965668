"""Finger moves: distances, badness, and the nice-ification loop.

Move logs and final shapes below are frozen outputs of this package; the
structural claims next to them (corner counts, Euler characteristic, label
blocks) are the hand-checkable part.
"""

import json
import random

import pytest

from obfloer import nicefy
from obfloer.cli import main
from obfloer.diagram import build_diagram, circuit_beta_arcs, region_list_to_json
from obfloer.nicefy import (
    MoveRecord,
    NicefyError,
    NicefyInvariantError,
    StuckError,
    compute_distances,
    make_nice,
    random_push,
    region_badness,
)

from conftest import (
    FIXTURES,
    load_diagram,
    load_region_list,
    one_push_variants,
    pushed_variant,
    run_cli_optimized,
)


# ---------------------------------------------------------------------------
# distances


def test_pointed_regions_have_distance_zero(r6, r22, s3_overtwisted):
    for d in (r6, r22, s3_overtwisted):
        dm = compute_distances(d)
        for r in range(d.num_regions):
            assert (dm[r] == 0) == d.is_pointed(r)


def test_r6_distances(r6):
    # every region one beta arc away from the pointed hexagon pile
    assert compute_distances(r6) == (1, 1, 1, 1, 1, 0)


def test_r22_distances(r22):
    assert compute_distances(r22) == (
        1, 2, 3, 2, 1, 1, 2, 3, 2, 1, 2, 3, 4, 3, 2, 1, 1, 2, 3, 4, 2, 0)


def test_distances_satisfy_bfs_recurrence(r22):
    dm = compute_distances(r22)
    by_arc = {}
    for r in range(r22.num_regions):
        for cir in r22.regions[r]:
            for arc in circuit_beta_arcs(cir):
                by_arc.setdefault(arc, []).append(r)
    for r in range(r22.num_regions):
        if r22.is_pointed(r):
            continue
        neigh = set()
        for cir in r22.regions[r]:
            for a, b in circuit_beta_arcs(cir):
                neigh.update(by_arc.get((b, a), ()))
        assert dm[r] == 1 + min(dm[s] for s in neigh)


# ---------------------------------------------------------------------------
# niceness and badness


def test_is_nice_fixtures(r6, r22, s3_overtwisted, l21, s3_tight, sphere4,
                          octa2, l31, s3_wiggle):
    assert not r6.nice
    assert not r22.nice
    assert not octa2.nice
    assert not s3_wiggle.nice
    for d in (s3_overtwisted, l21, s3_tight, sphere4, l31):
        assert d.nice


def test_r6_bad_regions(r6):
    # two hexagons and one octagon spoil the input diagram
    sizes = sorted(len(r6.regions[r][0]) for r in range(r6.num_regions)
                   if not r6.is_pointed(r))
    assert sizes == [4, 4, 6, 6, 8]
    assert [region_badness(reg) for reg in r6.regions] == [0, 1, 2, 1, 0, 4]


def test_badness_zero_iff_nice(r6, r22, s3_overtwisted, l21, sphere4):
    for d in (r6, r22, s3_overtwisted, l21, sphere4):
        tot = sum(region_badness(d.regions[r]) for r in range(d.num_regions)
                  if not d.is_pointed(r))
        assert (tot == 0) == d.nice


# ---------------------------------------------------------------------------
# make_nice


def test_make_nice_r6(r6):
    res = make_nice(r6)
    assert res.moves == (
        MoveRecord(region=1, entry_arc=(4, 6), crossings=2, points_after=14),
        MoveRecord(region=5, entry_arc=(7, 3), crossings=1, points_after=16),
        MoveRecord(region=6, entry_arc=(4, 1), crossings=1, points_after=18),
        MoveRecord(region=11, entry_arc=(7, 9), crossings=2, points_after=22),
    )
    fin = res.diagram
    assert fin.nice
    assert fin.num_regions == 18 and fin.num_points == 22
    # Euler characteristic of the surface survives: -4 before and after
    assert r6.num_regions - r6.num_points == -4
    assert fin.num_regions - fin.num_points == -4
    assert fin.num_pointed == r6.num_pointed == 1
    assert fin.num_curves == r6.num_curves == 3
    assert fin.contact_aligned


def test_make_nice_r22(r22):
    res = make_nice(r22)
    assert len(res.moves) == 12
    assert [m.crossings for m in res.moves] == [1, 2, 1, 2, 3, 19, 1, 2, 3, 7,
                                                7, 13]
    fin = res.diagram
    assert fin.nice
    assert fin.num_regions == 144 and fin.num_points == 148
    assert fin.num_regions - fin.num_points == r22.num_regions - r22.num_points
    assert fin.num_curves == r22.num_curves
    assert fin.contact_aligned


def test_each_crossing_adds_two_points_and_two_regions(r6, r22):
    for d in (r6, r22):
        res = make_nice(d)
        pts = d.num_points
        for mv in res.moves:
            assert mv.points_after == pts + 2 * mv.crossings
            pts = mv.points_after
        fin = res.diagram
        grown = 2 * sum(mv.crossings for mv in res.moves)
        assert fin.num_points == d.num_points + grown
        assert fin.num_regions == d.num_regions + grown


def test_make_nice_fixed_point(s3_overtwisted, l21, s3_tight, sphere4, l31):
    for d in (s3_overtwisted, l21, s3_tight, sphere4, l31):
        res = make_nice(d)
        assert res.moves == ()
        assert res.diagram is d


def test_make_nice_idempotent(r6, r22):
    for d in (r6, r22):
        once = make_nice(d)
        again = make_nice(once.diagram)
        assert again.moves == ()
        assert again.diagram is once.diagram


def test_wiggle_toy_two_moves():
    # smallest fixture that needs actual work: an octagon (badness 2) one
    # step from the pointed bigon, dead-end bigon behind it at distance 2.
    # two finger moves, the second passing through the square left by the
    # first, carve it into squares and tip bigons
    toy = load_diagram("s3_wiggle")
    assert not toy.nice
    res = make_nice(toy)
    assert res.moves == (
        MoveRecord(region=1, entry_arc=(2, 1), crossings=1, points_after=5),
        MoveRecord(region=1, entry_arc=(3, 1), crossings=2, points_after=9),
    )
    fin = res.diagram
    assert fin.nice
    sizes = sorted(len(fin.regions[r][0]) for r in range(fin.num_regions)
                   if not fin.is_pointed(r))
    assert sizes == [2, 2, 2, 4, 4, 4, 4, 4]
    assert fin.num_regions - fin.num_points == toy.num_regions - toy.num_points


def test_make_nice_s1s2_one_move(s1s2):
    # the lone unpointed hexagon is adjacent to the pointed region, so a
    # single one-crossing finger move settles it
    assert not s1s2.nice
    res = make_nice(s1s2)
    assert res.moves == (
        MoveRecord(region=2, entry_arc=(1, 3), crossings=1, points_after=6),
    )
    fin = res.diagram
    assert fin.nice
    assert fin.num_points == 6 and fin.num_regions == 6
    assert fin.contact_aligned


def test_make_nice_unaligned_input(octa2):
    # octa2's per-curve minima share a beta curve, so it can never satisfy
    # the contact convention; make_nice must still work and must not
    # manufacture alignment
    assert not octa2.contact_aligned
    res = make_nice(octa2)
    assert [m.crossings for m in res.moves] == [1, 1]
    fin = res.diagram
    assert fin.nice
    assert not fin.contact_aligned
    assert fin.num_points == 8 and fin.num_regions == 6
    sizes = sorted(len(fin.regions[r][0]) for r in range(fin.num_regions)
                   if not fin.is_pointed(r))
    assert sizes == [2, 2, 4, 4, 4]


def test_relabel_blocks_and_contact(r6, r22):
    for d in (r6, r22):
        fin = make_nice(d).diagram
        offset = 0
        for i, cyc in enumerate(fin.alpha_curves):
            assert sorted(cyc) == list(range(offset, offset + len(cyc)))
            assert fin.contact_points[i] == offset == cyc[0]
            offset += len(cyc)


def test_move_cap_stuck_error(r22):
    with pytest.raises(StuckError) as exc:
        make_nice(r22, move_cap=2)
    dump = exc.value.region_list
    assert dump is not None
    mid = build_diagram(dump)  # the dump is a valid intermediate diagram
    assert mid.num_points == r22.num_points + 2 * (1 + 2)


def test_make_nice_measures_each_diagram_once(r6, monkeypatch):
    # a move's "after" distances are the next move's "before"
    calls = []
    monkeypatch.setattr(nicefy, "compute_distances",
                        lambda d: calls.append(d) or compute_distances(d))
    res = make_nice(r6)
    assert len(calls) == len(res.moves) + 1
    assert len({id(d) for d in calls}) == len(calls)


# every "finger move" lands on a one-curve sphere: the move is the
# package's own surgery, so a changed surface is a broken invariant
SPHERE_AFTER_EVERY_MOVE = """
from obfloer import nicefy
from obfloer.diagram import build_diagram, make_region_list
nicefy.build_diagram = lambda rl: build_diagram(
    make_region_list([[0, 1], [1, 0], [0, 1], [1, 0]], 1, name=rl.name))
"""


def test_surface_changing_move_is_an_internal_error(tmp_path, monkeypatch,
                                                    capsys):
    space = {}
    exec(SPHERE_AFTER_EVERY_MOVE.replace("nicefy.build_diagram =",
                                         "fake ="), space)
    monkeypatch.setattr(nicefy, "build_diagram", space["fake"])
    want = "finger move changed the underlying surface"
    with pytest.raises(NicefyInvariantError, match="^%s$" % want):
        make_nice(load_diagram("r6"))
    args = ["makenice", "--input", FIXTURES / "r6.json", "--out-dir", tmp_path]
    assert main([str(a) for a in args]) == 4
    assert "internal error: " + want in capsys.readouterr().err
    rc, _, err = run_cli_optimized(args, prelude=SPHERE_AFTER_EVERY_MOVE)
    assert rc == 4
    assert "internal error: " + want in err


@pytest.mark.xfail(strict=True, raises=StuckError,
                   reason="a valid move raises the measure from (2, 4) to "
                          "(4, 3), and the progress guard refuses")
def test_r22_seeded_push_variant_makes_nice():
    fin = make_nice(build_diagram(pushed_variant("r22", 1, 5))).diagram
    assert fin.nice


# ---------------------------------------------------------------------------
# random single pushes


def test_random_push_r6():
    rl = load_region_list("r6")
    rng = random.Random(5)
    d0 = build_diagram(rl)
    for _ in range(5):
        nxt = random_push(rl, rng)
        assert nxt is not None
        d = build_diagram(nxt)
        assert d.num_points == build_diagram(rl).num_points + 2
        assert d.num_regions - d.num_points == d0.num_regions - d0.num_points
        assert d.num_curves == d0.num_curves
        assert d.contact_aligned
        rl = nxt


def test_random_push_none_when_everything_small(s3_overtwisted, l21):
    rng = random.Random(0)
    assert random_push(s3_overtwisted.to_region_list(), rng) is None
    assert random_push(l21.to_region_list(), rng) is None


# A push is a finger move: the pushed list presents the same pointed
# diagram, so `all` must read the same homology ranks, contact class and
# order.  Inputs: every one-push variant of the open-book fixtures of
# test_acceptance.test_structural_identities (only r6 admits a push), and
# the four two-push r6 variants of test_near_pairs.
OPEN_BOOK = ["s3_tight", "s3_overtwisted", "l21", "l31", "s3_twopoint", "r6"]
PUSHED = [
    (name, "%s-1push-k%d" % (name, k), rl)
    for name in OPEN_BOOK
    for k, rl in enumerate(one_push_variants(name))
] + [("r6", "r6-2push-s%d" % s, pushed_variant("r6", 2, s))
     for s in (1, 2, 9, 13)]


def _invariants(region_list, tmp_path, capsys):
    src = tmp_path / "in.json"
    src.write_text(region_list_to_json(region_list) + "\n")
    rc = main(["all", "--input", str(src), "--out-dir", str(tmp_path),
               "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    hom = doc["homology"]
    return (hom["total_rank"], sorted(c["total"] for c in hom["classes"]),
            doc["contact"]["contact_class"], doc["order"]["order"])


@pytest.mark.parametrize("name,rl", [(n, rl) for n, _, rl in PUSHED],
                         ids=[i for _, i, _ in PUSHED])
def test_random_push_keeps_homology_contact_class_and_order(name, rl,
                                                            tmp_path, capsys):
    want = _invariants(load_region_list(name), tmp_path, capsys)
    assert _invariants(rl, tmp_path, capsys) == want
