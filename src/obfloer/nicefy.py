"""Finger moves: making a pointed diagram nice.

A diagram is *nice* when every region without a base point is a disk with
two or four corners.  On nice diagrams the holomorphic-curve counts behind
the differential reduce to counting embedded bigons and rectangles, which
is why we bother.

The simplification scheme is greedy.  Pick a worst region (too many
corners) among those farthest from the base points, and push one of its
beta arcs through the region and out across an alpha arc, like a finger.
The finger keeps crossing alpha arcs until its tip lands in a bigon or in
a region strictly closer to a base point.  Each crossing trades the
invaded region for smaller pieces; a lexicographic measure (badness at the
worst distance, then that distance) strictly drops with every completed
move, which forces termination.

Only disk regions can be pushed through.  Unpointed regions with several
boundary circuits are rejected up front; none of the standard examples
have them.
"""

from collections import deque
from dataclasses import dataclass

from .diagram import (
    build_diagram,
    circuit_beta_arcs,
    make_region_list,
)


class NicefyError(Exception):
    pass


class NicefyInvariantError(Exception):
    """A finished make_nice broke a postcondition: an internal error, not
    a refusal like NicefyError."""


class StuckError(NicefyError):
    """The greedy scheme stopped making progress.

    Carries the intermediate region list for post-mortem inspection.
    """

    def __init__(self, msg, region_list=None):
        super().__init__(msg)
        self.region_list = region_list


@dataclass(frozen=True)
class MoveRecord:
    region: int        # index of the bad region the move attacked
    entry_arc: tuple   # directed beta arc the finger pushed, as a point pair
    crossings: int     # number of alpha arcs the finger crossed
    points_after: int  # intersection points once the move finished


@dataclass(frozen=True)
class NiceResult:
    diagram: "HeegaardDiagram"
    moves: tuple


def region_badness(region):
    """Corners beyond a square, totalled over the region's circuits."""
    return sum(max(0, len(cir) // 2 - 2) for cir in region)


def is_nice(diagram):
    """True when every unpointed region is a disk bigon or square."""
    for r in range(diagram.num_regions):
        if diagram.is_pointed(r):
            continue
        reg = diagram.regions[r]
        if len(reg) != 1 or len(reg[0]) not in (2, 4):
            return False
    return True


def compute_distances(diagram):
    """Breadth-first distance of every region from the pointed ones, as a
    tuple indexed by region.

    Two regions are adjacent when they share a beta arc (one traverses it
    forward, the other backward)."""
    by_arc = {}
    for r in range(diagram.num_regions):
        for cir in diagram.regions[r]:
            for a, b in circuit_beta_arcs(cir):
                by_arc.setdefault((a, b), []).append(r)
    dist = [None] * diagram.num_regions
    queue = deque()
    for r in range(diagram.num_regions):
        if diagram.is_pointed(r):
            dist[r] = 0
            queue.append(r)
    while queue:
        r = queue.popleft()
        for cir in diagram.regions[r]:
            for a, b in circuit_beta_arcs(cir):
                for s in by_arc.get((b, a), ()):
                    if dist[s] is None:
                        dist[s] = dist[r] + 1
                        queue.append(s)
    missing = [r for r, d in enumerate(dist) if d is None]
    if missing:
        raise NicefyError(
            "regions %r cannot reach a pointed region through beta arcs"
            % missing
        )
    return tuple(dist)


# ---------------------------------------------------------------------------
# the atomic surgery


def _occurrences(regs, arc, parity):
    """All (region, circuit, position) where the directed arc occurs.

    parity 0 scans alpha slots (even positions), parity 1 beta slots."""
    out = []
    for r, reg in enumerate(regs):
        for ci, cir in enumerate(reg):
            n = len(cir)
            for pos in range(parity, n, 2):
                if cir[pos] == arc[0] and cir[(pos + 1) % n] == arc[1]:
                    out.append((r, ci, pos))
    return out


@dataclass(frozen=True)
class _Push:
    z_before: int      # index of the invaded region before the splice
    z_after: int       # its index once [left, right, tip] replace the source
    z_was_bigon: bool
    w_left: int
    w_right: int


def _push_once(regs, q, e_pos, a, next_pt):
    """Push the beta arc at odd position e_pos of disk region q across the
    alpha arc at even rotated position a (rotation puts the entry arc at
    position 1).  Returns (new region lists, push info).

    The source disk splits into a left piece, a right piece and a tip
    bigon; the region behind the entry arc absorbs the finger's band; the
    region across the target arc is invaded by the tip.  Two new points
    next_pt, next_pt + 1 appear where the finger crosses the target arc.
    """
    reg = regs[q]
    if len(reg) != 1:
        raise NicefyError("region %d is not a disk; cannot push through it" % q)
    cir = reg[0]
    n = len(cir)
    if e_pos % 2 != 1 or a % 2 != 0 or not 4 <= a <= n - 2:
        raise NicefyError("illegal push: entry %d target %d in a %d-gon"
                          % (e_pos, a, n))
    rc = cir[e_pos - 1:] + cir[:e_pos - 1]
    c1, c2 = rc[1], rc[2]
    ca, cb = rc[a], rc[a + 1]
    w_occ = [o for o in _occurrences(regs, (c2, c1), 1) if o[0] != q]
    z_occ = [o for o in _occurrences(regs, (cb, ca), 0) if o[0] != q]
    if not w_occ:
        raise NicefyError(
            "entry arc (%d,%d) has no partner outside region %d" % (c1, c2, q))
    if not z_occ:
        raise NicefyError(
            "target arc (%d,%d) has no partner outside region %d" % (ca, cb, q))
    wl, wr = next_pt, next_pt + 1

    left = rc[2:a + 1] + [wl]
    right = [wr] + rc[a + 1:] + rc[:2]
    tip = [wr, wl]

    new_regs = [[list(c) for c in r] for r in regs]
    inserts = {}
    wreg, wci, wpos = w_occ[0]
    inserts.setdefault((wreg, wci), []).append((wpos, [wl, wr]))
    zreg, zci, zpos = z_occ[0]
    inserts.setdefault((zreg, zci), []).append((zpos, [wr, wl]))
    for (r, ci), ops in inserts.items():
        target = new_regs[r][ci]
        for pos, body in sorted(ops, reverse=True):
            target[pos + 1:pos + 1] = body

    z_was_bigon = len(regs[zreg]) == 1 and len(regs[zreg][0]) == 2
    new_regs[q:q + 1] = [[left], [right], [tip]]
    z_after = zreg + 2 if zreg > q else zreg
    return new_regs, _Push(zreg, z_after, z_was_bigon, wl, wr)


# ---------------------------------------------------------------------------
# one full finger move


def _one_move(regs, num_pointed, dists, next_pt, crossing_cap, name):
    nun = len(regs) - num_pointed
    bad = [r for r in range(nun) if region_badness(regs[r]) > 0]
    d_move = max(dists[r] for r in bad)
    rbad = min(r for r in bad if dists[r] == d_move)
    if len(regs[rbad]) != 1:
        raise NicefyError("region %d is not a disk; finger moves unsupported"
                          % rbad)
    cir = regs[rbad][0]
    n = len(cir)

    # entry: a beta arc shared with a region one step closer to the points
    entries = []
    for t in range(1, n, 2):
        arc = (cir[t], cir[(t + 1) % n])
        occ = [o for o in _occurrences(regs, (arc[1], arc[0]), 1)
               if o[0] != rbad]
        if occ and dists[occ[0][0]] == d_move - 1:
            entries.append((occ[0][0], t, arc))
    if not entries:
        raise StuckError(
            "region %d has no neighbor at distance %d" % (rbad, d_move - 1),
            make_region_list(regs, num_pointed, name=name))
    entries.sort()
    _, e_pos, entry_arc = entries[0]

    q = rbad
    crossings = 0
    while True:
        if crossings >= crossing_cap:
            raise StuckError(
                "finger from region %d exceeded %d crossings"
                % (rbad, crossing_cap),
                make_region_list(regs, num_pointed, name=name))
        cir = regs[q][0]
        n = len(cir)
        rc = cir[e_pos - 1:] + cir[:e_pos - 1]
        chosen = None
        for a in range(4, n - 1, 2):
            # the far side of the target arc must not be q itself
            if any(o[0] != q
                   for o in _occurrences(regs, (rc[a + 1], rc[a]), 0)):
                chosen = a
                break
        if chosen is None:
            raise StuckError(
                "no alpha arc of region %d can be crossed" % q,
                make_region_list(regs, num_pointed, name=name))
        regs, push = _push_once(regs, q, e_pos, chosen, next_pt)
        next_pt += 2
        crossings += 1
        z0 = push.z_before
        stop = push.z_was_bigon or dists[z0] < d_move
        # the split pieces inherit the source's distance, the tip the
        # invaded region's; good enough to steer the rest of the move
        dists = dists[:q] + [dists[q], dists[q], dists[z0]] + dists[q + 1:]
        if stop:
            break
        q = push.z_after
        if len(regs[q]) != 1:
            raise NicefyError("finger entered a region that is not a disk")
        cap_occ = _occurrences([regs[q]], (push.w_right, push.w_left), 1)
        e_pos = cap_occ[0][2]
    return regs, next_pt, MoveRecord(rbad, entry_arc, crossings, next_pt)


def _measure(diagram, dists):
    """(worst bad distance, badness there), or None when nice."""
    worst = None
    tot = 0
    for r in range(diagram.num_regions):
        if diagram.is_pointed(r):
            continue
        b = region_badness(diagram.regions[r])
        if not b:
            continue
        d = dists[r]
        if worst is None or d > worst:
            worst, tot = d, b
        elif d == worst:
            tot += b
    return None if worst is None else (worst, tot)


def _relabel(diagram):
    """Relabel points so each alpha curve carries a consecutive block that
    starts at its contact point."""
    new = {}
    nxt = 0
    for cyc in diagram.alpha_curves:
        for p in cyc:
            new[p] = nxt
            nxt += 1
    regs = [[[new[c] for c in cir] for cir in reg] for reg in diagram.regions]
    return make_region_list(regs, diagram.num_pointed, name=diagram.name)


def make_nice(diagram, move_cap=10 ** 6):
    """Apply finger moves until the diagram is nice.

    Returns a NiceResult whose diagram is the input itself when it was
    already nice (zero moves), and otherwise a relabeled, validated nice
    diagram presenting the same manifold and contact data.
    """
    if is_nice(diagram):
        return NiceResult(diagram, ())
    for r in range(diagram.num_regions):
        if not diagram.is_pointed(r) and len(diagram.regions[r]) != 1:
            raise NicefyError(
                "unpointed region %d is not a disk; cannot make nice" % r)
    chi = diagram.num_regions - diagram.num_points
    ncurves = diagram.num_curves

    cur = diagram
    moves = []
    dists = None  # of cur, carried over from the move that built it
    while not is_nice(cur):
        if len(moves) >= move_cap:
            raise StuckError("move cap %d reached" % move_cap,
                             cur.to_region_list())
        if dists is None:
            dists = compute_distances(cur)
            before = _measure(cur, dists)
        regs = [[list(c) for c in reg] for reg in cur.regions]
        cap = max(1000, 10 * cur.num_points)
        regs, _, rec = _one_move(regs, cur.num_pointed, list(dists),
                                 cur.num_points, cap, cur.name)
        rl = make_region_list(regs, cur.num_pointed, name=cur.name)
        cur = build_diagram(rl)
        if cur.num_regions - cur.num_points != chi or cur.num_curves != ncurves:
            raise NicefyError("finger move changed the underlying surface")
        dists = compute_distances(cur)
        after = _measure(cur, dists)
        if after is not None and not after < before:
            raise StuckError("no progress: measure %r -> %r" % (before, after),
                             rl)
        moves.append(rec)
        before = after

    fin = build_diagram(_relabel(cur))
    if not is_nice(fin):
        raise NicefyInvariantError("make_nice ended on a diagram that is not nice")
    # alignment is preserved, never created: a diagram whose per-curve
    # minima hit one beta curve twice stays that way under isotopy
    if fin.contact_aligned != diagram.contact_aligned:
        raise NicefyInvariantError("make_nice changed the contact alignment")
    if fin.num_regions - fin.num_points != chi:
        raise NicefyInvariantError(
            "make_nice changed the Euler characteristic: %d != %d"
            % (fin.num_regions - fin.num_points, chi))
    return NiceResult(fin, tuple(moves))


def random_push(region_list, rng):
    """One uniformly random legal finger-move step.

    The result presents the same pointed diagram up to isotopy, so every
    quantity computed downstream must agree with the original.  Returns
    None when no unpointed disk region admits a push."""
    regs = [[list(c) for c in reg] for reg in region_list.regions]
    nun = len(regs) - region_list.num_pointed
    npts = 1 + max(c for reg in regs for cir in reg for c in cir)
    cands = []
    for q in range(nun):
        if len(regs[q]) != 1 or len(regs[q][0]) < 6:
            continue
        cir = regs[q][0]
        n = len(cir)
        for t in range(1, n, 2):
            rc = cir[t - 1:] + cir[:t - 1]
            if not any(o[0] != q
                       for o in _occurrences(regs, (rc[2], rc[1]), 1)):
                continue
            for a in range(4, n - 1, 2):
                if any(o[0] != q
                       for o in _occurrences(regs, (rc[a + 1], rc[a]), 0)):
                    cands.append((q, t, a))
    if not cands:
        return None
    q, t, a = cands[rng.randrange(len(cands))]
    new_regs, _ = _push_once(regs, q, t, a, npts)
    return make_region_list(new_regs, region_list.num_pointed,
                            name=region_list.name)
