"""Pointed Heegaard diagrams encoded as region lists.

A diagram is handed to us as the list of regions cut out by the alpha and
beta curves.  Each region is an even-length cyclic sequence of intersection
point labels read counter-clockwise around the region:

    corners  c0, c1, ..., c_{2n-1}
    arcs     (c_{2j}   -> c_{2j+1})          alpha arcs
             (c_{2j+1} -> c_{2j+2 mod 2n})   beta arcs

so the first two corners lie on the same alpha curve.  Pointed regions (the
ones carrying a basepoint) sit at the END of the list.  A multiply connected
region may be written in nested form as a list of circuits; its interior is
assumed planar (genus 0), which is all the corner data can express.

Everything global is reconstructed from this: each curve is walked from its
least point along the arc ends of its points, each point lies on one alpha
and one beta curve, and the distinguished point of each alpha curve is its
lowest label.  Beta curves are re-indexed so the tuple of distinguished
points, when it is a generator, has the identity permutation.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import islice
from typing import NamedTuple


class DiagramError(Exception):
    """Base class for everything this module raises on bad input."""


class RegionListError(DiagramError):
    """Structural problem in the raw region list (parse level)."""


class ValidationError(DiagramError):
    """The region list does not describe a closed oriented surface diagram."""


class PointDegreeError(ValidationError):
    """Some point label does not occur exactly four times as a corner."""


class ArcPairingError(ValidationError):
    """Directed arc sides do not pair up reversed (orientation inconsistency)."""


class CurveCountError(ValidationError):
    """Number of alpha curves differs from number of beta curves."""


class MassFormulaError(ValidationError):
    """Euler measures do not add up to twice an even Euler characteristic."""


class ContactConventionError(ValidationError):
    """The per-curve minima do not form a generator, so the labeling does not
    follow the distinguished-point convention."""


# ---------------------------------------------------------------------------
# region lists


class RegionList(NamedTuple):
    """Raw input: regions as tuples of circuits, pointed regions last."""

    name: str
    num_pointed: int
    regions: tuple  # tuple of regions; region = tuple of circuits; circuit = tuple of ints


def _normalize_region(raw, idx):
    if not isinstance(raw, (list, tuple)) or len(raw) == 0:
        raise RegionListError("region %d is not a nonempty sequence" % idx)
    if isinstance(raw[0], (list, tuple)):
        circuits = raw
    else:
        circuits = [raw]
    out = []
    for k, cir in enumerate(circuits):
        if not isinstance(cir, (list, tuple)) or len(cir) == 0:
            raise RegionListError("region %d circuit %d is not a nonempty "
                                  "list of point labels" % (idx, k))
        if len(cir) % 2:
            raise RegionListError(
                "region %d has an odd-length circuit %r" % (idx, list(cir))
            )
        for c in cir:
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise RegionListError(
                    "region %d has a bad point index %r" % (idx, c)
                )
        out.append(tuple(cir))
    return tuple(out)


def make_region_list(regions, num_pointed, name="diagram"):
    """Validate raw sequences structurally and freeze them into a RegionList."""
    if not isinstance(regions, (list, tuple)):
        raise RegionListError("regions must be a list of regions, got %s"
                              % type(regions).__name__)
    if not regions:
        raise RegionListError("empty region list")
    if not isinstance(num_pointed, int) or isinstance(num_pointed, bool):
        raise RegionListError("num_pointed must be an integer")
    if not 1 <= num_pointed <= len(regions):
        raise RegionListError(
            "num_pointed=%r out of range 1..%d" % (num_pointed, len(regions))
        )
    regs = tuple(_normalize_region(r, i) for i, r in enumerate(regions))
    labels = sorted({c for reg in regs for cir in reg for c in cir})
    if labels[-1] != len(labels) - 1:
        # read the gaps off the sorted labels: memory in their number only
        gaps = (m for a, b in zip([-1] + labels, labels)
                for m in range(a + 1, b))
        raise RegionListError(
            "point labels are not the contiguous range 0..%d: %d labels, "
            "%d missing, first %r"
            % (labels[-1], len(labels), labels[-1] + 1 - len(labels),
               list(islice(gaps, 5)))
        )
    return RegionList(name=str(name), num_pointed=num_pointed, regions=regs)


def parse_region_list(text, name=None):
    """Read a region list from the JSON object
    {"name": ..., "num_pointed": ..., "regions": ...}; "name" is optional
    and, when present, a string.

    Nothing else is accepted: text the JSON decoder rejects is refused with
    the decoder's own message, and a bare list of regions is refused because
    it does not say how many regions are pointed.
    """
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise RegionListError("cannot parse input: %s" % exc) from None
    except RecursionError:
        raise RegionListError("cannot parse input: nested too deeply") from None
    if isinstance(data, list):
        raise RegionListError(
            'a bare region list has no num_pointed; use the object form '
            '{"num_pointed": N, "regions": [...]}')
    if not isinstance(data, dict):
        raise RegionListError("input is neither an object nor a region list")
    for field in ("regions", "num_pointed"):
        if field not in data:
            raise RegionListError('input object lacks a "%s" field' % field)
    nm = data.get("name", name)
    if "name" in data and not isinstance(nm, str):
        raise RegionListError(
            '"name" must be a string, got %s' % type(nm).__name__)
    return make_region_list(data["regions"], data["num_pointed"],
                            nm if nm is not None else "diagram")


def region_list_to_json(rl):
    regions = []
    for reg in rl.regions:
        if len(reg) == 1:
            regions.append(list(reg[0]))
        else:
            regions.append([list(c) for c in reg])
    doc = {"name": rl.name, "num_pointed": rl.num_pointed, "regions": regions}
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# per-region measures


def euler_measure_2(region):
    """Twice the Euler measure of a region: 2*chi - corners/2, chi = 2 - #circuits.

    A disk with 2n corners gives 2 - n: bigon 1, square 0, hexagon -1.
    """
    corners = sum(len(c) for c in region)
    return 2 * (2 - len(region)) - corners // 2


def circuit_alpha_arcs(circuit):
    return [(circuit[i], circuit[i + 1]) for i in range(0, len(circuit), 2)]


def circuit_beta_arcs(circuit):
    n = len(circuit)
    return [(circuit[i], circuit[(i + 1) % n]) for i in range(1, n, 2)]


# ---------------------------------------------------------------------------
# curve reconstruction


def _arc_ends(directed, kind, num_points):
    """Each point's far arc ends.  The multiset of directed arc sides is
    reversal-symmetric (checked by the caller), so every side a->b lists b
    at a, and a loop at a lists a once per side, twice per arc."""
    odd = [a for (a, b), cnt in directed.items() if a == b and cnt % 2]
    if odd:
        raise ArcPairingError(
            "%s arc (%d,%d) has an odd number of sides" % (kind, min(odd), min(odd))
        )
    ends = [[] for _ in range(num_points)]
    for (a, b), cnt in directed.items():
        ends[a].extend([b] * cnt)
    return ends


def _curves(ends):
    """Walk each curve from its least point toward its smaller neighbour,
    each time taking the end it did not arrive from; curves come out in
    order of their least points."""
    # every corner ends one alpha and one beta side, so after the degree,
    # pairing and loop checks this cannot fire; it guards the walk, which
    # unpacks exactly two ends per point
    for p, e in enumerate(ends):
        if len(e) != 2:
            raise ArcPairingError("point %d has %d arc ends, want 2" % (p, len(e)))
    seen = [False] * len(ends)
    curves = []
    for start in range(len(ends)):
        if seen[start]:
            continue
        walk, prev, cur = [start], start, min(ends[start])
        while cur != start:
            walk.append(cur)
            a, b = ends[cur]
            prev, cur = cur, b if a == prev else a
        for p in walk:
            seen[p] = True
        curves.append(tuple(walk))
    return curves


# ---------------------------------------------------------------------------
# the diagram


class HeegaardDiagram:
    """Validated pointed Heegaard diagram built from a RegionList.

    Treat instances as immutable. Attributes:

      name, regions, num_pointed, num_points, num_regions, num_unpointed
      alpha_curves, beta_curves : tuples of cyclic point tuples
      beta_of                   : point -> beta curve index
      contact_points            : per alpha curve, its minimum point
      contact_aligned           : whether beta indexing realizes the identity
                                  permutation on the contact tuple
      nice                      : whether every unpointed region is one
                                  circuit with 2 or 4 corners (a bigon or
                                  square)
      euler_measures_2          : per region
      point_corners             : per point, (region, corner occurrences)
                                  pairs in region order (one quadrant each)
      boundary_columns          : per region, the nonzero (point, entry)
                                  pairs of its beta-arc boundary, in point
                                  order
    """

    def __init__(self, region_list):
        rl = region_list
        self.name = rl.name
        self.regions = rl.regions
        self.num_pointed = rl.num_pointed
        self.num_regions = len(rl.regions)
        self.num_unpointed = self.num_regions - rl.num_pointed

        # incidence in one pass over the corners, sparse: O(corners)
        corners_at, columns = {}, []  # point -> {region: occurrences}
        alpha_dir, beta_dir = Counter(), Counter()
        for r, reg in enumerate(rl.regions):
            col = {}
            for cir in reg:
                for c in cir:
                    at = corners_at.setdefault(c, {})
                    at[r] = at.get(r, 0) + 1
                alpha_dir.update(circuit_alpha_arcs(cir))
                betas = circuit_beta_arcs(cir)
                beta_dir.update(betas)
                for a, b in betas:
                    col[b] = col.get(b, 0) + 1
                    col[a] = col.get(a, 0) - 1
            columns.append(tuple(sorted((p, e) for p, e in col.items() if e)))
        self.num_points = len(corners_at)
        degree = [sum(corners_at.get(p, {}).values())
                  for p in range(self.num_points)]
        bad = [p for p in range(self.num_points) if degree[p] != 4]
        if bad:
            raise PointDegreeError(
                "points %r occur %r times as corners, want 4"
                % (bad, [degree[p] for p in bad])
            )
        self.point_corners = tuple(tuple(corners_at[p].items())
                                   for p in range(self.num_points))
        self.boundary_columns = tuple(columns)

        for directed, kind in ((alpha_dir, "alpha"), (beta_dir, "beta")):
            for (a, b), cnt in directed.items():
                if directed.get((b, a), 0) != cnt:
                    raise ArcPairingError(
                        "%s arc (%d,%d) occurs %d times but reversed %d times"
                        % (kind, a, b, cnt, directed.get((b, a), 0))
                    )

        a_ends = _arc_ends(alpha_dir, "alpha", self.num_points)
        b_ends = _arc_ends(beta_dir, "beta", self.num_points)
        a_curves, b_curves = _curves(a_ends), _curves(b_ends)
        if len(a_curves) != len(b_curves):
            raise CurveCountError(
                "%d alpha curves vs %d beta curves" % (len(a_curves), len(b_curves))
            )
        self.alpha_curves = tuple(a_curves)
        self.contact_points = tuple(c[0] for c in a_curves)  # each starts at its min

        # index beta curves so the contact tuple, when a generator, is the identity
        beta_of_prov = {p: j for j, cyc in enumerate(b_curves) for p in cyc}
        order = [beta_of_prov[cp] for cp in self.contact_points]
        self.contact_aligned = len(set(order)) == len(order)
        if not self.contact_aligned:
            order = range(len(b_curves))
        self.beta_curves = tuple(b_curves[j] for j in order)
        self.nice = all(len(reg) == 1 and len(reg[0]) in (2, 4)
                        for reg in rl.regions[:self.num_unpointed])

        self.beta_of = [None] * self.num_points
        for i, cyc in enumerate(self.beta_curves):
            for p in cyc:
                self.beta_of[p] = i
        self.beta_of = tuple(self.beta_of)

        self.euler_measures_2 = tuple(euler_measure_2(reg) for reg in rl.regions)

        # mass formula: sum of doubled Euler measures = 2*chi(surface);
        # chi must be even (closed oriented surface)
        total = sum(self.euler_measures_2)
        chi2 = 2 * (sum(2 - len(reg) for reg in rl.regions) - self.num_points)
        if total != chi2:
            raise MassFormulaError(
                "euler measure mass %d != %d" % (total, chi2)
            )
        if total % 4:
            raise MassFormulaError(
                "odd Euler characteristic %d: not a closed oriented surface"
                % (total // 2)
            )

        self._generators = None

    # -- simple views -----------------------------------------------------

    @property
    def num_curves(self):
        return len(self.alpha_curves)

    def is_pointed(self, r):
        return r >= self.num_unpointed

    def to_region_list(self):
        return RegionList(
            name=self.name, num_pointed=self.num_pointed, regions=self.regions
        )

    # -- generators -------------------------------------------------------

    def generators(self):
        """All generators, one point per alpha curve with the beta curves hit
        bijectively, in lexicographic point-tuple order."""
        if self._generators is not None:
            return self._generators
        n, beta_of = self.num_curves, self.beta_of
        per_alpha = [sorted(cyc) for cyc in self.alpha_curves]
        out, chosen, used_beta = [], [], set()
        # depth-first without recursion: one candidate iterator per curve
        # chosen so far, plus the one being tried
        stack = [iter(per_alpha[0])]
        while stack:
            for p in stack[-1]:
                if beta_of[p] not in used_beta:
                    break
            else:
                stack.pop()
                if chosen:
                    used_beta.discard(beta_of[chosen.pop()])
                continue
            if len(chosen) + 1 == n:
                pts = tuple(chosen) + (p,)
                out.append(Generator(pts, tuple(beta_of[q] for q in pts),
                                     len(out)))
            else:
                chosen.append(p)
                used_beta.add(beta_of[p])
                stack.append(iter(per_alpha[len(chosen)]))
        self._generators = tuple(out)
        return self._generators

    def contact_generator(self):
        """The distinguished generator made of the per-curve minimum points.

        It is generator 0: generators() searches each curve's sorted points
        depth-first, so it yields point tuples in lexicographic order, and
        the tuple of per-curve minima is the least of all such tuples.
        Alignment makes that tuple a generator, with the beta curves indexed
        so that its permutation is the identity.
        """
        if not self.contact_aligned:
            raise ContactConventionError(
                "per-curve minima do not hit all beta curves; labels violate "
                "the distinguished-point convention"
            )
        g = self.generators()[0]
        if (g.points != self.contact_points
                or g.permutation != tuple(range(self.num_curves))):
            raise DiagramError(
                "beta curves are not indexed by the contact generator: "
                "generator 0 is %s with permutation %r" % (g, g.permutation))
        return g


class Generator(NamedTuple):
    """One point per alpha curve; permutation[i] = beta index of points[i]."""

    points: tuple
    permutation: tuple
    index: int

    def cycles(self):
        """Number of disjoint cycles of the permutation."""
        return cycle_count(self.permutation)

    def __str__(self):
        return "{" + ",".join(str(p) for p in self.points) + "}"


def cycle_count(perm):
    """Number of disjoint cycles of a permutation of range(len(perm))."""
    seen = set()
    out = 0
    for i in range(len(perm)):
        if i in seen:
            continue
        out += 1
        j = i
        while j not in seen:
            seen.add(j)
            j = perm[j]
    return out


def build_diagram(region_list):
    """Reconstruct and fully validate the diagram a region list describes."""
    return HeegaardDiagram(region_list)


def diagram_from_json(text, name=None):
    return build_diagram(parse_region_list(text, name))
