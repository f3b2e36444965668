"""Domains between Heegaard Floer generators.

A domain is an integer chain of regions running from one generator to
another: if c is the coefficient vector, then
boundary_mat . c = indicator(from) - indicator(to) as 0-chains of points
(equivalently, the alpha-arc boundary matrix applied to c gives to - from;
the two matrices are negatives of each other).  This orientation is the one
under which the contact generator supports no outgoing positive domain and
the two-corner pinning at contact points caps positive-domain counts by
2^(moving contact points picked up by the target).
Chains of unpointed regions ("hat" domains, class Domain) are the ones the
hat theory counts; chains over all regions (FullDomain) decide when two
generators sit in the same SpinC class and carry the relative grading.

The calculator reduces each generator once, lazily, modulo the lattice of
region boundaries (IntSolver.reduce).  The canonical residue of that
reduction names the generator's SpinC class, and its quotient gives a
potential: a chain whose boundary is the generator up to the residue.
Two generators are joined by a full domain iff their residues agree, and
the difference of their potentials is then one; a second residue, of the
pointed coefficients modulo the full periodic domains, decides the same
for hat domains.  No solve runs per pair of generators.

The calculator exposes:

  * periodic_domain_basis: lattice basis of hat domains with empty boundary;
  * check_weak_admissibility: no nonzero nonnegative periodic combination;
  * connecting_domain / find_pos_domains: one solution (a difference of
    potentials), or the full list of nonnegative solutions (a
    bounded-polytope lattice scan around it, sorted).  The scan's rows are
    the regions' periodic rows, fixed per calculator: Fourier-Motzkin runs
    on them once, with parallel rows collapsed at every level, and each
    pair then only combines its integer constants (linalg.PolytopeScan).
    Regions with no periodic row are a sign check before any scan;
  * maslov_index, j_plus, domain_type: index, count of crossing-pair
    switches, and the (J+, chi, b, g) shape of the underlying curve, its
    boundary circles read off the two generators' permutations;
  * spinc_partition / index1_differentials: SpinC classes (generators
    grouped by residue) with Chern numbers, divisibility, relative
    gradings, and the candidate differentials (positive index-1 domains
    between grading-adjacent generators), built one class at a time:
    the only enumeration of them, which the Floer engine and plots read.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .diagram import Generator, cycle_count
from .linalg import IntSolver, PolytopeScan, UnboundedPolytopeError, cone_is_trivial
from .nicefy import is_nice

# perfbench's tracer wraps lattice_points in every module that imports it,
# and its tests read it here; nothing in this module calls it
from .linalg import lattice_points  # noqa: F401


class DomainError(Exception):
    """A domain failed an exact structural identity."""


class AdmissibilityError(DomainError):
    """A positive-domain scan hit an unbounded polytope."""


@dataclass(frozen=True)
class Domain:
    """Integer chain of unpointed regions from generator src to dst.

    coeffs has one entry per unpointed region; pointed regions are pinned
    to zero and not stored.
    """

    coeffs: tuple
    src: int
    dst: int


@dataclass(frozen=True)
class FullDomain:
    """Integer chain over all regions, pointed ones allowed."""

    coeffs: tuple
    src: int
    dst: int


@dataclass(frozen=True)
class PeriodicDomainGroup:
    """Basis of the lattice of hat domains with vanishing boundary."""

    basis: tuple  # Domains with src == dst
    rank: int


@dataclass(frozen=True)
class SpinCTable:
    """Partition of generators by SpinC class, with grading data.

    classes: tuple of tuples of generator indices (each ascending).
    class_of: generator index -> class index.
    chern: per generator, one integer per periodic basis element.
    div: per class, nonnegative grading indeterminacy (0 = ZZ-graded).
    gradings: per class, dict generator index -> relative grading
      (reduced mod div when div > 0; the lowest-index member sits at 0).
    """

    classes: tuple
    class_of: tuple
    chern: tuple
    div: tuple
    gradings: tuple


class DomainCalculator:
    """All domain-level computations for one diagram, with cached solvers."""

    def __init__(self, diagram):
        self.dg = diagram
        self.num_regions = diagram.num_regions
        self.num_unpointed = diagram.num_unpointed
        self._pm4 = diagram.point_measures_4  # [region][point]
        self._em2 = diagram.euler_measures_2
        self._full = IntSolver(diagram.boundary_mat, ncols=self.num_regions)
        kb = IntSolver(
            diagram.boundary_mat, ncols=self.num_unpointed
        ).kernel_basis()
        self._periodic = PeriodicDomainGroup(
            basis=tuple(Domain(tuple(v), 0, 0) for v in kb), rank=len(kb)
        )
        # per unpointed region, its coefficient in each periodic basis element
        self._basis_rows = [
            tuple(v[r] for v in kb) for r in range(self.num_unpointed)
        ]
        self._full_kernel = self._full.kernel_basis()
        bm = diagram.boundary_mat
        self._region_cols = [  # nonzero (point, entry) pairs of each column
            [(p, row[r]) for p, row in enumerate(bm) if row[r]]
            for r in range(self.num_regions)
        ]
        self._gens = diagram.generators()
        self._potentials = None
        self._scan = None  # PolytopeScan of the periodic rows, built lazily
        self._admissible = None
        self._spinc = None
        self._index1 = {}  # class index -> its index-1 table

    # -- basic plumbing ----------------------------------------------------

    def _gen(self, x):
        if isinstance(x, Generator):
            return x
        return self._gens[x]

    def _indicator_diff(self, src, dst):
        # right-hand side of the beta-boundary system: indicator(src) - indicator(dst)
        rhs = [0] * self.dg.num_points
        for p in src.points:
            rhs[p] += 1
        for p in dst.points:
            rhs[p] -= 1
        return rhs

    def _full_coeffs(self, dom):
        c = dom.coeffs
        if len(c) == self.num_regions:
            return c
        return c + (0,) * (self.num_regions - len(c))

    def _check_boundary(self, dom):
        rhs = self._indicator_diff(self._gen(dom.src), self._gen(dom.dst))
        got = [0] * self.dg.num_points
        for cr, col in zip(dom.coeffs, self._region_cols):
            if cr:
                for p, e in col:
                    got[p] += cr * e
        if got != rhs:
            p = next(p for p, (g, w) in enumerate(zip(got, rhs)) if g != w)
            raise DomainError(
                "boundary mismatch at point %d: %d != %d" % (p, got[p], rhs[p])
            )
        return dom

    def _pm4_sum(self, coeffs, points):
        pm4 = self._pm4
        tot = 0
        for r, cr in enumerate(coeffs):
            if cr:
                row = pm4[r]
                for p in points:
                    tot += cr * row[p]
        return tot

    def _em2_total(self, coeffs):
        return sum(cr * e for cr, e in zip(coeffs, self._em2) if cr)

    # -- periodic domains and admissibility --------------------------------

    def periodic_domain_basis(self):
        return self._periodic

    def check_weak_admissibility(self):
        """True iff no nonzero combination of periodic domains is >= 0."""
        if self._admissible is None:
            self._admissible = cone_is_trivial(
                self._basis_rows, self._periodic.rank)
        return self._admissible

    # -- connecting and positive domains -----------------------------------

    def _generator_potentials(self):
        """Per generator g: (full residue, pointed residue, chain Q_g).

        Reducing -indicator(g) modulo the full column lattice gives a
        residue r_g and a chain P_g with boundary -indicator(g) - r_g, so a
        full domain x -> y exists iff r_x == r_y, and P_y - P_x is one.
        Q_g is P_g minus the full-periodic combination that brings its
        pointed coefficients down to their canonical residue modulo the
        pointed rows of the full kernel; a hat domain exists iff both
        residues agree, and Q_y - Q_x is then one (pointed part zero).
        """
        if self._potentials is None:
            nu, npt = self.num_unpointed, self.dg.num_pointed
            kern = self._full_kernel
            pointed = IntSolver(
                [[k[nu + p] for k in kern] for p in range(npt)], ncols=len(kern)
            )
            pots = []
            for g in self._gens:
                rhs = [0] * self.dg.num_points
                for p in g.points:
                    rhs[p] -= 1
                y, r = self._full.reduce(rhs)
                chain = self._full.apply_u(y)
                z, s = pointed.reduce(chain[nu:])
                for k, w in zip(kern, pointed.apply_u(z)):
                    if w:
                        chain = [c - w * v for c, v in zip(chain, k)]
                pots.append((tuple(r), tuple(s), chain))
            self._potentials = pots
        return self._potentials

    def connecting_domain(self, x, y):
        """Some hat domain from x to y, or None when none exists."""
        xg, yg = self._gen(x), self._gen(y)
        pots = self._generator_potentials()
        rx, sx, qx = pots[xg.index]
        ry, sy, qy = pots[yg.index]
        if rx != ry or sx != sy:
            return None
        coeffs = tuple(b - a for a, b in zip(qx[: self.num_unpointed], qy))
        return self._check_boundary(Domain(coeffs, xg.index, yg.index))

    def full_connecting_domain(self, x, y):
        """Some chain over all regions from x to y, or None."""
        xg, yg = self._gen(x), self._gen(y)
        pots = self._generator_potentials()
        rx, _, qx = pots[xg.index]
        ry, _, qy = pots[yg.index]
        if rx != ry:
            return None
        coeffs = tuple(b - a for a, b in zip(qx, qy))
        return self._check_boundary(FullDomain(coeffs, xg.index, yg.index))

    def find_pos_domains(self, x, y):
        """Every nonnegative hat domain from x to y, sorted by coefficients.

        Scans the lattice points of {t : base + t . periodic >= 0}; raises
        AdmissibilityError when that polytope is unbounded, which is exactly
        a weak-admissibility failure.  The periodic rows are the same for
        every pair, so their Fourier-Motzkin projection is compiled once per
        calculator (linalg.PolytopeScan); a pair only combines the integer
        constants of base and runs an integer scan.
        """
        xg, yg = self._gen(x), self._gen(y)
        d0 = self.connecting_domain(xg, yg)
        if d0 is None:
            return []
        base = d0.coeffs
        if self._scan is None:
            self._scan = PolytopeScan(self._basis_rows, self._periodic.rank)
        try:
            ts = self._scan.points(base)
        except UnboundedPolytopeError as err:
            raise AdmissibilityError(
                "positive domains %s -> %s form an unbounded set; "
                "the diagram is not weakly admissible" % (xg, yg)
            ) from err
        basis = [d.coeffs for d in self._periodic.basis]
        out = []
        for t in ts:
            coeffs = base
            for tj, bj in zip(t, basis):
                if tj:
                    coeffs = tuple(c + tj * v for c, v in zip(coeffs, bj))
            if any(v < 0 for v in coeffs):
                raise DomainError(
                    "lattice scan left the nonnegative cone: %s -> %s" % (xg, yg)
                )
            out.append(self._check_boundary(Domain(coeffs, xg.index, yg.index)))
        out.sort(key=lambda d: d.coeffs)
        return out

    # -- Maslov index and friends -------------------------------------------

    def maslov_index(self, dom):
        """(n_x + n_y + 2e)(D), which lands in ZZ for honest domains."""
        xg, yg = self._gen(dom.src), self._gen(dom.dst)
        c = self._full_coeffs(dom)
        tot = (
            self._pm4_sum(c, xg.points)
            + self._pm4_sum(c, yg.points)
            + 2 * self._em2_total(c)
        )
        if tot % 4:
            raise DomainError("Maslov numerator %d not divisible by 4" % tot)
        return tot // 4

    def j_plus(self, dom):
        """maslov - 2e + (cycles of src) - (cycles of dst)."""
        xg, yg = self._gen(dom.src), self._gen(dom.dst)
        return (
            self.maslov_index(dom)
            - self._em2_total(self._full_coeffs(dom))
            + xg.cycles()
            - yg.cycles()
        )

    def maslov_as_periodic(self, coeffs, g):
        """Index of a periodic chain read with g as both endpoints."""
        gg = self._gen(g)
        tot = 2 * self._pm4_sum(coeffs, gg.points) + 2 * self._em2_total(coeffs)
        if tot % 4:
            raise DomainError("periodic index numerator %d not /4" % tot)
        return tot // 4

    # -- boundary curve shape (domain_type) ---------------------------------

    def domain_type(self, dom):
        """(J+, chi, b, g) of the curve a nonnegative domain supports.

        In the cylindrical picture (Lipshitz, Geom. Topol. 10, 2006) the
        curve's boundary runs once along every alpha and every beta curve:
        along alpha_i to the target's point, onto the beta curve through
        it, along that to the source's point, and onto the alpha curve
        through that.  Its circles are thus the cycles of pi_x^-1 pi_y.
        chi = (curves) - n_x - n_y + e and b both drop the s untouched
        stationary points, which are trivial strips; g reads the closed-up
        genus (2 - chi - b)/2 of a connected curve.
        """
        c = self._full_coeffs(dom)
        if any(v < 0 for v in c):
            raise DomainError("domain_type needs a nonnegative domain")
        xg, yg = self._gen(dom.src), self._gen(dom.dst)
        jp = self.j_plus(dom)
        if not any(c):
            return (jp, 0, 0, 0)

        stationary = set(xg.points) & set(yg.points)
        s = sum(
            1
            for p in stationary
            if all(self._pm4[r][p] == 0 for r in range(self.num_regions) if c[r])
        )
        num = (
            4 * (self.dg.num_curves - s)
            + 2 * self._em2_total(c)
            - self._pm4_sum(c, xg.points)
            - self._pm4_sum(c, yg.points)
        )
        if num % 4:
            raise DomainError("Euler characteristic %d/4 not integral" % num)
        chi = num // 4
        alpha_at = {j: i for i, j in enumerate(xg.permutation)}
        b = cycle_count([alpha_at[j] for j in yg.permutation]) - s
        if (2 - chi - b) % 2:
            raise DomainError("chi %d and %d circles disagree in parity" % (chi, b))
        return (jp, chi, b, (2 - chi - b) // 2)

    # -- SpinC classes, gradings, candidate differentials --------------------

    def spinc_partition(self):
        """Partition generators by full-chain connectivity; grade each class."""
        if self._spinc is not None:
            return self._spinc
        gens = self._gens
        pots = self._generator_potentials()
        class_members = []
        anchors = []
        class_of = [None] * len(gens)
        class_by_residue = {}
        conn = {}  # generator index -> FullDomain from its class anchor
        for g in gens:
            ci = class_by_residue.setdefault(pots[g.index][0], len(anchors))
            class_of[g.index] = ci
            if ci == len(anchors):
                anchors.append(g)
                class_members.append([g.index])
                conn[g.index] = FullDomain(
                    (0,) * self.num_regions, g.index, g.index
                )
            else:
                class_members[ci].append(g.index)
                conn[g.index] = self.full_connecting_domain(anchors[ci], g)

        basis = [d.coeffs for d in self._periodic.basis]
        chern = tuple(
            tuple(self.maslov_as_periodic(bc, g) for bc in basis) for g in gens
        )
        for members in class_members:
            first = chern[members[0]]
            if any(chern[i] != first for i in members):
                raise DomainError("Chern split a class")

        npt = self.dg.num_pointed
        divs = []
        gradings = []
        for ci, members in enumerate(class_members):
            anchor = anchors[ci]
            d = 0
            for q in self._full_kernel:
                quantity = self.maslov_as_periodic(q, anchor) - 2 * sum(
                    q[-npt:]
                )
                d = gcd(d, quantity)
            divs.append(d)
            gr = {}
            for i in members:
                dom = conn[i]
                mu = self.maslov_index(dom)
                nz = sum(dom.coeffs[-npt:])
                val = -(mu - 2 * nz)  # gr(anchor) - gr(i) = mu - 2 nz
                gr[i] = val % d if d else val
            gradings.append(gr)

        self._spinc = SpinCTable(
            classes=tuple(tuple(m) for m in class_members),
            class_of=tuple(class_of),
            chern=chern,
            div=tuple(divs),
            gradings=tuple(gradings),
        )
        return self._spinc

    def index1_differentials(self, class_index=None):
        """(src, dst) -> positive index-1 domains, for grading-adjacent pairs
        of one class, cached; class_index None gives the union of all.

        On a nice diagram each such domain is an empty bigon (one point
        moves) or rectangle (two move) (Sarkar and Wang, Ann. of Math.
        171, 2010), so pairs that differ in more than two points are not
        scanned.
        """
        table = self.spinc_partition()
        if class_index is None:
            return {p: doms for k in range(len(table.classes))
                    for p, doms in self.index1_differentials(k).items()}
        if class_index in self._index1:
            return self._index1[class_index]
        members = table.classes[class_index]
        d = table.div[class_index]
        gr = table.gradings[class_index]
        at_level = {}
        for i in members:
            at_level.setdefault(gr[i], []).append(i)
        points = ({i: frozenset(self._gens[i].points) for i in members}
                  if is_nice(self.dg) else None)
        out = {}
        for i in members:
            below = gr[i] - 1
            for j in at_level.get(below % d if d else below, ()):
                if i == j or (points is not None
                              and len(points[i] ^ points[j]) > 4):
                    continue
                doms = [
                    dom
                    for dom in self.find_pos_domains(i, j)
                    if self.maslov_index(dom) == 1
                ]
                if doms:
                    out[(i, j)] = doms
        self._index1[class_index] = out
        return out
