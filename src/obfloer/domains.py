"""Domains between Heegaard Floer generators.

A domain is an integer chain of regions running from one generator to
another: if c is the coefficient vector, its beta-arc boundary (read off
the diagram's sparse boundary_columns) is indicator(from) - indicator(to)
as a 0-chain of points, and its alpha-arc boundary is the negative.  This
orientation is the one under which the contact generator supports no
outgoing positive domain and the two-corner pinning at contact points
caps positive-domain counts by 2^(moving contact points picked up by the
target).
Chains of unpointed regions ("hat" domains) are the ones the hat theory
counts; chains over all regions ("full" domains) decide when two
generators sit in the same SpinC class and carry the relative grading.
Both are a Domain, told apart by the length of their coefficients, and
every method names generators by their index.

The calculator's one integer system, echelonized once, holds the boundary
rows (the diagram's sparse boundary_columns, as they are), then one row
per pointed region reading its coefficient.
One reduction per generator (IntSolver.reduce, which builds the chain as
it reduces) gives a canonical residue and a potential chain.  The
generator keeps the class index of the residue's boundary part (its SpinC
key), the residue's pointed part (minus the chain's) and the chain's
unpointed part, its hat chain.  Two generators are joined by a full (hat)
domain iff their class indices (and pointed residues) agree; the
difference of their hat chains, then of their pointed residues reversed,
is then one.  No solve and no boundary check runs per pair: each
potential is checked once, and a difference of two checked potentials
has the right boundary by linearity.  A second echelon, of
the boundary rows on the unpointed regions alone, names the periodic
basis: the Chern numbers homology prints are read against it, and the
positive-domain scan is compiled from it.

The Maslov index mu(D) = n_x(D) + n_y(D) + e(D) (Lipshitz, Geom. Topol.
10, 2006) is linear in D, so the same pass gives each generator g one
index vector u_g: its corner weights (the diagram's point_corners at its
points: 4 times the point measures) plus euler_measures_2.  Then
4 mu(D: x -> y) = D . u_x + D . u_y, a Chern number is P . u_g / 2, and
an index is one pass over the regions; every numerator is checked to be
divisible by 4.

The calculator exposes:

  * periodic_domain_basis: lattice basis of hat domains with empty boundary,
    as coefficient tuples (its length is the rank);
  * check_weak_admissibility: no nonzero nonnegative periodic combination:
    the positive-domain scan from the zero domain returns it alone;
  * connecting_domain / find_pos_domains: one solution (a difference of
    hat chains), or the full list of nonnegative solutions (a
    bounded-polytope lattice scan around it, sorted).  The scan is built
    from the periodic basis, fixed per calculator: Fourier-Motzkin runs
    on its rows once, with parallel rows collapsed at every level, into a
    compiled straight-line kernel that each pair calls with its
    connecting domain and that returns the domains themselves
    (linalg.PolytopeScan).  Regions with no periodic row are a sign check
    before any scan; every domain found is checked.  No program path
    calls these two (the index-1 table runs the scan itself): they serve
    the tests' oracles and perfbench's tracer until ROADMAP item 4 moves
    them out;
  * maslov_index, j_plus, domain_type: index, count of crossing-pair
    switches, and the (J+, chi, b, g) shape of the underlying curve, its
    boundary circles read off the two generators' permutations; all
    read the two generators' index vectors;
  * spinc_partition / index1_differentials: SpinC classes (generators
    grouped by class index) with Chern numbers and divisibility per class,
    a relative grading (level) per generator, and the candidate
    differentials (positive index-1 domains between grading-adjacent
    generators, one DiffEntry per pair), built one class at a time:
    the only enumeration of them, which the Floer engine, the CLI and
    the plots read.  One pass per pair scans straight from the two hat
    chains and reads each domain's 4 mu and 2e once, for the index-1
    filter, its J+ (for the DiffEntry's split) and, on a nice diagram,
    the Sarkar-Wang shape check its near-pair rule rests on.  The
    SpinCTable owns the level layout, built once: each class's levels,
    each generator's column (slot) in its level, and the cyclic step.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from operator import mul, ne, sub
from typing import NamedTuple

from .diagram import cycle_count
from .linalg import IntSolver, PolytopeScan, UnboundedPolytopeError

# perfbench's tracer wraps lattice_points in every module that imports it,
# and its tests read it here; nothing in this module calls it
from .linalg import lattice_points  # noqa: F401


class DomainError(Exception):
    """A domain failed an exact structural identity."""


class AdmissibilityError(DomainError):
    """A positive-domain scan hit an unbounded polytope."""


class Domain(NamedTuple):
    """Integer chain of regions from generator index src to dst.

    coeffs has one entry per unpointed region for a hat domain (pointed
    regions are pinned to zero and not stored), or one per region for a
    full domain, pointed ones allowed.
    """

    coeffs: tuple
    src: int
    dst: int


class DiffEntry(NamedTuple):
    """All index-1 positive domains of the pair (src, dst) that keys it.

    count is the raw number of domains; j0/j2 split it by J+ value.  The
    differential coefficient is count mod 2.
    """

    domains: tuple
    j0: int
    j2: int

    @property
    def count(self):
        return len(self.domains)


class _Potential(NamedTuple):
    """A generator's SpinC class index, pointed residue, potential over the
    unpointed regions (its hat chain), index vector and permutation cycle
    count.  The potential's pointed part is minus the pointed residue, so
    it is not stored again."""

    spinc_class: int
    pointed: tuple
    hat: tuple
    index: list
    cycles: int


def _full_chain(px, py):
    """The chain over all regions from potential px to py: the hat
    difference, then the pointed part, minus the pointed residues'."""
    return [*map(sub, py.hat, px.hat), *map(sub, px.pointed, py.pointed)]


def _quarter(num):
    """mu from its numerator 4 mu, which lands in ZZ for honest domains."""
    if num % 4:
        raise DomainError("Maslov numerator %d not divisible by 4" % num)
    return num // 4


def _j_plus(mu, em2, px, py):
    """J+ = mu - 2e + (cycles of src) - (cycles of dst), for a domain of
    index mu and doubled Euler measure em2 between potentials px, py."""
    return mu - em2 + px.cycles - py.cycles


def _check_nice_shape(i, j, em2, jp):
    """An index-1 domain i -> j on a nice diagram is a bigon (2e = 1,
    J+ = 0) or a rectangle (2e = 0, J+ = 0 or 2), the theorem the near-pair
    rule rests on."""
    if em2 not in (0, 1):
        raise DomainError("index-1 domain on a nice diagram must be a bigon "
                          "or a rectangle")
    if jp not in (0, 2):
        raise DomainError("index-1 domain %d -> %d has J+ = %d, not 0 or 2"
                          % (i, j, jp))
    if em2 and jp:
        raise DomainError("bigon %d -> %d has J+ = %d; bigons always have "
                          "J+ = 0" % (i, j, jp))


def _level(g, div):
    """Grading g as a level of a class graded mod div (0: graded by ZZ)."""
    return g % div if div else g


class SpinCTable(NamedTuple):
    """Partition of generators by SpinC class, with gradings and levels.

    classes: tuple of tuples of generator indices (each ascending).
    class_of: per generator, its class index.
    chern: per class, one integer per periodic basis element.
    div: per class, nonnegative grading indeterminacy (0 = ZZ-graded).
    level: per generator, its relative grading in its class (reduced mod
      div when div > 0; the class's lowest-index member sits at 0).
    levels: per class, dict level -> its members ascending, top level
      first: all div levels when graded mod div, else the span of the
      members' levels, empty levels included.
    slot: per generator, its index in its level's members: its column.
    """

    classes: tuple
    class_of: tuple
    chern: tuple
    div: tuple
    level: tuple
    levels: tuple
    slot: tuple

    def step(self, k, g, n):
        """The level n steps above level g in class k (cyclic mod div)."""
        return _level(g + n, self.div[k])


class DomainCalculator:
    """All domain-level computations for one diagram, from one reduction
    per generator: its keys, its chain and its index vector."""

    def __init__(self, diagram):
        self.dg = diagram
        self.num_regions = diagram.num_regions
        self.num_unpointed = diagram.num_unpointed
        self._em2 = diagram.euler_measures_2
        npts, nu, nr = diagram.num_points, self.num_unpointed, self.num_regions
        cols = diagram.boundary_columns
        self._system = IntSolver(  # plus one row reading each pointed region
            cols[:nu] + tuple(col + ((npts + k, 1),)
                              for k, col in enumerate(cols[nu:])))
        # U's columns past the boundary pivots span the full periodic lattice
        nb = sum(row < npts for row, _ in self._system.pivots)
        self._full_kernel = [tuple(u.get(r, 0) for r in range(nr))
                             for u in self._system.ucols[nb:]]
        # its own echelon: this basis names the Chern numbers homology prints
        self._periodic = tuple(
            tuple(v) for v in IntSolver(cols[:nu]).kernel_basis())
        self._gens = diagram.generators()
        self._spinc = None
        self._index1 = {}  # class index -> its index-1 table

    # -- basic plumbing ----------------------------------------------------

    def _boundary(self, coeffs):
        """The beta-arc boundary of coeffs, a 0-chain of points."""
        got = [0] * self.dg.num_points
        for cr, col in zip(coeffs, self.dg.boundary_columns):
            if cr:
                for p, e in col:
                    got[p] += cr * e
        return got

    def _check_boundary(self, dom):
        rhs = [0] * self.dg.num_points  # indicator(src) - indicator(dst)
        for p in self._gens[dom.src].points:
            rhs[p] += 1
        for p in self._gens[dom.dst].points:
            rhs[p] -= 1
        got = self._boundary(dom.coeffs)
        if got != rhs:
            p = next(p for p, (g, w) in enumerate(zip(got, rhs)) if g != w)
            raise DomainError(
                "boundary mismatch at point %d: %d != %d" % (p, got[p], rhs[p])
            )
        return dom

    def _em2_total(self, coeffs):
        return sum(map(mul, coeffs, self._em2))

    # -- periodic domains and admissibility --------------------------------

    def periodic_domain_basis(self):
        """Coefficient tuples of a basis of the periodic hat domains."""
        return self._periodic

    @cached_property
    def _polytope(self):
        """PolytopeScan of the periodic basis, compiled on first use."""
        return PolytopeScan(self._periodic, self.num_unpointed)

    def check_weak_admissibility(self):
        """True iff no nonzero combination of periodic domains is >= 0: the
        compiled positive-domain scan (PolytopeScan) from the zero domain
        is bounded and returns the zero domain alone."""
        zero = (0,) * self.num_unpointed
        try:
            return self._polytope.points(zero) == [zero]
        except UnboundedPolytopeError:
            return False

    # -- connecting and positive domains -----------------------------------

    @cached_property
    def _potentials(self):
        """Per generator, its _Potential, from one reduction of the system.

        Reducing (-indicator(g), 0) gives a residue res_g and, in the same
        pass, a chain Q_g with boundary -indicator(g) - res_g[:num_points]
        and pointed part -res_g[num_points:].  A hat domain x -> y solves system . D =
        (indicator(x) - indicator(y), 0), so one exists iff res_x == res_y,
        and Q_y - Q_x is one.  The echelon picks each row's column
        operations from that row alone, top down, so res_g[:num_points] is
        the residue modulo the boundary rows alone, which decides full
        domains the same way; only this pass holds that key, and g keeps its
        class index (numbered in order of first appearance) and Q_g's
        unpointed part.  Each Q_g is checked once; a difference of two then
        has the right boundary by linearity.  The index vector u_g starts
        from euler_measures_2 and adds the corners at g's points.
        """
        npts, nu = self.dg.num_points, self.num_unpointed
        corners = self.dg.point_corners
        pointed_zero = [0] * self.dg.num_pointed
        class_at = {}  # SpinC key -> class index
        pots = []
        for g in self._gens:
            rhs = [0] * npts
            u = list(self._em2)
            for p in g.points:
                rhs[p] -= 1
                for r, v in corners[p]:
                    u[r] += v
            chain, res = self._system.reduce(rhs + pointed_zero)
            spinc, pointed = tuple(res[:npts]), tuple(res[npts:])
            if (self._boundary(chain) != list(map(sub, rhs, spinc))
                    or chain[nu:] != [-v for v in pointed]):
                raise DomainError(
                    "potential of generator %s fails its boundary identity"
                    % (g,))
            pots.append(_Potential(class_at.setdefault(spinc, len(class_at)),
                                   pointed, tuple(chain[:nu]), u, g.cycles()))
        return pots

    def connecting_domain(self, x, y):
        """Some hat domain from x to y, or None when none exists."""
        px, py = self._potentials[x], self._potentials[y]
        if px.spinc_class != py.spinc_class or px.pointed != py.pointed:
            return None
        return Domain(tuple(map(sub, py.hat, px.hat)), x, y)

    def full_connecting_domain(self, x, y):
        """Some chain over all regions from x to y, or None."""
        px, py = self._potentials[x], self._potentials[y]
        if px.spinc_class != py.spinc_class:
            return None
        return Domain(tuple(_full_chain(px, py)), x, y)

    def find_pos_domains(self, x, y):
        """Every nonnegative hat domain from x to y, sorted by coefficients.

        Scans the domains base + t . periodic >= 0 over integer t; raises
        AdmissibilityError when that set is unbounded, which is exactly a
        weak-admissibility failure.  The periodic basis is the same for
        every pair, so its Fourier-Motzkin projection is compiled once per
        calculator (linalg.PolytopeScan); a pair only passes base, and the
        scan returns the domains themselves.
        """
        d0 = self.connecting_domain(x, y)
        return [] if d0 is None else self._positive_domains(x, y, d0.coeffs)

    def _positive_domains(self, x, y, base):
        """find_pos_domains from the hat domain base of x to y: the scan's
        domains, sorted, each checked to lie in the cone and to have the
        boundary of a domain from x to y."""
        try:
            found = sorted(self._polytope.points(base))
        except UnboundedPolytopeError as err:
            raise AdmissibilityError(
                "positive domains %s -> %s form an unbounded set; "
                "the diagram is not weakly admissible"
                % (self._gens[x], self._gens[y])) from err
        out = []
        for coeffs in found:
            if coeffs and min(coeffs) < 0:
                raise DomainError("lattice scan left the nonnegative cone: "
                                  "%s -> %s" % (self._gens[x], self._gens[y]))
            out.append(self._check_boundary(Domain(coeffs, x, y)))
        return out

    # -- Maslov index and friends -------------------------------------------

    def maslov_index(self, dom):
        """(n_x + n_y + e)(D) = (D . u_x + D . u_y) / 4.

        A periodic domain read from g to g gives g's Chern number.
        """
        c = dom.coeffs
        pots = self._potentials
        return _quarter(sum(map(mul, c, pots[dom.src].index))
                        + sum(map(mul, c, pots[dom.dst].index)))

    def j_plus(self, dom):
        """maslov - 2e + (cycles of src) - (cycles of dst)."""
        return _j_plus(self.maslov_index(dom), self._em2_total(dom.coeffs),
                       self._potentials[dom.src], self._potentials[dom.dst])

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
        c = dom.coeffs
        if any(v < 0 for v in c):
            raise DomainError("domain_type needs a nonnegative domain")
        xg, yg = self._gens[dom.src], self._gens[dom.dst]
        jp = self.j_plus(dom)
        if not any(c):
            return (jp, 0, 0, 0)

        # stationary points with no corner in a region of the domain
        s = sum(
            1
            for p in set(xg.points) & set(yg.points)
            if not any(r < len(c) and c[r] for r, _ in self.dg.point_corners[p])
        )
        # maslov_index is n_x + n_y + e, and em2 counts 2e
        chi = (self.dg.num_curves - s + self._em2_total(c)
               - self.maslov_index(dom))
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
        pots = self._potentials
        by_class = {}  # class index -> members; indices appear in order
        for i, pot in enumerate(pots):
            by_class.setdefault(pot.spinc_class, []).append(i)
        classes = tuple(tuple(m) for m in by_class.values())

        npt = self.dg.num_pointed
        cherns, divs, levels = [], [], []
        level, slot = ([None] * len(pots) for _ in range(2))
        for k, members in enumerate(classes):
            # each periodic domain read from each member to itself
            chern = {tuple(_quarter(2 * sum(map(mul, bc, pots[i].index)))
                           for bc in self._periodic) for i in members}
            if len(chern) > 1:
                raise DomainError("Chern split a class")
            cherns.append(chern.pop())
            pa = pots[members[0]]
            d = 0
            for q in self._full_kernel:
                d = gcd(d, _quarter(2 * sum(map(mul, q, pa.index)))
                        - 2 * sum(q[-npt:]))
            divs.append(d)
            for i in members:
                dom = _full_chain(pa, pots[i])  # anchor -> i
                mu = _quarter(sum(map(mul, dom, pa.index))
                              + sum(map(mul, dom, pots[i].index)))
                # gr(anchor) - gr(i)
                level[i] = _level(2 * sum(dom[-npt:]) - mu, d)
            gr = [level[i] for i in members]
            hi, lo = (d, 0) if d else (max(gr) + 1, min(gr))
            at = {g: [] for g in reversed(range(lo, hi))}
            for i in members:
                slot[i] = len(at[level[i]])
                at[level[i]].append(i)
            levels.append({g: tuple(m) for g, m in at.items()})

        self._spinc = SpinCTable(
            classes=classes,
            class_of=tuple(p.spinc_class for p in pots),
            chern=tuple(cherns),
            div=tuple(divs),
            level=tuple(level),
            levels=tuple(levels),
            slot=tuple(slot),
        )
        return self._spinc

    def index1_differentials(self, class_index=None):
        """(src, dst) -> DiffEntry of the positive index-1 domains, for
        grading-adjacent pairs of one class, cached; class_index None gives
        the union of all.

        Each pair is scanned once, from the difference of its hat chains,
        and each domain found has its 4 mu and 2e read once, for the
        index-1 filter, J+ and the shape check.  On a nice diagram each
        index-1 domain is an empty bigon (one point moves) or rectangle
        (two move) (Sarkar and Wang, Ann. of Math. 171, 2010), so pairs
        that differ in more than two points are not scanned, and every
        domain found is checked to have that shape.
        """
        table = self.spinc_partition()
        if class_index is None:
            return {p: e for k in range(len(table.classes))
                    for p, e in self.index1_differentials(k).items()}
        if class_index in self._index1:
            return self._index1[class_index]
        members = table.classes[class_index]
        level = table.level
        at_level = table.levels[class_index]
        nice = self.dg.nice
        gens = self._gens
        pots = self._potentials
        out = {}
        for i in members:
            px = pots[i]
            for j in at_level.get(table.step(class_index, level[i], -1), ()):
                py = pots[j]
                # point k lies on alpha curve k: count the points that move
                if (i == j or px.pointed != py.pointed
                        or (nice and sum(map(ne, gens[i].points,
                                             gens[j].points)) > 2)):
                    continue
                doms, jps = [], []
                base = tuple(map(sub, py.hat, px.hat))
                for dom in self._positive_domains(i, j, base):
                    c = dom.coeffs
                    if _quarter(sum(map(mul, c, px.index))
                                + sum(map(mul, c, py.index))) != 1:
                        continue
                    em2 = self._em2_total(c)
                    jp = _j_plus(1, em2, px, py)
                    if nice:
                        _check_nice_shape(i, j, em2, jp)
                    doms.append(dom)
                    jps.append(jp)
                if doms:
                    out[(i, j)] = DiffEntry(tuple(doms), jps.count(0),
                                            jps.count(2))
        self._index1[class_index] = out
        return out
