"""Exact linear algebra kernels.

Three independent toolboxes, all exact (no floating point anywhere):

  * integer matrices by sparse columns: one solution of M x = b over ZZ,
    and a basis of the full integer kernel lattice, via unimodular column
    reduction (column-style Hermite sweep);
  * GF(2) maps with bit-packed vectors (bit i of an int = coordinate i):
    apply/solve/kernel, echelon subspaces, quotient spaces;
  * integer points of rational polyhedra {t : A t + c >= 0} by
    Fourier-Motzkin elimination and interval DFS: lattice_points for one
    system, PolytopeScan for one A and many c (the projection compiled
    once into a generated function, each c one call returning c + A t).
"""

from __future__ import annotations

import math
from math import gcd


# ---------------------------------------------------------------------------
# integer matrices (sparse columns: each the nonzero (row, value) pairs)


def _sub_multiple(col, q, other):
    """col -= q * other, in place, keeping only nonzero entries."""
    for i, v in other.items():
        col[i] = col.get(i, 0) - q * v
        if not col[i]:
            del col[i]


def _column_echelon(cols):
    """Column echelon form by unimodular column operations.

    Returns (hcols, ucols, pivots) with H = M U: hcols[j] / ucols[j] are the
    columns of H / U as dicts row -> nonzero entry, and pivots is a list of
    (row, col) pairs with strictly increasing rows and cols = 0, 1, ...
    Pivot entries are positive, pivot columns vanish above their pivot row,
    and every column right of the last pivot is identically zero.  Only
    rows that occur in some column of M are visited: a column operation
    never puts an entry in a row where no column has one.
    """
    hcols = [dict(c) for c in cols]
    ncols = len(hcols)
    ucols = [{j: 1} for j in range(ncols)]
    pivots = []
    nfree = 0  # columns < nfree are frozen pivot columns
    for row in sorted({i for c in hcols for i in c}):
        if nfree == ncols:
            break
        while True:
            live = [j for j in range(nfree, ncols) if row in hcols[j]]
            if not live:
                break
            if len(live) == 1:
                j = live[0]
                hcols[nfree], hcols[j] = hcols[j], hcols[nfree]
                ucols[nfree], ucols[j] = ucols[j], ucols[nfree]
                if hcols[nfree][row] < 0:
                    hcols[nfree] = {i: -v for i, v in hcols[nfree].items()}
                    ucols[nfree] = {i: -v for i, v in ucols[nfree].items()}
                pivots.append((row, nfree))
                nfree += 1
                break
            jmin = min(live, key=lambda j: abs(hcols[j][row]))
            p = hcols[jmin][row]
            for j in live:
                q = hcols[j][row] // p
                if j != jmin and q:
                    _sub_multiple(hcols[j], q, hcols[jmin])
                    _sub_multiple(ucols[j], q, ucols[jmin])
    return hcols, ucols, pivots


class IntSolver:
    """Prepared solver for M x = b over ZZ, M given by its columns (each
    its nonzero (row, value) pairs): echelonize once, solve many b."""

    def __init__(self, cols):
        self.hcols, self.ucols, self.pivots = _column_echelon(cols)
        self.ncols = len(self.ucols)
        # per pivot: its row and entry, and its columns of H and U
        self._piv = [(row, self.hcols[c][row], tuple(self.hcols[c].items()),
                      tuple(self.ucols[c].items())) for row, c in self.pivots]

    def reduce(self, b):
        """(x, r) with b = M x + r and r the canonical residue of b modulo
        the column lattice: b and b + M z always get the same r.

        Floor division at each pivot leaves r[row] in [0, pivot); pivot
        columns vanish above their pivot row, so later pivots never touch
        an earlier pivot row and r is canonical.  Each quotient q takes q
        times a column of H = M U off r and adds q times the same column
        of U to x, so the chain is built in the same pass.
        """
        x = [0] * self.ncols
        r = list(b)
        for row, p, hc, uc in self._piv:
            q = r[row] // p
            if q:
                for i, v in hc:
                    r[i] -= q * v
                for i, v in uc:
                    x[i] += q * v
        return x, r

    def solve(self, b):
        """One integer solution, or None."""
        x, r = self.reduce(b)
        return None if any(r) else x

    def kernel_basis(self):
        """Basis of the lattice {v in ZZ^n : M v = 0}, sorted, with positive
        leading entries.  The vectors are columns of the unimodular U, so
        they span the whole kernel lattice, not a finite-index sublattice.
        """
        out = []
        for u in self.ucols[len(self.pivots):]:
            v = [u.get(i, 0) for i in range(self.ncols)]
            lead = next((x for x in v if x != 0), 0)
            if lead < 0:
                v = [-x for x in v]
            out.append(v)
        out.sort()
        return out


# ---------------------------------------------------------------------------
# GF(2)


class F2Map:
    """GF(2)-linear map stored by columns; vectors are bit-packed ints.

    apply(x) xors together cols[j] over the set bits j of x, so the domain
    dimension is len(cols) and the codomain dimension is nrows.
    """

    def __init__(self, cols, nrows):
        self.cols = list(cols)
        self.nrows = nrows
        self._basis = None  # pivot bit -> (reduced column, column combo tag)
        self._kernel = None

    @property
    def ncols(self):
        return len(self.cols)

    def apply(self, x):
        out = 0
        while x:
            low = x & -x
            out ^= self.cols[low.bit_length() - 1]
            x ^= low
        return out

    def _reduce(self):
        if self._basis is not None:
            return
        basis = {}
        kernel = []
        for j, col in enumerate(self.cols):
            c, t = col, 1 << j
            while c:
                p = (c & -c).bit_length() - 1
                if p not in basis:
                    basis[p] = (c, t)
                    break
                bc, bt = basis[p]
                c ^= bc
                t ^= bt
            else:
                kernel.append(t)
        self._basis = basis
        self._kernel = kernel

    def rank(self):
        self._reduce()
        return len(self._basis)

    def kernel_basis(self):
        self._reduce()
        return list(self._kernel)

    def image_basis(self):
        self._reduce()
        return [c for c, _ in self._basis.values()]

    def solve(self, b):
        """Some x with apply(x) == b, or None."""
        self._reduce()
        r, t = b, 0
        while r:
            p = (r & -r).bit_length() - 1
            hit = self._basis.get(p)
            if hit is None:
                return None
            r ^= hit[0]
            t ^= hit[1]
        return t


class F2Subspace:
    """Subspace of GF(2)^n in reduced echelon form (pivot = lowest set bit,
    and no basis vector has a bit at another vector's pivot)."""

    def __init__(self, vectors=()):
        self.basis = {}
        for v in vectors:
            self.add(v)

    def reduce(self, v):
        # sound in one pass: reduced basis vectors only touch non-pivot bits
        for p, w in self.basis.items():
            if (v >> p) & 1:
                v ^= w
        return v

    def add(self, v):
        v = self.reduce(v)
        if v:
            p = (v & -v).bit_length() - 1
            for q, w in self.basis.items():
                if (w >> p) & 1:
                    self.basis[q] = w ^ v
            self.basis[p] = v
        return v

    def contains(self, v):
        return self.reduce(v) == 0

    def dim(self):
        return len(self.basis)

    def vectors(self):
        return list(self.basis.values())

    def __eq__(self, other):
        return isinstance(other, F2Subspace) and self.basis == other.basis


class F2Quotient:
    """GF(2)^n modulo a subspace.

    Classes live on the free (non-pivot) coordinates of the subspace and are
    re-packed into dim() contiguous bits; project o lift = identity.
    """

    def __init__(self, n, sub):
        self.sub = sub
        self.free = [i for i in range(n) if i not in sub.basis]

    def dim(self):
        return len(self.free)

    def project(self, v):
        r = self.sub.reduce(v)
        out = 0
        for k, i in enumerate(self.free):
            if (r >> i) & 1:
                out |= 1 << k
        return out

    def lift(self, c):
        out = 0
        for k, i in enumerate(self.free):
            if (c >> k) & 1:
                out |= 1 << i
        return out


def affine_meets_subspace(offset, dirs, sub):
    """A point of the affine set offset + span(dirs) lying in sub, or None."""
    cols = list(dirs) + sub.vectors()
    s = F2Map(cols, nrows=0).solve(offset)
    if s is None:
        return None
    a = offset
    for j in range(len(dirs)):
        if (s >> j) & 1:
            a ^= dirs[j]
    return a


# ---------------------------------------------------------------------------
# lattice points of rational polyhedra


class UnboundedPolytopeError(Exception):
    """The feasible set is unbounded along some lattice direction."""


def _normalize_row(row):
    g = 0
    for v in row:
        g = gcd(g, v)
    if g > 1:
        row = tuple(v // g for v in row)
    return tuple(row)


def _eliminate_last(rows, nvars):
    """Fourier-Motzkin: drop variable t_{nvars-1} from rows (a..., c)."""
    out = set()
    pos, neg = [], []
    for row in rows:
        a = row[nvars - 1]
        if a == 0:
            out.add(_normalize_row(row[: nvars - 1] + row[nvars:]))
        elif a > 0:
            pos.append(row)
        else:
            neg.append(row)
    for rp in pos:
        p = rp[nvars - 1]
        for rn in neg:
            q = -rn[nvars - 1]
            comb = tuple(q * x + p * y for x, y in zip(rp, rn))
            out.add(_normalize_row(comb[: nvars - 1] + comb[nvars:]))
    return sorted(out)


def fm_chain(rows, nvars):
    """Projections S_nvars ... S_0 of the system; S_i involves t_0..t_{i-1}."""
    cur = sorted(set(_normalize_row(tuple(r)) for r in rows))
    chain = [None] * (nvars + 1)
    chain[nvars] = cur
    for i in range(nvars, 0, -1):
        cur = _eliminate_last(cur, i)
        chain[i - 1] = cur
    return chain


def lattice_points(rows, nvars):
    """All integer points of {t in RR^nvars : a . t + c >= 0 for each row
    (a..., c)}, in lexicographic order.

    Raises UnboundedPolytopeError when the feasible set is unbounded in some
    coordinate over a feasible prefix (exact, via the projection chain).
    With no variables every row is a constant and no projection runs.
    """
    if nvars == 0:
        return [] if any(row[0] < 0 for row in rows) else [()]
    chain = fm_chain(rows, nvars)
    if any(row[0] < 0 for row in chain[0]):
        return []
    out = []
    prefix = []

    def scan(level):
        # each row bounds t by num / a: from below by its ceiling when
        # a > 0, from above by its floor when a < 0
        lo = hi = None
        for row in chain[level + 1]:
            a = row[level]
            if a == 0:
                continue
            num = -(row[-1] + sum(row[j] * prefix[j] for j in range(level)))
            if a > 0:
                b = -(-num // a)
                if lo is None or b > lo:
                    lo = b
            else:
                b = num // a
                if hi is None or b < hi:
                    hi = b
        if lo is None or hi is None:
            raise UnboundedPolytopeError(
                "coordinate t_%d is unbounded over a feasible prefix" % level
            )
        for t in range(lo, hi + 1):
            prefix.append(t)
            if level + 1 == nvars:
                out.append(tuple(prefix))
            else:
                scan(level + 1)
            prefix.pop()

    scan(0)
    return out


def cone_is_trivial(ineq_rows, nvars):
    """True iff the cone {t : a . t >= 0 for every row a} is just the origin.

    A rational cone bigger than {0} has a nonzero rational ray, which the
    enumerator detects as an unbounded coordinate.
    """
    rows = [tuple(a) + (0,) for a in ineq_rows]
    try:
        pts = lattice_points(rows, nvars)
    except UnboundedPolytopeError:
        return False
    return pts == [tuple([0] * nvars)]


def _collapse(cands):
    """Group candidate rows (a, form) by the primitive direction of a.

    Returns (groups, zero): each group is (L * direction, forms), its
    members' forms scaled to L, the lcm of their multiples of the
    direction; zero holds the forms of the rows with a = 0.  A form
    (m, i, n, j) reads m * c[i] + n * c[j] off the parent level's
    constants c.
    """
    by_dir = {}
    zero = []
    for a, form in cands:
        g = 0
        for v in a:
            g = gcd(g, v)
        if g:
            by_dir.setdefault(tuple(v // g for v in a), []).append((g, form))
        else:
            zero.append(form)
    groups = []
    for d, members in by_dir.items():
        top = math.lcm(*(g for g, _ in members))
        forms = [
            (m * (top // g), i, n * (top // g), j)
            for g, (m, i, n, j) in members
        ]
        groups.append((tuple(top * v for v in d), forms))
    return groups, zero


class PolytopeScan:
    """The points c + sum_j t_j P_j >= 0 over integer t, for one basis of
    ncoeffs-tuples P_j and many constant vectors c.

    The basis's rows a_k = (P_0[k], P_1[k], ...) fix the polytope
    {t : a_k . t + c_k >= 0}.  Fourier-Motzkin runs once, on the a_k
    alone: each derived row records the nonnegative combination of its two
    parents, and at every level parallel rows collapse into one group,
    scaled to the lcm of their multiples, whose constant is the least
    (tightest) of its members'.  Collapsing parallel half-spaces keeps
    every level's real set, so each projection is fm_chain's: the integer
    scan sees the same range over every prefix, visits the same t and
    raises UnboundedPolytopeError exactly when lattice_points does.
    Constants are never rounded between levels, which could turn a
    real-feasible but integer-empty system from a raise into [].

    The projection is compiled once into a straight-line kernel
    (_scan_source): the constant-row checks, each level's group minima,
    one nested loop per coordinate with its bounds written out, and each
    point c + A t term by term.  lattice_points, its points lifted to
    c + A t, is the reference the kernel is tested against.
    """

    def __init__(self, basis, ncoeffs):
        nvars = len(basis)
        rows = [tuple(b[k] for b in basis) for k in range(ncoeffs)]
        # steps[s]: (forms of each group, forms of rows with a = 0) from the
        # constants of level nvars - s + 1 (the input at s = 0) to those of
        # level nvars - s, whose rows involve t_0 .. t_{nvars-s-1}
        steps = []
        # bounds[l]: the rows of level l + 1 that bound t_l, as lists of
        # (|a_l|, coefficients of t_0 .. t_{l-1}, group): lower, upper
        bounds = [None] * nvars
        cands = [(a, (1, k, 0, 0)) for k, a in enumerate(rows)]
        for level in range(nvars, -1, -1):
            groups, zero = _collapse(cands)
            steps.append(([forms for _, forms in groups], zero))
            if not level:
                break
            lows, highs, cands = [], [], []
            for g, (a, _) in enumerate(groups):
                if a[-1] > 0:
                    lows.append((a[-1], a[:-1], g))
                elif a[-1] < 0:
                    highs.append((-a[-1], a[:-1], g))
                else:
                    cands.append((a[:-1], (1, g, 0, 0)))
            for p, ap, gp in lows:
                for q, an, gn in highs:
                    comb = tuple(q * x + p * y for x, y in zip(ap, an))
                    cands.append((comb, (q, gp, p, gn)))
            bounds[level - 1] = (lows, highs)
        space = {"UnboundedPolytopeError": UnboundedPolytopeError}
        exec(_scan_source(steps, bounds, rows), space)
        self._kernel = space["scan"]

    def points(self, consts):
        """Each point c + A t, a tuple, for these constants (one per row), in
        lexicographic order of t; [] as soon as a constant row is negative."""
        return self._kernel(consts)


# CPython compiles at most 20 nested loops into one function
_LOOPS_PER_FUNCTION = 16


def _scan_source(steps, bounds, rows):
    """Source of scan(c), the kernel PolytopeScan compiles.

    Only ints formatted with %d enter the text.  c[k] is the k-th input
    constant and c<l>_<g> the constant of group g at level l, or the one
    constant it copies.  After every 16th coordinate the loops go on in a
    nested function part<l>.  The innermost loop appends c + A t.
    """
    nvars = len(bounds)
    names = {}  # (level, group) -> source of its constant

    def const(level, i):
        return "c[%d]" % i if level > nvars else names[level, i]

    def term(m, name):
        return name if m == 1 else "%d*%s" % (m, name)

    def form(level, m, i, n, j):
        return term(m, const(level, i)) + (
            " + " + term(n, const(level, j)) if n else "")

    def affine(src, a):  # src + a . t
        return src + "".join(" %s %s" % ("+-"[x < 0], term(abs(x), "t%d" % j))
                             for j, x in enumerate(a) if x)

    def quotient(level, g, a, p):  # (c_g + a . t) // p
        src = affine(const(level, g), a)
        return src if p == 1 else "(%s) // %d" % (src, p)

    def bound(fn, terms):
        return terms[0] if len(terms) == 1 else "%s(%s)" % (fn, ", ".join(terms))

    head = ["def scan(c):"]
    for s, (forms, zero) in enumerate(steps):
        level = nvars - s
        if zero:
            head.append("    if %s: return []" % " or ".join(
                "%s < 0" % form(level + 1, *f) for f in zero))
        for g, fs in enumerate(forms):
            src = bound("min", [form(level + 1, *f) for f in fs])
            if len(fs) > 1 or fs[0][0] != 1 or fs[0][2]:
                head.append("    c%d_%d = %s" % (level, g, src))
                src = "c%d_%d" % (level, g)
            names[level, g] = src
    loops = lines = []
    parts = []
    indent = 1
    for l, (lows, highs) in enumerate(bounds):
        if l and l % _LOOPS_PER_FUNCTION == 0:
            args = ", ".join("t%d" % j for j in range(l))
            lines.append("    " * indent + "part%d(%s)" % (l, args))
            lines = ["    def part%d(%s):" % (l, args)]
            parts.append(lines)
            indent = 2
        pad = "    " * indent
        if not lows or not highs:
            lines.append(pad + "raise UnboundedPolytopeError('coordinate t_%d "
                         "is unbounded over a feasible prefix')" % l)
            break
        lo = bound("max", ["-(%s)" % quotient(l + 1, g, a, p) for p, a, g in lows])
        hi = bound("min", [quotient(l + 1, g, a, q) for q, a, g in highs])
        lines.append(pad + "for t%d in range(%s, %s + 1):" % (l, lo, hi))
        indent += 1
    else:  # with no coordinate c + A t is c, and tuple(c) copies no tuple
        point = "".join("%s, " % affine("c[%d]" % k, a)
                        for k, a in enumerate(rows))
        lines.append("    " * indent + "out.append(%s)"
                     % ("(%s)" % point if nvars else "tuple(c)"))
    return "\n".join(head + [x for part in parts for x in part]
                     + ["    out = []"] + loops + ["    return out", ""])
