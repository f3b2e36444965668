"""Hat differential, homology, contact class, and spectral order.

Everything here runs on a nice diagram: each positive index-1 domain is
then an empty embedded bigon or rectangle carrying exactly one curve, so
the GF(2) differential is a finite count.  The count splits by J+ into
d0 (J+ = 0) and d1 (J+ = 2); both are differentials and they commute.
Nothing here scans or reads a domain: each pair's count and J+ split is
a DiffEntry of the calculator's index-1 table, which also checks that
every domain is a bigon or rectangle with J+ in {0, 2}.  Levels, each
generator's column and the cyclic steps come from the SpinCTable.
The contact class lives in the distinguished generator's class, and its
spectral order is computed from the two-level piece C1 -> C0 anchored
there (one cached CanonicalPiece): reduce by the minimal subspace K, run
the delta = d0 d1^{-1} iteration, and certify any finite answer with
explicit zigzag chains.  A distinguished generator that is not a cycle
raises NotOpenBookError: the input does not come from an open book.

Vectors over GF(2) are bit-packed ints throughout (see linalg).
"""

from functools import cached_property
from typing import NamedTuple

from .domains import DiffEntry
from .linalg import F2Map, F2Quotient, F2Subspace, affine_meets_subspace


class FloerError(Exception):
    pass


class NotNiceError(FloerError):
    """The diagram has an unpointed region that is not a bigon or square."""


class NotOpenBookError(FloerError):
    """The distinguished generator is not a cycle."""


# ---------------------------------------------------------------------------
# result containers


class SplitDifferential(NamedTuple):
    """Level-to-level boundary maps of one class, split by J+.

    Maps are keyed by source level and go one level down (cyclically when
    the class is graded mod div).  Column and bit t at level g stand for
    the member at slot t of the SpinCTable's levels[class_index][g].
    """

    class_index: int
    d_hat: dict
    d0: dict
    d1: dict


class CanonicalPiece(NamedTuple):
    """The distinguished generator's piece of its class: the members of
    its level C0 and of the level C1 above, the generator as the bit x of
    C0, the maps C1 -> C0 (hat, J+ = 0, J+ = 2), the class's div and
    Chern numbers, and the contact class: "zero" when the hat map hits x,
    else "nonzero"."""

    c0: tuple
    c1: tuple
    x: int
    maps: tuple
    div: int
    chern: tuple
    contact: str


class HomologyResult(NamedTuple):
    div: int
    ranks: tuple  # (level, rank) pairs
    total: int


class ReducedPair(NamedTuple):
    """C1/K -> C0/d0(K) data from the minimal-subspace reduction."""

    K: F2Subspace
    d0bar: F2Map
    d1bar: F2Map
    dom: F2Quotient
    cod: F2Quotient


class OrderResult(NamedTuple):
    """Spectral order: value None means infinity, with a reason and the
    stabilization index m when the delta iteration ran.  Finite values
    carry certificate chains (tuples of C1 generator indices at the
    diagram level, bit masks at the core level) that re-verify."""

    value: object
    certificate: tuple
    reason: object
    m: object
    graded_mod: int = 0

    def as_jsonable(self):
        out = {"order": self.value if self.value is not None else "infinity"}
        if self.value is not None:
            out["certificate"] = [sorted(c) if isinstance(c, tuple) else c
                                  for c in self.certificate]
        else:
            out["certificate"] = self.reason
        if self.graded_mod:
            out["graded_mod"] = self.graded_mod
        return out


# ---------------------------------------------------------------------------
# GF(2) helpers


def _compose(a, b):
    """a after b."""
    return F2Map([a.apply(c) for c in b.cols], a.nrows)


def _is_zero(m):
    return all(c == 0 for c in m.cols)


def _same(a, b):
    return a.nrows == b.nrows and a.cols == b.cols


def _bits(v):
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


# ---------------------------------------------------------------------------
# zigzag certificates


def check_zigzag(d0, d1, x, chains):
    """Do chains b_0..b_k satisfy the defining zigzag equations for x?

    k = 0 asks d0 b_0 = x; otherwise d0 b_0 + d1 b_1 = x, consecutive
    d0 b_i = d1 b_{i+1}, and d0 b_k = 0.
    """
    k = len(chains) - 1
    if k < 0:
        return False
    top = d0.apply(chains[0])
    if k >= 1:
        top ^= d1.apply(chains[1])
    if top != x:
        return False
    for i in range(1, k):
        if d0.apply(chains[i]) != d1.apply(chains[i + 1]):
            return False
    return k == 0 or d0.apply(chains[k]) == 0


def _lift_zigzag(d0, d1, x, k):
    """Chains for a known-finite order k by one stacked GF(2) solve.

    Unknowns are b_0..b_k stacked over C1; block i of the codomain holds
    d0 b_i + d1 b_{i+1} (= x for i = 0, 0 otherwise).
    """
    n1, n0 = d0.ncols, d0.nrows
    cols = []
    for i in range(k + 1):
        for t in range(n1):
            col = d0.cols[t] << (i * n0)
            if i >= 1:
                col ^= d1.cols[t] << ((i - 1) * n0)
            cols.append(col)
    sol = F2Map(cols, (k + 1) * n0).solve(x)
    if sol is None:
        raise FloerError("zigzag lift failed for order %d" % k)
    mask = (1 << n1) - 1
    return tuple((sol >> (i * n1)) & mask for i in range(k + 1))


# ---------------------------------------------------------------------------
# the K reduction and the order computation (pure linear algebra)


def reduce_by_K(d0, d1):
    """Minimal K with d1 : C1/K -> C0/d0(K) injective, plus the induced maps.

    Iterates K_0 = ker d1, K_{i+1} = ker(C1 -> C0/d0(K_i)) until stable;
    the chain is increasing so this terminates, and at the fixed point
    d1(K) lies in d0(K), making both induced maps well defined.
    """
    n1, n0 = d0.ncols, d0.nrows
    if d1.ncols != n1 or d1.nrows != n0:
        raise FloerError("d0 and d1 must share domain and codomain")
    K = F2Subspace(d1.kernel_basis())
    while True:
        d0K = F2Subspace(d0.apply(v) for v in K.vectors())
        q = F2Quotient(n0, d0K)
        nxt = F2Subspace(F2Map([q.project(c) for c in d1.cols],
                               q.dim()).kernel_basis())
        if not all(nxt.contains(v) for v in K.vectors()):
            raise FloerError("the K chain must only grow")
        if nxt == K:
            break
        K = nxt
    dom = F2Quotient(n1, K)
    cod = F2Quotient(n0, d0K)
    lifts = [dom.lift(1 << t) for t in range(dom.dim())]
    d0bar = F2Map([cod.project(d0.apply(w)) for w in lifts], cod.dim())
    d1bar = F2Map([cod.project(d1.apply(w)) for w in lifts], cod.dim())
    if d1bar.rank() != dom.dim():
        raise FloerError("reduced d1 must be injective")
    return ReducedPair(K, d0bar, d1bar, dom, cod)


def order_from_split(d0, d1, x):
    """Spectral order of the cycle x for a two-level piece (d0, d1).

    Returns an OrderResult with bit-mask certificate chains.  The finite
    case is decided by the delta = d0 d1^{-1} iteration on the image of
    the reduced d1 and certified by an explicit zigzag lift.
    """
    b0 = d0.solve(x)
    if b0 is not None:
        chains = (b0,)
        if not check_zigzag(d0, d1, x, chains):
            raise FloerError("order 0 certificate fails its zigzag check")
        return OrderResult(0, chains, None, None)

    red = reduce_by_K(d0, d1)
    if red.K.dim() == d0.ncols:
        # x survives in C0/d0(C1), so nothing can ever hit it
        if red.cod.project(x) == 0:
            raise FloerError("x is 0 modulo d0(C1) though d0 misses it")
        return OrderResult(None, (), "K = C1", None)
    if red.d0bar.rank() == red.dom.dim():
        return OrderResult(None, (), "reduced d0 injective", None)

    xbar = red.cod.project(x)
    if xbar == 0:
        raise FloerError("x is 0 modulo d0(K) though d0 misses it")
    u0 = red.d1bar.image_basis()
    t_map = F2Map(list(u0), red.cod.dim())
    delta_cols = []
    for u in u0:
        v = red.d1bar.solve(u)
        if v is None:
            raise FloerError("reduced d1 misses its own image")
        delta_cols.append(red.d0bar.apply(v))
    delta = F2Map(delta_cols, red.cod.dim())

    def preimage(sub):
        # delta^{-1}(sub), with sub given in U0 coordinates
        img = F2Subspace(t_map.apply(w) for w in sub.vectors())
        q = F2Quotient(red.cod.dim(), img)
        return F2Subspace(F2Map([q.project(c) for c in delta.cols],
                                q.dim()).kernel_basis())

    kers = [preimage(F2Subspace())]
    us = [F2Subspace(1 << t for t in range(len(u0)))]
    while True:
        kn, un = preimage(kers[-1]), preimage(us[-1])
        if not (all(kn.contains(w) for w in kers[-1].vectors())
                and all(us[-1].contains(w) for w in un.vectors())):
            raise FloerError("ker delta^i must grow, delta^-i(U0) shrink")
        if kn == kers[-1] and un == us[-1]:
            m = len(kers)
            break
        kers.append(kn)
        us.append(un)
        if len(kers) > len(u0) + 2:
            raise FloerError("the delta iteration outgrew its dimension")

    for k, ker_k in enumerate(kers, start=1):
        hit_space = F2Subspace(t_map.apply(w) for w in ker_k.vectors())
        if affine_meets_subspace(xbar, list(red.d0bar.cols),
                                 hit_space) is not None:
            chains = _lift_zigzag(d0, d1, x, k)
            if not check_zigzag(d0, d1, x, chains):
                raise FloerError(
                    "order %d certificate fails its zigzag check" % k)
            return OrderResult(k, chains, None, m)
    return OrderResult(None, (), "ker delta^%d misses x + im d0" % m, m)


# ---------------------------------------------------------------------------
# the nice-diagram engine


class NiceComplex:
    """Chain-level engine for one nice diagram, on top of its
    DomainCalculator (which it shares with the caller).

    Construction refuses non-nice diagrams outright; everything else is
    computed lazily and cached per class.
    """

    def __init__(self, calc):
        diagram = calc.dg
        if not diagram.nice:
            raise NotNiceError(
                "diagram %r is not nice; run make_nice first" % diagram.name)
        self.diagram = diagram
        self.calc = calc
        self.table = calc.spinc_partition()
        self._split = {}

    # -- differentials ------------------------------------------------------

    def find_diffs(self, i, j):
        """The table's DiffEntry for the pair (i, j), one grading step
        apart, or an empty one when no index-1 domain joins them."""
        ci = self.table.class_of[i]
        if ci != self.table.class_of[j]:
            raise FloerError(
                "generators %d and %d lie in different classes" % (i, j))
        gr = self.table.level
        if gr[i] != self.table.step(ci, gr[j], 1):
            raise FloerError(
                "generators %d -> %d are not one grading apart" % (i, j))
        e = self.calc.index1_differentials(ci).get((i, j))
        return e if e is not None else DiffEntry((), 0, 0)

    # -- boundary maps ------------------------------------------------------

    def build_boundary(self, class_index):
        if class_index in self._split:
            return self._split[class_index]
        gr = self.table.level
        levels = self.table.levels[class_index]
        slot = self.table.slot
        # column slot[i] of a level's maps has bit slot[j] set for each
        # entry i -> j of odd count in that J+ flavor
        c0 = {g: [0] * len(m) for g, m in levels.items()}
        c1 = {g: [0] * len(m) for g, m in levels.items()}
        for i, j in self.calc.index1_differentials(class_index):
            e = self.find_diffs(i, j)
            if e.j0 % 2:
                c0[gr[i]][slot[i]] |= 1 << slot[j]
            if e.j2 % 2:
                c1[gr[i]][slot[i]] |= 1 << slot[j]

        d_hat, d0, d1 = {}, {}, {}
        for s in levels:
            t = self.table.step(class_index, s, -1)
            if t not in levels:
                continue
            n = len(levels[t])
            d_hat[s] = F2Map([a ^ b for a, b in zip(c0[s], c1[s])], n)
            d0[s], d1[s] = F2Map(c0[s], n), F2Map(c1[s], n)

        sd = SplitDifferential(class_index, d_hat, d0, d1)
        self._assert_identities(sd)
        self._split[class_index] = sd
        return sd

    def _assert_identities(self, sd):
        # composites across consecutive levels vanish flavor by flavor,
        # and the two flavors commute
        for s in sd.d_hat:
            t = self.table.step(sd.class_index, s, -1)
            if t not in sd.d_hat:
                continue
            for maps in (sd.d_hat, sd.d0, sd.d1):
                if not _is_zero(_compose(maps[t], maps[s])):
                    raise FloerError(
                        "boundary squared is nonzero in class %d between "
                        "levels %s and %s" % (sd.class_index, s, t))
            if not _same(_compose(sd.d0[t], sd.d1[s]),
                         _compose(sd.d1[t], sd.d0[s])):
                raise FloerError(
                    "J+ flavors fail to commute in class %d at level %s"
                    % (sd.class_index, s))

    # -- homology -----------------------------------------------------------

    def compute_homology(self, class_index):
        sd = self.build_boundary(class_index)
        ranks = []
        total = 0
        for g, members in self.table.levels[class_index].items():
            src = self.table.step(class_index, g, 1)
            out_rank = sd.d_hat[g].rank() if g in sd.d_hat else 0
            in_rank = sd.d_hat[src].rank() if src in sd.d_hat else 0
            r = len(members) - out_rank - in_rank
            if r < 0:
                raise FloerError("negative homology rank %d in class %d at "
                                 "level %s" % (r, class_index, g))
            ranks.append((g, r))
            total += r
        return HomologyResult(self.table.div[class_index], tuple(ranks), total)

    # -- the distinguished class --------------------------------------------

    @cached_property
    def _canonical(self):
        t = self.table
        xi = self.diagram.contact_generator().index
        ci = t.class_of[xi]
        lv0 = t.level[xi]
        lv1 = t.step(ci, lv0, 1)
        sd = self.build_boundary(ci)
        c0, pos = t.levels[ci][lv0], t.slot[xi]
        # the distinguished generator must be a cycle
        if lv0 in sd.d_hat and sd.d_hat[lv0].cols[pos]:
            raise NotOpenBookError(
                "distinguished generator has nonzero boundary; the "
                "diagram does not come from an open book")
        if lv1 in sd.d_hat:
            maps = (sd.d_hat[lv1], sd.d0[lv1], sd.d1[lv1])
        else:
            maps = tuple(F2Map([], len(c0)) for _ in range(3))
        x = 1 << pos
        contact = "zero" if maps[0].solve(x) is not None else "nonzero"
        return CanonicalPiece(c0, t.levels[ci].get(lv1, ()), x, maps,
                              t.div[ci], t.chern[ci], contact)

    def check_contact_class(self):
        return self._canonical.contact

    def compute_order(self):
        cp = self._canonical
        core = order_from_split(cp.maps[1], cp.maps[2], cp.x)
        if core.value is not None:
            cert = tuple(tuple(cp.c1[t] for t in _bits(b))
                         for b in core.certificate)
        else:
            cert = ()
        res = OrderResult(core.value, cert, core.reason, core.m,
                          graded_mod=cp.div)
        # a vanishing contact class in the torsion setting must have
        # finite order
        if cp.contact == "zero" and cp.div == 0 and not any(cp.chern):
            if res.value is None:
                raise FloerError(
                    "zero contact class with finite-order obstruction missing")
        return res


# ---------------------------------------------------------------------------
# DOT output


def _dot_header(name):
    quoted = name.replace("\\", "\\\\").replace('"', '\\"')
    return ['digraph "%s" {' % quoted,
            '  rankdir=TB;',
            '  node [shape=box, fontsize=10];']


def plot_complex(source, class_index, name=None):
    """DOT text for one class.

    Pass a NiceComplex for true differentials (edge per mod-2-nonzero
    count, solid J+ = 0, dashed J+ = 2) or a DomainCalculator for the
    general engine (edge per index-1 positive domain, blue when
    DomainCalculator.domain_type reads its curve as a disk, chi = b = 1
    and g = 0, which counts exactly once).
    """
    nice = isinstance(source, NiceComplex)
    calc = source.calc if nice else source
    table = calc.spinc_partition()
    if name is None:
        name = "%s_spinc_%d" % (calc.dg.name, class_index)
    lines = _dot_header(name)
    if class_index >= len(table.classes):
        lines.append("}")
        return "\n".join(lines) + "\n"
    members = table.classes[class_index]
    gr = table.level
    dv = table.div[class_index]
    for i in members:
        tag = " mod %d" % dv if dv else ""
        lines.append('  x%d [label="x%d gr=%d%s"];' % (i, i, gr[i], tag))
    if nice:
        source.build_boundary(class_index)  # checks the boundary identities
    for (i, j), e in sorted(calc.index1_differentials(class_index).items()):
        if nice:
            if e.count % 2 == 0:
                continue
            if e.j0 % 2:
                lines.append('  x%d -> x%d [label="J+=0"];' % (i, j))
            else:
                lines.append('  x%d -> x%d [style=dashed, label="J+=2"];'
                             % (i, j))
        else:
            for dom in e.domains:
                _, chi, b, g = calc.domain_type(dom)
                if (chi, b, g) == (1, 1, 0):
                    lines.append('  x%d -> x%d [color=blue];' % (i, j))
                else:
                    lines.append('  x%d -> x%d;' % (i, j))
    lines.append("}")
    return "\n".join(lines) + "\n"
