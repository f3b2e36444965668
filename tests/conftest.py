import itertools
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from obfloer.diagram import build_diagram, parse_region_list
from obfloer.linalg import fm_chain
from obfloer.nicefy import random_push

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "diagrams"


def load_region_list(name):
    return parse_region_list((FIXTURES / (name + ".json")).read_text())


def load_diagram(name):
    return build_diagram(load_region_list(name))


def corner_occurrences(dg, p):
    """All (region, circuit, position) corner occurrences of point p."""
    out = []
    for r, reg in enumerate(dg.regions):
        for ci, cir in enumerate(reg):
            for i, c in enumerate(cir):
                if c == p:
                    out.append((r, ci, i))
    return out


def pushed_variant(name, pushes, seed):
    """The fixture's region list after `pushes` seeded random finger moves."""
    rl = load_region_list(name)
    rng = random.Random("%s/%d/%d" % (name, pushes, seed))
    for _ in range(pushes):
        rl = random_push(rl, rng)
    return rl


class _Pick:
    """Stands in for an rng so that random_push takes candidate k."""

    def __init__(self, k):
        self.k = k
        self.n = None

    def randrange(self, n):
        self.n = n
        return min(self.k, n - 1)


def one_push_variants(name):
    """Region lists of every one-push variant of the fixture, in order."""
    rl = load_region_list(name)
    out, k = [], 0
    while True:
        pick = _Pick(k)
        moved = random_push(rl, pick)
        if moved is None or k >= pick.n:
            return out
        out.append(moved)
        k += 1


def polytope_box_bounds(rows, nvars):
    """Exact per-coordinate ranges of {t : a . t + c >= 0 for each row}.

    None when the polytope is empty; otherwise a list of (lo, hi) pairs of
    Fractions, a side being None when unbounded in that direction.
    """
    chain = fm_chain(rows, nvars)
    if any(row[0] < 0 for row in chain[0]):
        return None
    out = []
    for j in range(nvars):
        perm = [j] + [i for i in range(nvars) if i != j]
        rr = [tuple(row[i] for i in perm) + (row[-1],) for row in rows]
        proj = fm_chain(rr, nvars)[1] if nvars else []
        lo = hi = None
        for a, c in proj:
            if a > 0:
                v = Fraction(-c, a)
                lo = v if lo is None or v > lo else lo
            elif a < 0:
                v = Fraction(-c, a)
                hi = v if hi is None or v < hi else hi
        out.append((lo, hi))
    return out


def box_scan(calc, x, y):
    """Coefficients of the positive hat domains x -> y, sorted, by plain
    enumeration of the polytope's bounding box: one row per unpointed
    region, no pruning."""
    d0 = calc.connecting_domain(x, y)
    if d0 is None:
        return []
    basis = calc.periodic_domain_basis()
    rank = len(basis)
    if rank == 0:
        return [d0.coeffs] if all(c >= 0 for c in d0.coeffs) else []
    rows = [
        tuple(b[r] for b in basis) + (d0.coeffs[r],)
        for r in range(calc.num_unpointed)
    ]
    bounds = polytope_box_bounds(rows, rank)
    if bounds is None:
        return []
    assert all(lo is not None and hi is not None for lo, hi in bounds)
    out = []
    ranges = [range(math.ceil(lo), math.floor(hi) + 1) for lo, hi in bounds]
    for t in itertools.product(*ranges):
        coeffs = tuple(
            d0.coeffs[r] + sum(t[j] * basis[j][r] for j in range(rank))
            for r in range(calc.num_unpointed)
        )
        if all(c >= 0 for c in coeffs):
            out.append(coeffs)
    out.sort()
    return out


def pm4_sum(calc, coeffs, points):
    """Sum of coeffs[r] * point_measures_4[r][p] over regions r and the
    given points p: the O(regions x points) form of the point-measure part
    of a Maslov index, kept as the oracle for the per-generator corner
    weights DomainCalculator reads it from."""
    pm4 = calc.dg.point_measures_4
    return sum(cr * pm4[r][p] for r, cr in enumerate(coeffs) if cr
               for p in points)


def check_potential_differences(calc):
    """_check_boundary on connecting_domain and full_connecting_domain of
    every pair in one spin-c class: the check those two made per call
    before it moved to one check per generator potential.  Returns the
    number of pairs checked."""
    pairs = 0
    for members in calc.spinc_partition().classes:
        for x in members:
            for y in members:
                calc._check_boundary(calc.full_connecting_domain(x, y))
                hat = calc.connecting_domain(x, y)
                if hat is not None:
                    calc._check_boundary(hat)
                pairs += 1
    return pairs


SRC = FIXTURES.parent / "src"


def run_cli_optimized(args, prelude=""):
    """Run obfloer.cli.main(args) in a `python -O` subprocess, where every
    assert is stripped; prelude is Python run first (to patch the package).
    Returns (exit code, stdout, stderr)."""
    code = "%s\nimport sys\nfrom obfloer.cli import main\nsys.exit(main(%r))" % (
        prelude, [str(a) for a in args])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="session")
def r22():
    return load_diagram("r22")


@pytest.fixture(scope="session")
def r6():
    return load_diagram("r6")


@pytest.fixture(scope="session")
def s3_tight():
    return load_diagram("s3_tight")


@pytest.fixture(scope="session")
def s3_overtwisted():
    return load_diagram("s3_overtwisted")


@pytest.fixture(scope="session")
def l21():
    return load_diagram("l21")


@pytest.fixture(scope="session")
def sphere4():
    return load_diagram("sphere4")


@pytest.fixture(scope="session")
def octa2():
    return load_diagram("octa2")


@pytest.fixture(scope="session")
def l31():
    return load_diagram("l31")


@pytest.fixture(scope="session")
def s3_wiggle():
    return load_diagram("s3_wiggle")


@pytest.fixture(scope="session")
def s3_twopoint():
    return load_diagram("s3_twopoint")


@pytest.fixture(scope="session")
def s1s2():
    return load_diagram("s1s2")
