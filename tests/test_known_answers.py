"""Answers that come from theory or from symmetry, not from the engine.

Lens spaces.  The standard genus-1 diagram of L(p, q) has one alpha and
one beta curve meeting in p points, and every region is a square: region
i has corners i, i+1, i+1+s, i+s (mod p) with s = -q mod p.  HF-hat of a
lens space has rank p, one generator in each of its p spin-c structures
(Ozsvath and Szabo, "Holomorphic disks and three-manifold invariants:
properties and applications", Ann. of Math. 159 (2004)).  The builder
here shares no code with the engine, and it must reproduce the l21 and
l31 fixtures.

Relabeling.  Point labels and the order of the unpointed regions are
bookkeeping, so no answer may depend on them:
  * a relabeling that keeps each alpha curve's contact point its smallest
    label keeps the total rank, the multiset of per-class (div, total),
    the contact class and the order (or the refusal);
  * any relabeling keeps the homology.  A relabeling that moves a contact
    point changes which generator is distinguished, so the contact class
    may then be refused (exit 3): that is the input convention, not a
    fault, and it is not compared.
Chern numbers are printed against a basis of periodic domains, and a
relabeling may pick another basis (s1s2 flips its sign on some seeds
below), so they are compared by invariants of that change of basis: the
determinantal divisors of the matrix whose columns are the classes'
Chern vectors.
"""

import random
from itertools import combinations
from math import gcd

import pytest

from obfloer.diagram import (
    ContactConventionError,
    build_diagram,
    make_region_list,
)
from obfloer.domains import DomainCalculator
from obfloer.floer import NiceComplex, NotOpenBookError
from obfloer.nicefy import make_nice

from conftest import load_region_list


def lens_region_list(p, q):
    """The standard genus-1 diagram of L(p, q); region 0 is pointed and
    listed last."""
    s = -q % p
    regions = [[i % p, (i + 1) % p, (i + 1 + s) % p, (i + s) % p]
               for i in range(1, p + 1)]
    return make_region_list(regions, 1, name="L%d_%d" % (p, q))


def _even_rotations_min(cir):
    # a rotation by an odd step would swap the alpha and beta arcs
    return min(cir[k:] + cir[:k] for k in range(0, len(cir), 2))


def _region_multiset(rl):
    return sorted(tuple(sorted(_even_rotations_min(c) for c in reg))
                  for reg in rl.regions)


def test_lens_builder_reproduces_l21_exactly():
    assert lens_region_list(2, 1).regions == load_region_list("l21").regions


def test_lens_builder_reproduces_l31_up_to_rotation_and_order():
    built, fixture = lens_region_list(3, 1), load_region_list("l31")
    assert built.num_pointed == fixture.num_pointed
    assert built.regions != fixture.regions
    assert _region_multiset(built) == _region_multiset(fixture)


LENS = [(p, q) for p in range(2, 12) for q in range(1, p) if gcd(p, q) == 1]


@pytest.mark.parametrize("p,q", LENS, ids=["L%d_%d" % pq for pq in LENS])
def test_lens_space_has_rank_p_in_p_classes_of_rank_1(p, q):
    dg = build_diagram(lens_region_list(p, q))
    assert dg.nice and dg.num_points == p
    nc = NiceComplex(DomainCalculator(dg))
    assert len(nc.table.classes) == p
    assert [nc.compute_homology(k).total for k in range(p)] == [1] * p


# -- relabeling --------------------------------------------------------------


def relabel(rl, seed, keep_contact):
    """The region list with its points relabeled and its unpointed regions
    shuffled, both seeded; with keep_contact, each alpha curve's smallest
    point keeps the smallest label on that curve."""
    dg = build_diagram(rl)
    rng = random.Random(seed)
    img = list(range(dg.num_points))
    rng.shuffle(img)
    if keep_contact:
        for curve in dg.alpha_curves:
            lo, first = min(curve), min(curve, key=img.__getitem__)
            img[lo], img[first] = img[first], img[lo]
    nun = dg.num_unpointed
    order = rng.sample(range(nun), nun) + list(range(nun, len(rl.regions)))
    regions = [[[img[c] for c in cir] for cir in rl.regions[r]]
               for r in order]
    out = make_region_list(regions, rl.num_pointed, name=rl.name)
    if keep_contact:
        assert (sorted(build_diagram(out).contact_points)
                == sorted(img[min(curve)] for curve in dg.alpha_curves))
    return out


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)))


def determinantal_divisors(columns, rows):
    """gcd of the k x k minors, k = 1..rows, of the matrix with these
    columns: unchanged by a change of basis of the rows and by reordering
    the columns."""
    out = []
    for k in range(1, rows + 1):
        g = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(len(columns)), k):
                g = gcd(g, _det([[columns[c][r] for c in cs] for r in rs]))
        out.append(g)
    return tuple(out)


def answers(rl):
    """What the pipeline answers for a region list, in terms that do not
    name a generator, a class index or a periodic basis."""
    nice = make_nice(build_diagram(rl)).diagram
    calc = DomainCalculator(nice)
    nc = NiceComplex(calc)
    t = nc.table
    hom = [nc.compute_homology(k) for k in range(len(t.classes))]
    b1 = len(calc.periodic_domain_basis())
    out = {
        "total": sum(h.total for h in hom),
        "classes": sorted((h.div, h.total) for h in hom),
        "chern": determinantal_divisors(t.chern, b1),
        "raw_chern": sorted(t.chern),
    }
    try:
        out["contact"] = nc.check_contact_class()
        out["order"] = nc.compute_order().value
    except (ContactConventionError, NotOpenBookError) as e:
        out["contact"] = type(e).__name__
    return out


RELABEL_FIXTURES = ["r6", "l21", "l31", "octa2", "s1s2", "s3_overtwisted",
                    "s3_tight", "s3_twopoint", "s3_wiggle"]
# r22's nice diagram: 4280 generators in 53 classes of div 0, 2, 4 and 6,
# about a second per answer, so two seeds a mode
RELABEL_INPUTS = RELABEL_FIXTURES + ["r22_nice"]
SEEDS = {name: range(10) for name in RELABEL_FIXTURES}
SEEDS["r22_nice"] = range(2)


def _relabel_input(name):
    if name == "r22_nice":
        return make_nice(build_diagram(load_region_list("r22"))
                         ).diagram.to_region_list()
    return load_region_list(name)


@pytest.fixture(scope="module")
def base_answers():
    """Per input, its region list and the answers for it."""
    out = {}
    for name in RELABEL_INPUTS:
        rl = _relabel_input(name)
        out[name] = rl, answers(rl)
    return out


@pytest.mark.parametrize("name", RELABEL_INPUTS)
def test_relabeling_that_keeps_contact_points_keeps_every_answer(
        name, base_answers):
    rl, base = base_answers[name]
    for seed in SEEDS[name]:
        got = answers(relabel(rl, seed, keep_contact=True))
        for key in ("total", "classes", "chern", "contact", "order"):
            assert got.get(key) == base.get(key), (seed, key)


@pytest.mark.parametrize("name", RELABEL_INPUTS)
def test_any_relabeling_keeps_the_homology(name, base_answers):
    rl, base = base_answers[name]
    for seed in SEEDS[name]:
        got = answers(relabel(rl, seed, keep_contact=False))
        for key in ("total", "classes", "chern"):
            assert got[key] == base[key], (seed, key)


def test_relabeling_can_change_the_printed_chern_basis():
    # why Chern numbers are compared up to a change of basis: on s1s2 the
    # class of div 2 prints -2 on some seeds and 2 on others
    rl = load_region_list("s1s2")
    seen = {tuple(answers(relabel(rl, seed, keep))["raw_chern"])
            for seed in SEEDS["s1s2"] for keep in (True, False)}
    assert seen == {((-2,), (0,)), ((0,), (2,))}
