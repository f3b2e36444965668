"""Library tour: from a raw region list to the spectral order.

Runs on two bundled diagrams: a genus-2 diagram that is already close to
everything we want to show about combinatorics, and a smaller one that we
carry through the whole pipeline.  Run from the repository root:

    python3 demos/walkthrough.py
"""

import pathlib

from obfloer.diagram import build_diagram, parse_region_list
from obfloer.domains import DomainCalculator
from obfloer.floer import NiceComplex
from obfloer.nicefy import make_nice

HERE = pathlib.Path(__file__).resolve().parent.parent / "diagrams"


def load(name):
    return build_diagram(parse_region_list((HERE / (name + ".json")).read_text()))


# 1. a big diagram: survey the combinatorics ---------------------------------

dg = load("r22")
calc = DomainCalculator(dg)
table = calc.spinc_partition()
print("== %s ==" % dg.name)
print("%d points, %d regions, %d curves, b1=%d"
      % (dg.num_points, dg.num_regions, dg.num_curves,
         len(calc.periodic_domain_basis())))
print("%d generators across %d spin-c classes"
      % (len(dg.generators()), len(table.classes)))
print("weakly admissible:", calc.check_weak_admissibility())
diffs = calc.index1_differentials()
print("%d generator pairs admit positive index-1 domains" % len(diffs))
xi = dg.contact_generator().index
targets = sorted(j for (i, j) in diffs if i == xi)
sources = sorted(i for (i, j) in diffs if j == xi)
print("contact generator x%d: arrows out to %s, arrows in from %s"
      % (xi, targets, sources))

# 2. a small diagram, end to end ----------------------------------------------

dg = load("r6")
print("\n== %s ==" % dg.name)
print("nice?", dg.nice)
res = make_nice(dg)
fin = res.diagram
print("%d finger moves: %d points/%d regions -> %d points/%d regions"
      % (len(res.moves), dg.num_points, dg.num_regions,
         fin.num_points, fin.num_regions))

nc = NiceComplex(DomainCalculator(fin))
for ci in range(len(nc.table.classes)):
    hr = nc.compute_homology(ci)
    print("spin-c class %d: rank %d, by grading %s"
          % (ci, hr.total, dict(hr.ranks)))

print("contact class:", nc.check_contact_class())
result = nc.compute_order()
print("spectral order:", "infinity" if result.value is None else result.value)
if result.certificate:
    print("certificate chains (generator index lists):", result.certificate)
