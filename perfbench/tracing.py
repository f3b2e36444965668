"""Spans around the package's layers, recorded from outside the program.

``Tracer.install`` replaces each traced function or method with a wrapper
that records one span per call: name, start, end, parent span, request
id (requests are numbered by their root span, the ``cli.main`` call),
and one integer the layer metrics need (whether a solve succeeded,
how many lattice points came back, ...).  A function imported into
another module is replaced there too, so ``cli.make_nice`` and
``domains.lattice_points`` record spans like the originals.  Spans live
in flat arrays in memory and are written out by ``Tracer.dump`` once the
run ends.  ``uninstall`` puts every original back.

A span's self time is its duration minus the durations of its children;
in one thread children nest inside their parent and never overlap, so
the self times of a request's spans add up to its root span exactly.
"""

import functools
import json
from array import array
from collections import defaultdict

from obfloer import cli, diagram, domains, floer, linalg, nicefy

MODULES = {"cli": cli, "diagram": diagram, "domains": domains,
           "floer": floer, "linalg": linalg, "nicefy": nicefy}


def _is_hit(result):
    return int(result is not None)


def _nonempty(result):
    return int(len(result) > 0)


def _length(result):
    return len(result)


def _chain_rows(chain):
    return sum(len(level) for level in chain if level is not None)


def _odd_count(entry):
    return entry.count % 2


def _moves(result):
    return len(result.moves)


# (layer, dotted target inside the layer's module, value of the result).
# Methods are wrapped on their class; functions in every package module
# that bound them by import.  Left out on purpose: is_nice, a predicate
# analyze also calls, so that a survey shows no nicefy span; and
# connecting_domain, so that find_pos_domains' self time keeps the
# boundary re-check of its base domain.
TARGETS = (
    ("cli", "main", None),
    ("diagram", "build_diagram", None),
    ("diagram", "parse_region_list", None),
    ("diagram", "region_list_to_json", None),
    ("diagram", "HeegaardDiagram.generators", None),
    ("nicefy", "make_nice", _moves),
    ("domains", "DomainCalculator.__init__", None),
    ("domains", "DomainCalculator.spinc_partition", None),
    ("domains", "DomainCalculator.full_connecting_domain", _is_hit),
    ("domains", "DomainCalculator.find_pos_domains", _nonempty),
    ("domains", "DomainCalculator.index1_differentials", None),
    ("domains", "DomainCalculator.check_weak_admissibility", None),
    ("linalg", "IntSolver.__init__", None),
    ("linalg", "IntSolver.solve", _is_hit),
    ("linalg", "lattice_points", _length),
    ("linalg", "fm_chain", _chain_rows),
    ("linalg", "cone_is_trivial", None),
    ("linalg", "F2Map.rank", None),
    ("linalg", "F2Map.kernel_basis", None),
    ("linalg", "F2Map.image_basis", None),
    ("linalg", "F2Map.solve", None),
    ("linalg", "F2Map.apply", None),
    ("linalg", "F2Subspace.add", None),
    ("linalg", "F2Subspace.reduce", None),
    ("linalg", "F2Subspace.contains", None),
    ("linalg", "F2Quotient.__init__", None),
    ("linalg", "F2Quotient.project", None),
    ("linalg", "F2Quotient.lift", None),
    ("linalg", "affine_meets_subspace", None),
    ("floer", "NiceComplex.__init__", None),
    ("floer", "NiceComplex.find_diffs", _odd_count),
    ("floer", "NiceComplex.build_boundary", None),
    ("floer", "NiceComplex.compute_homology", None),
    ("floer", "NiceComplex.check_contact_class", None),
    ("floer", "NiceComplex.compute_order", None),
    ("floer", "order_from_split", None),
    ("floer", "plot_complex", None),
)

F2_PREFIXES = ("linalg.F2", "linalg.affine_meets_subspace")


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self, clock):
        self.clock = clock
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_value = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.request = -1
        self._stack = []
        self._undo = []

    def __len__(self):
        return len(self.span_name)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, value_of):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self.name_ids[name]
        clock = self.clock
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        requests, values = self.span_request, self.span_value
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            if stack:
                parents.append(stack[-1])
            else:  # a root span: cli.main, so a new request
                parents.append(-1)
                self.request += 1
            requests.append(self.request)
            values.append(0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if value_of is not None:
                values[idx] = value_of(result)
            return result

        return traced

    def install(self):
        """Wrap every target; spans start recording at once."""
        for layer, target, value_of in TARGETS:
            module = MODULES[layer]
            name = layer + "." + target
            if "." in target:
                cls_name, meth = target.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig, value_of))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(module, target)
            wrapped = self._wrap(name, orig, value_of)
            for mod in MODULES.values():
                if mod.__dict__.get(target) is orig:
                    setattr(mod, target, wrapped)
                    self._undo.append((mod, target, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def self_times(self):
        """Per span, its duration minus its children's durations."""
        out = array("d", (e - s for s, e in zip(self.span_start,
                                                 self.span_end)))
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                out[parent] -= self.span_end[idx] - self.span_start[idx]
        return out

    def dump(self, path):
        """Write every span as one JSON line, in start order of calls."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self)):
                fh.write("[%d,%d,%d,%d,%.9f,%.9f]\n" % (
                    self.span_name[i], self.span_parent[i],
                    self.span_request[i], self.span_value[i],
                    self.span_start[i], self.span_end[i]))


def summarize(tracer):
    """name -> [calls, total self seconds, total value], and per request
    -> [root seconds, self-time sum, spans, {name: calls}]."""
    selfs = tracer.self_times()
    by_name = defaultdict(lambda: [0, 0.0, 0])
    by_request = defaultdict(lambda: [0.0, 0.0, 0, defaultdict(int)])
    names = tracer.names
    for i in range(len(tracer)):
        name = names[tracer.span_name[i]]
        row = by_name[name]
        row[0] += 1
        row[1] += selfs[i]
        row[2] += tracer.span_value[i]
        req = by_request[tracer.span_request[i]]
        if tracer.span_parent[i] < 0:
            req[0] += tracer.span_end[i] - tracer.span_start[i]
        req[1] += selfs[i]
        req[2] += 1
        req[3][name] += 1
    return dict(by_name), dict(by_request)


def layer_metrics(by_name, requests, sessions):
    """The per-layer metrics of one traced run.

    by_name: from ``summarize``; requests: list of (command, exit code);
    sessions: list of (input generators, nice generators or None).
    Counts and seconds are per attempted request; each ratio's base is
    returned beside it as ``(value, base)``.
    """
    n = max(1, len(requests))

    def calls(name):
        return by_name.get(name, (0, 0.0, 0))[0]

    def self_s(*names):
        return sum(by_name.get(x, (0, 0.0, 0))[1] for x in names)

    def value(name):
        return by_name.get(name, (0, 0.0, 0))[2]

    def ratio(num, base):
        return (num / base if base else 0.0, base)

    builders = [c for c, code in requests if code == 0 and c == "all"]
    f2 = [x for x in by_name if x.startswith(F2_PREFIXES)]
    grown = [(g, ng) for g, ng in sessions if ng is not None]
    out = {
        "diagram.build_calls": calls("diagram.build_diagram") / n,
        "diagram.build_self_s": self_s("diagram.build_diagram") / n,
        "nicefy.make_nice_self_s": self_s("nicefy.make_nice") / n,
        "nicefy.moves": value("nicefy.make_nice") / n,
        "nicefy.generator_growth": ratio(sum(ng for _, ng in grown),
                                         sum(g for g, _ in grown)),
        "domains.calculator_init_self_s":
            self_s("domains.DomainCalculator.__init__") / n,
        "domains.spinc_partition_self_s":
            self_s("domains.DomainCalculator.spinc_partition") / n,
        "domains.full_solve_calls":
            calls("domains.DomainCalculator.full_connecting_domain") / n,
        "domains.full_solve_hit_ratio": ratio(
            value("domains.DomainCalculator.full_connecting_domain"),
            calls("domains.DomainCalculator.full_connecting_domain")),
        "domains.find_pos_domains_calls":
            calls("domains.DomainCalculator.find_pos_domains") / n,
        "domains.find_pos_domains_self_s":
            self_s("domains.DomainCalculator.find_pos_domains") / n,
        "domains.pair_yield_ratio": ratio(
            value("domains.DomainCalculator.find_pos_domains"),
            calls("domains.DomainCalculator.find_pos_domains")),
        "domains.index1_differentials_self_s":
            self_s("domains.DomainCalculator.index1_differentials") / n,
        "linalg.int_solve_calls": calls("linalg.IntSolver.solve") / n,
        "linalg.int_solve_self_s": self_s("linalg.IntSolver.solve") / n,
        "linalg.int_solve_hit_ratio": ratio(value("linalg.IntSolver.solve"),
                                            calls("linalg.IntSolver.solve")),
        "linalg.lattice_points_calls": calls("linalg.lattice_points") / n,
        "linalg.lattice_points_self_s": self_s("linalg.lattice_points") / n,
        "linalg.lattice_points_out": value("linalg.lattice_points") / n,
        "linalg.fm_rows": value("linalg.fm_chain") / n,
        "linalg.f2_self_s": self_s(*f2) / n,
        "floer.nice_complex_calls": ratio(calls("floer.NiceComplex.__init__"),
                                          len(builders)),
        "floer.nice_complex_self_s": self_s("floer.NiceComplex.__init__") / n,
        "floer.find_diffs_calls": calls("floer.NiceComplex.find_diffs") / n,
        "floer.find_diffs_self_s": self_s("floer.NiceComplex.find_diffs") / n,
        "floer.nonzero_ratio": ratio(value("floer.NiceComplex.find_diffs"),
                                     calls("floer.NiceComplex.find_diffs")),
        "floer.build_boundary_calls":
            calls("floer.NiceComplex.build_boundary") / n,
        "floer.build_boundary_self_s":
            self_s("floer.NiceComplex.build_boundary") / n,
        "floer.homology_self_s": self_s("floer.NiceComplex.compute_homology") / n,
        "floer.order_self_s": self_s("floer.NiceComplex.compute_order",
                                     "floer.order_from_split") / n,
        "cli.self_s": self_s("cli.main") / n,
    }
    return out
