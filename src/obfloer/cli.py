"""Command-line front end.

One run reads a region-list JSON file, performs one operation, and writes
its artifacts into --out-dir.  All outputs are deterministic: the same
invocation on the same input produces byte-identical files and stdout.

Operations:

  analyze    combinatorial survey: counts, admissibility, spin-c classes,
             candidate differential pairs (positive index-1 domains)
  makenice   finger-move the diagram until every unpointed region is a
             bigon or a square; emits the new list plus a move log
  homology   hat homology ranks per spin-c class (nice diagrams only)
  contact    is the distinguished cycle a boundary? (nice diagrams only)
  order      spectral order with certificate (nice diagrams only)
  plot       DOT graph of the complex in one or all spin-c classes
  all        analyze, then makenice if needed, then homology/contact/order

Exit codes: 0 success, 2 unreadable or invalid input or an unwritable
artifact, 3 refused precondition (non-nice input to a nice-only command,
inadmissible diagram, contact-convention violation, a distinguished
generator that is not a cycle, move cap exhausted), 4 internal error.  Set
OBFLOER_LOG=debug|info|warning|error to adjust diagnostics on stderr.
"""

import argparse
import json
import logging
import os
import re
import sys
from collections import Counter
from functools import cached_property
from pathlib import Path

from .diagram import (
    ContactConventionError,
    DiagramError,
    diagram_from_json,
    region_list_to_json,
)
from .domains import AdmissibilityError, DomainCalculator, DomainError
from .floer import (
    FloerError,
    NiceComplex,
    NotNiceError,
    NotOpenBookError,
    plot_complex,
)
from .nicefy import (
    NicefyError,
    NicefyInvariantError,
    StuckError,
    make_nice,
)

log = logging.getLogger("obfloer")

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_REFUSED = 3
EXIT_INTERNAL = 4


class CliError(Exception):
    """Usage-level failure carrying its exit code."""

    def __init__(self, msg, code=EXIT_BAD_INPUT):
        super().__init__(msg)
        self.code = code


class _Engines:
    """The engines of one diagram, each built on first use and then shared.

    analyze and general plots read the calculator; homology, contact,
    order and nice plots share one NiceComplex built on that calculator.
    name is the stem of the diagram's DOT plots and of homology's
    per-class differentials file (default: the diagram's own name).
    """

    def __init__(self, dg, name=None):
        self.dg = dg
        self.name = dg.name if name is None else name

    @cached_property
    def calc(self):
        return DomainCalculator(self.dg)

    @cached_property
    def complex(self):
        return NiceComplex(self.calc)


class _Out:
    """Write-through collector; remembers what the run produced."""

    def __init__(self, root):
        self.root = Path(root)
        self.files = []

    def __contains__(self, fname):
        return self.root / fname in self.files

    def write(self, fname, text):
        p = self.root / fname
        # directory is created lazily so a failed run leaves nothing behind
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            p.write_text(text)
        except OSError as e:
            raise CliError("cannot write %s: %s" % (p, e)) from None
        self.files.append(p)
        log.info("wrote %s", p)
        return p


def _dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _safe_name(name):
    s = re.sub(r"[^A-Za-z0-9_.-]", "_", name)
    return s or "diagram"


def _classes(cfg, table):
    """The class --spinc names, checked, or every class."""
    n = len(table.classes)
    if cfg.spinc is None:
        return list(range(n))
    if not 0 <= cfg.spinc < n:
        raise CliError("spinc index %d out of range (%d classes)"
                       % (cfg.spinc, n))
    return [cfg.spinc]


def _size_hist(dg):
    c = Counter(sum(len(circ) for circ in reg) for reg in dg.regions)
    return [[s, c[s]] for s in sorted(c)]


def _diff_lines(diffs):
    return "".join("x%d -> x%d : count=%d J0=%d J2=%d\n"
                   % (i, j, e.count, e.j0, e.j2)
                   for (i, j), e in sorted(diffs.items()))


def _emit_dots(eng, ks, out):
    # nice diagrams always plot through the counting engine; `all` on a nice
    # input reaches each plot from analyze and homology, and renders it once
    src = eng.complex if eng.dg.nice else eng.calc
    base = _safe_name(eng.name)
    for k in ks:
        fname = "%s_spinc_%d.dot" % (base, k)
        if fname not in out:
            out.write(fname, plot_complex(src, k, name="%s_spinc_%d"
                                          % (eng.name, k)))


# ---------------------------------------------------------------------------
# operations


def cmd_analyze(cfg, eng, out):
    dg, calc = eng.dg, eng.calc
    table = calc.spinc_partition()
    _classes(cfg, table)  # a bad --spinc is refused before any table
    diffs = calc.index1_differentials()
    doc = {
        "name": dg.name,
        "points": dg.num_points,
        "regions": dg.num_regions,
        "pointed": dg.num_pointed,
        "curves": dg.num_curves,
        "b1": len(calc.periodic_domain_basis()),
        "generators": len(dg.generators()),
        "spinc_classes": len(table.classes),
        "nice": dg.nice,
        "weakly_admissible": calc.check_weak_admissibility(),
        "candidate_pairs": len(diffs),
    }
    base = _safe_name(dg.name)
    out.write(base + "_analysis.json", _dumps(doc))
    out.write(base + "_possible_differentials.txt", _diff_lines(diffs))
    if cfg.spinc is not None:
        out.write(base + "_differentials_in_spinc_%d.txt" % cfg.spinc,
                  _diff_lines(calc.index1_differentials(cfg.spinc)))
    if cfg.dot:
        _emit_dots(eng, range(len(table.classes)), out)
    return doc


def _makenice_core(cfg, dg, out):
    before = _size_hist(dg)
    res = make_nice(dg, move_cap=cfg.move_cap)
    fin = res.diagram
    base = _safe_name(dg.name)
    move_lines = "".join(
        "move %d: region=%d entry_arc=(%d,%d) crossings=%d points_after=%d\n"
        % (n, m.region, m.entry_arc[0], m.entry_arc[1], m.crossings,
           m.points_after)
        for n, m in enumerate(res.moves)
    )
    out.write(base + "_nice.json",
              region_list_to_json(fin.to_region_list()) + "\n")
    out.write(base + "_makenice_log.txt", move_lines)
    doc = {
        "name": dg.name,
        "moves": len(res.moves),
        "points": fin.num_points,
        "regions": fin.num_regions,
        "region_sizes_before": before,
        "region_sizes_after": _size_hist(fin),
    }
    return doc, fin


def cmd_makenice(cfg, eng, out):
    doc, _ = _makenice_core(cfg, eng.dg, out)
    return doc


def cmd_homology(cfg, eng, out):
    nc = eng.complex
    ks = _classes(cfg, nc.table)
    classes = []
    total = 0
    for k in ks:
        hr = nc.compute_homology(k)
        classes.append({
            "spinc": k,
            "div": hr.div,
            "chern": list(nc.table.chern[k]),
            "generators": len(nc.table.classes[k]),
            "ranks": [[g, r] for g, r in hr.ranks],
            "total": hr.total,
        })
        total += hr.total
    doc = {"name": eng.dg.name, "classes": classes, "total_rank": total}
    base = _safe_name(eng.dg.name)
    out.write(base + "_homology.json", _dumps(doc))
    if cfg.spinc is not None:
        # named from the engine stem: under `all` on a raw diagram, analyze
        # has written the raw diagram's class under the plain name, and on
        # a nice input it has written this very file
        fname = "%s_differentials_in_spinc_%d.txt" % (_safe_name(eng.name),
                                                     ks[0])
        if fname not in out:
            out.write(fname, _diff_lines(nc.calc.index1_differentials(ks[0])))
    if cfg.dot:
        _emit_dots(eng, ks, out)
    return doc


def cmd_contact(cfg, eng, out):
    dg, nc = eng.dg, eng.complex
    val = nc.check_contact_class()
    xc = dg.contact_generator()
    doc = {
        "name": dg.name,
        "contact_class": val,
        "generator": xc.index,
        "spinc": nc.table.class_of[xc.index],
    }
    out.write(_safe_name(dg.name) + "_contact.json", _dumps(doc))
    return doc


def cmd_order(cfg, eng, out):
    dg, nc = eng.dg, eng.complex
    val = nc.check_contact_class()
    res = nc.compute_order()
    doc = {"name": dg.name, "contact_class": val}
    doc.update(res.as_jsonable())
    out.write(_safe_name(dg.name) + "_order.json", _dumps(doc))
    return doc


def cmd_plot(cfg, eng, out):
    ks = _classes(cfg, eng.calc.spinc_partition())
    _emit_dots(eng, ks, out)
    return {"name": eng.dg.name, "classes": ks}


def cmd_all(cfg, eng, out):
    parts = {"analyze": cmd_analyze(cfg, eng, out)}
    if not eng.dg.nice:
        parts["makenice"], fin = _makenice_core(cfg, eng.dg, out)
        # the nice diagram's plots go beside the raw diagram's, not over them
        eng = _Engines(fin, name=eng.name + "_nice")
    parts["homology"] = cmd_homology(cfg, eng, out)
    parts["contact"] = cmd_contact(cfg, eng, out)
    parts["order"] = cmd_order(cfg, eng, out)
    return parts


_DISPATCH = {
    "analyze": cmd_analyze,
    "makenice": cmd_makenice,
    "homology": cmd_homology,
    "contact": cmd_contact,
    "order": cmd_order,
    "plot": cmd_plot,
    "all": cmd_all,
}


# ---------------------------------------------------------------------------
# rendering


def _hist_str(pairs):
    return " ".join("%d:%d" % (s, c) for s, c in pairs)


def _render_text(command, doc):
    if command == "analyze":
        return "\n".join([
            "%s: %d points, %d regions (%d pointed), %d curves, b1=%d"
            % (doc["name"], doc["points"], doc["regions"], doc["pointed"],
               doc["curves"], doc["b1"]),
            "generators=%d spinc_classes=%d candidate_pairs=%d"
            % (doc["generators"], doc["spinc_classes"], doc["candidate_pairs"]),
            "nice=%s weakly_admissible=%s"
            % (str(doc["nice"]).lower(), str(doc["weakly_admissible"]).lower()),
        ])
    if command == "makenice":
        return "\n".join([
            "region sizes before: %s" % _hist_str(doc["region_sizes_before"]),
            "region sizes after:  %s" % _hist_str(doc["region_sizes_after"]),
            "moves: %d  (now %d points, %d regions)"
            % (doc["moves"], doc["points"], doc["regions"]),
        ])
    if command == "homology":
        lines = [
            "spinc %d: div=%d total=%d ranks=%s"
            % (c["spinc"], c["div"], c["total"],
               " ".join("%d:%d" % (g, r) for g, r in c["ranks"]))
            for c in doc["classes"]
        ]
        lines.append("total rank: %d" % doc["total_rank"])
        return "\n".join(lines)
    if command == "contact":
        return "contact class: %s (generator x%d, spinc %d)" % (
            doc["contact_class"], doc["generator"], doc["spinc"])
    if command == "order":
        lines = ["contact class: %s" % doc["contact_class"],
                 "order: %s" % doc["order"]]
        if "graded_mod" in doc:
            lines.append("graded mod: %d" % doc["graded_mod"])
        lines.append("certificate: %s" % json.dumps(doc["certificate"]))
        return "\n".join(lines)
    if command == "plot":
        return "plotted spinc classes: %s" % " ".join(
            str(k) for k in doc["classes"])
    # all: the parts in the order cmd_all ran them
    return "\n".join(
        "[%s]\n%s" % (k, _render_text(k, part)) for k, part in doc.items())


# ---------------------------------------------------------------------------
# entry


def _move_cap(text):
    """--move-cap N: an integer N >= 0 (0 refuses at the first move)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError("expected an integer >= 0, got %r" % text)
    return int(text)


# built once: every in-process main() call parses with the same parser
_PARSER = argparse.ArgumentParser(
    prog="obfloer",
    description="Heegaard Floer calculations on region-list diagrams.",
    epilog="exit codes: 0 ok, 2 bad input, 3 refused precondition, "
           "4 internal error",
)
_PARSER.add_argument("command", choices=tuple(_DISPATCH))
_PARSER.add_argument("--input", required=True, type=Path,
                     help="region-list JSON file")
_PARSER.add_argument("--out-dir", type=Path, default=Path("."),
                     help="directory for output artifacts (default: .)")
_PARSER.add_argument("--spinc", type=int, default=None, metavar="K",
                     help="restrict to one spin-c class")
_PARSER.add_argument("--move-cap", type=_move_cap, default=10 ** 6,
                     metavar="N", help="refuse after N finger moves")
_PARSER.add_argument("--format", choices=("json", "text"), default="text",
                     dest="fmt", help="stdout format (files are unaffected)")
_PARSER.add_argument("--dot", action="store_true",
                     help="also write DOT plots where applicable")


def main(argv=None):
    """Run one command and return its exit code.  Until it returns, the
    obfloer logger writes to this call's stderr at OBFLOER_LOG's level."""
    cfg = _PARSER.parse_args(argv)
    level = getattr(logging, os.environ.get("OBFLOER_LOG", "").upper(), None)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    old = log.level
    log.setLevel(level if isinstance(level, int) else logging.WARNING)
    log.addHandler(handler)
    try:
        return _run(cfg)
    finally:
        log.removeHandler(handler)
        log.setLevel(old)


def _run(cfg):
    try:
        text = cfg.input.read_text()
    except (OSError, UnicodeDecodeError) as e:
        print("error: cannot read %s: %s" % (cfg.input, e), file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        dg = diagram_from_json(text, name=cfg.input.stem)
    except DiagramError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_BAD_INPUT
    out = _Out(cfg.out_dir)
    try:
        doc = _DISPATCH[cfg.command](cfg, _Engines(dg), out)
    except CliError as e:
        print("error: %s" % e, file=sys.stderr)
        return e.code
    except StuckError as e:
        try:
            p = out.write(_safe_name(dg.name) + "_stuck.json",
                          region_list_to_json(e.region_list) + "\n")
        except CliError as err:
            print("refused: %s\nerror: %s" % (e, err), file=sys.stderr)
            return err.code
        print("refused: %s (state dumped to %s)" % (e, p), file=sys.stderr)
        return EXIT_REFUSED
    except NotNiceError as e:
        print("refused: %s" % e, file=sys.stderr)
        print("hint: run `obfloer makenice` and feed its output here",
              file=sys.stderr)
        return EXIT_REFUSED
    except (NicefyError, AdmissibilityError, ContactConventionError,
            NotOpenBookError) as e:
        print("refused: %s" % e, file=sys.stderr)
        return EXIT_REFUSED
    except (FloerError, DomainError, DiagramError, NicefyInvariantError) as e:
        print("internal error: %s" % e, file=sys.stderr)
        return EXIT_INTERNAL
    if cfg.fmt == "json":
        sys.stdout.write(_dumps(doc))
    else:
        print(_render_text(cfg.command, doc))
        for p in out.files:
            print("wrote %s" % p)
    return EXIT_OK
