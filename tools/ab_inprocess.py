"""In-process before/after sizing and byte-identity check of a base ref
against the working tree.

    python3 tools/ab_inprocess.py [--base REF] [--workload NAME ...]
                                  [--rounds N]

Extracts ``src/obfloer`` of REF (default HEAD) with ``git archive``, by
tools/bench_pairs.py's ``extract_ref``, into a temporary directory as the
package ``obfloer_base``; the package uses only relative imports, so the
copy loads beside the working tree's ``obfloer`` in this one process.
For each workload (default: all) it generates the inputs of rounds
0 .. N-1 (default 4) of perfbench's default seed with
perfbench's own ``workloads.generate`` (perfbench is imported, never
written) and runs each input's session through both ``cli.main``s,
alternating which side goes first from input to input and from round
to round.  Both sides read the same input file and write
into the same, emptied, output directory; their exit codes, stdout and
artifact bytes must be equal, or the tool stops with exit 1.  It prints
each side's median CPU time per request (``time.process_time``) and their
ratio, working tree over base.  Last it times ``import obfloer.cli`` of
each side by ``python3 -X importtime`` in fresh interpreters that write
no bytecode (-B), 10 per side, alternating which side goes first,
and prints the median cumulative import time of each side, their ratio,
and in how many pairs the working tree imported faster.

This sizes a change quickly and checks that its outputs are unchanged; it
makes no benchmark claim: both sides share one process on one host, and
only perfbench runs in pairs (tools/bench_pairs.py) support one.  Only the
standard library is used; the temporary directory is removed at the end.
"""

import argparse
import contextlib
import importlib
import io
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tools"))

import workloads  # noqa: E402
from bench_pairs import extract_ref  # noqa: E402
from obfloer import cli  # noqa: E402

BASE_PACKAGE = "obfloer_base"
SEED = 1  # perfbench/run.py's default seed
IMPORT_PAIRS = 10


def load_base(ref, dest):
    """Import src/obfloer of ref, extracted into dest, as obfloer_base.cli."""
    extract_ref(ref, dest, "src/obfloer")
    (dest / "src" / "obfloer").rename(dest / BASE_PACKAGE)
    sys.path.insert(0, str(dest))
    return importlib.import_module(BASE_PACKAGE + ".cli")


def import_us(path, package):
    """Cumulative microseconds of ``import package.cli`` in a fresh
    interpreter with only path on PYTHONPATH, writing no bytecode."""
    proc = subprocess.run(
        [sys.executable, "-B", "-X", "importtime", "-c",
         "import %s.cli" % package],
        env=dict(os.environ, PYTHONPATH=str(path)), capture_output=True,
        text=True, check=True)
    line, = (ln for ln in proc.stderr.splitlines()
             if ln.endswith("| %s.cli" % package))
    return int(line.split("|")[1])


def compare_imports(sides):
    """IMPORT_PAIRS alternating import timings of each side, given as
    {side: (path, package)}: {side: [microseconds, ...]}."""
    us = {side: [] for side in sides}
    order = list(sides)
    for n in range(IMPORT_PAIRS):
        for side in (order[::-1] if n % 2 else order):
            us[side].append(import_us(*sides[side]))
    return us


def request(main, command, input_path, out_dir):
    """One ``command --format json`` call of main on an emptied out_dir:
    (exit code, stdout, {artifact name: bytes}, CPU seconds)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [command, "--input", str(input_path), "--out-dir", str(out_dir),
            "--format", "json"]
    so = io.StringIO()
    t0 = time.process_time()
    with contextlib.redirect_stdout(so), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    cpu = time.process_time() - t0
    files = ({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
             if out_dir.is_dir() else {})
    return code, so.getvalue(), files, cpu


def compare(workload, rounds, mains, work):
    """Run every input's session on both sides; per side, CPU seconds of
    each request.  Exits 1 at the first request whose outputs differ."""
    cpu = {side: [] for side in mains}
    order = list(mains)
    for rnd in range(rounds):
        for inp in workloads.generate(workload, SEED, rnd):
            path = work / "in" / (inp.fixture + ".json")
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(inp.text)
            for c, command in enumerate(workload.session):
                got = {}
                # flips with the input, the command and the round: over an
                # even number of rounds each request runs first equally
                # often on both sides
                flip = (rnd + inp.index + c) % 2
                for side in (order[::-1] if flip else order):
                    code, out, files, t = request(mains[side], command, path,
                                                  work / "out")
                    got[side] = (code, out, files)
                    cpu[side].append(t)
                base, head = got["base"], got["head"]
                if base != head:
                    what = [name for name, b, h in zip(
                        ("exit code", "stdout", "artifacts"), base, head)
                            if b != h]
                    raise SystemExit(
                        "%s round %d input %d: %s differs on %s"
                        % (workload.name, rnd, inp.index, command,
                           ", ".join(what)))
                if head[0] != cli.EXIT_OK:
                    break
    return cpu


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD")
    ap.add_argument("--workload", action="append",
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--rounds", type=int, default=4)
    ns = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ab-inprocess-") as tmp:
        tmp = Path(tmp)
        mains = {"base": load_base(ns.base, tmp / "tree").main,
                 "head": cli.main}
        for name in ns.workload or sorted(workloads.WORKLOADS):
            cpu = compare(workloads.WORKLOADS[name], ns.rounds, mains,
                          tmp / "work")
            base, head = (statistics.median(cpu[s]) for s in ("base", "head"))
            print("%s: %d requests identical; median CPU per request "
                  "base %.4f s, working tree %.4f s, ratio %.3f"
                  % (name, len(cpu["head"]), base, head, head / base))
        us = compare_imports({"base": (tmp / "tree", BASE_PACKAGE),
                              "head": (ROOT / "src", "obfloer")})
        base, head = (statistics.median(us[s]) for s in ("base", "head"))
        won = sum(h < b for b, h in zip(us["base"], us["head"]))
        print("import obfloer.cli: median base %.1f ms, working tree %.1f ms, "
              "ratio %.3f; working tree faster in %d of %d pairs"
              % (base / 1000, head / 1000, head / base, won, IMPORT_PAIRS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
