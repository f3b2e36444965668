"""Alternating before/after benchmark runs of a base ref and the working tree.

    python3 tools/bench_pairs.py [--base REF] [--workload NAME ...]
                                 [--pairs N]

Extracts REF (default HEAD) with ``git archive`` into one temporary
directory, and the working tree (its tracked files as they are now, plus
untracked files that .gitignore does not exclude) into another, so that
both sides run from a fresh tree by one path and neither shares the
checkout's ``.bench_build/``.  Then for each workload it runs N pairs (at
least 10) of

    python3 perfbench/run.py --workload W --seconds T --trace 0

with T the benchmark's own ``run_seconds`` from BENCHMARK.json and
perfbench's default seed, once in the base tree and once in the change
tree, alternating which side runs first.  Each run's end-to-end metrics
are read from its last stdout line (scaled to the reference host's pace)
and from its report (raw wall-clock), and printed both ways as it ends.
For every metric the summary
prints both sides' runs, their medians, the base's quartiles, and in how
many pairs the working tree was better, in the direction BENCHMARK.json declares, with the relative move
of the median against the metric's bound: WORSE THAN BOUND when the
median moved past it in the worse direction, BEYOND BOUND when in the
better one.  UNRESOLVED marks a metric whose base quartile spread is
wider than the bound times the base median, unless every change run beats
every base run.  The next line says whether the gain rule holds: the change
better in at least 9 of 10 pairs (ties count for neither side), and the
median moved in the better direction by more than the base quartile
spread.  Two more lines give the change/base ratio of each pair, split by
which side ran first (the base in even pairs, the change in odd ones),
with each group's median and range, so that an order effect shows.  The
last line counts the pairs the change won on the raw reading: the
host-pace scaling can flip the sign of a small move, so both counts are
shown, and the gain rule reads only the scaled one.  The
temporary trees are removed at the end.  Only the standard
library is used, and nothing is written in the working tree.
"""

import argparse
import io
import json
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAW_LINE = re.compile(r"^\s+(\w+)\s+(-?[\d.]+)\s+\S+\s+raw\s+(-?[\d.]+)")


def git(root, *args):
    return subprocess.run(["git", *args], cwd=root, check=True,
                          capture_output=True).stdout


def extract_ref(ref, dest, *paths, root=ROOT):
    """Write the tree of ref, or only the given paths of it, into dest."""
    data = git(root, "archive", "--format=tar", ref, *paths)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def extract_worktree(dest, root=ROOT):
    """Copy the working tree into dest: tracked files with their current
    contents, and untracked files that are not ignored."""
    names = git(root, "ls-files", "-z", "--cached", "--others",
                "--exclude-standard").decode().split("\0")
    for name in filter(None, names):
        src = Path(root) / name
        if src.is_file():  # a tracked file deleted from the working tree
            target = Path(dest) / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, target)


def run_once(tree, workload, seconds):
    """One perfbench run in tree: (scaled metrics, raw metrics, failed)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr)
        raise SystemExit("perfbench run in %s failed (exit %d)"
                         % (tree, proc.returncode))
    result = json.loads(lines[-1])
    scaled = {k: v["value"] for k, v in result["metrics"].items()}
    raw = {}
    for line in lines:
        m = RAW_LINE.match(line)
        if m and m.group(1) in scaled:
            raw[m.group(1)] = float(m.group(3))
    return scaled, raw, result["failed"]


def summarize(metric, spec, runs):
    """Summary lines of one metric over the pairs of runs."""
    base = [b[0][metric] for b, _ in runs]
    head = [h[0][metric] for _, h in runs]
    higher = spec["better"] == "higher"

    def better(b, h):
        return h > b if higher else h < b

    wins = sum(map(better, base, head))
    mb, mh = statistics.median(base), statistics.median(head)
    q1, _, q3 = (statistics.quantiles(base, n=4) if len(base) > 1
                 else (base[0],) * 3)
    move = (mh - mb) / mb if mb else 0.0
    gain = move if higher else -move
    flag = ("  WORSE THAN BOUND" if -gain > spec["bound"]
            else "  BEYOND BOUND" if gain > spec["bound"] else "")
    all_beat = (min(head) > max(base)) if higher else (max(head) < min(base))
    if q3 - q1 > spec["bound"] * abs(mb) and not all_beat:
        flag += "  UNRESOLVED"
    need = -(-9 * len(runs) // 10)
    step = (mh - mb) if higher else (mb - mh)
    holds = wins >= need and step > q3 - q1
    raw_base = [b[1].get(metric, float("nan")) for b, _ in runs]
    raw_head = [h[1].get(metric, float("nan")) for _, h in runs]
    raw_b, raw_h = statistics.median(raw_base), statistics.median(raw_head)
    # main runs the base first in even pairs and the change first in odd ones
    ratios = [h / b if b else float("nan") for b, h in zip(base, head)]
    split = []
    for first, group in (("base", ratios[0::2]), ("change", ratios[1::2])):
        spread = ("median %.4f, range %.4f-%.4f" % (
            statistics.median(group), min(group), max(group))
            if group else "no pairs")
        split.append("    change/base, %s first: %s" % (
            first, " ".join(["%.4f" % r for r in group] + ["(%s)" % spread])))
    return [
        "  %s (%s, %s is better, bound %.2f)" % (
            metric, spec["unit"], spec["better"], spec["bound"]),
        "    base   %s" % " ".join("%.4f" % v for v in base),
        "    change %s" % " ".join("%.4f" % v for v in head),
        "    median %.4f -> %.4f (%+.1f%%; raw %.4f -> %.4f), base quartiles "
        "%.4f-%.4f, change better in %d of %d pairs%s" % (
            mb, mh, 100 * move, raw_b, raw_h, q1, q3, wins, len(runs), flag),
        "    gain rule %s: better in %d of %d pairs (need %d), median moved "
        "%.4f in the better direction (need more than %.4f)" % (
            "holds" if holds else "not met", wins, len(runs), need, step,
            q3 - q1),
    ] + split + [
        "    raw reading: change better in %d of %d pairs (the gain rule "
        "reads the scaled one)" % (sum(map(better, raw_base, raw_head)),
                                   len(runs)),
    ]


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="git ref (default HEAD)")
    ap.add_argument("--workload", action="append", choices=names,
                    help="repeat for several (default: every workload)")
    ap.add_argument("--pairs", type=int, default=10,
                    help="pairs per workload, at least 10 (default 10)")
    ns = ap.parse_args(argv)
    if ns.pairs < 10:
        ap.error("--pairs must be at least 10")
    seconds = bench["run_seconds"]
    specs = {m["name"]: m for m in bench["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        sides = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        extract_ref(ns.base, sides["base"])
        extract_worktree(sides["change"])
        for workload in ns.workload or names:
            runs = []
            for i in range(ns.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change",
                                                               "base")
                got = {}
                for side in order:
                    got[side] = run_once(sides[side], workload, seconds)
                    scaled, raw, failed = got[side]
                    print("%s pair %d %s: %s failed=%d" % (
                        workload, i, side, " ".join(
                            "%s=%.4f (raw %.4f)" % (
                                k, v, raw.get(k, float("nan")))
                            for k, v in scaled.items()),
                        failed), flush=True)
                runs.append((got["base"], got["change"]))
            print("%s: %d pairs of %g s runs, base %s" % (
                workload, ns.pairs, seconds, ns.base))
            print("  failed requests: base %d, change %d" % (
                sum(b[2] for b, _ in runs), sum(h[2] for _, h in runs)))
            for metric, spec in specs.items():
                print("\n".join(summarize(metric, spec, runs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
