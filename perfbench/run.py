"""obfloer benchmark: seeded diagram workloads sent through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

A run is a sequence of rounds, each in a fresh process (worker.py), for
about S seconds.  A round imports the package, sets up (fixture
loading, input generation), then sends its inputs in a closed loop with
one client: each request is one in-process ``obfloer.cli.main`` call with
``--format json`` and its own scratch ``--out-dir``, sent after the
previous one returned.  Every reply is checked after the loop (check.py).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Set-up time and memory are
medians over rounds; rates and latencies are taken over all requests of
the run.

``--all`` runs every workload untraced and then traced, prints both
reports and the tracing overhead, and exits non-zero when any request
failed its check.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# a round that runs longer than this fails the run
ROUND_TIMEOUT_S = 170

END_TO_END = {"requests_per_s": "1/s", "latency_p50_s": "s",
              "latency_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "diagram.build_calls": "count/req",
    "diagram.build_self_s": "s/req",
    "nicefy.make_nice_self_s": "s/req",
    "nicefy.moves": "count/req",
    "nicefy.generator_growth": "ratio",
    "domains.calculator_init_self_s": "s/req",
    "domains.spinc_partition_self_s": "s/req",
    "domains.full_solve_calls": "count/req",
    "domains.full_solve_hit_ratio": "ratio",
    "domains.find_pos_domains_calls": "count/req",
    "domains.find_pos_domains_self_s": "s/req",
    "domains.pair_yield_ratio": "ratio",
    "domains.index1_differentials_self_s": "s/req",
    "linalg.int_solve_calls": "count/req",
    "linalg.int_solve_self_s": "s/req",
    "linalg.int_solve_hit_ratio": "ratio",
    "linalg.lattice_points_calls": "count/req",
    "linalg.lattice_points_self_s": "s/req",
    "linalg.lattice_points_out": "count/req",
    "linalg.fm_rows": "count/req",
    "linalg.f2_self_s": "s/req",
    "floer.nice_complex_calls": "count/req",
    "floer.nice_complex_self_s": "s/req",
    "floer.find_diffs_calls": "count/req",
    "floer.find_diffs_self_s": "s/req",
    "floer.nonzero_ratio": "ratio",
    "floer.build_boundary_calls": "count/req",
    "floer.build_boundary_self_s": "s/req",
    "floer.homology_self_s": "s/req",
    "floer.order_self_s": "s/req",
    "cli.self_s": "s/req",
    "cli.bytes_written": "B/req",
    "trace.uncovered_s": "s/req",
    "trace.spans": "count/req",
}


def run_rounds(name, seed, seconds, trace):
    """Start rounds one after another for about ``seconds``.

    A round is started only while it would end, at the median length of
    the rounds so far, less than half a round past ``seconds``; so a run
    ends within about half a round of its time, early or late."""
    rounds, lengths = [], []
    t0 = time.perf_counter()
    while not rounds or (time.perf_counter() - t0
                         + statistics.median(lengths) / 2 < seconds):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), name, str(seed),
             str(len(rounds)), str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit("round %d of %s failed (exit %d)" % (
                len(rounds), name, proc.returncode))
        rounds.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        lengths.append(time.perf_counter() - start)
    return rounds, time.perf_counter() - t0


def percentile(latencies, pct):
    """(nearest-rank pct-th percentile, number of requests beyond it)."""
    xs = sorted(latencies)
    k = max(1, math.ceil(pct * len(xs) / 100))
    return xs[k - 1], len(xs) - k


def _dist(xs):
    xs = sorted(x for x in xs if x is not None)
    if not xs:
        return "n/a"
    return "min %d  p50 %d  p90 %d  max %d  (n=%d)" % (
        xs[0], xs[len(xs) // 2], xs[min(len(xs) - 1, (9 * len(xs)) // 10)],
        xs[-1], len(xs))


def end_to_end(workload, rounds, scaled=True):
    """The end-to-end metrics with times scaled to the reference host's
    pace (hostspeed.py), or with scaled=False the raw wall-clock figures.

    A round's set-up is scaled by the pace timed just before it; its loop
    by the mean of that pace and the next round's, which bracket it (the
    last round has only its own)."""
    paces = [r["pace_s"] for r in rounds]
    ends = paces[1:] + paces[-1:]

    def f(pace):
        return hostspeed.REFERENCE_S / pace if scaled else 1.0
    loop_f = [f((a + b) / 2) for a, b in zip(paces, ends)]
    latencies = [req[2] * k for rnd, k in zip(rounds, loop_f)
                 for s in rnd["sessions"] for req in s["requests"]]
    value, beyond = percentile(latencies, workload.tail_pct)
    metrics = {
        "requests_per_s": len(latencies) / sum(
            r["loop_s"] * k for r, k in zip(rounds, loop_f)),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": value,
        "setup_s": statistics.median(r["setup_s"] * f(r["pace_s"])
                                     for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    return metrics, beyond, len(latencies)


def per_layer(rounds):
    """Per-layer metrics over every round of a traced run, plus the
    per-request coverage facts printed beside them."""
    by_name = {}
    for rnd in rounds:
        for name, row in rnd["trace"]["by_name"].items():
            acc = by_name.setdefault(name, [0, 0.0, 0])
            for i in range(3):
                acc[i] += row[i]
    requests, sizes, bytes_written = [], [], 0
    uncovered, traced_s, builders = [], 0.0, {}
    for rnd in rounds:
        cover = rnd["trace"]["requests"]
        flat = [req for s in rnd["sessions"] for req in s["requests"]]
        for (command, code, seconds, _, _), (_, selfs, _, nc) in zip(flat,
                                                                     cover):
            requests.append((command, code))
            uncovered.append(seconds - selfs)
            traced_s += seconds
            if code == 0 and command == "all":
                builders.setdefault(command, set()).add(nc)
        for s in rnd["sessions"]:
            sizes.append((s["generators"], s["nice_generators"]))
            bytes_written += s["bytes_written"]
    layer = tracing.layer_metrics(by_name, requests, sizes)
    n = max(1, len(requests))
    layer["cli.bytes_written"] = bytes_written / n
    layer["trace.uncovered_s"] = sum(uncovered) / n
    layer["trace.spans"] = sum(row[0] for row in by_name.values()) / n
    shares = {}
    for name, row in by_name.items():
        layer_name = name.split(".")[0]
        shares[layer_name] = shares.get(layer_name, 0.0) + row[1] / traced_s
    facts = {"requests": len(requests), "traced_s": traced_s,
             "uncovered_s": sum(uncovered), "builders": builders,
             "shares": shares,
             "spans_files": [r["trace"]["spans_file"] for r in rounds]}
    return layer, facts


def report(name, seed, seconds, trace, rounds, wall):
    """Print the run's report; returns the result object."""
    workload = workloads.WORKLOADS[name]
    sessions = [s for rnd in rounds for s in rnd["sessions"]]
    requests = [req for s in sessions for req in s["requests"]]
    failed = [(s, req) for s in sessions for req in s["requests"]
              if req[3] == "failed"]
    refused = sum(1 for req in requests if req[3] == "refused")

    print("workload %s  seed %d  seconds %g  trace %d  (%d rounds, %.1f s)"
          % (name, seed, seconds, trace, len(rounds), wall))
    print("machine: nproc %d  python %s" % (len(os.sched_getaffinity(0)),
                                            platform.python_version()))
    print("load: closed loop, 1 client, %s per input, %d inputs per round"
          % ("+".join(workload.session), workload.per_round))
    print("why: " + workload.why)
    keys = [s["key"] for rnd in rounds for s in rnd["sessions"]]
    print("inputs: %d sent, distinct share %.3f within a round, %.3f in the "
          "run" % (len(keys), min(len({s["key"] for s in r["sessions"]})
                                  / len(r["sessions"]) for r in rounds),
                   len(set(keys)) / len(keys)))
    print("  pushes: %s" % " ".join(
        "%d:%d" % (d, sum(1 for s in sessions if s["pushes"] == d))
        for d in workload.depths))
    print("  points: %s" % _dist(s["points"] for s in sessions))
    print("  input generators: %s" % _dist(s["generators"] for s in sessions))
    print("  nice generators: %s" % _dist(s["nice_generators"]
                                          for s in sessions))
    for r, rnd in enumerate(rounds):
        for s in rnd["sessions"]:
            print("  round %d input %d: %s %s pushes=%d points=%d "
                  "generators=%d nice_generators=%s exits=%s seconds=%s" % (
                      r, s["index"], workload.fixture, s["key"], s["pushes"],
                      s["points"], s["generators"], s["nice_generators"],
                      ",".join(str(req[1]) for req in s["requests"]),
                      ",".join("%.4f" % req[2] for req in s["requests"])))
    for s, req in failed:
        print("FAILED input %d (%s, %d pushes) %s: %s" % (
            s["index"], s["key"], s["pushes"], req[0], req[4]))

    e2e, beyond, n = end_to_end(workload, rounds)
    raw, _, _ = end_to_end(workload, rounds, scaled=False)
    paces = [r["pace_s"] for r in rounds]
    print("host pace: the reference task took %.4f-%.4f s at the rounds' "
          "starts (median %.4f; reference host %.4f)" % (
              min(paces), max(paces), statistics.median(paces),
              hostspeed.REFERENCE_S))
    print("end-to-end (scaled to the reference pace; raw wall-clock beside):")
    for k, v in e2e.items():
        extra = ""
        if k == "latency_tail_s":
            extra = "  (p%d, %d of %d requests beyond)" % (
                workload.tail_pct, beyond, n)
        print("  %-16s %12.6f %-5s raw %12.6f%s" % (
            k, v, END_TO_END[k], raw[k], extra))
    for k, count in (("failed_ratio", len(failed)), ("refused_ratio", refused)):
        print("  %-16s %12.6f ratio  (%d of %d)" % (
            k, count / len(requests), count, len(requests)))

    if trace:
        layer, facts = per_layer(rounds)
        metrics = {}
        print("per-layer (per request unless a ratio; %d requests):"
              % facts["requests"])
        for k, unit in PER_LAYER.items():
            v = layer[k]
            base = ""
            if isinstance(v, tuple):
                v, base = v[0], "  base %d" % v[1]
            print("  %-36s %14.6f %s%s" % (k, v, unit, base))
            metrics[k] = {"value": v, "unit": unit}
        for command, counts in sorted(facts["builders"].items()):
            print("  NiceComplex constructions per exit-0 %s request: %s"
                  % (command, sorted(counts)))
        print("  self times cover %.6f of %.6f traced request seconds; "
              "uncovered %.6f s (%.4f%%)" % (
                  facts["traced_s"] - facts["uncovered_s"], facts["traced_s"],
                  facts["uncovered_s"],
                  100.0 * facts["uncovered_s"] / facts["traced_s"]))
        print("  self-time share by layer: %s" % "  ".join(
            "%s %.1f%%" % (k, 100.0 * v) for k, v in
            sorted(facts["shares"].items(), key=lambda kv: -kv[1])))
        print("  spans written to %s" % " ".join(facts["spans_files"]))
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in e2e.items()}
    return {"correct": not failed, "attempted": len(requests),
            "failed": len(failed), "metrics": metrics}


def run_all(seed, seconds):
    """Every workload untraced, then traced; each round a fresh process."""
    ok = True
    for name in workloads.WORKLOADS:
        runs = []
        for trace in (0, 1):
            rounds, wall = run_rounds(name, seed, seconds, trace)
            result = report(name, seed, seconds, trace, rounds, wall)
            ok = ok and result["correct"]
            runs.append(rounds)
            print()
        # same seed, so round r sends the same inputs in both runs
        common = min(len(r) for r in runs)
        untraced, traced = (
            sum(req[2] for r in rounds[:common] for s in r["sessions"]
                for req in s["requests"]) for rounds in runs)
        print("tracing overhead on %s: the first %d rounds' requests took "
              "%.3f s traced, %.3f s untraced (%+.1f%%)\n" % (
                  name, common, traced, untraced,
                  100.0 * (traced / untraced - 1)))
    print("all workloads correct" if ok else "SOME REQUESTS FAILED")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced and traced")
    ns = ap.parse_args(argv)
    if ns.all:
        return run_all(ns.seed, ns.seconds)
    if ns.workload is None:
        ap.error("--workload or --all is required")
    rounds, wall = run_rounds(ns.workload, ns.seed, ns.seconds, ns.trace)
    result = report(ns.workload, ns.seed, ns.seconds, ns.trace, rounds, wall)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
