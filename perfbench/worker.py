"""One round of a workload, in a fresh process started by run.py.

    python3 perfbench/worker.py WORKLOAD SEED ROUND TRACE

A round times the host's pace (hostspeed.py), imports the package, sets
up (fixture loading and input generation), sends its inputs in a closed
loop with one client, checks every reply, and prints one JSON line with
what run.py aggregates.
Within a round every input is distinct; every round of a workload has
the same mix of push depths.
"""

import time

import hostspeed

# the host's pace, timed before anything of the package is loaded
_PACE_S = hostspeed.measure()
_T_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402
from obfloer.diagram import diagram_from_json  # noqa: E402

BUILD = ROOT / ".bench_build"


def set_up(workload, seed, rnd, work):
    """Generate the round's inputs and write one directory per input."""
    inputs = workloads.generate(workload, seed, rnd)
    shutil.rmtree(work, ignore_errors=True)
    paths = []
    for inp in inputs:
        d = work / str(inp.index) / "in"
        d.mkdir(parents=True)
        paths.append(d / (inp.fixture + ".json"))
        paths[-1].write_text(inp.text)
    return inputs, paths


def _out_dir(path):
    return path.parent.parent / "out"


def _generators(text):
    return len(diagram_from_json(text).generators())


def _nice_generators(replies):
    """Generators of the nice diagram an ``all`` request made, or None."""
    last = replies[-1]
    if last.command == "all" and last.code == 0:
        doc = json.loads(last.stdout)
        return sum(c["generators"] for c in doc["homology"]["classes"])
    return None


def _bytes_written(replies, path):
    out = _out_dir(path)
    files = sum(f.stat().st_size for f in out.iterdir()) if out.is_dir() else 0
    return files + sum(len(r.stdout.encode()) for r in replies)


def run_round(workload, seed, rnd, trace):
    clock = time.perf_counter
    import_s = clock() - _T_START
    work = BUILD / ("perfbench-%s-%d-%d-r%d" % (workload.name, seed, trace,
                                                rnd))
    try:
        t0 = clock()
        inputs, paths = set_up(workload, seed, rnd, work)
        setup_s = import_s + clock() - t0
        tracer = None
        if trace:
            import tracing
            tracer = tracing.Tracer(clock)
            tracer.install()
        t0 = clock()
        try:
            sessions = [workloads.run_session(workload, p, _out_dir(p), clock)
                        for p in paths]
        finally:
            if tracer is not None:
                tracer.uninstall()
        loop_s = clock() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out = {"setup_s": setup_s, "loop_s": loop_s, "pace_s": _PACE_S,
               "peak_rss_mb": peak_rss_mb, "sessions": []}
        reference = check.load_reference(workload)
        for inp, replies, path in zip(inputs, sessions, paths):
            verdicts = check.classify(replies, _out_dir(path),
                                      reference.get(inp.key))
            out["sessions"].append({
                "index": inp.index, "key": inp.key, "pushes": inp.pushes,
                "points": inp.points, "generators": _generators(inp.text),
                "nice_generators": _nice_generators(replies),
                "bytes_written": _bytes_written(replies, path),
                "requests": [[r.command, r.code, r.seconds, outcome, why]
                             for r, (outcome, why) in zip(replies, verdicts)],
            })
        if tracer is not None:
            out["trace"] = trace_summary(tracer, workload, rnd)
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def trace_summary(tracer, workload, rnd):
    """Per-name totals and per-request coverage; spans go to a file."""
    import tracing
    by_name, by_request = tracing.summarize(tracer)
    spans = BUILD / ("perfbench-%s-r%d.spans.jsonl" % (workload.name, rnd))
    tracer.dump(spans)
    return {
        "by_name": by_name,
        # request id -> [root seconds, self-time sum, spans, NiceComplex calls]
        "requests": [[r[0], r[1], r[2],
                      r[3].get("floer.NiceComplex.__init__", 0)]
                     for _, r in sorted(by_request.items())],
        "spans_file": str(spans.relative_to(ROOT)),
    }


def main(argv):
    name, seed, rnd, trace = argv[0], int(argv[1]), int(argv[2]), int(argv[3])
    result = run_round(workloads.WORKLOADS[name], seed, rnd, trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
