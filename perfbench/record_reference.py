"""Record the reference outcomes the benchmark checks requests against.

For every input any seed can generate (see ``workloads.universe``) this
runs the workload's session once and stores, keyed by the input's hash,
each command's exit code and, for ``analyze``, the digests of the two
artifacts it writes.  Run it at the commit whose outputs are the
reference, from the repository root:

    python3 perfbench/record_reference.py survey-r22

It rewrites perfbench/reference/<workload>.json and prints each input's
exit codes and request seconds as it goes.
"""

import argparse
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import workloads  # noqa: E402


def record(workload):
    texts = workloads.universe(workload)
    entries = {}
    work = workloads.REPO / ".bench_build" / ("reference-" + workload.name)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for n, (text, depth) in enumerate(sorted(texts.items())):
            key = workloads.input_key(text)
            req_dir = work / str(n)
            req_dir.mkdir()
            path = req_dir / "input.json"
            path.write_text(text)
            replies = workloads.run_session(workload, path, req_dir,
                                            time.perf_counter)
            entry = {"pushes": depth, "codes": [r.code for r in replies]}
            if workload.session == ("analyze",) and replies[0].code == 0:
                entry["digests"] = check.analyze_digests(req_dir)
            entries[key] = entry
            shutil.rmtree(req_dir)
            print("%s %d/%d %s codes=%s %.2fs" % (
                workload.name, n + 1, len(texts), key, entry["codes"],
                sum(r.seconds for r in replies)), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check.write_reference(workload, entries)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ns = ap.parse_args(argv)
    record(workloads.WORKLOADS[ns.workload])


if __name__ == "__main__":
    main()
