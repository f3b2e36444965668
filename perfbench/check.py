"""Correctness check of a workload's replies, run after the timed loop.

Every request is classified as ok, refused or failed:

  * exit 2 or 4 fails;
  * exit 3 is a refusal only where the reference, recorded when the
    benchmark was added, refused the same input too, and fails otherwise;
  * exit 0 fails when its output disagrees with what the input must give:
    ``analyze`` artifacts hash to the reference digests and report b1 = 2
    and 3 curves (r22); ``all`` reports contact class "zero", order 1 and
    total rank 4 (r6's own values, which a finger move preserves).
"""

import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"
DIGEST_KINDS = (("analysis", "analysis.json"),
                ("possible_differentials", "possible_differentials.txt"))

OK, REFUSED, FAILED = "ok", "refused", "failed"

# invariants of the fixtures' own diagrams, preserved by random_push
EXPECTED = {
    "analyze": {"b1": 2, "curves": 3},
    "all": {"contact_class": "zero", "order": 1, "total_rank": 4},
}


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()[:12]


def analyze_digests(out_dir):
    """Hashes of the two artifacts ``analyze`` writes into out_dir."""
    out_dir = Path(out_dir)
    return {kind: _digest(next(out_dir.glob("*_%s" % suffix)))
            for kind, suffix in DIGEST_KINDS}


# A reference file holds one input per line:
#   "<input key>": [pushes, [exit code per request], digests...]
# with the analyze digests in DIGEST_KINDS order, for analyze inputs only.

def write_reference(workload, entries):
    """entries: input key -> {"pushes", "codes", optional "digests"}."""
    lines = []
    for key, e in sorted(entries.items()):
        row = [e["pushes"], e["codes"]]
        row += [e["digests"][kind] for kind, _ in DIGEST_KINDS] \
            if "digests" in e else []
        lines.append("%s: %s" % (json.dumps(key),
                                 json.dumps(row, separators=(",", ":"))))
    (REFERENCE / (workload.name + ".json")).write_text(
        '{"workload": %s, "inputs": {\n%s\n}}\n' % (
            json.dumps(workload.name), ",\n".join(lines)))


def load_reference(workload):
    """input key -> {"pushes", "codes", and "digests" where recorded}."""
    doc = json.loads((REFERENCE / (workload.name + ".json")).read_text())
    out = {}
    for key, (pushes, codes, *digests) in doc["inputs"].items():
        out[key] = {"pushes": pushes, "codes": codes}
        if digests:
            out[key]["digests"] = dict(zip((k for k, _ in DIGEST_KINDS),
                                           digests))
    return out


def _reported(command, doc):
    """The values EXPECTED names, read from one command's stdout JSON."""
    if command == "all":
        return {"contact_class": doc["contact"]["contact_class"],
                "order": doc["order"]["order"],
                "total_rank": doc["homology"]["total_rank"]}
    return {k: doc[k] for k in EXPECTED[command]}


def _check_output(command, reply, out_dir, ref):
    """Problems with one exit-0 reply, as a list of strings."""
    try:
        doc = json.loads(reply.stdout)
    except ValueError:
        return ["stdout is not JSON"]
    problems = []
    if command in EXPECTED:
        try:
            got = _reported(command, doc)
        except (KeyError, TypeError):
            return ["stdout lacks %s" % sorted(EXPECTED[command])]
        for k, want in EXPECTED[command].items():
            if got[k] != want:
                problems.append("%s=%r, expected %r" % (k, got[k], want))
    if command == "analyze":
        want = ref.get("digests")
        try:
            got = analyze_digests(out_dir)
        except (StopIteration, OSError):
            return problems + ["analyze artifacts missing"]
        if got != want:
            problems.append("artifact digests %r, reference %r" % (got, want))
    return problems


def classify(replies, out_dir, ref):
    """(outcome, problem) per reply of one input's session.

    ref is the input's reference entry, or None when the input has none."""
    out = []
    for n, reply in enumerate(replies):
        if ref is None:
            out.append((FAILED, "input has no reference entry"))
            continue
        ref_codes = ref["codes"]
        ref_code = ref_codes[n] if n < len(ref_codes) else None
        if reply.code == 3:
            if ref_code == 3:
                out.append((REFUSED, None))
            else:
                out.append((FAILED, "new refusal: %s" % reply.stderr.strip()))
        elif reply.code != 0:
            out.append((FAILED, "exit %d: %s" % (reply.code,
                                                 reply.stderr.strip()[-300:])))
        else:
            problems = _check_output(reply.command, reply, out_dir, ref)
            out.append((FAILED, "; ".join(problems)) if problems
                       else (OK, None))
    return out
