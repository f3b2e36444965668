"""Workload definitions, the seeded input generator, and one request.

Every input is a committed fixture moved by a few seeded
``nicefy.random_push`` steps.  A push is a finger move, so each variant
presents the fixture's own pointed diagram up to isotopy and keeps its
homology, contact class and spectral order.  The program under test only
ever sees the generated region lists, written to files and passed to
``obfloer.cli.main`` the way a user runs the tool.
"""

import contextlib
import hashlib
import io
import random
import traceback
from dataclasses import dataclass
from pathlib import Path

from obfloer import cli
from obfloer.diagram import parse_region_list, region_list_to_json
from obfloer.nicefy import random_push

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "diagrams"

# redraws of one push depth before it counts as used up (depth 0 has one
# variant and depth 1 fourteen, for both fixtures)
MAX_REDRAWS = 200


@dataclass(frozen=True)
class Workload:
    name: str
    fixture: str
    depths: tuple   # push counts, cycled in this order input by input
    session: tuple  # cli commands sent per input, in order
    per_round: int  # distinct inputs one round sends (see worker.py)
    # latency_tail_s percentile: a high one with at least ten requests
    # beyond it at the request count of a 60 s run when the benchmark was
    # added (survey p90 of 110-130 requests, pipeline p85 of 75-105)
    tail_pct: int
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "survey-r22", "r22", (0, 1, 2, 3), ("analyze",), 10, 90,
            "analyze on non-nice r22 variants: rank-2 positive-domain lattice "
            "scans and a spin-c partition with many classes; nicefy and "
            "floer never run"),
        # r6 takes at most one push: two pushes reach nice diagrams of up
        # to 5940 generators, one request on which outlasts a whole run.
        # With r6 itself that is 15 inputs, each sent once a round, so a
        # percentile falls inside one input's repeats, not at the edge
        # between two inputs of different cost, where noise moves it: p50
        # is the middle of the 8th cheapest input, p85 inside the three
        # of about 1.1 s (p75 would sit on their lower edge)
        Workload(
            "pipeline-r6", "r6", (0, 1), ("all",), 15, 85,
            "all on r6 and its one-push variants: find_diffs over every "
            "spin-c class drives find_pos_domains and IntSolver.solve; "
            "NiceComplex is built three times per request"),
    )
}


@dataclass(frozen=True)
class Input:
    index: int
    fixture: str
    pushes: int
    points: int
    text: str  # region-list JSON handed to the program

    @property
    def key(self):
        return input_key(self.text)


def input_key(text):
    """Short content hash naming an input in the reference tables."""
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def load_fixture(name):
    return parse_region_list((FIXTURES / (name + ".json")).read_text())


def _num_points(rl):
    return 1 + max(c for reg in rl.regions for cir in reg for c in cir)


def generate(workload, seed, rnd=0):
    """The inputs of one round for one seed: distinct, in request order.

    Push depths cycle through ``workload.depths``, so every round has the
    same mix of depths; a draw that repeats an earlier input of the round
    is drawn again, and a depth whose variants are used up is skipped
    from then on.  Nothing is dropped for its size or outcome.
    """
    base = load_fixture(workload.fixture)
    rng = random.Random("%s/%d/%d" % (workload.name, seed, rnd))
    seen = set()
    used_up = set()
    out = []
    turn = 0
    while (len(out) < workload.per_round
           and len(used_up) < len(workload.depths)):
        depth = workload.depths[turn % len(workload.depths)]
        turn += 1
        if depth in used_up:
            continue
        for _ in range(MAX_REDRAWS):
            rl = base
            for _ in range(depth):
                rl = random_push(rl, rng)
            text = region_list_to_json(rl) + "\n"
            if text not in seen:
                break
        else:
            used_up.add(depth)
            continue
        seen.add(text)
        out.append(Input(len(out), workload.fixture, depth, _num_points(rl),
                         text))
    return out


class _Pick:
    """Stands in for an rng so random_push takes a chosen candidate."""

    def __init__(self, k):
        self.k = k
        self.n = None

    def randrange(self, n):
        self.n = n
        return min(self.k, n - 1)


def universe(workload):
    """Every input ``generate`` can yield for any seed, as region-list JSON.

    Breadth-first over all candidates random_push could pick, so the
    reference tables recorded from it cover every seed."""
    base = load_fixture(workload.fixture)
    level = {region_list_to_json(base) + "\n": base}
    out = {}
    for depth in range(max(workload.depths) + 1):
        if depth in workload.depths:
            out.update({t: depth for t in level})
        if depth == max(workload.depths):
            break
        nxt = {}
        for rl in level.values():
            k = 0
            while True:
                pick = _Pick(k)
                moved = random_push(rl, pick)
                if moved is None:
                    break
                nxt.setdefault(region_list_to_json(moved) + "\n", moved)
                k += 1
                if k >= pick.n:
                    break
        level = nxt
    return out


@dataclass
class Reply:
    command: str
    code: int
    stdout: str
    stderr: str
    seconds: float


def send(command, input_path, out_dir, clock):
    """One request: ``obfloer <command> --format json`` in this process."""
    argv = [command, "--input", str(input_path), "--out-dir", str(out_dir),
            "--format", "json"]
    so, se = io.StringIO(), io.StringIO()
    t0 = clock()
    with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code if isinstance(e.code, int) else cli.EXIT_BAD_INPUT
        except Exception:  # an escaped exception is an internal error
            se.write(traceback.format_exc())
            code = cli.EXIT_INTERNAL
    return Reply(command, code, so.getvalue(), se.getvalue(), clock() - t0)


def run_session(workload, input_path, out_dir, clock):
    """Send the workload's commands for one input; returns their replies.

    A command is not sent once an earlier one of the session failed."""
    replies = []
    for command in workload.session:
        reply = send(command, input_path, out_dir, clock)
        replies.append(reply)
        if reply.code != cli.EXIT_OK:
            break
    return replies
