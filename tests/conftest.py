import os
import pathlib
import random
import subprocess
import sys

import pytest

from obfloer.diagram import build_diagram, parse_region_list
from obfloer.nicefy import random_push

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "diagrams"


def load_region_list(name):
    return parse_region_list((FIXTURES / (name + ".json")).read_text())


def load_diagram(name):
    return build_diagram(load_region_list(name))


def pushed_variant(name, pushes, seed):
    """The fixture's region list after `pushes` seeded random finger moves."""
    rl = load_region_list(name)
    rng = random.Random("%s/%d/%d" % (name, pushes, seed))
    for _ in range(pushes):
        rl = random_push(rl, rng)
    return rl


class _Pick:
    """Stands in for an rng so that random_push takes candidate k."""

    def __init__(self, k):
        self.k = k
        self.n = None

    def randrange(self, n):
        self.n = n
        return min(self.k, n - 1)


def one_push_variants(name):
    """Region lists of every one-push variant of the fixture, in order."""
    rl = load_region_list(name)
    out, k = [], 0
    while True:
        pick = _Pick(k)
        moved = random_push(rl, pick)
        if moved is None or k >= pick.n:
            return out
        out.append(moved)
        k += 1


SRC = FIXTURES.parent / "src"


def run_cli_optimized(args, prelude=""):
    """Run obfloer.cli.main(args) in a `python -O` subprocess, where every
    assert is stripped; prelude is Python run first (to patch the package).
    Returns (exit code, stdout, stderr)."""
    code = "%s\nimport sys\nfrom obfloer.cli import main\nsys.exit(main(%r))" % (
        prelude, [str(a) for a in args])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="session")
def r22():
    return load_diagram("r22")


@pytest.fixture(scope="session")
def r6():
    return load_diagram("r6")


@pytest.fixture(scope="session")
def s3_tight():
    return load_diagram("s3_tight")


@pytest.fixture(scope="session")
def s3_overtwisted():
    return load_diagram("s3_overtwisted")


@pytest.fixture(scope="session")
def l21():
    return load_diagram("l21")


@pytest.fixture(scope="session")
def sphere4():
    return load_diagram("sphere4")


@pytest.fixture(scope="session")
def octa2():
    return load_diagram("octa2")


@pytest.fixture(scope="session")
def l31():
    return load_diagram("l31")


@pytest.fixture(scope="session")
def s3_wiggle():
    return load_diagram("s3_wiggle")


@pytest.fixture(scope="session")
def s3_twopoint():
    return load_diagram("s3_twopoint")


@pytest.fixture(scope="session")
def s1s2():
    return load_diagram("s1s2")
