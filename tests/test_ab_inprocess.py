"""tools/ab_inprocess.py: one pipeline-r6 round against HEAD, and a
working tree whose output differs stops the tool."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_inprocess.py"


def _load():
    spec = importlib.util.spec_from_file_location("ab_inprocess", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_one_pipeline_round_against_head_is_identical():
    if subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                      capture_output=True).returncode:
        pytest.skip("no commit to compare against")
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "pipeline-r6",
         "--rounds", "1"], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("pipeline-r6: 15 requests identical; ")
    assert proc.stdout.splitlines()[-1].startswith(
        "import obfloer.cli: median base ")


def test_a_differing_stdout_stops_the_tool(tmp_path, capsys):
    ab = _load()

    def changed(argv):
        code = ab.cli.main(argv)
        print()
        return code

    with pytest.raises(SystemExit, match="round 0 input 0: all differs on "
                                         "stdout$"):
        ab.compare(ab.workloads.WORKLOADS["pipeline-r6"], 1,
                   {"base": ab.cli.main, "head": changed}, tmp_path)
