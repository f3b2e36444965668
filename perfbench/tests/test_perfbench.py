"""Tests of the benchmark's own parts: generator, span arithmetic, checker.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE.parent))

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Reply  # noqa: E402


# -- input generator ---------------------------------------------------------


def _texts(w, seed, rnd=0):
    return [i.text for i in workloads.generate(w, seed, rnd)]


def test_generator_is_deterministic_for_a_seed():
    w = WORKLOADS["survey-r22"]
    assert _texts(w, 11) == _texts(w, 11)
    assert _texts(w, 11, 3) == _texts(w, 11, 3)
    assert _texts(w, 11) != _texts(w, 12)
    assert _texts(w, 11) != _texts(w, 11, 1)


def test_rounds_are_distinct_with_the_same_depth_mix():
    w = WORKLOADS["survey-r22"]
    for rnd in range(3):
        inputs = workloads.generate(w, 3, rnd)
        assert len({i.text for i in inputs}) == len(inputs) == w.per_round
        assert [i.pushes for i in inputs] == [0, 1, 2, 3, 1, 2, 3, 1, 2, 3]
        # every push adds two intersection points to r22's 26
        assert all(i.points == 26 + 2 * i.pushes for i in inputs)


def test_r6_rounds_send_r6_and_every_one_push_variant_once():
    w = WORKLOADS["pipeline-r6"]
    for rnd in range(2):
        inputs = workloads.generate(w, 5, rnd)
        assert sorted(i.text for i in inputs) \
            == sorted(workloads.universe(w))
        assert sorted(i.pushes for i in inputs) == [0] + [1] * 14


def test_tail_percentile_is_nearest_rank():
    import run
    xs = [float(i) for i in range(1, 43)]
    assert run.percentile(xs, 75) == (32.0, 10)
    assert run.percentile(xs[:1], 95) == (1.0, 0)


def test_end_to_end_scales_each_round_by_its_own_pace():
    import hostspeed
    import run
    ref = hostspeed.REFERENCE_S

    def rnd(pace, seconds, setup):
        return {"pace_s": pace, "setup_s": setup, "loop_s": sum(seconds),
                "peak_rss_mb": 20.0,
                "sessions": [{"requests": [["all", 0, x, "ok", None]]}
                             for x in seconds]}

    # the host slowed to half speed during the second round and stayed
    # there for the third: same work, twice the time in the third round
    rounds = [rnd(ref, [1.0, 2.0], 0.1), rnd(ref, [1.5, 3.0], 0.1),
              rnd(2 * ref, [2.0, 4.0], 0.2)]
    w = WORKLOADS["survey-r22"]  # p90 tail: the 6th of 6 requests
    scaled, beyond, n = run.end_to_end(w, rounds)
    assert (n, beyond) == (6, 0)
    assert scaled["latency_p50_s"] == 1.5
    assert scaled["latency_tail_s"] == 2.0
    assert scaled["requests_per_s"] == 6 / 9.0
    assert scaled["setup_s"] == 0.1
    raw, _, _ = run.end_to_end(w, rounds, scaled=False)
    assert raw["requests_per_s"] == 6 / 13.5
    assert raw["latency_tail_s"] == 4.0
    assert raw["setup_s"] == 0.1


def test_reference_covers_every_generated_input():
    for w in WORKLOADS.values():
        ref = check.load_reference(w)
        for seed in (1, 2):
            for rnd in range(5):
                assert all(i.key in ref
                           for i in workloads.generate(w, seed, rnd))


# -- span arithmetic -----------------------------------------------------------


class ScriptedClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9];
    # a second request's root d [20, 21] has no children
    tr = tracing.Tracer(ScriptedClock([0, 1, 2, 3, 4, 5, 9, 10, 20, 21]))
    b = tr._wrap("x.b", lambda: None, None)
    a = tr._wrap("x.a", lambda: b(), None)
    c = tr._wrap("y.c", lambda: None, None)

    def body():
        a()
        c()

    root = tr._wrap("cli.main", body, None)
    d = tr._wrap("cli.main", lambda: None, None)
    root()
    d()
    names = [tr.names[i] for i in tr.span_name]
    assert names == ["cli.main", "x.a", "x.b", "y.c", "cli.main"]
    assert list(tr.span_parent) == [-1, 0, 1, 0, -1]
    assert list(tr.span_request) == [0, 0, 0, 0, 1]
    assert list(tr.self_times()) == [3.0, 2.0, 1.0, 4.0, 1.0]
    by_name, by_request = tracing.summarize(tr)
    assert by_name["cli.main"][:2] == [2, 4.0]
    assert by_request[0][:3] == [10.0, 10.0, 4]   # self times cover the root
    assert by_request[1][:3] == [1.0, 1.0, 1]


def test_ratios_carry_their_base():
    by_name = {"linalg.IntSolver.solve": [4, 0.5, 3],
               "floer.NiceComplex.__init__": [6, 0.1, 0]}
    m = tracing.layer_metrics(by_name, [("all", 0), ("all", 0), ("all", 3)],
                              [(10, 50), (20, 70), (16, None)])
    assert m["linalg.int_solve_hit_ratio"] == (0.75, 4)
    assert m["linalg.int_solve_calls"] == 4 / 3
    assert m["floer.nice_complex_calls"] == (3.0, 2)
    assert m["nicefy.generator_growth"] == (4.0, 30)
    assert m["floer.nonzero_ratio"] == (0.0, 0)


def test_install_wraps_imported_names_and_uninstall_restores():
    from obfloer import cli, diagram, domains, linalg, nicefy
    before = (cli.make_nice, nicefy.build_diagram, domains.lattice_points,
              linalg.IntSolver.solve)
    tr = tracing.Tracer(lambda: 0.0)
    tr.install()
    try:
        assert cli.make_nice is not before[0]
        assert nicefy.build_diagram is diagram.build_diagram
        assert domains.lattice_points is linalg.lattice_points
        assert linalg.IntSolver.solve is not before[3]
    finally:
        tr.uninstall()
    assert (cli.make_nice, nicefy.build_diagram, domains.lattice_points,
            linalg.IntSolver.solve) == before


# -- checker -----------------------------------------------------------------


def _reply(command, code, doc=None, stderr=""):
    return Reply(command, code, json.dumps(doc) if doc else "", stderr, 0.1)


def _all_doc(order=1, total_rank=4):
    return {"contact": {"contact_class": "zero"}, "order": {"order": order},
            "homology": {"total_rank": total_rank}}


def test_checker_accepts_the_expected_all(tmp_path):
    got = check.classify([_reply("all", 0, _all_doc())], tmp_path,
                         {"codes": [0]})
    assert got == [(check.OK, None)]


def test_checker_flags_a_tampered_order(tmp_path):
    got = check.classify([_reply("all", 0, _all_doc(order=2))], tmp_path,
                         {"codes": [0]})
    assert got[0][0] == check.FAILED and "order=2" in got[0][1]


def test_checker_flags_a_tampered_total_rank(tmp_path):
    got = check.classify([_reply("all", 0, _all_doc(total_rank=6))],
                         tmp_path, {"codes": [0]})
    assert got[0][0] == check.FAILED and "total_rank=6" in got[0][1]


def test_checker_flags_a_new_refusal_and_keeps_an_old_one(tmp_path):
    stuck = _reply("all", 3, stderr="refused: move cap 1 reached")
    assert check.classify([stuck], tmp_path, {"codes": [0]})[0][0] \
        == check.FAILED
    assert check.classify([stuck], tmp_path, {"codes": [3]})[0] \
        == (check.REFUSED, None)


def test_checker_fails_internal_errors_and_unknown_inputs(tmp_path):
    assert check.classify([_reply("all", 4)], tmp_path,
                          {"codes": [4]})[0][0] == check.FAILED
    ok = _reply("all", 0, _all_doc())
    assert check.classify([ok], tmp_path, None)[0][0] == check.FAILED


def test_checker_compares_analyze_digests(tmp_path):
    (tmp_path / "r22_analysis.json").write_text("{}\n")
    (tmp_path / "r22_possible_differentials.txt").write_text("x0 -> x1\n")
    ref = {"codes": [0], "digests": check.analyze_digests(tmp_path)}
    doc = {"b1": 2, "curves": 3}
    assert check.classify([_reply("analyze", 0, doc)], tmp_path,
                          ref)[0] == (check.OK, None)
    (tmp_path / "r22_possible_differentials.txt").write_text("x1 -> x0\n")
    got = check.classify([_reply("analyze", 0, doc)], tmp_path, ref)
    assert got[0][0] == check.FAILED and "digests" in got[0][1]
