"""Tests of the benchmark's own checks: right outputs pass, corrupted fail.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tropnorm import cli, core, graphs, search  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import oracle as O  # noqa: E402
from spans import NullTracer  # noqa: E402
from workloads import CliOneshot, PairQueries, Round, figures, query_texts  # noqa: E402


class _WallClock:
    """Reference seconds equal to wall seconds."""

    def seconds(self, t0, t1):
        return t1 - t0

    busy = seconds


def _query_out(a, b):
    return query_texts(PairQueries(0, NullTracer())._query(a, b))


@pytest.fixture
def family_query():
    a, b = O.family_pair(7, 2, 5, 1)
    a_txt, b_txt = O.fmt(a), O.fmt(b)
    out = _query_out(core.parse_matrix(a_txt), core.parse_matrix(b_txt))
    return a_txt, b_txt, out


def test_round_defers_checks():
    rnd = Round(NullTracer())
    rnd.check(lambda: ["wrong"])
    assert rnd.errors == []
    rnd.run_checks()
    assert rnd.errors == ["wrong"]
    rnd.samples = [(0.0, 0.1)] * 99  # a p90 with fewer than ten samples beyond it
    with pytest.raises(ValueError):
        figures([rnd], _WallClock())


def test_speed_clock():
    clock = hostspeed.SpeedClock()
    clock.start()
    t0 = time.perf_counter()
    for _ in range(300):
        hostspeed.probe()
    t1 = time.perf_counter()
    with clock.paused():
        p0, p1 = time.perf_counter(), time.perf_counter() + 0.2
        time.sleep(0.2)
    clock.stop()
    assert len(clock.starts) >= 4  # the timer probed while the work ran
    assert not [s for s in clock.starts if p0 < s < p1]  # and not while paused
    assert 0 < clock.busy(t0, t1) < t1 - t0  # the probes are left out
    # work made of the probe itself reads its count of reference probes,
    # however fast the host ran it
    assert 0.5 < clock.seconds(t0, t1) / (300 * hostspeed.REF_PROBE_S) < 1.5


def test_strict_json_refuses_infinity():
    assert O.strict_json('{"girth": 3}') == {"girth": 3}
    with pytest.raises(ValueError):
        O.strict_json('{"girth": Infinity}')
    with pytest.raises(ValueError):
        O.strict_json('{"x": NaN}')


def test_right_pair_query_passes(family_query):
    a_txt, b_txt, out = family_query
    assert checks.check_pair_query(a_txt, b_txt, out, (7, 2, 5, 1)) == []


def test_random_pair_query_passes():
    rng = random.Random(3)
    for _ in range(20):
        a = O.fmt([[O.Z if i == j or rng.random() < 0.6 else O.M for j in range(8)] for i in range(8)])
        b = O.fmt([[O.Z if i == j or rng.random() < 0.6 else O.M for j in range(8)] for i in range(8)])
        out = _query_out(core.parse_matrix(a), core.parse_matrix(b))
        assert checks.check_pair_query(a, b, out) == []


@pytest.mark.parametrize("corrupt", [
    lambda o: o.update(orthogonal=not o["orthogonal"]),
    lambda o: o.update(ab=o["ab"].replace("0", "-", 2).replace("-", "0", 1)),
    lambda o: o["report"]["cells"][5]["witnesses"].pop(),
    lambda o: o["report"].update(gift_count=o["report"]["gift_count"] - 1),
    lambda o: o["rows"].__setitem__(0, ("other", None, None)),
    lambda o: o.update(variant=None),
])
def test_corrupted_pair_query_fails(family_query, corrupt):
    a_txt, b_txt, out = family_query
    bad = copy.deepcopy(out)
    corrupt(bad)
    assert bad != out
    assert checks.check_pair_query(a_txt, b_txt, bad, (7, 2, 5, 1))


def test_theta_certificates():
    doc = search.theta_exhaustive(3).to_document()
    assert checks.check_theta_cert(doc, 3, 6, "exhaustive") == []
    assert checks.check_theta_cert(dict(doc, value=5), 3, 6, "exhaustive")
    dropped = dict(doc, witnesses=doc["witnesses"][1:], total_witnesses=doc["total_witnesses"] - 1)
    assert checks.check_theta_cert(dropped, 3, 6, "exhaustive")
    delta = search.theta_delta_exhaustive(3).to_document()
    assert checks.check_theta_delta_cert(delta, 3, delta["value"]) == []
    assert checks.check_theta_delta_cert(dict(delta, witnesses=delta["witnesses"][1:]), 3, delta["value"])


def test_enumeration():
    minimal = {(w["a"], w["b"]) for w in search.theta_exhaustive(4).to_document()["witnesses"]}
    pairs = [(core.format_matrix(a), core.format_matrix(b))
             for a, b in search.enumerate_orthogonal_pairs(4, 9)]
    assert checks.check_enumeration(pairs, 9, minimal) == []
    assert checks.check_enumeration(pairs[:-1], 9, minimal)
    assert checks.check_enumeration(pairs[::-1], 9, minimal)
    assert checks.check_enumeration(pairs[len(minimal):], 9, minimal)


def test_graph_stats_and_dist():
    wl = CliOneshot(0, NullTracer())
    want = wl._brute_graph("ortho", 3)
    doc = graphs.stats(graphs.build(graphs.ORTHO, 3))
    fields = {k: v for k, v in want.items() if k not in ("dist", "index")}
    assert checks.check_graph_stats(doc, fields) == []
    assert checks.check_graph_stats(dict(doc, diameter=doc["diameter"] + 1), fields)
    assert checks.check_dist(2, 2, False, False, 3) == []
    assert checks.check_dist(2, 1, False, False, 3)
    assert checks.check_dist(1, 1, False, False, 3)
    assert checks.check_dist(4, 4, False, False, 3)


def _cli_doc(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())


def test_cli_cycle_checks():
    wl = CliOneshot(5, NullTracer())
    cycle = wl._cycle(random.Random(5))
    assert len(cycle) == sum(CliOneshot.MAKEUP.values())
    seen = set()
    for kind, argv in cycle:
        if kind in seen or argv[:5] == ["graph", "--kind", "ortho", "--n", "2"]:
            continue
        seen.add(kind)
        doc = _cli_doc(argv)
        assert wl.check_doc(kind, argv, doc) == [], argv
        key = {"mul": "product", "generic": "matrix", "reduce": "matrix", "theta": "value",
               "check-theorem": "holds", "graph": "diameter", "dist": "dist",
               "mm": "sigma", "classify": "sigma", "indicator": "gift_count"}.get(kind)
        if key is not None:
            bad = dict(doc, **{key: "corrupted"})
            assert wl.check_doc(kind, argv, bad), argv
    assert seen == set(CliOneshot.MAKEUP)
