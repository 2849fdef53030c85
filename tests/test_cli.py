import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tropnorm.cli import FAMILY_ORDER_GUARD, main
from tropnorm.core import format_matrix, parse_matrix


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    doc = json.loads(out) if out.strip() else None
    return code, doc, err


def test_mul_inline(capsys):
    code, doc, err = run(capsys, "mul", "00/-0", "0-/00")
    assert code == 0
    assert doc["is_all_zero"] is True
    assert "all zero: True" in err


def test_mul_expect_zero_failure(capsys):
    code, doc, _ = run(capsys, "mul", "0-/-0", "0-/-0", "--expect-zero")
    assert code == 1


def test_mul_from_file(tmp_path, capsys):
    p = tmp_path / "a.txt"
    p.write_text("0-\n-0\n")
    code, doc, _ = run(capsys, "mul", str(p), str(p))
    assert code == 0
    assert doc["product"] == format_matrix(parse_matrix("0-\n-0"))


def test_indicator_and_classify(capsys):
    code, doc, _ = run(capsys, "indicator", "0-0/00-/-00", "0-0/00-/-00")
    assert code == 0
    assert doc["orthogonal"] is True
    code, doc, _ = run(capsys, "classify", "0-0/00-/-00", "0-0/00-/-00")
    assert code == 0
    assert all(r["kind"] == "cost" for r in doc["rows"])


def test_orth_set(capsys):
    code, doc, _ = run(capsys, "orth-set", "0-0/000/000")
    assert code == 0
    assert doc["count"] == 40


def test_generic_and_mm(capsys):
    code, doc, _ = run(capsys, "generic", "--n", "3", "--set", "V:1,2")
    assert code == 0
    assert parse_matrix(doc["matrix"]).zeros >= {(1, 1), (1, 2), (1, 3), (3, 2)}
    code, doc, _ = run(capsys, "mm", "--n", "4", "--k", "1", "--m", "2")
    assert code == 0
    assert doc["orthogonal"] is True
    assert doc["sigma"] == 10


def test_theta_exhaustive(capsys):
    code, doc, _ = run(capsys, "theta", "--n", "3", "--mode", "exhaustive")
    assert code == 0
    assert doc["value"] == 6
    assert doc["completeness"] == "exhaustive"
    assert doc["total_witnesses"] == 66


def test_theta_bounded(capsys):
    code, doc, _ = run(capsys, "theta", "--n", "3", "--mode", "bounded", "--budget", "5")
    assert code == 0
    assert doc["value"] == 6
    assert doc["completeness"] == "bounded_proof"
    code, doc, err = run(capsys, "theta", "--n", "3", "--mode", "bounded", "--budget", "0")
    assert code == 0
    assert (doc["value"], doc["completeness"]) == (1, "lower_bound")
    assert "at least 1 (lower_bound)" in err


def test_theta_delta(capsys):
    code, doc, _ = run(capsys, "theta-delta", "--n", "4")
    assert code == 0
    assert doc["value"] == 6
    assert doc["total_witnesses"] == 16


def test_enumerate(capsys):
    code, doc, _ = run(capsys, "enumerate", "--n", "3", "--max-sigma", "6")
    assert code == 0
    assert doc["count"] == len(doc["pairs"]) == 66


def test_check_theorem(capsys):
    code, doc, _ = run(capsys, "check-theorem", "--n", "3")
    assert code == 0
    assert doc["holds"] is True
    code, doc, _ = run(capsys, "check-theorem", "--n", "5")
    assert code == 0
    assert (doc["mode"], doc["holds"], doc["theta"]) == ("counterexample", True, 14)


def test_border_round_trip(capsys):
    code, doc, _ = run(capsys, "border", "compose", "0-/-0", "0-", "-0")
    assert code == 0
    composed = doc["matrix"]
    code, doc, _ = run(capsys, "border", "split", composed.replace("\n", "/"))
    assert code == 0
    assert doc["block"] == "0-\n-0"
    assert doc["v"] == "0-"
    assert doc["w"] == "-0"


def test_border_check(capsys):
    code, doc, _ = run(capsys, "border", "check", "00/-0", "00", "00", "0-/00", "00", "00")
    assert code == 0
    assert "orthogonal" in doc


def test_border_check_self(capsys):
    code, doc, _ = run(capsys, "border", "check-self", "00/00", "00", "00")
    assert code == 0
    assert doc["self_orthogonal"] is True


def test_reduce(capsys):
    code, doc, _ = run(capsys, "reduce", "0--/-0-/--0", "--i", "2")
    assert code == 0
    assert doc["matrix"] == "0-\n-0"


@pytest.mark.parametrize("kind, n", [("ortho", 3), ("vnl", 3), ("wnl", 4)])
def test_graph_document_is_stats_with_timings(capsys, monkeypatch, kind, n):
    # the document is the graph's stats and two timings, which go on a
    # copy: the graph's cached stats hold no timing
    from tropnorm import graphs
    g = graphs.build(kind, n)
    monkeypatch.setattr(graphs, "build", lambda kind, n: g)
    code, doc, _ = run(capsys, "graph", "--kind", kind, "--n", str(n))
    assert code == 0
    timings = {key: doc.pop(key) for key in ("build_s", "metrics_s")}
    assert all(isinstance(t, float) and t >= 0 for t in timings.values()), timings
    assert doc == {"command": "graph", **graphs.stats(g)}
    assert not {"build_s", "metrics_s"} & set(graphs.stats(g))


def test_graph_stats_and_dist(capsys):
    code, doc, _ = run(capsys, "graph", "--kind", "ortho", "--n", "3")
    assert code == 0
    assert doc["vertices"] == 62
    assert doc["edges"] == 385
    code, doc, _ = run(
        capsys, "dist", "--kind", "wnl", "--n", "3", "0-0/-0-/-00", "00-/-00/--0"
    )
    assert code == 0
    assert doc["dist"] == 3


def test_usage_errors(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "mul", "0-/x0", "0-/-0")[0] == 2
    assert run(capsys, "theta", "--n", "9")[0] == 2
    assert run(capsys, "generic", "--n", "3", "--set", "Q:1,2")[0] == 2
    assert run(capsys, "reduce", "00-/-0-/--0", "--i", "1")[0] == 2


@pytest.mark.parametrize("argv", [
    ("generic", "--set", "V:1,2&Z:2,1"),
    ("mm", "--k", "3", "--m", "7", "--variant", "2"),
])
def test_family_order_guard(capsys, argv):
    # the order is refused above the guard before any matrix is built
    command, *rest = argv
    guard = FAMILY_ORDER_GUARD
    code, doc, err = run(capsys, command, "--n", str(guard), *rest)
    assert code == 0, err
    matrix = doc["matrix" if command == "generic" else "a"]
    assert doc["n"] == guard and matrix.count("\n") == guard - 1
    code, doc, err = run(capsys, command, "--n", str(guard + 1), *rest)
    assert (code, doc) == (2, None)
    assert err == f"error: order n={guard + 1} refused above the guard n <= {guard}\n"


@pytest.mark.parametrize("atom", ["V:1", "V:a,b", "V1,2"])
def test_generic_malformed_atom(capsys, atom):
    # the message names the atom and the expected form, not Python's
    # unpacking or int() text
    code, doc, err = run(capsys, "generic", "--n", "3", "--set", atom)
    assert (code, doc) == (2, None)
    assert f"bad atom {atom!r}: expected KIND:p,q with integer p and q" in err
    assert "unpack" not in err and "int()" not in err


def test_missing_matrix_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, doc, err = run(capsys, "indicator", "nofile.txt", "0-/-0")
    assert (code, doc) == (2, None)
    assert "no such file 'nofile.txt'" in err and "not matrix text" in err
    # text of the matrix glyphs alone is still parsed, and its faults named
    code, _, err = run(capsys, "indicator", "0-/-", "0-/-0")
    assert code == 2 and "line 2 has 1 characters, expected 2" in err


def test_dist_reads_arguments_before_building(tmp_path, capsys, monkeypatch):
    # a malformed matrix exits 2 with its message, and no graph is built
    from tropnorm import graphs

    def refuse(kind, n):
        raise AssertionError("graph built before the arguments were read")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(graphs, "build", refuse)
    code, doc, err = run(capsys, "dist", "--kind", "wnl", "--n", "5", "0x", "00/-0")
    assert (code, doc) == (2, None)
    assert "no such file '0x', and it is not matrix text" in err
    code, doc, err = run(capsys, "dist", "--kind", "wnl", "--n", "5", "00/-0", "0-/-")
    assert (code, doc) == (2, None)
    assert "line 2 has 1 characters, expected 2" in err


def test_search_argument_errors(capsys):
    code, doc, err = run(capsys, "theta", "--n", "5", "--mode", "bounded", "--budget", "-5")
    assert (code, doc) == (2, None)
    assert "negative" in err
    code, doc, err = run(capsys, "enumerate", "--n", "3", "--max-sigma", "-1")
    assert (code, doc) == (2, None)
    assert "negative" in err
    code, doc, err = run(capsys, "enumerate", "--n", "1", "--max-sigma", "0")
    assert (code, doc) == (2, None)
    assert "2 <= n <= 7" in err and "4n-6" not in err
    for kind, n in (("vnl", "0"), ("wnl", "1"), ("ortho", "-1")):
        code, doc, err = run(capsys, "graph", "--kind", kind, "--n", n)
        assert (code, doc) == (2, None)
        assert f"n={n}" in err


def test_invalid_search_caps(capsys):
    # a negative or NaN cap is refused and named; an infinite one is a cap
    # that never stops the search
    bounded = ("theta", "--n", "3", "--mode", "bounded", "--budget", "2")
    enum = ("enumerate", "--n", "3", "--max-sigma", "2")
    for flag, value in (("--time-limit", "nan"), ("--time-limit", "-1"), ("--node-limit", "-5")):
        for argv in (bounded, enum):
            code, doc, err = run(capsys, *argv, flag, value)
            assert (code, doc) == (2, None)
            assert f"limit {value}" in err
    assert run(capsys, *bounded, "--time-limit", "inf")[0] == 0


def test_enumerate_passes_only_given_caps(capsys, monkeypatch):
    # a cap left off the command line takes the search's own default
    from tropnorm import search
    seen = []

    def fake(n, max_sigma, **caps):
        seen.append(caps)
        return iter(())

    monkeypatch.setattr(search, "enumerate_orthogonal_pairs", fake)
    enum = ("enumerate", "--n", "3", "--max-sigma", "2")
    for flags, caps in (((), {}), (("--node-limit", "7"), {"node_limit": 7}),
                        (("--time-limit", "2.5"), {"time_limit": 2.5})):
        assert run(capsys, *enum, *flags)[0] == 0
        assert seen.pop() == caps


def test_removed_flags_rejected(capsys):
    assert run(capsys, "--threads", "2", "theta-delta", "--n", "3")[0] == 2
    assert run(capsys, "--seed", "7", "theta-delta", "--n", "3")[0] == 2
    assert run(capsys, "graph", "--kind", "ortho", "--n", "2", "--stats")[0] == 2


def test_exhaustive_theta_rejects_search_limits(capsys):
    # the limits only steer the bounded search; exhaustive mode would ignore them
    for flags in (["--budget", "2"], ["--node-limit", "1"], ["--time-limit", "5"],
                  ["--mode", "exhaustive", "--budget", "2", "--node-limit", "1"]):
        code, doc, err = run(capsys, "theta", "--n", "3", *flags)
        assert (code, doc) == (2, None)
        assert "only valid with --mode bounded" in err
        assert all(f in err for f in flags if f.startswith("--") and f != "--mode")


def test_border_vectors_with_leading_minus(capsys):
    # "-0" looks like an option; it parses with or without "--"
    for sep in ((), ("--",)):
        code, doc, _ = run(capsys, "border", "compose", *sep, "0-/-0", "-0", "0-")
        assert code == 0
        assert doc["matrix"] == "0--\n-00\n0-0"
        code, doc, _ = run(capsys, "border", "split", *sep, "0--/-00/0-0")
        assert code == 0
        assert (doc["v"], doc["w"]) == ("-0", "0-")
        code, doc, _ = run(capsys, "border", "check-self", *sep, "00/00", "-0", "00")
        assert code == 0


def test_border_argument_count(capsys):
    for action, count in (("compose", 3), ("split", 1), ("check", 6), ("check-self", 3)):
        for wrong in (count - 1, count + 1):
            code, doc, err = run(capsys, "border", action, *["00/00"] * wrong)
            assert (code, doc) == (2, None)
            assert f"takes {count} arguments, got {wrong}" in err


def test_resource_cap_exit(capsys):
    code, doc, err = run(
        capsys,
        "theta",
        "--n",
        "7",
        "--mode",
        "bounded",
        "--budget",
        "21",
        "--node-limit",
        "1000",
    )
    assert (code, doc) == (3, None)
    assert "node limit 1000 exceeded" in err
    assert json.loads(err.splitlines()[-1], parse_constant=_reject_constant)["nodes"] == 1001
    # the search of every pair of order 6 with at most 18 zeros takes about
    # 0.3 s on a 2-CPU host, six times the limit
    code, doc, err = run(
        capsys, "enumerate", "--n", "6", "--max-sigma", "18", "--time-limit", "0.05"
    )
    assert (code, doc) == (3, None)
    assert "time limit" in err
    # the counters of where the search stopped, as one strict-JSON line
    counters = json.loads(err.splitlines()[-1], parse_constant=_reject_constant)
    assert {"left_factors", "canonical"} <= counters.keys()


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_check_theorem_failure_exit(capsys):
    # outside the checkable range: usage error, not a property failure
    for n in ("1", "11"):
        assert run(capsys, "check-theorem", "--n", n)[0] == 2


def _src_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_cli_import_leaves_numpy_unloaded():
    # no subcommand loads numpy: not `import tropnorm.cli`, not `graph`,
    # whose class partition is plain ints, and not `dist`
    env = _src_env()
    probe = "import sys, tropnorm.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.stdout.strip() == "False", out.stderr
    for argv, key, want in (
        (["graph", "--kind", "ortho", "--n", "3"], "vertices", 62),
        (["graph", "--kind", "wnl", "--n", "3"], "vertices", 47),
        (["dist", "--kind", "wnl", "--n", "3", "0-0/-0-/-00", "00-/-00/--0"], "dist", 3),
    ):
        out = subprocess.run([sys.executable, "-X", "importtime", "-m", "tropnorm.cli", *argv],
                             env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)[key] == want
        assert "tropnorm.graphs" in out.stderr and "numpy" not in out.stderr, argv


# the package and each subcommand load only the modules they run, and none
# of them loads numpy or dataclasses
_LOADED_PROBE = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import tropnorm
else:
    from tropnorm import cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
loaded = [m for m in sys.modules
          if m in ("tropnorm", "numpy", "dataclasses") or m.startswith("tropnorm.")]
print(json.dumps(loaded))
"""


@pytest.mark.parametrize(
    "argv, extra",
    [
        (None, ()),
        (["mul", "0-/-0", "0-/-0"], ("cli", "core")),
        (["border", "split", "0--/-00/0-0"], ("border", "cli", "core", "ortho")),
        (["classify", "0-0/00-/-00", "0-0/00-/-00"], ("cli", "core", "families", "ortho")),
        (["theta", "--n", "3"], ("cli", "core", "families", "ortho", "search")),
        (["graph", "--kind", "ortho", "--n", "3"], ("cli", "core", "families", "graphs", "ortho")),
        (["generic", "--n", "4", "--set", "V:1,2&Z:2,1"], ("cli", "core", "families")),
        (["indicator", "0-0/00-/-00", "0-0/00-/-00"], ("cli", "core", "ortho")),
        (["orth-set", "0-0/000/000"], ("cli", "core", "ortho")),
        (["mm", "--n", "4", "--k", "1", "--m", "2"], ("cli", "core", "families", "ortho")),
        (["theta-delta", "--n", "4"], ("cli", "core", "families", "ortho", "search")),
        (["enumerate", "--n", "3", "--max-sigma", "6"],
         ("cli", "core", "families", "ortho", "search")),
        (["check-theorem", "--n", "2"], ("cli", "core", "families", "ortho", "search")),
        (["reduce", "0--/-0-/--0", "--i", "2"], ("border", "cli", "core", "ortho")),
        (["dist", "--kind", "wnl", "--n", "3", "0-0/-0-/-00", "00-/-00/--0"],
         ("cli", "core", "families", "graphs", "ortho")),
    ],
)
def test_subcommand_import_footprint(argv, extra):
    out = subprocess.run(
        [sys.executable, "-c", _LOADED_PROBE, json.dumps(argv)],
        env=_src_env(), capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    want = {"tropnorm", *(f"tropnorm.{m}" for m in extra)}
    assert set(json.loads(out.stdout)) == want


def test_deterministic_output(capsys):
    first = run(capsys, "enumerate", "--n", "4", "--max-sigma", "8")
    second = run(capsys, "enumerate", "--n", "4", "--max-sigma", "8")
    assert first == second
