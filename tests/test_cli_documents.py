"""The document contract of every subcommand, run in process through
`cli.main`: a run that exits 0 or 1 prints one JSON document whose first
key is "command" and whose summary is stderr's first line; a run that
exits 2 or 3 prints nothing on stdout."""

import contextlib
import io
import json
import math

import pytest

from tropnorm import search
from tropnorm.cli import main

# argv, exit code, stderr's first line (the summary for exits 0 and 1)
ROWS = [
    ("mul 00/-0 0-/00", 0, "product of order 2; all zero: True"),
    ("mul 0-/-0 0-/-0 --expect-zero", 1, "product of order 2; all zero: False"),
    ("indicator 0-0/00-/-00 0-0/00-/-00", 0, "orthogonal: True; prop 3, cost 3, gift 0"),
    ("classify 0-0/00-/-00 0-0/00-/-00", 0, "row kinds: ['cost', 'cost', 'cost']"),
    ("orth-set 0-0/000/000", 0, "40 matrices orthogonal to the input"),
    ("generic --n 4 --set V:1,2&Z:2,1", 0, "generic matrix of V:1,2&Z:2,1"),
    ("mm --n 4 --k 1 --m 2", 0, "variant 0 pair at (1,2), n=4"),
    ("theta --n 3", 0, "minimum 6 (exhaustive), 66 witnesses"),
    ("theta --n 3 --mode bounded --budget 0", 0, "at least 1 (lower_bound), 0 witnesses"),
    ("theta-delta --n 4", 0, "minimum 6 over self-orthogonal matrices, 16 witnesses"),
    ("enumerate --n 3 --max-sigma 6", 0, "66 orthogonal pairs with sigma <= 6"),
    ("check-theorem --n 3", 0, "mode counterexample, holds: True"),
    ("border compose 0-/-0 0- -0", 0, "composed matrix of order 3"),
    ("border split 0--/-00/0-0", 0, "split into block of order 2 plus two vectors"),
    ("border check 00/-0 00 00 0-/00 00 00", 0, "bordered pair orthogonal: True"),
    ("border check-self 00/00 00 00", 0, "bordered matrix self-orthogonal: True"),
    ("reduce 0--/-0-/--0 --i 2", 0, "reduced to order 2"),
    ("graph --kind wnl --n 3", 0, "wnl n=3: 47 vertices, girth 3, diameter 3"),
    # the one known non-strict document, asserted below
    ("graph --kind ortho --n 2", 0, "ortho n=2: 2 vertices, girth inf, diameter 1"),
    ("dist --kind ortho --n 3 0-0/-0-/-00 00-/-00/--0", 0, "distance 2 in ortho, n=3"),
    # one malformed argument per subcommand
    ("mul 0-/x0 0-/-0", 2, "error: no such file '0-/x0', and it is not matrix text ('0', '-', '/')"),
    ("indicator 0-/- 0-/-0", 2, "error: line 2 has 1 characters, expected 2"),
    ("classify 0-0/00-/-00 0-/-0", 2, "error: orders differ: 3 vs 2"),
    ("orth-set 0x", 2, "error: no such file '0x', and it is not matrix text ('0', '-', '/')"),
    ("generic --n 3 --set Q:1,2", 2, "error: unknown atom kind 'Q' in 'Q:1,2'"),
    ("mm --n 4 --k 1 --m 2 --variant 7", 2, "error: variant must be in 0..3, got 7"),
    ("theta --n 9", 2, "error: exhaustive pair search refused above n=4"),
    ("theta-delta --n 6", 2, "error: exhaustive self search refused above n=5"),
    ("enumerate --n 3 --max-sigma -1", 2, "error: max_sigma -1 is negative"),
    ("check-theorem --n 11", 2, "error: unsupported n=11: use 2..10"),
    ("border compose 00/00 00", 2, "error: border compose takes 3 arguments, got 2"),
    ("reduce 00-/-0-/--0 --i 1", 2,
     "error: row/column 1 has off-diagonal zeros; deletion not supported"),
    ("graph --kind ortho --n 5", 2, "error: ORTHO build refused above n=4"),
    ("dist --kind wnl --n 3 0x 00/-0", 2,
     "error: no such file '0x', and it is not matrix text ('0', '-', '/')"),
    ("theta --n 7 --mode bounded --budget 21 --node-limit 1000", 3,
     "inconclusive: node limit 1000 exceeded"),
]

SUBCOMMANDS = {"mul", "indicator", "classify", "orth-set", "generic", "mm", "theta",
               "theta-delta", "enumerate", "check-theorem", "border", "reduce", "graph",
               "dist"}


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_table_covers_every_subcommand_at_every_exit():
    for code in (0, 2):
        assert {argv.split()[0] for argv, c, _ in ROWS if c == code} == SUBCOMMANDS
    assert {c for _, c, _ in ROWS} == {0, 1, 2, 3}


@pytest.mark.parametrize("argv, code, first", ROWS, ids=[r[0] for r in ROWS])
def test_document_contract(tmp_path, monkeypatch, argv, code, first):
    # no file in the working directory shadows an inline matrix
    monkeypatch.chdir(tmp_path)
    argv = argv.split()
    got, out, err = _run(argv)
    assert got == code, err
    assert err.splitlines()[0] == first
    if code in (2, 3):
        assert out == ""
        return
    doc = json.loads(out)
    assert next(iter(doc)) == "command" and doc["command"] == argv[0]
    assert out == json.dumps(doc, indent=2) + "\n"
    if code == 1:
        assert err.splitlines()[1:] == ["property check failed: product is not the all-zero matrix"]
    elif argv[:5] == ["graph", "--kind", "ortho", "--n", "2"]:
        assert '"girth": Infinity' in out and doc["girth"] == math.inf
        with pytest.raises(ValueError, match="Infinity"):
            json.loads(out, parse_constant=_reject_constant)
    else:
        assert json.loads(out, parse_constant=_reject_constant) == doc


def test_check_theorem_failure_prints_its_document(monkeypatch):
    # a report whose claim fails is printed whole, then exits 1
    real = search.check_theorem_theta
    monkeypatch.setattr(search, "check_theorem_theta", lambda n: {**real(n), "holds": False})
    code, out, err = _run(["check-theorem", "--n", "10"])
    assert code == 1
    doc = json.loads(out, parse_constant=_reject_constant)
    assert list(doc)[:3] == ["command", "n", "mode"] and doc["holds"] is False
    assert err.splitlines() == ["mode forward, holds: False",
                                "property check failed: theorem check failed"]
