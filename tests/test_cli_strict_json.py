"""Strict JSON or a usage error from the exhaustive `theta` and `theta-delta`
commands, over orders inside and outside their guards, run in process."""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from tropnorm.cli import main

VALUES = {
    "theta": {1: 0, 2: 2, 3: 6, 4: 8},
    "theta-delta": {1: 0, 2: 2, 3: 3, 4: 6, 5: 8},
}


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@settings(max_examples=40, deadline=None, database=None)
@given(command=st.sampled_from(sorted(VALUES)), n=st.integers(-3, 12))
def test_exhaustive_commands_print_strict_json_or_exit_two(command, n):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--n", str(n)])
    if n in VALUES[command]:
        assert code == 0, err.getvalue()
        doc = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert doc["value"] == VALUES[command][n]
    else:
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
