"""Command-line driver.

One invocation, one structured JSON document on standard output, a short
human summary on standard error.  Exit codes: 0 success, 1 failed property
check, 2 usage or parse error, 3 resource cap exceeded.

Each handler `_cmd_*` returns its document and summary, and third a
failure message when a property check failed; `main` alone prints them,
puts "command" first in the document and picks the exit code.  A handler
that raises leaves stdout empty: `SearchInconclusive` exits 3, and a
malformed argument or a refused order exits 2.

Each handler imports the modules it runs, so that a one-shot run compiles
only those (`mul` needs `core` alone, and none loads numpy).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from .core import (
    GRAPH_KINDS,
    WITNESS_CAP,
    MatrixFormatError,
    NormalMatrix,
    SearchInconclusive,
    all_zero,
    format_matrix,
    mat_odot,
    parse_matrix,
    sigma,
)

if TYPE_CHECKING:
    from .border import BorderedBlocks, BorderVector

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _read_matrix(arg: str) -> NormalMatrix:
    """A matrix argument is a file path or inline text; '/' separates rows
    in inline form."""
    if os.path.exists(arg):
        with open(arg) as fh:
            return parse_matrix(fh.read())
    if any(ch not in "0-/" and not ch.isspace() for ch in arg):
        raise MatrixFormatError(
            f"no such file {arg!r}, and it is not matrix text ('0', '-', '/')")
    return parse_matrix(arg.replace("/", "\n"))


def _read_vector(arg: str) -> BorderVector:
    from .border import BorderVector
    entries = []
    for ch in arg.strip():
        if ch == "0":
            entries.append(0)
        elif ch == "-":
            entries.append(-1)
        else:
            raise MatrixFormatError(f"bad vector glyph {ch!r} in {arg!r}")
    if not entries:
        raise MatrixFormatError("empty vector")
    return BorderVector.from_entries(entries)


# -- subcommand handlers ----------------------------------------------


def _cmd_mul(args) -> tuple:
    a = _read_matrix(args.a)
    b = _read_matrix(args.b)
    prod = mat_odot(a, b)
    zero = prod == all_zero(a.n)
    doc = {
        "a": format_matrix(a),
        "b": format_matrix(b),
        "product": format_matrix(prod),
        "is_all_zero": zero,
    }
    summary = f"product of order {a.n}; all zero: {zero}"
    if args.expect_zero and not zero:
        return doc, summary, "product is not the all-zero matrix"
    return doc, summary


def _cmd_indicator(args) -> tuple:
    from .ortho import indicator
    a = _read_matrix(args.a)
    b = _read_matrix(args.b)
    rep = indicator(a, b)
    doc = {"a": format_matrix(a), "b": format_matrix(b), **rep.to_document()}
    return doc, (
        f"orthogonal: {doc['orthogonal']}; prop {rep.prop_count}, "
        f"cost {rep.cost_count}, gift {rep.gift_count}"
    )


def _cmd_classify(args) -> tuple:
    from .families import mm_classify
    from .ortho import indicator, is_orthogonal, row_type
    a = _read_matrix(args.a)
    b = _read_matrix(args.b)
    rep = indicator(a, b)
    rows = []
    for i in range(1, a.n + 1):
        rt = row_type(rep, i)
        rows.append({"row": i, "kind": rt.kind, "k": rt.k, "m": rt.m})
    v = mm_classify(a, b)
    doc = {
        "a": format_matrix(a),
        "b": format_matrix(b),
        "orthogonal": is_orthogonal(a, b),
        "sigma": sigma(a, b),
        "rows": rows,
        "family_variant": None
        if v is None
        else {"k": v.k, "m": v.m, "variant": v.variant},
    }
    return doc, f"row kinds: {[r['kind'] for r in rows]}"


def _cmd_orth_set(args) -> tuple:
    from .ortho import orth_set
    a = _read_matrix(args.a)
    out = sorted(orth_set(a), key=lambda m: m.rows)
    doc = {
        "a": format_matrix(a),
        "count": len(out),
        "matrices": [format_matrix(m) for m in out[:WITNESS_CAP]],
        "truncated": len(out) > WITNESS_CAP,
    }
    return doc, f"{len(out)} matrices orthogonal to the input"


# `generic` and `mm` build a matrix of any order: on a 2-CPU Intel Xeon host
# `mm --n 1000` takes 0.6 s and prints 2 MB, `--n 4000` 13 s and 32 MB, and
# `--n 10**20` allocates until the process is killed
FAMILY_ORDER_GUARD = 1000


def _family_order(n: int) -> int:
    if n > FAMILY_ORDER_GUARD:
        raise ValueError(f"order n={n} refused above the guard n <= {FAMILY_ORDER_GUARD}")
    return n


def _cmd_generic(args) -> tuple:
    from .families import FamilySpec, spec_generic
    spec = FamilySpec.parse(_family_order(args.n), args.set)
    g = spec_generic(spec)
    doc = {"n": args.n, "set": str(spec), "matrix": format_matrix(g)}
    return doc, f"generic matrix of {spec}"


def _cmd_mm(args) -> tuple:
    from .families import MmVariant, mm_pair
    from .ortho import indicator, is_orthogonal
    v = MmVariant(args.k, args.m, args.variant)
    a, b = mm_pair(v, _family_order(args.n))
    rep = indicator(a, b)
    doc = {
        "n": args.n,
        "k": args.k,
        "m": args.m,
        "variant": args.variant,
        "a": format_matrix(a),
        "b": format_matrix(b),
        "sigma": sigma(a, b),
        "orthogonal": is_orthogonal(a, b),
        "prop_count": rep.prop_count,
        "cost_count": rep.cost_count,
        "gift_count": rep.gift_count,
    }
    return doc, f"variant {args.variant} pair at ({args.k},{args.m}), n={args.n}"


def _given(args, names: tuple[str, ...]) -> dict:
    """The options among names that the command line sets; the others keep
    the defaults of the function they are passed to."""
    return {k: getattr(args, k) for k in names if getattr(args, k) is not None}


def _cmd_theta(args) -> tuple:
    from . import search
    # the bounded search's limits; an exhaustive run has none to apply
    limits = _given(args, ("budget", "node_limit", "time_limit"))
    if args.mode == "exhaustive":
        if limits:
            given = ", ".join("--" + k.replace("_", "-") for k in limits)
            raise ValueError(f"{given}: only valid with --mode bounded")
        cert = search.theta_exhaustive(args.n)
    else:
        if args.budget is None:
            raise ValueError("--budget is required with --mode bounded")
        cert = search.theta_bounded(args.n, **limits)
    lower = cert.completeness == search.COMPLETENESS_LOWER_BOUND
    return cert.to_document(), (
        f"{'at least' if lower else 'minimum'} {cert.value} ({cert.completeness}), "
        f"{cert.total_witnesses} witnesses"
    )


def _cmd_theta_delta(args) -> tuple:
    from .search import theta_delta_exhaustive
    cert = theta_delta_exhaustive(args.n)
    return cert.to_document(), (
        f"minimum {cert.value} over self-orthogonal matrices, "
        f"{cert.total_witnesses} witnesses"
    )


def _cmd_enumerate(args) -> tuple:
    from .search import enumerate_orthogonal_pairs
    limits = _given(args, ("node_limit", "time_limit"))
    pairs = list(enumerate_orthogonal_pairs(args.n, args.max_sigma, **limits))
    doc = {
        "n": args.n,
        "max_sigma": args.max_sigma,
        "count": len(pairs),
        "pairs": [
            {"a": format_matrix(a), "b": format_matrix(b)}
            for a, b in pairs[:WITNESS_CAP]
        ],
        "truncated": len(pairs) > WITNESS_CAP,
    }
    return doc, f"{len(pairs)} orthogonal pairs with sigma <= {args.max_sigma}"


def _cmd_check_theorem(args) -> tuple:
    from .search import check_theorem_theta
    report = check_theorem_theta(args.n)
    summary = f"mode {report['mode']}, holds: {report['holds']}"
    if not report["holds"]:
        return report, summary, "theorem check failed"
    return report, summary


BORDER_ARITY = {"compose": 3, "split": 1, "check": 6, "check-self": 3}


def _read_blocks(m: str, v: str, w: str) -> BorderedBlocks:
    from .border import BorderedBlocks
    return BorderedBlocks(_read_matrix(m), _read_vector(v), _read_vector(w))


def _cmd_border(args) -> tuple:
    from . import border
    want = BORDER_ARITY[args.action]
    if len(args.args) != want:
        raise ValueError(
            f"border {args.action} takes {want} arguments, got {len(args.args)}"
        )
    if args.action == "compose":
        out = border.border_compose(_read_blocks(*args.args))
        return ({"action": "compose", "matrix": format_matrix(out)},
                f"composed matrix of order {out.n}")
    if args.action == "split":
        blocks = border.border_split(_read_matrix(args.args[0]))
        doc = {
            "action": "split",
            "block": format_matrix(blocks.b),
            "v": "".join("0" if i in blocks.v.zeros else "-" for i in range(1, blocks.v.n + 1)),
            "w": "".join("0" if i in blocks.w.zeros else "-" for i in range(1, blocks.w.n + 1)),
        }
        return doc, f"split into block of order {blocks.b.n} plus two vectors"
    if args.action == "check":
        res = border.border_orthogonality_condition(
            _read_blocks(*args.args[:3]), _read_blocks(*args.args[3:])
        )
        return {"action": "check", **res}, f"bordered pair orthogonal: {res['orthogonal']}"
    res = border.self_ortho_border_condition(_read_blocks(*args.args))
    return ({"action": "check-self", **res},
            f"bordered matrix self-orthogonal: {res['self_orthogonal']}")


def _cmd_reduce(args) -> tuple:
    from .border import reduce_size
    a = _read_matrix(args.a)
    out = reduce_size(a, args.i)
    doc = {"a": format_matrix(a), "i": args.i, "matrix": format_matrix(out)}
    return doc, f"reduced to order {out.n}"


def _cmd_graph(args) -> tuple:
    import time

    from .graphs import build, stats
    t0 = time.monotonic()
    g = build(args.kind, args.n)
    g.num_vertices  # makes the class partition, so that build_s covers all that stats reads
    t1 = time.monotonic()
    # the timings go on a copy of the graph's cached stats
    doc = {**stats(g), "build_s": t1 - t0, "metrics_s": time.monotonic() - t1}
    return doc, (
        f"{args.kind} n={args.n}: {doc['vertices']} vertices, "
        f"girth {doc['girth']}, diameter {doc['diameter']}"
    )


def _cmd_dist(args) -> tuple:
    from .graphs import INFINITY, build, dist
    # a malformed argument exits before the graph is built
    u = _read_matrix(args.a)
    v = _read_matrix(args.b)
    d = dist(build(args.kind, args.n), u, v)
    doc = {
        "kind": args.kind,
        "n": args.n,
        "a": format_matrix(u),
        "b": format_matrix(v),
        "dist": "inf" if d == INFINITY else d,
    }
    return doc, f"distance {doc['dist']} in {args.kind}, n={args.n}"


# -- parser -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="tropnorm",
        description="orthogonality toolkit for normal matrices over {0,-1}",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mul", help="tropical product of two matrices")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--expect-zero", action="store_true")
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("indicator", help="indicator matrix and zero classes")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_indicator)

    p = sub.add_parser("classify", help="row types and family membership")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("orth-set", help="all matrices orthogonal to the input")
    p.add_argument("a")
    p.set_defaults(func=_cmd_orth_set)

    p = sub.add_parser("generic", help="generic matrix of a V/W/Z spec")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", required=True, help='e.g. "V:1,2&Z:2,1"')
    p.set_defaults(func=_cmd_generic)

    p = sub.add_parser("mm", help="generic minimal-family pair")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--variant", type=int, default=0)
    p.set_defaults(func=_cmd_mm)

    p = sub.add_parser("theta", help="minimal zero count over orthogonal pairs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "bounded"), default="exhaustive")
    p.add_argument("--budget", type=int)
    p.add_argument("--node-limit", type=int)
    p.add_argument("--time-limit", type=float)
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("theta-delta", help="minimal zero count, self-orthogonal")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_theta_delta)

    p = sub.add_parser("enumerate", help="orthogonal pairs up to a zero budget")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-sigma", type=int, required=True)
    p.add_argument("--node-limit", type=int)
    p.add_argument("--time-limit", type=float)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("check-theorem", help="minimal-pair characterization check")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_check_theorem)

    p = sub.add_parser("border", help="bordered composition and conditions")
    p.add_argument("action", choices=tuple(BORDER_ARITY))
    # REMAINDER takes a vector such as "-0-" with or without a leading "--"
    p.add_argument("args", nargs=argparse.REMAINDER)
    p.set_defaults(func=_cmd_border)

    p = sub.add_parser("reduce", help="delete a zero-free row/column pair")
    p.add_argument("a")
    p.add_argument("--i", type=int, required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("graph", help="relation graph statistics")
    p.add_argument("--kind", choices=GRAPH_KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("dist", help="distance between two vertices")
    p.add_argument("--kind", choices=GRAPH_KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_dist)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        doc, summary, *failure = args.func(args)
        print(json.dumps({"command": args.command, **doc}, indent=2))
        print(summary, file=sys.stderr)
    except SearchInconclusive as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        # where the search stopped: its counters, as one strict-JSON line
        print(json.dumps(exc.stats, allow_nan=False), file=sys.stderr)
        return EXIT_RESOURCE
    except (MatrixFormatError, ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if failure:
        print(f"property check failed: {failure[0]}", file=sys.stderr)
        return EXIT_PROPERTY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
