"""Command-line driver.

One invocation, one structured JSON document on standard output, a short
human summary on standard error.  Exit codes: 0 success, 1 failed property
check, 2 usage or parse error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import border as border_mod
from . import graphs as graphs_mod
from . import search as search_mod
from .core import (
    MatrixFormatError,
    NormalMatrix,
    all_zero,
    format_matrix,
    mat_odot,
    parse_matrix,
    sigma,
)
from .families import FamilySpec, MmVariant, mm_classify, mm_pair, spec_generic
from .ortho import indicator, is_orthogonal, orth_set, row_type

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

WITNESS_PRINT_CAP = 10_000


class PropertyFailure(Exception):
    pass


def _read_matrix(arg: str) -> NormalMatrix:
    """A matrix argument is a file path or inline text; '/' separates rows
    in inline form."""
    if os.path.exists(arg):
        with open(arg) as fh:
            text = fh.read()
    else:
        text = arg.replace("/", "\n")
    return parse_matrix(text)


def _read_vector(arg: str) -> border_mod.BorderVector:
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
    return border_mod.BorderVector.from_entries(entries)


def _emit(doc: dict, summary: str) -> None:
    print(json.dumps(doc, indent=2))
    print(summary, file=sys.stderr)


# -- subcommand handlers ----------------------------------------------


def _cmd_mul(args) -> int:
    a = _read_matrix(args.a)
    b = _read_matrix(args.b)
    prod = mat_odot(a, b)
    zero = prod == all_zero(a.n)
    doc = {
        "command": "mul",
        "a": format_matrix(a),
        "b": format_matrix(b),
        "product": format_matrix(prod),
        "is_all_zero": zero,
    }
    _emit(doc, f"product of order {a.n}; all zero: {zero}")
    if args.expect_zero and not zero:
        raise PropertyFailure("product is not the all-zero matrix")
    return EXIT_OK


def _cmd_indicator(args) -> int:
    a = _read_matrix(args.a)
    b = _read_matrix(args.b)
    rep = indicator(a, b)
    doc = {"command": "indicator", "a": format_matrix(a), "b": format_matrix(b)}
    doc.update(rep.to_document())
    _emit(
        doc,
        f"orthogonal: {doc['orthogonal']}; prop {rep.prop_count}, "
        f"cost {rep.cost_count}, gift {rep.gift_count}",
    )
    return EXIT_OK


def _cmd_classify(args) -> int:
    a = _read_matrix(args.a)
    b = _read_matrix(args.b)
    rep = indicator(a, b)
    rows = []
    for i in range(1, a.n + 1):
        rt = row_type(rep, i)
        rows.append({"row": i, "kind": rt.kind, "k": rt.k, "m": rt.m})
    v = mm_classify(a, b)
    doc = {
        "command": "classify",
        "a": format_matrix(a),
        "b": format_matrix(b),
        "orthogonal": is_orthogonal(a, b),
        "sigma": sigma(a, b),
        "rows": rows,
        "family_variant": None
        if v is None
        else {"k": v.k, "m": v.m, "variant": v.variant},
    }
    _emit(doc, f"row kinds: {[r['kind'] for r in rows]}")
    return EXIT_OK


def _cmd_orth_set(args) -> int:
    a = _read_matrix(args.a)
    out = sorted(orth_set(a), key=lambda m: m.rows)
    doc = {
        "command": "orth-set",
        "a": format_matrix(a),
        "count": len(out),
        "matrices": [format_matrix(m) for m in out[:WITNESS_PRINT_CAP]],
        "truncated": len(out) > WITNESS_PRINT_CAP,
    }
    _emit(doc, f"{len(out)} matrices orthogonal to the input")
    return EXIT_OK


def _cmd_generic(args) -> int:
    spec = FamilySpec.parse(args.n, args.set)
    g = spec_generic(spec)
    doc = {
        "command": "generic",
        "n": args.n,
        "set": str(spec),
        "matrix": format_matrix(g),
    }
    _emit(doc, f"generic matrix of {spec}")
    return EXIT_OK


def _cmd_mm(args) -> int:
    v = MmVariant(args.k, args.m, args.variant)
    a, b = mm_pair(v, args.n)
    rep = indicator(a, b)
    doc = {
        "command": "mm",
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
    _emit(doc, f"variant {args.variant} pair at ({args.k},{args.m}), n={args.n}")
    return EXIT_OK


def _cert_doc(command: str, cert: search_mod.ThetaCertificate) -> dict:
    doc = {"command": command}
    doc.update(cert.to_document())
    return doc


def _cmd_theta(args) -> int:
    if args.mode == "exhaustive":
        cert = search_mod.theta_exhaustive(args.n)
    else:
        if args.budget is None:
            raise ValueError("--budget is required with --mode bounded")
        cert = search_mod.theta_bounded(
            args.n,
            args.budget,
            node_limit=args.node_limit,
            time_limit=args.time_limit,
        )
    lower = cert.completeness == search_mod.COMPLETENESS_LOWER_BOUND
    _emit(
        _cert_doc("theta", cert),
        f"{'at least' if lower else 'minimum'} {cert.value} ({cert.completeness}), "
        f"{cert.total_witnesses} witnesses",
    )
    return EXIT_OK


def _cmd_theta_delta(args) -> int:
    cert = search_mod.theta_delta_exhaustive(args.n)
    _emit(
        _cert_doc("theta-delta", cert),
        f"minimum {cert.value} over self-orthogonal matrices, "
        f"{cert.total_witnesses} witnesses",
    )
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    pairs = list(
        search_mod.enumerate_orthogonal_pairs(
            args.n,
            args.max_sigma,
            node_limit=args.node_limit,
            time_limit=args.time_limit,
        )
    )
    doc = {
        "command": "enumerate",
        "n": args.n,
        "max_sigma": args.max_sigma,
        "count": len(pairs),
        "pairs": [
            {"a": format_matrix(a), "b": format_matrix(b)}
            for a, b in pairs[:WITNESS_PRINT_CAP]
        ],
        "truncated": len(pairs) > WITNESS_PRINT_CAP,
    }
    _emit(doc, f"{len(pairs)} orthogonal pairs with sigma <= {args.max_sigma}")
    return EXIT_OK


def _cmd_check_theorem(args) -> int:
    report = search_mod.check_theorem_theta(args.n)
    doc = {"command": "check-theorem"}
    doc.update(report)
    _emit(doc, f"mode {report['mode']}, holds: {report['holds']}")
    if not report["holds"]:
        raise PropertyFailure("theorem check failed")
    return EXIT_OK


BORDER_ARITY = {"compose": 3, "split": 1, "check": 6, "check-self": 3}


def _read_blocks(m: str, v: str, w: str) -> border_mod.BorderedBlocks:
    return border_mod.BorderedBlocks(_read_matrix(m), _read_vector(v), _read_vector(w))


def _cmd_border(args) -> int:
    want = BORDER_ARITY[args.action]
    if len(args.args) != want:
        raise ValueError(
            f"border {args.action} takes {want} arguments, got {len(args.args)}"
        )
    if args.action == "compose":
        out = border_mod.border_compose(_read_blocks(*args.args))
        doc = {"command": "border", "action": "compose", "matrix": format_matrix(out)}
        _emit(doc, f"composed matrix of order {out.n}")
        return EXIT_OK
    if args.action == "split":
        blocks = border_mod.border_split(_read_matrix(args.args[0]))
        doc = {
            "command": "border",
            "action": "split",
            "block": format_matrix(blocks.b),
            "v": "".join("0" if i in blocks.v.zeros else "-" for i in range(1, blocks.v.n + 1)),
            "w": "".join("0" if i in blocks.w.zeros else "-" for i in range(1, blocks.w.n + 1)),
        }
        _emit(doc, f"split into block of order {blocks.b.n} plus two vectors")
        return EXIT_OK
    if args.action == "check":
        res = border_mod.border_orthogonality_condition(
            _read_blocks(*args.args[:3]), _read_blocks(*args.args[3:])
        )
        doc = {"command": "border", "action": "check"}
        doc.update(res)
        _emit(doc, f"bordered pair orthogonal: {res['orthogonal']}")
        return EXIT_OK
    res = border_mod.self_ortho_border_condition(_read_blocks(*args.args))
    doc = {"command": "border", "action": "check-self"}
    doc.update(res)
    _emit(doc, f"bordered matrix self-orthogonal: {res['self_orthogonal']}")
    return EXIT_OK


def _cmd_reduce(args) -> int:
    a = _read_matrix(args.a)
    out = border_mod.reduce_size(a, args.i)
    doc = {
        "command": "reduce",
        "a": format_matrix(a),
        "i": args.i,
        "matrix": format_matrix(out),
    }
    _emit(doc, f"reduced to order {out.n}")
    return EXIT_OK


def _cmd_graph(args) -> int:
    g = graphs_mod.build(args.kind, args.n)
    st = graphs_mod.stats(g)
    doc = {"command": "graph"}
    doc.update(st)
    _emit(
        doc,
        f"{args.kind} n={args.n}: {st['vertices']} vertices, "
        f"girth {st['girth']}, diameter {st['diameter']}",
    )
    return EXIT_OK


def _cmd_dist(args) -> int:
    g = graphs_mod.build(args.kind, args.n)
    u = _read_matrix(args.a)
    v = _read_matrix(args.b)
    d = graphs_mod.dist(g, u, v)
    doc = {
        "command": "dist",
        "kind": args.kind,
        "n": args.n,
        "a": format_matrix(u),
        "b": format_matrix(v),
        "dist": "inf" if d == graphs_mod.INFINITY else d,
    }
    _emit(doc, f"distance {doc['dist']} in {args.kind}, n={args.n}")
    return EXIT_OK


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
    p.add_argument("--node-limit", type=int, default=200_000_000)
    p.add_argument("--time-limit", type=float, default=3600.0)
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("theta-delta", help="minimal zero count, self-orthogonal")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_theta_delta)

    p = sub.add_parser("enumerate", help="orthogonal pairs up to a zero budget")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-sigma", type=int, required=True)
    p.add_argument("--node-limit", type=int, default=200_000_000)
    p.add_argument("--time-limit", type=float, default=3600.0)
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
    p.add_argument("--kind", choices=graphs_mod.GRAPH_KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("dist", help="distance between two vertices")
    p.add_argument("--kind", choices=graphs_mod.GRAPH_KINDS, required=True)
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
        return args.func(args)
    except PropertyFailure as exc:
        print(f"property check failed: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except search_mod.SearchInconclusive as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (MatrixFormatError, ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
