"""Correctness checks for the benchmark's outputs.

Each check takes the program's output in text or document form (matrices
as `format_matrix` text, reports as the dicts the CLI prints) and returns
a list of error strings, empty when the output is right.  The expected
values come from `oracle`, from the paper's values and from properties
that hold for every correct output; none is a stored copy of an output.
"""

from __future__ import annotations

import oracle as O


def diff(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {got!r}, want {want!r}"]


# -- pairs, products and indicator reports -------------------------------


def expected_indicator_doc(a_txt: str, b_txt: str) -> dict:
    """The document `IndicatorReport.to_document` should give for (A, B)."""
    a, b = O.parse(a_txt), O.parse(b_txt)
    cls = O.classify(a, b)
    cells = []
    for (s, t), (tag, wit) in sorted(cls["cells"].items()):
        cell = {"pos": [s, t], "class": tag}
        if tag == "cost":
            cell["witnesses"] = sorted(wit)
        elif tag == "gift":
            cell["witnesses"] = [list(w) for w in sorted(wit)]
        cells.append(cell)
    return {
        "n": len(a),
        "orthogonal": cls["orthogonal"],
        "indicator": O.fmt(cls["indicator"]),
        "left": O.fmt(cls["left"]),
        "right": O.fmt(cls["right"]),
        "prop_count": cls["prop_count"],
        "cost_count": cls["cost_count"],
        "gift_count": cls["gift_count"],
        "duplicate_count": cls["duplicate_count"],
        "cells": cells,
    }


def check_indicator_doc(a_txt: str, b_txt: str, doc: dict) -> list[str]:
    want = expected_indicator_doc(a_txt, b_txt)
    errs = []
    for key, val in want.items():
        errs += diff(f"indicator {key}", doc.get(key), val)
    return errs


def check_pair_query(a_txt: str, b_txt: str, out: dict, family=None) -> list[str]:
    """One library query on (A, B).  `out` holds the outputs in text form:
    is_orthogonal, both products, the indicator document, the row types
    and the family variant.  `family` is the (n, k, m, variant) the pair
    was generated from, or None for a random pair."""
    a, b = O.parse(a_txt), O.parse(b_txt)
    n = len(a)
    cls = O.classify(a, b)
    errs = diff("is_orthogonal", out["orthogonal"], O.orthogonal(a, b))
    errs += diff("mat_odot(A,B)", out["ab"], O.fmt(O.product(a, b)))
    errs += diff("mat_odot(B,A)", out["ba"], O.fmt(O.product(b, a)))
    errs += check_indicator_doc(a_txt, b_txt, out["report"])
    errs += diff("row_type", out["rows"], O.row_types(a, b, cls))
    errs += diff("mm_classify", out["variant"], O.family_variant(a, b))
    if family is not None:
        fn, k, m, variant = family
        fa, fb = O.family_pair(fn, k, m, variant)
        errs += diff("mm_pair", (a_txt, b_txt), (O.fmt(fa), O.fmt(fb)))
        # the paper's counts for a generic minimal-family pair, k != m
        errs += diff("family sigma", O.sigma(a, b), 4 * n - 6)
        errs += diff("family prop_count", cls["prop_count"], 4 * n - 6)
        errs += diff("family gift_count", cls["gift_count"], (n - 2) * (n - 3))
        errs += diff("family orthogonal", cls["orthogonal"], True)
    return errs


# -- search certificates ---------------------------------------------------


def check_pair_set(pairs: list[tuple[str, str]], max_sigma: int, exact_sigma: bool) -> list[str]:
    """Every pair orthogonal, with sigma equal to (or at most) max_sigma,
    no pair twice, and the set closed under the symmetries that preserve
    orthogonality and sigma (so a pair reported without its images, or an
    image reported without the pair, shows)."""
    errs = []
    keys = set(pairs)
    if len(keys) != len(pairs):
        errs.append(f"{len(pairs) - len(keys)} duplicate pairs")
    for a_txt, b_txt in pairs:
        a, b = O.parse(a_txt), O.parse(b_txt)
        s = O.sigma(a, b)
        if not O.orthogonal(a, b):
            errs.append(f"pair not orthogonal: {a_txt!r} {b_txt!r}")
        if (s != max_sigma) if exact_sigma else (s > max_sigma):
            errs.append(f"pair sigma {s} against {max_sigma}: {a_txt!r} {b_txt!r}")
        for ia, ib in O.symmetry_images(a, b):
            if (O.fmt(ia), O.fmt(ib)) not in keys:
                errs.append(f"set not closed under symmetry at {a_txt!r} {b_txt!r}")
                break
        if len(errs) > 10:
            break
    return errs


def check_theta_cert(doc: dict, n: int, value: int, completeness: str) -> list[str]:
    """A pair certificate: the paper's value and witnesses orthogonal with
    exactly `value` off-diagonal zeros.  An exhaustive certificate lists
    every minimal pair, so its set is closed under the symmetries; a
    bounded proof searched up to value - 1 and shows one pair at value."""
    errs = diff(f"theta({n}) value", doc["value"], value)
    errs += diff(f"theta({n}) completeness", doc["completeness"], completeness)
    pairs = [(w["a"], w["b"]) for w in doc["witnesses"]]
    if not pairs:
        errs.append(f"theta({n}) has no witness")
    errs += diff(f"theta({n}) total_witnesses", doc["total_witnesses"], len(pairs))
    if completeness == "exhaustive":
        return errs + check_pair_set(pairs, value, exact_sigma=True)
    errs += diff(f"theta({n}) budget", doc["budget"], value - 1)
    for a_txt, b_txt in pairs:
        a, b = O.parse(a_txt), O.parse(b_txt)
        errs += diff(f"theta({n}) witness orthogonal", O.orthogonal(a, b), True)
        errs += diff(f"theta({n}) witness sigma", O.sigma(a, b), value)
    return errs


def check_theta_delta_cert(doc: dict, n: int, value: int) -> list[str]:
    errs = diff(f"theta_delta({n}) value", doc["value"], value)
    errs += diff(f"theta_delta({n}) completeness", doc["completeness"], "exhaustive")
    mats = set(doc["witnesses"])
    errs += diff(f"theta_delta({n}) total_witnesses", doc["total_witnesses"], len(mats))
    if not mats:
        errs.append(f"theta_delta({n}) has no witness")
    for txt in mats:
        a = O.parse(txt)
        if not O.orthogonal(a, a):
            errs.append(f"witness not self-orthogonal: {txt!r}")
        if O.offdiag_zeros(a) != value:
            errs.append(f"witness has {O.offdiag_zeros(a)} zeros: {txt!r}")
        images = [O.transpose(a)] + [img for img, _ in O.symmetry_images(a, a)[2:]]
        if any(O.fmt(img) not in mats for img in images):
            errs.append(f"witness set not closed under symmetry at {txt!r}")
    return errs


def check_enumeration(pairs: list[tuple[str, str]], max_sigma: int, minimal: set) -> list[str]:
    """All orthogonal pairs within the budget, in (sigma, ...) order; the
    lowest layer must be the exhaustive search's minimal set."""
    errs = check_pair_set(pairs, max_sigma, exact_sigma=False)
    sig = [O.sigma(O.parse(a), O.parse(b)) for a, b in pairs]
    if sig != sorted(sig):
        errs.append("enumeration not ordered by sigma")
    low = {p for p, s in zip(pairs, sig) if s == min(sig, default=None)}
    errs += diff("enumeration lowest layer", low, minimal)
    return errs


# -- graphs -----------------------------------------------------------------


def check_graph_stats(doc: dict, want: dict) -> list[str]:
    """`want` holds the values known for this graph: paper values, counts
    from formulas or brute force."""
    errs = []
    for key, val in want.items():
        errs += diff(f"{doc.get('kind')} n={doc.get('n')} {key}", doc.get(key), val)
    return errs


def check_dist(d_uv, d_vu, adjacent: bool, same: bool, diameter) -> list[str]:
    """dist is symmetric, at most the diameter, and 1 exactly on edges."""
    errs = diff("dist symmetric", d_uv, d_vu)
    if same:
        return errs + diff("dist to itself", d_uv, 0)
    if not d_uv <= diameter:
        errs.append(f"dist {d_uv} exceeds the diameter {diameter}")
    errs += diff("dist == 1 iff adjacent", d_uv == 1, adjacent)
    return errs
