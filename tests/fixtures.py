"""Matrices the tests share, in the text glyph format ('0' for zero, '-'
for minus one, rows separated by '/') and parsed on demand, so that they
also exercise the parser.  The minimal pairs outside the family are the
ones `search.check_theorem_theta` looks up, read from its table."""

from tropnorm.core import NormalMatrix, parse_matrix
from tropnorm.search import _OUTSIDERS

# The four generic pairs of the minimal family at n = 6, (k, m) = (4, 3).
# Variant i differs from the others only at the (4,3) / (3,4) cells.
_MM43_N6 = (
    ("0--0--/-0-0--/000000/---0--/---00-/---0-0",
     "0-0---/-00---/--0---/000000/--0-0-/--0--0"),
    ("0--0--/-0-0--/000-00/--00--/---00-/---0-0",
     "0-0---/-00---/--00--/00-000/--0-0-/--0--0"),
    ("0--0--/-0-0--/000-00/---0--/---00-/---0-0",
     "0-0---/-00---/--00--/000000/--0-0-/--0--0"),
    ("0--0--/-0-0--/000000/--00--/---00-/---0-0",
     "0-0---/-00---/--0---/00-000/--0-0-/--0--0"),
)

# 3x3 circulant: self-orthogonal with only three off-diagonal zeros, yet not
# of the single-index row-and-column form.
_CIRCULANT_3 = "0-0/00-/-00"

# Two order-3 vertices at distance 3 in the W-pattern graph, with the
# intermediate vertices of a length-3 path between them.
_WNL3_PATH = ("0-0/-0-/-00", "00-/000/0-0", "0-0/00-/000", "00-/-00/--0")


def _parse(text: str) -> NormalMatrix:
    return parse_matrix(text.replace("/", "\n"))


def mm43_pair_n6(variant: int) -> tuple[NormalMatrix, NormalMatrix]:
    a, b = _MM43_N6[variant]
    return _parse(a), _parse(b)


def minimal_pair_outside_family(n: int) -> tuple[NormalMatrix, NormalMatrix]:
    a, b = _OUTSIDERS[n]
    return _parse(a), _parse(b)


def circulant_3() -> NormalMatrix:
    return _parse(_CIRCULANT_3)


def wnl3_distance_path() -> list[NormalMatrix]:
    return [_parse(m) for m in _WNL3_PATH]


def wnl3_distance_example() -> tuple[NormalMatrix, NormalMatrix]:
    path = wnl3_distance_path()
    return path[0], path[-1]
