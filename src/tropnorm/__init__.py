"""Orthogonality of normal matrices over the two-element tropical semiring.

Entries live in {0, -1} with max as addition and truncated plus as
multiplication; a normal matrix has a zero diagonal.  The package decides
mutual orthogonality (A*B = Z = B*A), classifies the zeros of indicator
matrices, generates the minimal-pair families, runs exhaustive and
branch-and-bound searches for the extremal zero counts, handles bordered
extensions, and builds the three relation graphs.

The names below are loaded on first use (PEP 562), so `import tropnorm`
imports no submodule and a one-shot CLI run compiles only what it runs.
"""

# every exported name, keyed to the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "core": """MINUS_ONE ZERO DimensionMismatch MatrixFormatError NormalMatrix
            SearchInconclusive all_normal_matrices all_zero format_matrix identity
            make_elementary mat_odot mat_oplus nu parse_matrix permute_conjugate
            sigma transpose""",
        "ortho": "IndicatorReport ZeroClass indicator is_orthogonal orth_set",
        "families": """Atom FamilySpec MmVariant mm_classify mm_pair spec_contains
            spec_generic""",
        "search": """ThetaCertificate check_theorem_theta enumerate_orthogonal_pairs
            theta_bounded theta_delta_exhaustive theta_exhaustive""",
        "border": """BorderedBlocks BorderVector border_compose
            border_orthogonality_condition border_split reduce_size
            self_ortho_border_condition""",
        "graphs": "ORTHO VNL WNL OrthoGraph adjacent build diameter dist girth",
    }.items()
    for name in names.split()
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
