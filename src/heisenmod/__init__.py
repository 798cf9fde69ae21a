"""Exact modular representation theory of Heisenberg Lie algebras.

Arithmetic is exact over finite fields GF(p^m).  The package constructs
the canonical family of p^n-dimensional modules and its block variants,
classifies arbitrary faithful modules of that dimension back to canonical
parameters with a verified change of basis, and certifies irreducibility,
composition series, uniseriality, and minimum faithful dimensions at desk
scale.  The verification suites in heisenmod.suites sweep each structure
statement across parameter ranges; heisenmod.cli exposes everything as a
command line with JSON input and output.

The namespace loads lazily (PEP 562): `import heisenmod` imports no
submodule, and the first use of a public name (or of a submodule as an
attribute) imports the submodule that owns it.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it owns
_EXPORTS = {
    "errors": (
        "AlgebraError", "DegreeMismatch", "DivisionByZero", "DoesNotSplit",
        "MinPolyShape", "MixedFields", "NonMonic", "NotExtension",
        "NotScalarCenter", "ReduciblePoly", "RelationViolated", "SchemaError",
        "ShapeMismatch", "Singular", "TooLarge", "UndecidedIrreducibility",
        "VerificationFailed", "WrongDeltaCount", "WrongDimension", "ZeroAlpha",
    ),
    "fields": (
        "Field", "FieldElem", "GF", "Poly", "find_irreducible", "is_prime",
        "make_extension",
    ),
    "matrices": (
        "CanonicalForm", "Echelon", "Matrix", "assemble_grid", "char_poly",
        "commutator", "companion", "direct_sum",
        "eigenvalues_with_multiplicity", "frobenius_form", "jordan_block",
        "jordan_form", "kron", "min_poly", "poly_apply", "poly_at",
        "similarity_transform",
    ),
    "heisenberg": (
        "HeisenbergAlgebra", "InvariantTuple", "ModuleParams",
        "Representation", "ValidationReport", "build_companion_rep",
        "build_D", "build_M", "build_restriction_rep", "build_standard",
        "build_V", "canonical_pair", "classify", "conjugate_rep",
        "direct_sum_reps", "invariants", "regular_matrix",
        "triple_similarity", "validate_rep",
    ),
    "modules": (
        "CompositionFactor", "CompositionSeries", "EnvelopingAlgebra",
        "IrreducibilityResult", "SearchResult", "SubspaceBasis", "Summand",
        "composition_series", "extend_scalars", "field_embedding",
        "hom_space", "is_irreducible", "is_uniserial",
        "quotient_representation", "search_min_faithful", "split_by_central",
        "spin", "sub_representation",
    ),
    "serialize": (
        "decode_elem", "decode_field", "decode_matrix", "decode_params",
        "decode_representation", "encode_canonical_form", "encode_elem",
        "encode_field", "encode_invariants", "encode_matrix",
        "encode_params", "encode_poly", "encode_representation",
        "encode_series", "encode_subspace",
    ),
    "suites": ("CaseOutcome", "Report", "run_suite", "suite_names"),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
