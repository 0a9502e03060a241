"""Exact arithmetic for classical symmetric functions in superspace.

Superpartitions index everything; polynomials mix commuting variables
x1..xN with anticommuting t1..tN; the four classical bases (monomial,
elementary, complete, power sum) convert into each other exactly over the
rationals and pair under a diagonal scalar product with Cauchy kernels.

The names below are loaded on first use, each from the module listed with
it, so importing the package (or one light submodule) does not compile the
polynomial engine.
"""

__version__ = "0.1.0"

_HOMES = {
    "superpartition": (
        "Diagram", "SparError", "SuperPartition", "apply_move", "bruhat_leq",
        "count_check", "dominance_leq", "enumerate_superpartitions", "orders_check",
    ),
    "superpoly": ("SuperPolynomial",),
    "bases": (
        "basis_element", "complete", "complete_tilde", "default_nvars", "elementary",
        "elementary_tilde", "generating_check", "monomial", "multiplicative",
        "powersum", "powersum_tilde",
    ),
    "transform": (
        "BasisExpansion", "change_basis", "determinant_formulas", "eh_in_p",
        "expand_in_monomials", "format_rational", "mono_product", "mono_product_fillings",
        "omega", "omega_sign", "parse_rational", "scalar_product", "triangularity",
        "verify_recursions", "z_weight",
    ),
    "inner": ("dual_bases_check", "duality_check", "kernel_check", "reproducing_check"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
