"""Computational toolkit for finite inverse semigroups and their germ groupoids.

Build finite inverse semigroups from partial-bijection generators,
explore the natural partial order, construct groupoids of germs of
finite actions, and decide the finite downward-cover criterion both
exhaustively (tables) and symbolically (Munn trees, path pairs, and the
atom-flip family).

The public names load on first use (PEP 562 module `__getattr__`):
`import invsemi` imports no submodule, and `invsemi.close` imports
`invsemi.semigroup` and what it needs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "action": ("FiniteAction", "left_translation_action"),
    "criterion": ("HAUSDORFF_WITNESS", "REFUTED", "CompletenessResult",
                  "CriterionVerdict", "UnitaryCheck", "compatible", "covers_by_ideals",
                  "covers_downward", "hausdorff_criterion",
                  "ideal_cover_agrees_with_order_cover", "is_complete_and_distributive",
                  "is_e_star_unitary", "join"),
    "errors": ("BudgetExceeded", "ContractViolation", "InvariantViolation",
               "InvsemiError", "ParseError"),
    "germs": ("Germ", "GermGroupoid", "build_germs", "check_fixed_point_germ_laws",
              "check_fixed_points_are_ideal_union", "fixed_sets", "germ_equiv_oracle"),
    "partial_bijection": ("PartialBijection", "all_partial_bijections",
                          "count_partial_bijections"),
    "semigroup": ("DOWN", "UP", "FiniteInverseSemigroup", "VerificationResult",
                  "close", "verify_inverse_semigroup"),
    "symbolic": ("AntichainWitness", "SymbolicCriterionReport"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "formats", "oracles", "report"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:  # importing sets the attribute on the package
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
