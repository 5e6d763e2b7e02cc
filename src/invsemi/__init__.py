"""Computational toolkit for finite inverse semigroups and their germ groupoids.

Build finite inverse semigroups from partial-bijection generators,
explore the natural partial order, construct groupoids of germs of
finite actions, and decide the finite downward-cover criterion both
exhaustively (tables) and symbolically (Munn trees, path pairs, and the
atom-flip family).
"""

from .action import FiniteAction, left_translation_action
from .criterion import (
    HAUSDORFF_WITNESS,
    REFUTED,
    CompletenessResult,
    CriterionVerdict,
    UnitaryCheck,
    compatible,
    covers_by_ideals,
    covers_downward,
    hausdorff_criterion,
    ideal_cover_agrees_with_order_cover,
    is_complete_and_distributive,
    is_e_star_unitary,
    join,
)
from .errors import (
    BudgetExceeded,
    ContractViolation,
    InvariantViolation,
    InvsemiError,
    ParseError,
)
from .germs import (
    Germ,
    GermGroupoid,
    build_germs,
    check_fixed_point_germ_laws,
    check_fixed_points_are_ideal_union,
    fixed_sets,
    germ_equiv_oracle,
)
from .partial_bijection import (
    PartialBijection,
    all_partial_bijections,
    count_partial_bijections,
)
from .semigroup import (
    DOWN,
    UP,
    FiniteInverseSemigroup,
    IdempotentSet,
    VerificationResult,
    close,
    verify_inverse_semigroup,
)
from .symbolic import AntichainWitness, SymbolicCriterionReport

__version__ = "0.1.0"

__all__ = [
    "AntichainWitness",
    "BudgetExceeded",
    "CompletenessResult",
    "ContractViolation",
    "CriterionVerdict",
    "DOWN",
    "FiniteAction",
    "FiniteInverseSemigroup",
    "Germ",
    "GermGroupoid",
    "HAUSDORFF_WITNESS",
    "IdempotentSet",
    "InvariantViolation",
    "InvsemiError",
    "ParseError",
    "PartialBijection",
    "REFUTED",
    "SymbolicCriterionReport",
    "UP",
    "UnitaryCheck",
    "VerificationResult",
    "all_partial_bijections",
    "build_germs",
    "check_fixed_point_germ_laws",
    "check_fixed_points_are_ideal_union",
    "close",
    "compatible",
    "count_partial_bijections",
    "covers_by_ideals",
    "covers_downward",
    "fixed_sets",
    "germ_equiv_oracle",
    "hausdorff_criterion",
    "ideal_cover_agrees_with_order_cover",
    "is_complete_and_distributive",
    "is_e_star_unitary",
    "join",
    "left_translation_action",
    "verify_inverse_semigroup",
]
