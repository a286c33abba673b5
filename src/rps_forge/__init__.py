"""Multiplayer generalized rock-paper-scissors: construction, equilibria,
imbalance statistics, and machine-checkable infeasibility certificates."""

__version__ = "0.1.0"

from .core import (
    GameError,
    GameRule,
    Outcome,
    enumerate_multisets,
    eval_outcome,
    payoff_vector,
    tie_payoff,
    uniform_expected_payoffs,
)
from .construct import (
    BlowupUnsupportedError,
    imbalanced_rps,
    imbalanced_rps3,
    iterated_blowup,
    maximal_rps3,
    odd_one_out,
    relabel,
    symmetric_blowup,
)
from .equilibrium import (
    MixedProfile,
    NashGapReport,
    PlayabilityReport,
    SearchConfig,
    SolverError,
    SymmetricRps3Equilibrium,
    classify_playability,
    expected_payoff,
    expected_winner_count,
    nash_gap,
    search_equilibria,
    solve_symmetric_rps3,
    symmetric_profile,
    uniform_profile,
)
from .imbalance import (
    MajorizationRelation,
    SchurComparison,
    majorizes,
    nash_entropy_imbalance,
    nash_ties_imbalance,
    schur_compare,
    theil_alpha,
    ui_entropy,
    ui_variance,
)
from .formulas import (
    Role,
    Scenario,
    ScenarioError,
    corner_value,
    ev_raw,
    ev_simplified,
    identity_check,
    payoff_poly,
)
from .certify import (
    Constraint,
    InfeasibilityCertificate,
    SweepReport,
    Verdict,
    constraint_system,
    infeasibility_certificate,
    ptype_to_s_ratio_check,
    sweep,
)
from .gamefile import GameFileError, dump_game, load_game, parse_game, save_game
from .intervals import Interval, Poly2

__all__ = [name for name in dir() if not name.startswith("_")]
