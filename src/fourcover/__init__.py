"""Stable reduction of p-cyclic covers of the p-adic projective line
ramified at four points: exact tower arithmetic, the reduction-type
classifier, certified stable-model construction, and a CLI."""

from .errors import (
    FourCoverError, InsufficientPrecision, NeedsExtension, NegativeValuation,
    DivisionByIndistinguishableZero, DegenerateModel, ConstructionMismatch,
    CoalescingBranchPoints, NonCyclicExponent, NotReduced, UnsupportedPrime,
    BudgetExceeded, InvalidInput, PrecisionTooLarge,
)
from .tower import Tower, make_tower, Poly, INF
from .rational import Rational
from .ffield import FF
from .curves import (
    RatFunc, ASCurve, InsepCurve, as_reduce, as_irreducible, as_genus,
    p_rank_DS, is_pth_power,
)
from .normalizer import (
    INFPT, CoverDatum, NormalizedCover, FactoredCover, Moebius,
    normalize, cross_ratio_orbit, j_invariant, j_numerator,
    parse_point,
)
from .torsor import (
    TorsorOutcome, BlowupChart, torsor_case,
    maximize_h_bruteforce, lemma_hh_check, blowup_chart,
)
from .classifier import (
    Classification, ExtensionSpec, Component, StableModel,
    classify, required_extension, build_stable_model, verify_model,
    check_qwerty, deuring_good_reduction,
    TYPE_1A, TYPE_1B, TYPE_2, TYPE_3,
)

__version__ = "0.1.0"
