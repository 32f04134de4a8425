"""osinv: invariants of homogeneous Hilbertian operator spaces.

Represents spaces by their fundamental functions (exact piecewise
power-law tables), derives each regular space's canonical weight pair
from them, and computes growth functions, Orlicz and Schatten-Orlicz
norms, exactness and projection constants, and the fundamental sequence
of the completely-1-summing ideal — each backed by an independent
cross-checking oracle.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import errors
from .growth import (
    DEFAULT_REG_WINDOW,
    GrowthProfile,
    RegularityReport,
    TailIntegral,
    clamped_reciprocal_inverse,
    growth_fn,
    growth_profile,
    recover_weight,
    regularity_report,
    tail_fn,
)
from .orlicz import (
    OrliczFn,
    from_fundamental_sequence,
    from_weight,
    fundamental_sequence,
    make_orlicz,
    power_orlicz,
    psi,
    sequence_norm,
    smooth_from_raw,
)
from .monotone_fn import (
    MonotoneFn,
    compose,
    crossing_below,
    evaluate,
    evaluate_many,
    fit_loglog_slope,
    generalized_inverse,
    integral,
    inverse_fn,
    make_piecewise,
    reciprocal,
)
from .invariants import (
    InvariantReport,
    SweepResult,
    exactness,
    pi1_fundamental,
    projection,
    sweep,
)
from .oracle import (
    aux_diag_norm,
    indicator_search,
    orlicz_norm_scan,
    riemann_integral,
)
from .schatten import (
    pi1_of_map,
    schatten_orlicz_norm,
    schatten_p_norm,
    singular_values,
)
from .spaces import (
    SpaceDescriptor,
    WeightPair,
    canonical_weights,
    catalog,
    check_space_regularity,
    descriptor_from_json,
    descriptor_to_json,
    dual,
    from_fundamental,
    fundamental_from_weights,
)

__all__ = [
    "__version__",
    "errors",
    "MonotoneFn",
    "make_piecewise",
    "evaluate",
    "evaluate_many",
    "generalized_inverse",
    "inverse_fn",
    "reciprocal",
    "compose",
    "crossing_below",
    "integral",
    "fit_loglog_slope",
    "TailIntegral",
    "GrowthProfile",
    "RegularityReport",
    "DEFAULT_REG_WINDOW",
    "tail_fn",
    "growth_fn",
    "growth_profile",
    "regularity_report",
    "clamped_reciprocal_inverse",
    "recover_weight",
    "OrliczFn",
    "make_orlicz",
    "power_orlicz",
    "from_weight",
    "sequence_norm",
    "fundamental_sequence",
    "from_fundamental_sequence",
    "smooth_from_raw",
    "psi",
    "SpaceDescriptor",
    "WeightPair",
    "catalog",
    "from_fundamental",
    "canonical_weights",
    "fundamental_from_weights",
    "dual",
    "check_space_regularity",
    "descriptor_to_json",
    "descriptor_from_json",
    "InvariantReport",
    "SweepResult",
    "pi1_fundamental",
    "exactness",
    "projection",
    "sweep",
    "singular_values",
    "schatten_p_norm",
    "schatten_orlicz_norm",
    "pi1_of_map",
    "aux_diag_norm",
    "indicator_search",
    "riemann_integral",
    "orlicz_norm_scan",
]
