"""Capacity regions of 2-receiver broadcast channels whose outputs are one
of two deterministic functions of the input, switched by receiver-side state.

The library computes the exact region via support-function sampling of the
single-letter inner bound, cross-checks it against rectangle-sweep builders,
and certifies the converse by matching the inner bound against a one-auxiliary
outer bound, weight by weight.
"""

from .channel import (
    ChannelSpec,
    as_pmf,
    canonicalize,
    channel_from_dict,
    component_entropies,
    induced_joint,
    load_channel,
    receiver_channel_mi,
)
from .examples import (
    BlackwellParams,
    FiniteFieldSpec,
    blackwell_channel,
    blackwell_closed_form,
    blackwell_sweep_hull,
    dof,
    finite_field_channel,
    finite_field_region,
)
from .infotheory import EntropyReport, binary_entropy, entropy, report
from .outerbound import (
    ConverseReport,
    ConverseSample,
    brute_force_support,
    case_spanning_lambdas,
    support_gap_bound,
    support_outer,
    support_outer_result,
    verify_converse,
)
from .regions import (
    RatePair,
    RegionPolygon,
    SupportCurve,
    SupportSample,
    capacity_polygon,
    convex_hull,
    polygon_contains,
    polygon_support,
    primed_regions,
    proposition_regions,
    support_curve,
    support_inner,
    thresholds,
    transpose_polygon,
)
from .simplexopt import OptResult

__version__ = "0.1.0"

__all__ = [
    "BlackwellParams",
    "ChannelSpec",
    "ConverseReport",
    "ConverseSample",
    "EntropyReport",
    "FiniteFieldSpec",
    "OptResult",
    "RatePair",
    "RegionPolygon",
    "SupportCurve",
    "SupportSample",
    "as_pmf",
    "binary_entropy",
    "blackwell_channel",
    "blackwell_closed_form",
    "blackwell_sweep_hull",
    "brute_force_support",
    "canonicalize",
    "capacity_polygon",
    "case_spanning_lambdas",
    "channel_from_dict",
    "component_entropies",
    "convex_hull",
    "dof",
    "entropy",
    "finite_field_channel",
    "finite_field_region",
    "induced_joint",
    "load_channel",
    "polygon_contains",
    "polygon_support",
    "primed_regions",
    "proposition_regions",
    "receiver_channel_mi",
    "report",
    "support_curve",
    "support_gap_bound",
    "support_inner",
    "support_outer",
    "support_outer_result",
    "thresholds",
    "transpose_polygon",
    "verify_converse",
]
