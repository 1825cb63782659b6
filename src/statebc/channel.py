"""Broadcast channel with two deterministic components switched by
receiver-side state.

The channel has one finite input alphabet [0, input_size) and two total
component maps f1, f2 into a shared dense output alphabet. Receiver j
observes f1(X) when its binary state is 1 (probability pj) and f2(X)
otherwise; each receiver knows its own state sequence, the sender knows
neither.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .infotheory import block_entropies, entropy, pushforward

PMF_ATOL = 1e-12

_CHANNEL_FIELDS = ("input_size", "f1", "f2", "p1", "p2")


def _as_prob(value, name: str) -> float:
    p = float(value)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return p


def _as_component(values, name: str, n: int) -> tuple[int, ...]:
    out = []
    for v in values:
        if int(v) != v:
            raise ValueError(f"{name} values must be integers, got {v!r}")
        if int(v) < 0:
            raise ValueError(f"{name} values must be non-negative, got {v!r}")
        out.append(int(v))
    if len(out) != n:
        raise ValueError(f"{name} must map every input symbol: expected {n} values, got {len(out)}")
    return tuple(out)


@dataclass(frozen=True)
class ChannelSpec:
    """Channel description: input alphabet size, the two component maps, and
    the per-receiver probabilities of seeing the first component.

    The output alphabet is [0, output_size) with output_size one more than
    the largest value either map takes, so both components share one dense
    alphabet. Degenerate probabilities (0 or 1) are valid.
    """

    input_size: int
    f1: tuple[int, ...]
    f2: tuple[int, ...]
    p1: float
    p2: float

    def __post_init__(self):
        n = int(self.input_size)
        if n < 1:
            raise ValueError("input_size must be a positive integer")
        object.__setattr__(self, "input_size", n)
        object.__setattr__(self, "f1", _as_component(self.f1, "f1", n))
        object.__setattr__(self, "f2", _as_component(self.f2, "f2", n))
        object.__setattr__(self, "p1", _as_prob(self.p1, "p1"))
        object.__setattr__(self, "p2", _as_prob(self.p2, "p2"))

    @property
    def output_size(self) -> int:
        return 1 + max(max(self.f1), max(self.f2))

    @property
    def q1(self) -> float:
        """Probability that receiver 1 sees the second component."""
        return 1.0 - self.p1

    @property
    def q2(self) -> float:
        """Probability that receiver 2 sees the second component."""
        return 1.0 - self.p2


def canonicalize(spec: ChannelSpec) -> tuple[ChannelSpec, bool]:
    """Return an equivalent spec with p1 >= p2 plus a swap flag.

    Swapping relabels the receivers, which only exchanges the two state
    probabilities; the component maps stay put. When the flag is set,
    downstream rate results must transpose the (R1, R2) axes to describe
    the original channel. Idempotent; a tie keeps the given order.
    """
    if spec.p1 >= spec.p2:
        return spec, False
    return ChannelSpec(spec.input_size, spec.f1, spec.f2, spec.p2, spec.p1), True


def require_canonical(spec: ChannelSpec) -> None:
    if spec.p1 < spec.p2:
        raise ValueError("spec must be canonical (p1 >= p2); apply canonicalize() first")


def as_pmf(weights, dim: int | None = None) -> np.ndarray:
    """Validate a 1-D probability vector: finite, non-negative, mass 1
    within 1e-12."""
    p = np.asarray(weights, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("pmf must be a non-empty one-dimensional vector")
    if dim is not None and p.shape[0] != dim:
        raise ValueError(f"pmf has dimension {p.shape[0]}, expected {dim}")
    if not np.isfinite(p).all():
        raise ValueError(f"pmf entries must be finite, got {p.tolist()}")
    lo = float(p.min())
    if lo < -PMF_ATOL:
        raise ValueError(f"pmf entries must be non-negative, min entry {lo}")
    total = float(p.sum())
    if abs(total - 1.0) > PMF_ATOL:
        raise ValueError(f"pmf mass {total} differs from 1 by more than {PMF_ATOL}")
    return np.clip(p, 0.0, None)


def indicator_matrices(spec: ChannelSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """0/1 matrices sending an input pmf (by right multiplication) to the laws
    of f1(X), f2(X) and the flattened pair (f1(X), f2(X))."""
    n, m = spec.input_size, spec.output_size
    e1 = np.zeros((n, m))
    e2 = np.zeros((n, m))
    ej = np.zeros((n, m * m))
    for x in range(n):
        e1[x, spec.f1[x]] = 1.0
        e2[x, spec.f2[x]] = 1.0
        ej[x, spec.f1[x] * m + spec.f2[x]] = 1.0
    return e1, e2, ej


def induced_joint(spec: ChannelSpec, px) -> np.ndarray:
    """Law of (f1(X), f2(X)) under X ~ px, as an output_size x output_size matrix."""
    p = as_pmf(px, spec.input_size)
    _, _, ej = indicator_matrices(spec)
    m = spec.output_size
    return (p @ ej).reshape(m, m)


def stacked_indicator(spec: ChannelSpec) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """The indicator matrices side by side, [e1 | e2 | ej], and the column
    range (start, stop) of each."""
    stacked = np.hstack(indicator_matrices(spec))
    m = spec.output_size
    return stacked, ((0, m), (m, 2 * m), (2 * m, stacked.shape[1]))


def component_entropies(spec: ChannelSpec, px_batch):
    """Entropies (H(f1), H(f2), H(f1,f2)) of the pushforwards of the input law
    over the leading axes of px_batch (three floats for a 1-D input), equal
    to entropy(p @ e_k) in a batch and independent of the batch."""
    stacked, blocks = stacked_indicator(spec)
    hs = block_entropies(pushforward(px_batch, stacked), blocks)
    return tuple(float(h) if np.ndim(h) == 0 else h for h in hs)


def receiver_channel_mi(spec: ChannelSpec, px, receiver: int) -> float:
    """I(X; Y_receiver | S) in bits.

    Exact for deterministic components: the conditional output entropy given
    the input and state is zero, so the mutual information is the state
    average of the two component output entropies.
    """
    if receiver not in (1, 2):
        raise ValueError("receiver must be 1 or 2")
    p = as_pmf(px, spec.input_size)
    e1, e2, _ = indicator_matrices(spec)
    pj = spec.p1 if receiver == 1 else spec.p2
    return float(pj * entropy(p @ e1) + (1.0 - pj) * entropy(p @ e2))


def channel_from_dict(data, p1: float | None = None, p2: float | None = None) -> ChannelSpec:
    """Build a ChannelSpec from a parsed channel-file object.

    Explicit p1/p2 arguments override values from the file. Unknown fields
    are rejected so typos fail loudly.
    """
    if not isinstance(data, dict):
        raise ValueError("channel file must contain a single JSON object")
    unknown = sorted(set(data) - set(_CHANNEL_FIELDS))
    if unknown:
        raise ValueError(f"unknown channel field(s): {', '.join(unknown)}")
    for field in ("input_size", "f1", "f2"):
        if field not in data:
            raise ValueError(f"channel field '{field}' is required")
    eff_p1 = p1 if p1 is not None else data.get("p1")
    eff_p2 = p2 if p2 is not None else data.get("p2")
    if eff_p1 is None or eff_p2 is None:
        raise ValueError("p1 and p2 must be given in the channel file or as flags")
    return ChannelSpec(data["input_size"], tuple(data["f1"]), tuple(data["f2"]), eff_p1, eff_p2)


def load_channel(path, p1: float | None = None, p2: float | None = None) -> ChannelSpec:
    """Load a channel spec from a JSON file; see channel_from_dict for overrides."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"channel file {path}: invalid JSON ({exc})") from exc
    try:
        return channel_from_dict(data, p1=p1, p2=p2)
    except ValueError as exc:
        raise ValueError(f"channel file {path}: {exc}") from exc
