"""Constructors for the three symmetrizing channel families.

All three families act on a chosen pair of sites and leave the rest of the
network untouched:

* gossip: convex mixture of the identity and the pair swap; unital, purity
  non-increasing, Dicke populations invariant.
* ssc: a two-operator map on the pair that transports the antisymmetric
  direction onto the symmetric Dicke vector and fixes everything else; drives
  the network into the span of the Dicke states while conserving the global
  excitation observable.
* smc: projects the pair onto its basis states outside span{|00>, |11>} and
  redistributes each onto |00>/|11> with weights chosen to conserve the same
  observable; drives the network onto span{|0...0>, |1...1>}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import NetworkTopology
from .qcore import KrausChannel
from .symmetry import excitation_counts, smc_projector

__all__ = [
    "ChannelFamily",
    "FeedbackDecomposition",
    "gossip_channel",
    "ssc_pair_channel",
    "ssc_channel",
    "ssc_feedback_decomposition",
    "smc_neighborhood_channel",
    "smc_channel",
    "neighborhood_channel",
    "build_channels",
]

FAMILY_KINDS = ("gossip", "ssc", "smc")

_SWAP2 = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


@dataclass(frozen=True)
class ChannelFamily:
    """Family selector: kind in {gossip, ssc, smc}; alpha only for gossip."""

    kind: str
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family {self.kind!r}, expected one of {FAMILY_KINDS}")
        if self.kind == "gossip":
            alpha = 0.5 if self.alpha is None else float(self.alpha)
            if not 0.0 < alpha < 1.0:
                raise ValueError(f"gossip mixing weight must lie in (0, 1), got {alpha}")
            object.__setattr__(self, "alpha", alpha)
        elif self.alpha is not None:
            raise ValueError(f"family {self.kind!r} takes no alpha parameter")

    @classmethod
    def gossip(cls, alpha: float = 0.5) -> "ChannelFamily":
        return cls("gossip", alpha)

    @classmethod
    def ssc(cls) -> "ChannelFamily":
        return cls("ssc")

    @classmethod
    def smc(cls) -> "ChannelFamily":
        return cls("smc")


@dataclass(frozen=True)
class FeedbackDecomposition:
    """Measure-and-correct form of the ssc pair map.

    projector_1 and projector_2 are the two measurement outcomes
    (complementary orthogonal projectors); applying correction_unitary after
    outcome 1 reproduces the first Kraus operator.
    """

    projector_1: np.ndarray
    projector_2: np.ndarray
    correction_unitary: np.ndarray


def gossip_channel(pair, m: int, alpha: float) -> KrausChannel:
    """Pair gossip map rho -> (1-alpha) rho + alpha U_swap rho U_swap^dag."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"gossip mixing weight must lie in (0, 1), got {alpha}")
    ops = (np.sqrt(1.0 - alpha) * np.eye(4, dtype=complex), np.sqrt(alpha) * _SWAP2)
    j, k = sorted(int(s) for s in pair)
    return KrausChannel(ops, label=f"gossip({j},{k}|alpha={alpha:g})", sites=(j, k), m=m)


def ssc_pair_channel() -> KrausChannel:
    """Two-qubit Dicke-preparing map in the computational basis.

    The first operator sends the antisymmetric vector (|01>-|10>)/sqrt2 to the
    symmetric one and annihilates the rest; the second is the orthogonal
    projector onto span{|00>, (|01>+|10>)/sqrt2, |11>}.  A single application
    therefore maps any state of the pair onto that span.  Every entry is 0,
    +-0.5 or 1, so the completeness relation holds exactly in floating point.
    """
    anti_projector = 0.5 * np.array([[0, 0, 0, 0], [0, 1, -1, 0], [0, -1, 1, 0], [0, 0, 0, 0]], dtype=complex)
    sym_from_anti = 0.5 * np.array([[0, 0, 0, 0], [0, 1, -1, 0], [0, 1, -1, 0], [0, 0, 0, 0]], dtype=complex)
    return KrausChannel((sym_from_anti, np.eye(4, dtype=complex) - anti_projector), label="ssc-pair")


def ssc_channel(pair, m: int) -> KrausChannel:
    """The ssc pair map on sites (j, k) of an m-qubit network."""
    j, k = sorted(int(s) for s in pair)
    return KrausChannel(_SSC_KRAUS, label=f"ssc({j},{k})", sites=(j, k), m=m)


def ssc_feedback_decomposition() -> FeedbackDecomposition:
    """Projective-measurement-plus-unitary realization of the ssc pair map.

    Outcome 1 projects onto the antisymmetric direction; the correction swaps
    the symmetric and antisymmetric vectors and acts as the identity on
    span{|00>, |11>} (any unitary completion off the measured range works,
    since the correction is only ever applied after outcome 1).
    """
    p2 = ssc_pair_channel().kraus_ops[1]
    p1 = np.eye(4, dtype=complex) - p2
    u1 = np.diag([1.0, 1.0, -1.0, 1.0]).astype(complex)
    return FeedbackDecomposition(projector_1=p1, projector_2=p2, correction_unitary=u1)


def smc_neighborhood_channel(n_sites: int) -> KrausChannel:
    """Single-measurement-consensus map on a neighborhood of n_sites qubits.

    Kraus set: the projector onto span{|0...0>, |1...1>}, plus for every other
    basis state |k> the pair sqrt(p_k0) |0...0><k| and sqrt(p_k1) |1...1><k|,
    where p_k0 is the number of zero bits of k divided by n_sites and
    p_k1 = 1 - p_k0.  The weights make the map conserve the excitation
    observable; both are positive because k has a zero bit and a one bit.
    """
    if n_sites < 2:
        raise ValueError(f"need at least 2 sites in a neighborhood, got {n_sites}")
    dim = 1 << n_sites
    ops = [smc_projector(n_sites)]
    counts = excitation_counts(n_sites)
    for k in range(1, dim - 1):
        p0 = (n_sites - counts[k]) / n_sites
        for weight, target in ((p0, 0), (1.0 - p0, dim - 1)):
            op = np.zeros((dim, dim), dtype=complex)
            op[target, k] = np.sqrt(weight)
            ops.append(op)
    return KrausChannel(tuple(ops), label=f"smc-neighborhood({n_sites})")


# The two-site Kraus operators, built and checked once and shared read-only by
# every pair channel.
_SSC_KRAUS, _SMC_KRAUS = ssc_pair_channel().kraus_ops, smc_neighborhood_channel(2).kraus_ops
for _op in _SSC_KRAUS + _SMC_KRAUS:
    _op.flags.writeable = False


def smc_channel(pair, m: int) -> KrausChannel:
    """The two-site smc map on sites (j, k) of an m-qubit network."""
    j, k = sorted(int(s) for s in pair)
    return KrausChannel(_SMC_KRAUS, label=f"smc({j},{k})", sites=(j, k), m=m)


def neighborhood_channel(family: ChannelFamily, pair, m: int) -> KrausChannel:
    """Whole-network channel of the given family acting on one pair."""
    if family.kind == "gossip":
        return gossip_channel(pair, m, family.alpha)
    if family.kind == "ssc":
        return ssc_channel(pair, m)
    return smc_channel(pair, m)


def build_channels(family: ChannelFamily, topology: NetworkTopology) -> tuple[KrausChannel, ...]:
    """One channel per neighborhood, in topology order."""
    return tuple(neighborhood_channel(family, pair, topology.m) for pair in topology.neighborhoods)
