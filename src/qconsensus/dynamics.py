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
from functools import partial
from itertools import combinations

import numpy as np

from .network import InputError, NetworkTopology, _as_index, _as_pair, _as_real
from .qcore import KrausChannel, apply_channel, check_cptp, dual_apply, ket_to_density
from .symmetry import dicke_ket, excitation_counts, global_observable, smc_projector

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
    "certify_family",
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
            raise InputError(f"unknown family {self.kind!r}, expected one of {FAMILY_KINDS}")
        if self.kind == "gossip":
            alpha = 0.5 if self.alpha is None else _as_real(self.alpha, "gossip mixing weight")
            if not 0.0 < alpha < 1.0:
                raise InputError(f"gossip mixing weight must lie in (0, 1), got {alpha}")
            object.__setattr__(self, "alpha", alpha)
        elif self.alpha is not None:
            raise InputError(f"family {self.kind!r} takes no alpha parameter")

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
    alpha = ChannelFamily.gossip(alpha).alpha
    ops = (np.sqrt(1.0 - alpha) * np.eye(4, dtype=complex), np.sqrt(alpha) * _SWAP2)
    j, k = _as_pair(pair, m)
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
    j, k = _as_pair(pair, m)
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
    if _as_index(n_sites, "neighborhood size") < 2:
        raise InputError(f"need at least 2 sites in a neighborhood, got {n_sites}")
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
    j, k = _as_pair(pair, m)
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


# Certificate tolerances: entrywise on E(X) - X for an identity E(X) = X,
# and on lambda_min(E^dag(P) - P) for an inequality E^dag(P) >= P.
IDENTITY_ATOL, MONOTONE_ATOL = 1e-10, 1e-12


def _identity(name: str, residual: float) -> tuple[str, bool, str]:
    return name, residual <= IDENTITY_ATOL, f"max residual {residual:.2e}"


def _drift(channels, xs, apply=dual_apply) -> float:
    """Largest entry of |apply(channel, X) - X| over the channels and the operators X."""
    return max(float(np.max(np.abs(apply(ch, x) - x))) for ch in channels for x in xs)


def _certify_duality(kraus_ops) -> tuple[str, bool, str]:
    """apply_channel of a 4x4 Kraus set is the dense map, and dual_apply its adjoint.

    On the 16 pair matrix units E_j, apply_channel must give sum_k A_k E_j A_k^dag,
    and dual_apply's 16x16 matrix must be the conjugate transpose of apply_channel's.
    """
    pair = KrausChannel(kraus_ops)
    units = np.eye(16, dtype=complex).reshape(16, 4, 4)
    # Row j is the image of E_j, so each array is the transpose of its map's matrix.
    forward = np.array([apply_channel(pair, u, validate=False).ravel() for u in units])
    dense = np.array([sum(a @ u @ a.conj().T for a in pair.kraus_ops).ravel() for u in units])
    dual = np.array([dual_apply(pair, u).ravel() for u in units])
    return _identity("duality Tr[X E(rho)] = Tr[E^dag(X) rho]",
                     float(max(np.max(np.abs(forward - dense)), np.max(np.abs(dual - forward.T.conj())))))


def _certify_monotonicity(channels, projector: np.ndarray, lyapunov: str) -> tuple[str, bool, str]:
    """E^dag(P) >= P for every channel, i.e. V(rho) = c - Tr(P rho) never rises for any state."""
    margin = min(float(np.linalg.eigvalsh(dual_apply(ch, projector) - projector)[0]) for ch in channels)
    return f"{lyapunov} non-increasing: E^dag(P) >= P", margin >= -MONOTONE_ATOL, f"min eigenvalue {margin:.2e}"


def certify_family(family: ChannelFamily, m: int) -> list[tuple[str, bool, str]]:
    """(name, passed, detail) rows, each an operator statement that holds for every state.

    Checked on every pair channel of the m-site complete graph: completeness,
    unitality (E(I) = I for gossip, so purity cannot rise; E^dag(I) = I
    otherwise), duality of the shared 4x4 Kraus set and E^dag(S) = S; then
    E^dag(P_D) >= P_D for ssc (P_D projects onto the Dicke span),
    E^dag(P_smc) >= P_smc for smc, and E^dag(|D_k><D_k|) = |D_k><D_k| for gossip.
    """
    m = _as_index(m, "qubit count m")
    channels = build_channels(family, NetworkTopology(m=m, neighborhoods=tuple(combinations(range(1, m + 1), 2))))
    dicke = [ket_to_density(dicke_ket(m, k)) for k in range(m + 1)]
    eye = [np.eye(1 << m)]
    gossip = family.kind == "gossip"
    rows = [
        _identity(f"cptp completeness ({len(channels)} channels)",
                  max(check_cptp(ch).completeness_residual for ch in channels)),
        _identity("unitality E(I) = I (purity non-increasing)" if gossip else "dual unitality E^dag(I) = I",
                  _drift(channels, eye, partial(apply_channel, validate=False) if gossip else dual_apply)),
        _certify_duality(channels[0].kraus_ops),
        _identity("conservation E^dag(S) = S", _drift(channels, [global_observable(m)])),
    ]
    if gossip:
        return rows + [_identity("dicke populations invariant", _drift(channels, dicke))]
    if family.kind == "ssc":
        return rows + [_certify_monotonicity(channels, sum(dicke), "v_total")]
    return rows + [_certify_monotonicity(channels, smc_projector(m), "v_smc")]
