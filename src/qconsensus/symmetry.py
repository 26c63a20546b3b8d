"""Dicke states, excitation structure, and consensus diagnostics.

The conserved global observable used throughout is the diagonal operator
m*I + sum_i sigma_z^(i); a basis string with k excitations (k ones) is an
eigenvector with eigenvalue 2*(m - k).  Dicke states are indexed by the
excitation count k, never by the eigenvalue.
"""

from __future__ import annotations

from functools import cache
from math import comb
from typing import NamedTuple

import numpy as np

from .network import InputError, _as_count, _as_index, _as_nonnegative, _as_state

__all__ = [
    "dicke_ket",
    "site_bits",
    "excitation_counts",
    "excitation_indices",
    "schmidt_reconstruct",
    "global_observable",
    "global_observable_diagonal",
    "smc_projector",
    "is_ssc",
    "is_smc",
    "v_dicke",
    "dicke_populations",
    "v_total",
    "v_smc",
    "gossip_fixed_point",
    "per_site_expectations",
]

CONSENSUS_ATOL = 1e-9  # is_ssc's residual and is_smc's 1 - population must not exceed it


def site_bits(m: int) -> np.ndarray:
    """Read-only (2^m, m) table: entry [n, i] is the bit of site i + 1 in index n."""
    return _site_bits(_as_nonnegative(m, "qubit count m"))  # gated before the cache, where True would read as 1


@cache
def _site_bits(m: int) -> np.ndarray:
    bits = (np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    bits.setflags(write=False)
    return bits


def excitation_counts(m: int) -> np.ndarray:
    """Number of ones in every m-bit basis index, in index order."""
    return site_bits(m).sum(1)


def excitation_indices(m: int, k: int) -> list[int]:
    """Ascending basis indices of the m-qubit strings with exactly k ones."""
    k = _as_count(k, m)
    return np.flatnonzero(excitation_counts(m) == k).tolist()


def dicke_ket(m: int, k: int) -> np.ndarray:
    """Equal superposition of all C(m, k) basis strings with k excitations."""
    k = _as_count(k, m)
    return (excitation_counts(m) == k).astype(complex) / np.sqrt(comb(m, k))


def schmidt_reconstruct(m: int, k: int, m_a: int) -> np.ndarray:
    """Assemble the Dicke ket from its bipartite binomial decomposition.

    For a split into the first m_a and remaining m - m_a sites,

        |(m,k)> = C(m,k)^(-1/2) * sum_{ka+kb=k}
                  sqrt(C(m_a,ka) * C(m_b,kb)) |(m_a,ka)> (x) |(m_b,kb)>

    with terms skipped when ka > m_a or kb > m_b.
    """
    k = _as_count(k, m)
    if not 1 <= (m_a := _as_index(m_a, "split size")) < m:
        raise InputError(f"split size {m_a} must satisfy 1 <= m_a < m={m}")
    m_b = m - m_a
    v = np.zeros(1 << m, dtype=complex)
    for ka in range(k + 1):
        kb = k - ka
        if ka > m_a or kb > m_b:
            continue
        weight = np.sqrt(comb(m_a, ka) * comb(m_b, kb))
        v += weight * np.kron(dicke_ket(m_a, ka), dicke_ket(m_b, kb))
    return v / np.sqrt(comb(m, k))


def global_observable_diagonal(m: int) -> np.ndarray:
    """Diagonal of m*I + sum_i sigma_z^(i): 2*(m - k) on a k-excitation basis string."""
    return 2.0 * (m - excitation_counts(m))


def global_observable(m: int) -> np.ndarray:
    """Diagonal conserved observable m*I + sum_i sigma_z^(i).

    Eigenvalue on a k-excitation basis string: 2*(m - k).
    """
    if _as_index(m, "qubit count m") < 1:
        raise InputError("need m >= 1")
    return np.diag(global_observable_diagonal(m)).astype(complex)


def smc_projector(m: int) -> np.ndarray:
    """Projector onto span{|00...0>, |11...1>}."""
    if _as_index(m, "qubit count m") < 1:
        raise InputError("need m >= 1")
    dim = 1 << m
    p = np.zeros((dim, dim), dtype=complex)
    p[0, 0] = 1.0
    p[dim - 1, dim - 1] = 1.0
    return p


def is_ssc(rho: np.ndarray, m: int) -> tuple[bool, float]:
    """Symmetric-state consensus test.

    Returns (verdict, residual) where the residual is the max-abs change of
    rho under conjugation by any adjacent-transposition unitary, which swaps
    the row axes i, i+1 and the column axes of the qubit-tensor view.
    Adjacent transpositions generate the full permutation group, so checking
    the m-1 generators suffices.  The verdict is residual <= CONSENSUS_ATOL.
    """
    t = _as_state(rho, m).reshape((2,) * (2 * m))
    residual = 0.0  # np.maximum, unlike max, keeps a NaN, so garbage never reads as consensus
    for i in range(1, m):
        residual = np.maximum(residual, np.max(np.abs(t.swapaxes(i - 1, i).swapaxes(m + i - 1, m + i) - t)))
    return bool(residual <= CONSENSUS_ATOL), float(residual)


def is_smc(rho: np.ndarray, m: int) -> tuple[bool, float, float]:
    """Single-measurement consensus test for sigma_z.

    Returns (verdict, population, pairwise_residual): population is the
    weight Tr(P_SMC rho) on span{|0...0>, |1...1>}; the pairwise residual is
    the worst violation of Tr(P_j^(k) P_j^(l) rho) = Tr(P_j^(l) rho) over
    outcomes j in {0,1} and site pairs; verdict: population >= 1 - CONSENSUS_ATOL.
    """
    rho = _as_state(rho, m)
    diag = np.real(np.diag(rho))
    population = float(rho[0, 0].real + rho[-1, -1].real)
    off_diagonal = ~np.eye(m, dtype=bool)
    residual = 0.0
    for j in (0, 1):
        masks = (site_bits(m) == j).astype(float)
        singles = diag @ masks
        joint = (masks * diag[:, None]).T @ masks
        residual = np.maximum(residual, np.max(np.abs(joint - singles)[off_diagonal], initial=0.0))
    return population >= 1.0 - CONSENSUS_ATOL, population, float(residual)


def v_dicke(rho: np.ndarray, m: int, k: int) -> float:
    """Lyapunov value 1 - <(m,k)| rho |(m,k)> for one Dicke target."""
    return 1.0 - float(dicke_populations(rho, m)[_as_count(k, m)])


class _Readout(NamedTuple):
    diag: np.ndarray  # the diagonal, in index order
    s_weights: np.ndarray  # 2*(m - k) at each diagonal entry
    sectors: np.ndarray  # the Dicke-sector blocks {(r, c): |r| = |c| = k}, ascending in k
    starts: np.ndarray  # where each sector starts in `sectors`
    scale: np.ndarray  # 1 / C(m, k)


@cache
def _readout(m: int, block: int) -> _Readout:
    """Read-only flat positions in a 2^m x 2^m matrix stored as (d/b, d/b, b, b) blocks, b = block.

    Row r = p*b + X and column c = q*b + Y sit at ((p*d/b + q)*b + X)*b + Y:
    b = 2^m is the canonical layout, b = 2^(m-2) the pair kernel's carried one.
    """
    d, counts = 1 << m, excitation_counts(m)
    p, x = np.divmod(np.arange(d), block)
    rows, cols = (p * d + x) * block, p * block * block + x
    by_k = [np.flatnonzero(counts == k) for k in range(m + 1)]
    sectors = [np.sort(np.add.outer(rows[idx], cols[idx]), axis=None) for idx in by_k]
    sizes = np.array([len(idx) for idx in by_k])
    table = _Readout(rows + cols, global_observable_diagonal(m), np.concatenate(sectors),
                     np.cumsum(sizes * sizes) - sizes * sizes, 1.0 / sizes)
    for a in table:
        a.setflags(write=False)
    return table


def _sector_sums(flat: np.ndarray, table: _Readout) -> np.ndarray:
    """Dicke populations <(m,k)| rho |(m,k)>, k = 0..m, of the flat matrix the table reads."""
    return np.add.reduceat(np.real(flat)[table.sectors], table.starts) * table.scale


def dicke_populations(rho: np.ndarray, m: int) -> np.ndarray:
    """<(m,k)| rho |(m,k)>, k = 0..m: the mean of Re(rho) over the k-excitation sector block."""
    return _sector_sums(_as_state(rho, m).reshape(-1), _readout(m, 1 << m))


def v_total(rho: np.ndarray, m: int) -> float:
    """Sum of v_dicke over k = 0..m; equals (m+1) minus the total Dicke weight.

    The minimum value m is attained exactly when rho is supported on the span
    of the Dicke kets.
    """
    return float(m + 1 - dicke_populations(rho, m).sum())


def v_smc(rho: np.ndarray, m: int) -> float:
    """Lyapunov value 1 - Tr(P_SMC rho)."""
    rho = _as_state(rho, m)
    return 1.0 - float(rho[0, 0].real + rho[-1, -1].real)


def gossip_fixed_point(rho0: np.ndarray, m: int) -> np.ndarray:
    """Exact permutation-group average (1/m!) sum_pi U_pi rho U_pi^dag.

    The cosets (i n) S_{n-1}, i = 1..n, partition S_n, so for n = 2..m the
    running average is replaced by its mean over the site swaps (i n), with
    i = n the identity: m(m+1)/2 - 1 swaps on the qubit-tensor view in all.
    """
    rho0 = _as_state(rho0, m)
    t = rho0.reshape((2,) * (2 * m)).copy()
    for n in range(2, m + 1):
        acc = t.copy()
        for i in range(1, n):
            acc += t.swapaxes(i - 1, n - 1).swapaxes(m + i - 1, m + n - 1)
        t = acc / n
    return t.reshape(rho0.shape)


def per_site_expectations(rho: np.ndarray, m: int) -> np.ndarray:
    """Per-site expectations of I + sigma_z, i.e. 2*P(site reads 0).

    At consensus these agree across sites and, rescaled by m, recover the
    expectation of the global observable from any single site.
    """
    diag = np.real(np.diag(_as_state(rho, m)))
    return 2.0 * (diag @ (1 - site_bits(m)))
