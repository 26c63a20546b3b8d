"""Dense 2^m x 2^m site operations, the test references for the library's axis operations.

The library relabels sites by permuting the axes of the (2,)*2m qubit-tensor
view (KrausChannel.perm, gossip_fixed_point, is_ssc, apply_flip).  These
builders state the same operations as explicit matrices, so tests can check
the axis forms against U x U^dag, and apply a pair channel as the complex
operator sum of its embedded Kraus matrices.
"""

from __future__ import annotations

import numpy as np

from qconsensus.network import InputError, _as_index, _as_pair, _as_state


def _site_axes(pi, m: int) -> list[int]:
    """0-based qubit-tensor axes of the validated site permutation pi."""
    images = [_as_index(p, "permutation image") for p in pi]
    if len(images) != m or sorted(images) != list(range(1, m + 1)):
        raise InputError(f"{pi!r} is not a permutation of 1..{m}")
    return [p - 1 for p in images]


def permute_sites(x: np.ndarray, pi, m: int) -> np.ndarray:
    """U_pi x U_pi^dag for a 2^m x 2^m operator x (U_pi as in permutation_unitary).

    One transpose of the (2,)*2m qubit-tensor view: site i of the output, on
    the row side and on the column side, is site pi(i) of the input.
    """
    axes = _site_axes(pi, m)
    x = _as_state(x, m)
    return x.reshape((2,) * (2 * m)).transpose(axes + [m + a for a in axes]).reshape(x.shape)


def permutation_unitary(pi, m: int) -> np.ndarray:
    """Unitary representation of a subsystem permutation.

    Defined by U_pi (X_1 (x) ... (x) X_m) U_pi^dag = X_pi(1) (x) ... (x) X_pi(m)
    for all single-site operator tuples; on basis strings,
    U_pi |b_1 ... b_m> = |b_pi(1) ... b_pi(m)>.  It is the identity with its
    row axes permuted.
    """
    axes = _site_axes(pi, m)
    dim = 1 << m
    eye = np.eye(dim, dtype=complex).reshape((2,) * (2 * m))
    return eye.transpose(axes + list(range(m, 2 * m))).reshape(dim, dim)


def embed_neighborhood(op: np.ndarray, pair, m: int) -> np.ndarray:
    """Operator acting as the given 4x4 block on sites (j, k), identity elsewhere.

    Non-adjacent pairs are handled by conjugating with the site permutation
    that brings j, k to the two leading slots.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (4, 4):
        raise InputError(f"expected a 4x4 neighborhood operator, got shape {op.shape}")
    j, k = _as_pair(pair, m)
    rest = iter(range(3, m + 1))
    images = [1 if s == j else 2 if s == k else next(rest) for s in range(1, m + 1)]
    return permute_sites(np.kron(op, np.eye(1 << (m - 2), dtype=complex)), images, m)


def dense_channel_apply(channel, rho: np.ndarray) -> np.ndarray:
    """sum_k K_k rho K_k^dag for a pair channel, each K_k its Kraus operator embedded as a 2^m x 2^m matrix."""
    ks = [embed_neighborhood(a, channel.sites, channel.m) for a in channel.kraus_ops]
    return sum(k @ rho @ k.conj().T for k in ks)
