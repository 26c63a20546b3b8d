"""Site operations on the qubit-tensor view against their dense references, and the qubit-count gates."""

import numpy as np
import pytest

from qconsensus.dynamics import ChannelFamily, certify_family, smc_neighborhood_channel
from qconsensus.network import InputError
from qconsensus.qcore import I2, basis_ket
from qconsensus.simulator import apply_flip, random_density
from qconsensus.symmetry import (
    dicke_ket,
    excitation_counts,
    excitation_indices,
    global_observable,
    gossip_fixed_point,
    is_ssc,
    schmidt_reconstruct,
    site_bits,
    smc_projector,
)

from dense_reference import embed_neighborhood, permutation_unitary

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


@pytest.mark.parametrize("m", range(2, 8))
def test_is_ssc_residual_is_the_dense_adjacent_transposition_residual(m):
    rho = random_density(40 + m, 1 << m)
    dense = 0.0
    for i in range(1, m):
        pi = list(range(1, m + 1))
        pi[i - 1], pi[i] = pi[i], pi[i - 1]
        u = permutation_unitary(pi, m)
        dense = max(dense, float(np.max(np.abs(u @ rho @ u.conj().T - rho))))
    assert is_ssc(rho, m) == (dense <= 1e-9, dense)


@pytest.mark.parametrize("m", range(2, 8))
def test_apply_flip_is_dense_sigma_x_conjugation(m):
    rho = random_density(60 + m, 1 << m)
    for site in range(1, m + 1):
        # sigma_x on `site` as a pair operator: the pair's first factor, or its second at site m.
        pair, op = ((site, site + 1), np.kron(SIGMA_X, I2)) if site < m else ((m - 1, m), np.kron(I2, SIGMA_X))
        x = embed_neighborhood(op, pair, m)
        flipped = apply_flip(rho, site, m)
        assert flipped.tobytes() == (x @ rho @ x.conj().T).tobytes(), site
        assert not np.shares_memory(flipped, rho)


def test_apply_flip_returns_a_new_array_at_one_qubit():
    rho = random_density(5, 2)
    flipped = apply_flip(rho, 1, 1)
    assert np.array_equal(flipped, rho[::-1, ::-1])
    flipped[0, 0] = 7.0
    assert rho[1, 1] != 7.0


RHO3 = np.eye(8) / 8


@pytest.mark.parametrize(
    "call",
    [
        lambda: dicke_ket(3.0, 1),
        lambda: global_observable(2.5),
        lambda: smc_projector(2.5),
        lambda: excitation_indices(3.0, 1),
        lambda: gossip_fixed_point(RHO3, 3.0),
        lambda: smc_neighborhood_channel(2.0),
        lambda: certify_family(ChannelFamily.ssc(), 2.0),
        lambda: schmidt_reconstruct(4, 2, 2.0),
        lambda: basis_ket(2.5, 1),
        lambda: dicke_ket(True, 0),
        lambda: smc_projector(True),
        lambda: schmidt_reconstruct(4, 2, True),
        lambda: site_bits(True),
        lambda: excitation_counts(-1),
        lambda: gossip_fixed_point(RHO3, -1),
    ],
    ids=[
        "dicke_ket-float", "global_observable-float", "smc_projector-float", "excitation_indices-float",
        "gossip_fixed_point-float", "smc_neighborhood_channel-float", "certify_family-float",
        "schmidt_reconstruct-float", "basis_ket-float", "dicke_ket-bool", "smc_projector-bool",
        "schmidt_reconstruct-bool", "site_bits-bool", "excitation_counts-negative", "gossip_fixed_point-negative",
    ],
)
def test_qubit_counts_sizes_and_dims_are_gated(call):
    with pytest.raises(InputError, match="not an integer|is negative"):
        call()


def test_qubit_count_gates_accept_numpy_integers():
    assert np.array_equal(dicke_ket(np.int64(3), 1), dicke_ket(3, 1))
    assert np.array_equal(site_bits(np.int32(2)), site_bits(2))
    assert smc_neighborhood_channel(np.int64(2)).dim == 4
    assert np.array_equal(schmidt_reconstruct(4, 2, np.int64(2)), schmidt_reconstruct(4, 2, 2))
    assert np.array_equal(basis_ket(np.int64(4), 1), basis_ket(4, 1))
