import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qconsensus.dynamics import gossip_channel, smc_channel, ssc_channel
from qconsensus.network import InputError, NetworkTopology, is_connected
from qconsensus.qcore import bitstring_ket

from dense_reference import embed_neighborhood, permutation_unitary, permute_sites

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


@pytest.mark.parametrize(
    "m, pairs, expected",
    [
        (3, ((1, 2), (2, 3)), True),
        (4, ((1, 2), (3, 4)), False),
        (2, ((1, 2),), True),
        (3, ((1, 2),), False),  # site 3 not covered
    ],
)
def test_is_connected(m, pairs, expected):
    assert is_connected(NetworkTopology(m=m, neighborhoods=pairs)) is expected


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.integers(2, 8))
def test_is_connected_agrees_with_reachability_by_matrix_powers(data, m):
    pairs = data.draw(st.lists(st.sampled_from(list(combinations(range(1, m + 1), 2))), unique=True))
    adjacency = np.zeros((m, m))
    for j, k in pairs:
        adjacency[j - 1, k - 1] = adjacency[k - 1, j - 1] = 1
    reachable = (np.linalg.matrix_power(np.eye(m) + adjacency, m - 1) > 0)[0].all()
    assert is_connected(NetworkTopology(m=m, neighborhoods=tuple(pairs))) is bool(reachable)


def test_importing_the_package_does_not_load_networkx():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = "import sys, qconsensus, qconsensus.cli; print('networkx' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "False"


def test_topology_validation():
    with pytest.raises(ValueError):
        NetworkTopology(m=1, neighborhoods=())
    with pytest.raises(ValueError, match="repeats"):
        NetworkTopology(m=3, neighborhoods=((2, 2),))
    with pytest.raises(ValueError, match="range"):
        NetworkTopology(m=3, neighborhoods=((1, 4),))
    with pytest.raises(ValueError, match="duplicate"):
        NetworkTopology(m=3, neighborhoods=((1, 2), (2, 1)))
    with pytest.raises(ValueError, match="sum"):
        NetworkTopology(m=3, neighborhoods=((1, 2), (2, 3)), probabilities=(0.5, 0.6))
    with pytest.raises(ValueError, match="positive"):
        NetworkTopology(m=3, neighborhoods=((1, 2), (2, 3)), probabilities=(1.2, -0.2))


@pytest.mark.parametrize(
    "neighborhoods, probabilities",
    [
        (((1, 2.7), (2, 3)), None),
        (((1, "2"), (2, 3)), None),
        (((1, True), (2, 3)), None),
        (((1, 2), (2, 3)), ("0.5", "0.5")),
        (((1, 2), (2, 3)), (True, 0.0)),
    ],
    ids=["site-float", "site-str", "site-bool", "probability-str", "probability-bool"],
)
def test_topology_rejects_values_it_would_have_to_coerce(neighborhoods, probabilities):
    with pytest.raises(ValueError, match="integer|numbers"):
        NetworkTopology(m=3, neighborhoods=neighborhoods, probabilities=probabilities)


def test_topology_accepts_numpy_scalars():
    top = NetworkTopology(m=3, neighborhoods=((np.int64(1), np.int32(2)), (2, 3)), probabilities=(np.float64(0.25), 0.75))
    assert top.neighborhoods == ((1, 2), (2, 3)) and all(type(s) is int for pair in top.neighborhoods for s in pair)
    assert top.probabilities == (0.25, 0.75)
    assert type(NetworkTopology(m=np.int64(3), neighborhoods=((1, 2),)).m) is int


@pytest.mark.parametrize("m", [3.0, "3", True], ids=["float", "str", "bool"])
def test_topology_rejects_a_qubit_count_it_would_have_to_coerce(m):
    with pytest.raises(ValueError, match="not an integer"):
        NetworkTopology(m=m, neighborhoods=((1, 2),))


def test_embed_neighborhood_rejects_non_integer_sites():
    with pytest.raises(ValueError, match="not an integer"):
        embed_neighborhood(SWAP, (1, 2.5), 3)


@pytest.mark.parametrize("pair, message", [((1, 2, 3), "has 3 sites, not 2"), ((2, 2), "repeats a site")], ids=["triple", "repeat"])
@pytest.mark.parametrize(
    "make",
    [
        lambda pair: NetworkTopology(m=3, neighborhoods=(pair,)),
        lambda pair: embed_neighborhood(SWAP, pair, 3),
        lambda pair: gossip_channel(pair, 3, 0.5),
        lambda pair: ssc_channel(pair, 3),
        lambda pair: smc_channel(pair, 3),
    ],
    ids=["topology", "embed", "gossip", "ssc", "smc"],
)
def test_pairs_must_be_two_distinct_sites(make, pair, message):
    with pytest.raises(InputError, match=message):
        make(pair)


def test_topology_normalizes_pair_order():
    top = NetworkTopology(m=3, neighborhoods=((3, 1),))
    assert top.neighborhoods == ((1, 3),)


def test_embed_neighborhood_whole_space():
    assert np.array_equal(embed_neighborhood(SWAP, (1, 2), 2), SWAP)


def test_embed_neighborhood_nonadjacent_swap():
    op = embed_neighborhood(SWAP, (1, 3), 3)
    assert np.allclose(op @ bitstring_ket("100"), bitstring_ket("001"))
    assert np.allclose(op @ bitstring_ket("010"), bitstring_ket("010"))


@pytest.mark.parametrize("pair, m", [((1, 2), 2), ((2, 4), 4), ((1, 3), 3)])
def test_embed_neighborhood_identity(pair, m):
    out = embed_neighborhood(np.eye(4, dtype=complex), pair, m)
    assert np.array_equal(out, np.eye(1 << m))


def test_embed_neighborhood_rejects_bad_pair():
    with pytest.raises(ValueError):
        embed_neighborhood(SWAP, (2, 2), 3)
    with pytest.raises(ValueError):
        embed_neighborhood(SWAP, (1, 4), 3)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_embed_neighborhood_is_multiplicative(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    lhs = embed_neighborhood(a, (2, 4), 4) @ embed_neighborhood(b, (2, 4), 4)
    rhs = embed_neighborhood(a @ b, (2, 4), 4)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_disjoint_embeddings_commute():
    rng = np.random.default_rng(99)
    for _ in range(10):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        ea = embed_neighborhood(a, (1, 2), 4)
        eb = embed_neighborhood(b, (3, 4), 4)
        assert np.max(np.abs(ea @ eb - eb @ ea)) < 1e-12


def test_permutation_unitary_identity():
    assert np.array_equal(permutation_unitary((1, 2, 3), 3), np.eye(8))


def test_permutation_unitary_swap():
    u = permutation_unitary((2, 1), 2)
    assert np.allclose(u @ bitstring_ket("01"), bitstring_ket("10"))
    assert np.array_equal(u, SWAP)


def test_permutation_unitary_three_cycle():
    # The map pi(1)=3, pi(2)=1, pi(3)=2 relabels |b1 b2 b3> -> |b3 b1 b2>,
    # carrying the excitation of site 1 to site 2: |100> -> |010>.
    u = permutation_unitary((3, 1, 2), 3)
    assert np.allclose(u @ bitstring_ket("100"), bitstring_ket("010"))


def test_permutation_unitary_rejects_non_bijection():
    with pytest.raises(ValueError):
        permutation_unitary((1, 1, 3), 3)
    with pytest.raises(ValueError):
        permutation_unitary((1, 2), 3)


@given(seed=st.integers(0, 2**31 - 1), m=st.integers(2, 4))
@settings(max_examples=20, deadline=None)
def test_permutation_unitary_defining_property(seed, m):
    # U_pi (X_1 (x) ... (x) X_m) U_pi^dag = X_pi(1) (x) ... (x) X_pi(m)
    rng = np.random.default_rng(seed)
    pi = rng.permutation(m) + 1
    u = permutation_unitary(tuple(pi), m)
    factors = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(m)]
    prod = factors[0]
    for f in factors[1:]:
        prod = np.kron(prod, f)
    permuted = factors[pi[0] - 1]
    for i in range(1, m):
        permuted = np.kron(permuted, factors[pi[i] - 1])
    assert np.max(np.abs(u @ prod @ u.conj().T - permuted)) < 1e-12


@given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_permute_sites_matches_unitary_conjugation(seed, m):
    rng = np.random.default_rng(seed)
    pi = tuple(int(p) for p in rng.permutation(m) + 1)
    dim = 1 << m
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u = permutation_unitary(pi, m)
    assert np.max(np.abs(permute_sites(x, pi, m) - u @ x @ u.conj().T)) < 1e-14


def test_permute_sites_rejects_bad_input():
    with pytest.raises(ValueError, match="permutation"):
        permute_sites(np.eye(8), (1, 1, 3), 3)
    with pytest.raises(ValueError, match="shape"):
        permute_sites(np.eye(4), (2, 1, 3), 3)


@pytest.mark.parametrize("pi", [(2.0, 1.0), (True, 2), ("2", "1")], ids=["float", "bool", "str"])
def test_permute_sites_rejects_images_it_would_have_to_coerce(pi):
    with pytest.raises(ValueError, match="not an integer"):
        permute_sites(np.eye(4), pi, 2)
    assert np.array_equal(permute_sites(SWAP, (np.int64(2), np.int32(1)), 2), SWAP)
