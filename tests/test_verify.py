"""`qconsensus verify`: operator certificates instead of sampled states.

Every row of `dynamics.certify_family` is a statement about the map for all
states.  A channel that breaks one invariant must fail that row, and the
command must exit 2.
"""

import numpy as np
import pytest

from qconsensus import cli, dynamics
from qconsensus.dynamics import ChannelFamily, certify_family
from qconsensus.qcore import ket

FAMILIES = {"gossip": ChannelFamily.gossip(0.3), "ssc": ChannelFamily.ssc(), "smc": ChannelFamily.smc()}
ROWS = {
    "gossip": ("cptp completeness", "unitality E(I) = I", "duality", "conservation", "dicke populations invariant"),
    "ssc": ("cptp completeness", "dual unitality", "duality", "conservation", "v_total non-increasing"),
    "smc": ("cptp completeness", "dual unitality", "duality", "conservation", "v_smc non-increasing"),
}


def verify_rows(capsys, family, m=6):
    """Exit code of `verify` and its printed rows, without the header and the overall line."""
    code = cli.main(["verify", "--family", family, "--m", str(m)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] in ("overall: PASS", "overall: FAIL")
    return code, lines[1:-1]


def row_status(rows, name):
    (line,) = [row for row in rows if row.startswith(name)]
    return "PASS" if " PASS " in line else "FAIL"


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_certify_family_rows_pass(kind, m):
    rows = certify_family(FAMILIES[kind], m)
    assert len(rows) == len(ROWS[kind])
    assert all(name.startswith(prefix) for (name, _, _), prefix in zip(rows, ROWS[kind])), rows
    assert all(ok for _, ok, _ in rows), rows
    assert rows[0][0] == f"cptp completeness ({m * (m - 1) // 2} channels)"


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_verify_prints_every_certificate(kind, capsys):
    code, rows = verify_rows(capsys, kind)
    assert code == 0
    assert [row_status(rows, name) for name in ROWS[kind]] == ["PASS"] * len(ROWS[kind])


def test_smc_without_its_11_branch_fails_conservation(monkeypatch, capsys):
    # |01> and |10> go to |00> only: still CPTP, still onto the consensus
    # span, but the excitation number drops.
    p = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
    to_00 = [np.zeros((4, 4), dtype=complex) for _ in range(2)]
    to_00[0][0, 1] = to_00[1][0, 2] = 1.0
    monkeypatch.setattr(dynamics, "_SMC_KRAUS", (p, *to_00))
    code, rows = verify_rows(capsys, "smc")
    assert code == 2
    assert row_status(rows, "conservation") == "FAIL"
    assert row_status(rows, "v_smc non-increasing") == "PASS"


def test_ssc_replaced_by_symmetric_to_antisymmetric_rotation_fails_monotonicity(monkeypatch, capsys):
    # A unitary on span{|01>, |10>} that turns (|01>+|10>)/sqrt2 toward
    # (|01>-|10>)/sqrt2 conserves S and is unital, but leaves the Dicke span.
    theta = np.pi / 5
    sym, anti = ket([0, 1, 1, 0]), ket([0, 1, -1, 0])
    rotation = np.cos(theta) * (np.outer(sym, sym) + np.outer(anti, anti)) + np.sin(theta) * (
        np.outer(anti, sym) - np.outer(sym, anti)
    )
    u = rotation + np.diag([1.0, 0.0, 0.0, 1.0])
    monkeypatch.setattr(dynamics, "_SSC_KRAUS", (u,))
    code, rows = verify_rows(capsys, "ssc")
    assert code == 2
    assert row_status(rows, "v_total non-increasing") == "FAIL"
    assert [name for name, ok, _ in certify_family(FAMILIES["ssc"], 6) if not ok] == [
        "v_total non-increasing: E^dag(P) >= P"
    ]


def test_gossip_with_a_phase_fails_dicke_invariance(monkeypatch, capsys):
    # Swap composed with a relative phase on |10>: unital and S-conserving,
    # but it moves weight out of the symmetric Dicke vectors.
    phase = np.diag([1.0, 1.0, 1j, 1.0])
    real = dynamics.gossip_channel

    def phased(pair, m, alpha):
        channel = real(pair, m, alpha)
        a, b = channel.kraus_ops
        return dynamics.KrausChannel((a, phase @ b), sites=channel.sites, m=m)

    monkeypatch.setattr(dynamics, "gossip_channel", phased)
    code, rows = verify_rows(capsys, "gossip", m=3)
    assert code == 2
    assert row_status(rows, "dicke populations invariant") == "FAIL"
    assert row_status(rows, "unitality E(I) = I") == "PASS"


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_verify_samples_no_states(monkeypatch, capsys, kind):
    def no_sampling(*args, **kwargs):
        raise AssertionError("verify must not sample random states")

    monkeypatch.setattr(cli, "random_density", no_sampling)
    code, _ = verify_rows(capsys, kind)
    assert code == 0


def test_verify_has_no_seed_flag():
    assert cli.main(["verify", "--family", "ssc", "--m", "3", "--seed", "1"]) == 1
