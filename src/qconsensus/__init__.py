"""Quasi-local symmetrizing dynamics and consensus channels on qubit networks.

The package provides multi-qubit states and pair-local Kraus channels
(qcore), the network topology and the argument gates (network), Dicke-state
and consensus diagnostics (symmetry), the gossip / ssc / smc channel families
(dynamics), trajectory and Monte-Carlo machinery plus the Dicke preparation
protocol (simulator), and a YAML-driven command line front end (cli).  A
site relabeling is an axis permutation of the (2,)*2m qubit-tensor view of a
2^m x 2^m matrix; no full-space permutation or embedding matrix is built.
"""

from .dynamics import (
    ChannelFamily,
    FeedbackDecomposition,
    build_channels,
    gossip_channel,
    smc_channel,
    smc_neighborhood_channel,
    ssc_channel,
    ssc_feedback_decomposition,
    ssc_pair_channel,
)
from .network import InputError, NetworkTopology, is_connected
from .qcore import (
    KrausChannel,
    apply_channel,
    basis_ket,
    bitstring_ket,
    check_cptp,
    dual_apply,
    expectation,
    ket,
    ket_to_density,
    load_matrix,
    partial_trace,
    pure_state_fidelity,
    purity,
    save_matrix,
    validate_density_matrix,
)
from .simulator import (
    PreparationResult,
    RunResult,
    Schedule,
    TrajectoryRecord,
    convergence_probability,
    measure_global_observable,
    measure_local_z,
    apply_flip,
    prepare_dicke,
    random_density,
    run,
    write_trajectory_csv,
)
from .symmetry import (
    ConsensusReport,
    consensus_report,
    dicke_ket,
    global_observable,
    gossip_fixed_point,
    is_smc,
    is_ssc,
    per_site_expectations,
    schmidt_reconstruct,
    smc_projector,
    v_dicke,
    v_smc,
    v_total,
)

__version__ = "0.1.0"
