"""Command line front end: run, compare, prepare, verify, convergence.

Experiments are described by a YAML config file (print the schema with
`qconsensus --print-schema`).  Exit codes: 0 success, 1 config or usage
error, 2 numeric invariant violation or failed verification.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
import yaml

from .dynamics import ChannelFamily, certify_family
from .network import NetworkTopology, _as_count, _as_index, _as_real
from .qcore import bitstring_ket, ket_to_density, load_matrix, purity
from .simulator import (
    Schedule,
    convergence_probability,
    prepare_dicke,
    random_density,
    run,
    write_trajectory_csv,
)
from .symmetry import consensus_report, dicke_ket

CONFIG_SCHEMA = """\
# qconsensus experiment configuration (YAML)

topology:
  m: 3                       # number of qubits (>= 2)
  edges: [[1, 2], [2, 3]]    # interaction pairs, 1-based site indices
  probabilities: [0.6, 0.4]  # optional per-edge selection weights (sum to 1)

family:
  kind: ssc                  # gossip | ssc | smc
  alpha: 0.5                 # gossip only: mixing weight in (0, 1)

schedule:
  mode: cyclic               # cyclic | random
  order: [0, 1]              # cyclic only: indices into edges
                             # (optional, defaults to round robin)
  seed: 7                    # random only (optional, defaults to top-level seed)

steps: 300                   # channel applications per run (>= 1)

initial_state:
  kind: basis                # basis | dicke | random | file
  string: "011"              # basis: bit string, site 1 first
  k: 1                       # dicke: excitation count
  seed: 42                   # random: optional, defaults to top-level seed
  path: rho.json             # file: JSON matrix, see below

seed: 123                    # master seed for any unseeded randomness
output: trajectory.csv       # optional output file name

prepare:                     # `prepare` subcommand only
  target_k: 1
  use_s_measurement: false
  steps: 300

convergence:                 # `convergence` subcommand only
  gamma: 0.01
  horizon: 200
  trials: 200

# Matrix file format (JSON): {"dim": d, "entries": [[re, im], ...]} with
# d*d entries in row-major order (site 1 = most significant bit).
#
# Trajectory CSV columns: step, purity, s_expectation, v_total, v_smc,
# smc_population, pop_dicke_0 ... pop_dicke_m (12 significant digits).
"""

DEFAULT_SEED = 0


class ConfigError(Exception):
    """Invalid or unreadable experiment configuration."""


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a mapping at the top level")
    return cfg


def _section(cfg: dict, key: str, required: bool = True) -> dict:
    value = cfg.get(key)
    if value is None:
        if required:
            raise ConfigError(f"missing config section '{key}'")
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"config section '{key}' must be a mapping")
    return value


def _as_int(value, name: str) -> int:
    """network._as_index for a YAML value; its ValueError becomes a config error naming the key."""
    try:
        return _as_index(value, f"'{name}'")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _as_number(value, name: str) -> float:
    """network._as_real for a YAML value; its ValueError becomes a config error naming the key."""
    try:
        return _as_real(value, f"'{name}'")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _int_value(section: dict, key: str, context: str, *, required: bool = True, default=None):
    value = section.get(key, default)
    if value is None:
        if required:
            raise ConfigError(f"missing key '{context}.{key}'")
        return None
    return _as_int(value, f"{context}.{key}")


def _count_value(section: dict, key: str, context: str, m: int) -> int:
    """An excitation count in 0..m; network._as_count's ValueError becomes a config error naming the key."""
    try:
        return _as_count(_int_value(section, key, context), m)
    except ValueError as exc:
        raise ConfigError(f"'{context}.{key}': {exc}") from None


def _build_topology(cfg: dict) -> NetworkTopology:
    section = _section(cfg, "topology")
    m = _int_value(section, "m", "topology")
    edges = section.get("edges")
    if not isinstance(edges, list) or not edges:
        raise ConfigError("'topology.edges' must be a nonempty list of site pairs")
    pairs = []
    for i, edge in enumerate(edges):
        if (not isinstance(edge, (list, tuple))) or len(edge) != 2:
            raise ConfigError(f"'topology.edges[{i}]' must be a pair of site indices")
        pairs.append(tuple(_as_int(site, f"topology.edges[{i}][{j}]") for j, site in enumerate(edge)))
    probabilities = section.get("probabilities")
    if probabilities is not None:
        if not isinstance(probabilities, list):
            raise ConfigError(f"'topology.probabilities' must be a list of numbers, got {probabilities!r}")
        probabilities = tuple(_as_number(p, f"topology.probabilities[{i}]") for i, p in enumerate(probabilities))
    try:
        return NetworkTopology(m=m, neighborhoods=tuple(pairs), probabilities=probabilities)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"'topology': {exc}") from exc


def _build_family(cfg: dict) -> ChannelFamily:
    section = _section(cfg, "family")
    alpha = section.get("alpha")
    try:
        return ChannelFamily(section.get("kind"), None if alpha is None else _as_number(alpha, "family.alpha"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"'family': {exc}") from exc


def _build_schedule(cfg: dict, master_seed: int) -> Schedule:
    section = _section(cfg, "schedule", required=False)
    if "probabilities" in section:
        raise ConfigError("'schedule.probabilities' is not a schedule key; set selection weights in 'topology.probabilities'")
    mode = section.get("mode", "cyclic")
    try:
        if mode == "cyclic":
            order = section.get("order")
            if order is None:
                return Schedule.cyclic()
            if not isinstance(order, list):
                raise ConfigError(f"'schedule.order' must be a list of edge indices, got {order!r}")
            return Schedule.cyclic([_as_int(i, f"schedule.order[{n}]") for n, i in enumerate(order)])
        if mode == "random":
            return Schedule.random(seed=_int_value(section, "seed", "schedule", default=master_seed))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"'schedule': {exc}") from exc
    raise ConfigError(f"'schedule.mode' must be cyclic or random, got {mode!r}")


def _build_initial_state(cfg: dict, m: int, master_seed: int) -> np.ndarray:
    section = _section(cfg, "initial_state")
    kind = section.get("kind")
    if kind == "basis":
        bits = section.get("string")
        if not isinstance(bits, str) or len(bits) != m or any(c not in "01" for c in bits):
            raise ConfigError(f"'initial_state.string' must be an m={m} bit string, got {bits!r}")
        return ket_to_density(bitstring_ket(bits))
    if kind == "dicke":
        return ket_to_density(dicke_ket(m, _count_value(section, "k", "initial_state", m)))
    if kind == "random":
        seed = _int_value(section, "seed", "initial_state", required=False)
        return random_density(master_seed if seed is None else seed, 1 << m)
    if kind == "file":
        path = section.get("path")
        if not isinstance(path, str):
            raise ConfigError("'initial_state.path' must be a file path")
        try:
            rho = load_matrix(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"'initial_state.path': {exc}") from exc
        if rho.shape != (1 << m, 1 << m):
            raise ConfigError(f"matrix in {path} has shape {rho.shape}, expected {(1 << m, 1 << m)}")
        return rho
    raise ConfigError(f"'initial_state.kind' must be basis, dicke, random, or file, got {kind!r}")


def _steps(cfg: dict) -> int:
    steps = _int_value(cfg, "steps", "config")
    if steps < 1:
        raise ConfigError(f"'steps' must be >= 1, got {steps}")
    return steps


def _master_seed(cfg: dict, override) -> int:
    if override is not None:
        return int(override)
    return _as_int(cfg.get("seed", DEFAULT_SEED), "seed")


def _output_path(cfg: dict, args, default_name: str) -> Path:
    name = cfg.get("output", default_name)
    if not isinstance(name, str) or not name:
        raise ConfigError(f"'output' must be a file name, got {name!r}")
    out_dir = Path(args.output_dir) if args.output_dir else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def _print_summary(rho: np.ndarray, m: int, records) -> None:
    report = consensus_report(rho, m)
    last = records[-1]
    print(f"steps executed:       {len(records)}")
    print(f"final purity:         {last.purity:.6g}")
    print(f"final s_expectation:  {last.s_expectation:.6g}")
    print(f"final v_total:        {last.v_total:.6g}")
    print(f"final v_smc:          {last.v_smc:.6g}")
    print(f"ssc residual:         {report.ssc_residual:.3e}")
    print(f"smc population:       {report.smc_population:.6g} "
          f"(pairwise residual {report.smc_pairwise_residual:.3e})")


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    seed = _master_seed(cfg, args.seed)
    topology = _build_topology(cfg)
    family = _build_family(cfg)
    schedule = _build_schedule(cfg, seed)
    steps = _steps(cfg)
    rho0 = _build_initial_state(cfg, topology.m, seed)
    result = run(rho0, topology, family, schedule, steps, early_stop=args.early_stop)
    out = _output_path(cfg, args, f"{family.kind}_trajectory.csv")
    write_trajectory_csv(result.records, topology.m, out)
    print(f"wrote {out}")
    _print_summary(result.final_state, topology.m, result.records)
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args.config)
    seed = _master_seed(cfg, args.seed)
    topology = _build_topology(cfg)
    schedule = _build_schedule(cfg, seed)
    steps = _steps(cfg)
    rho0 = _build_initial_state(cfg, topology.m, seed)
    # compare runs all three families; only 'family.alpha' is read, for gossip.
    gossip_section = {**_section(cfg, "family", required=False), "kind": "gossip"}
    families = [
        _build_family({"family": gossip_section}),
        ChannelFamily.ssc(),
        ChannelFamily.smc(),
    ]
    stem = cfg.get("output")
    if stem is not None and (not isinstance(stem, str) or not stem):
        raise ConfigError(f"'output' must be a file name, got {stem!r}")
    finals = {}
    for family in families:
        if stem is None:
            name = f"compare_{family.kind}.csv"
        else:
            base = Path(stem)
            name = f"{base.stem}_{family.kind}{base.suffix or '.csv'}"
        result = run(rho0, topology, family, schedule, steps, early_stop=args.early_stop)
        out = _output_path({}, args, name)
        write_trajectory_csv(result.records, topology.m, out)
        finals[family.kind] = result
        print(f"wrote {out}")
    print(f"initial purity: {purity(rho0):.6g}")
    print("family   final_purity  final_v_total  final_v_smc")
    for kind, result in finals.items():
        last = result.records[-1]
        print(f"{kind:<8} {last.purity:<13.6g} {last.v_total:<14.6g} {last.v_smc:.6g}")
    return 0


def cmd_prepare(args) -> int:
    cfg = _load_config(args.config)
    seed = _master_seed(cfg, args.seed)
    topology = _build_topology(cfg)
    section = _section(cfg, "prepare")
    target_k = _count_value(section, "target_k", "prepare", topology.m)
    use_s = section.get("use_s_measurement", False)
    if not isinstance(use_s, bool):
        raise ConfigError(f"'prepare.use_s_measurement' must be true or false, got {use_s!r}")
    steps = _int_value(section, "steps", "prepare", required=False, default=300)
    if steps < 1:
        raise ConfigError(f"'prepare.steps' must be >= 1, got {steps}")
    rho0 = _build_initial_state(cfg, topology.m, seed)
    rng = np.random.default_rng(seed)
    result = prepare_dicke(
        rho0, target_k, topology, rng, use_s_measurement=use_s, steps=steps
    )
    out = _output_path(cfg, args, f"prepare_k{target_k}.csv")
    write_trajectory_csv(result.records, topology.m, out)
    print(f"wrote {out}")
    print("measurement log:")
    for event in result.measurement_log:
        where = "network" if event.site is None else f"site {event.site}"
        print(f"  {event.kind:<6} {where:<8} -> {event.value:+d}")
    print(f"final fidelity with target Dicke state (k={target_k}): {result.fidelity:.12g}")
    return 0


def cmd_convergence(args) -> int:
    cfg = _load_config(args.config)
    seed = _master_seed(cfg, args.seed)
    topology = _build_topology(cfg)
    family = _build_family(cfg)
    section = _section(cfg, "convergence")
    gamma = _as_number(section.get("gamma"), "convergence.gamma")
    if gamma <= 0:
        raise ConfigError(f"'convergence.gamma' must be positive, got {gamma!r}")
    horizon = _int_value(section, "horizon", "convergence")
    trials = _int_value(section, "trials", "convergence")
    if horizon < 0:
        raise ConfigError(f"'convergence.horizon' must be >= 0, got {horizon}")
    if trials < 1:
        raise ConfigError(f"'convergence.trials' must be >= 1, got {trials}")
    rho0 = _build_initial_state(cfg, topology.m, seed)
    estimate = convergence_probability(rho0, topology, family, gamma, horizon, trials, seed)
    low, high = _wilson_interval(estimate, trials)
    print(f"P[lyapunov gap < {gamma:g} at horizon {horizon}] ~= {estimate:.4f} "
          f"(95% Wilson interval [{low:.4f}, {high:.4f}]; {trials} trials, family {family.kind})")
    return 0


def _wilson_interval(p: float, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Two-sided 95% Wilson score interval for a proportion p observed in n trials."""
    center, half = p + z * z / (2 * n), z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max(0.0, (center - half) / (1 + z * z / n)), min(1.0, (center + half) / (1 + z * z / n))


def cmd_verify(args) -> int:
    if args.m < 2 or args.m > 6:
        raise ConfigError(f"verify supports 2 <= m <= 6, got {args.m}")
    try:
        family = ChannelFamily(args.family, args.alpha)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(f"verify: family={family.kind} m={args.m} (complete graph, every row holds for all states)")
    rows = certify_family(family, args.m)
    for name, ok, detail in rows:
        print(f"{name:<45} {'PASS' if ok else 'FAIL'}  ({detail})")
    failed = not all(ok for _, ok, _ in rows)
    print(f"overall: {'FAIL' if failed else 'PASS'}")
    return 2 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qconsensus",
        description="Symmetrizing consensus dynamics on qubit networks.",
    )
    parser.add_argument("--print-schema", action="store_true", help="print the config file schema and exit")
    sub = parser.add_subparsers(dest="command")

    def add_config_command(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the YAML experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config master seed")
        p.add_argument("--output-dir", default=None, help="directory for output files")
        p.set_defaults(func=func)
        return p

    for p in (
        add_config_command("run", cmd_run, "run one trajectory and write its CSV"),
        add_config_command("compare", cmd_compare, "run gossip, ssc, and smc from the same start"),
    ):
        p.add_argument("--early-stop", action="store_true", help="stop once the Lyapunov gap stays tiny")
    add_config_command("prepare", cmd_prepare, "measurement-assisted Dicke state preparation")
    add_config_command("convergence", cmd_convergence, "Monte-Carlo convergence probability")

    v = sub.add_parser("verify", help="certify a channel family's invariants for all states on a complete graph")
    v.add_argument("--family", required=True, choices=["gossip", "ssc", "smc"])
    v.add_argument("--m", required=True, type=int, help="number of qubits (2..6)")
    v.add_argument("--alpha", type=float, default=None, help="gossip mixing weight (default 0.5)")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; map onto the documented code 1
        # (2 is reserved for numeric invariant violations).
        return 0 if exc.code == 0 else 1
    if args.print_schema:
        print(CONFIG_SCHEMA, end="")
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
