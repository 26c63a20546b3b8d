"""Command line front end: run, compare, prepare, verify, convergence.

Experiments are described by a YAML config file.  CONFIG_SCHEMA, printed by
`qconsensus --print-schema`, is also the config's key list: a key it lacks is
an InputError, and each config command checks its whole config and output
path before it evolves a state.  Exit codes: 0 success; 1 usage error,
InputError (a malformed config or a bad library argument) or standard output
closed early (`| head`; no traceback); 2 failed verification, or any other
ValueError, FloatingPointError or LinAlgError (a numeric invariant violation).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from .dynamics import FAMILY_KINDS, ChannelFamily, certify_family
from .network import InputError, NetworkTopology, _as_index, _as_nonnegative, _as_real
from .qcore import bitstring_ket, ket_to_density, load_matrix, purity
from .simulator import (
    Schedule,
    convergence_probability,
    prepare_dicke,
    random_density,
    run,
    write_trajectory_csv,
)
from .symmetry import dicke_ket, is_smc, is_ssc

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

seed: 123                    # master seed (>= 0) for any unseeded randomness
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

YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # libyaml parses ~5x faster
SCHEMA = yaml.load(CONFIG_SCHEMA, Loader=YAML_LOADER)
DEFAULT_SEED = 0


def _check_keys(cfg: dict) -> None:
    """Raise InputError on the first key, top-level or in a section, that SCHEMA does not list."""
    sections = {name: keys for name, keys in SCHEMA.items() if isinstance(keys, dict)}
    for name, value in cfg.items():
        unknown = [] if name in SCHEMA else [(name, name)]
        if name in sections and isinstance(value, dict):
            unknown += [(f"{name}.{key}", key) for key in value if key not in sections[name]]
        for dotted, key in unknown:
            homes = " or ".join(f"'{s}.{key}'" for s, keys in sections.items() if key in keys)
            raise InputError(f"unknown config key '{dotted}'" + (f"; did you mean {homes}?" if homes else ""))


def _load(args):
    """A config command's checked config, master seed, topology and initial state."""
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = yaml.load(fh, Loader=YAML_LOADER)
    except OSError as exc:
        raise InputError(f"cannot read config {args.config}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise InputError(f"invalid YAML in {args.config}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InputError(f"config {args.config} must be a mapping at the top level")
    _check_keys(cfg)
    seed = _as_nonnegative(cfg.get("seed", DEFAULT_SEED) if args.seed is None else args.seed, "'seed'")
    topology = _build_topology(cfg)
    return cfg, seed, topology, _build_initial_state(cfg, topology.m, seed)


def _section(cfg: dict, key: str, required: bool = True) -> dict:
    value = cfg.get(key)
    if value is None:
        if required:
            raise InputError(f"missing config section '{key}'")
        return {}
    if not isinstance(value, dict):
        raise InputError(f"config section '{key}' must be a mapping")
    return value


def _int_value(section: dict, key: str, context: str | None = None, default=None, gate=_as_index):
    name, value = f"{context}.{key}" if context else key, section.get(key, default)
    if value is None:
        raise InputError(f"missing key '{name}'")
    return gate(value, f"'{name}'")


def _build_topology(cfg: dict) -> NetworkTopology:
    section = _section(cfg, "topology")
    m = _int_value(section, "m", "topology")
    edges = section.get("edges")
    if not isinstance(edges, list) or not edges:
        raise InputError("'topology.edges' must be a nonempty list of site pairs")
    pairs = []
    for i, edge in enumerate(edges):
        if (not isinstance(edge, (list, tuple))) or len(edge) != 2:
            raise InputError(f"'topology.edges[{i}]' must be a pair of site indices")
        pairs.append(tuple(_as_index(site, f"'topology.edges[{i}][{j}]'") for j, site in enumerate(edge)))
    probabilities = section.get("probabilities")
    if probabilities is not None:
        if not isinstance(probabilities, list):
            raise InputError(f"'topology.probabilities' must be a list of numbers, got {probabilities!r}")
        probabilities = tuple(_as_real(p, f"'topology.probabilities[{i}]'") for i, p in enumerate(probabilities))
    return NetworkTopology(m=m, neighborhoods=tuple(pairs), probabilities=probabilities)


def _build_family(cfg: dict, kind: str | None = None) -> ChannelFamily:
    """The config's family, or the given kind with the config's alpha (the section is then optional)."""
    section = _section(cfg, "family", required=kind is None)
    if (kind := kind or section.get("kind")) is None:
        raise InputError("missing key 'family.kind'")
    alpha = section.get("alpha")
    return ChannelFamily(kind, None if alpha is None else _as_real(alpha, "'family.alpha'"))


def _build_schedule(cfg: dict, master_seed: int) -> Schedule:
    section = _section(cfg, "schedule", required=False)
    mode = section.get("mode", "cyclic")
    order, seed = section.get("order"), section.get("seed", master_seed if mode == "random" else None)
    if order is not None:
        if not isinstance(order, list):
            raise InputError(f"'schedule.order' must be a list of edge indices, got {order!r}")
        order = tuple(_as_index(i, f"'schedule.order[{n}]'") for n, i in enumerate(order))
    return Schedule(mode, order, None if seed is None else _as_index(seed, "'schedule.seed'"))


def _build_initial_state(cfg: dict, m: int, master_seed: int) -> np.ndarray:
    section = _section(cfg, "initial_state")
    if (kind := section.get("kind")) is None:
        raise InputError("missing key 'initial_state.kind'")
    if kind == "basis":
        bits = section.get("string")
        if not isinstance(bits, str) or len(bits) != m:
            raise InputError(f"'initial_state.string' must be an m={m} bit string, got {bits!r}")
        return ket_to_density(bitstring_ket(bits))
    if kind == "dicke":
        return ket_to_density(dicke_ket(m, _int_value(section, "k", "initial_state")))
    if kind == "random":
        return random_density(_int_value(section, "seed", "initial_state", master_seed), 1 << m)
    if kind == "file":
        path = section.get("path")
        if not isinstance(path, str):
            raise InputError("'initial_state.path' must be a file path")
        try:
            return load_matrix(path)
        except OSError as exc:
            raise InputError(f"'initial_state.path': {exc}") from exc
    raise InputError(f"'initial_state.kind' must be basis, dicke, random, or file, got {kind!r}")


def _output_path(args, cfg: dict, default: str) -> Path:
    """The config's output file (a name; its directory is --output-dir, created here)."""
    name = cfg.get("output", default)
    if not isinstance(name, str) or not name or Path(name).name != name:
        raise InputError(f"'output' must be a file name, got {name!r}")
    out_dir = Path(args.output_dir or ".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot use --output-dir {out_dir}: {exc}") from exc
    return out_dir / name


def _run_to_csv(args, path: Path, rho0, topology, family, schedule, steps: int):
    """One `run` trajectory, written to the CSV file at `path`."""
    result = run(rho0, topology, family, schedule, steps, early_stop=args.early_stop)
    write_trajectory_csv(result.records, topology.m, path)
    print(f"wrote {path}")
    return result


def cmd_run(args) -> int:
    cfg, seed, topology, rho0 = _load(args)
    family = _build_family(cfg)
    schedule = _build_schedule(cfg, seed)
    steps = _int_value(cfg, "steps")
    path = _output_path(args, cfg, f"{family.kind}_trajectory.csv")
    result = _run_to_csv(args, path, rho0, topology, family, schedule, steps)
    last, final = result.records[-1], result.final_state
    print(f"steps executed:       {len(result.records)}")
    print(f"final purity:         {last.purity:.6g}")
    print(f"final s_expectation:  {last.s_expectation:.6g}")
    print(f"final v_total:        {last.v_total:.6g}")
    print(f"final v_smc:          {last.v_smc:.6g}")
    print(f"ssc residual:         {is_ssc(final, topology.m)[1]:.3e}")
    print(f"smc population:       {last.smc_population:.6g} (pairwise residual {is_smc(final, topology.m)[2]:.3e})")
    return 0


def cmd_compare(args) -> int:
    cfg, seed, topology, rho0 = _load(args)
    schedule = _build_schedule(cfg, seed)
    steps = _int_value(cfg, "steps")
    families = [_build_family(cfg, "gossip"), ChannelFamily.ssc(), ChannelFamily.smc()]
    base = _output_path(args, cfg, "compare.csv")
    finals = {}
    for family in families:
        path = base.with_name(f"{base.stem}_{family.kind}{base.suffix or '.csv'}")
        finals[family.kind] = _run_to_csv(args, path, rho0, topology, family, schedule, steps)
    print(f"initial purity: {purity(rho0):.6g}")
    print("family   final_purity  final_v_total  final_v_smc")
    for kind, result in finals.items():
        last = result.records[-1]
        print(f"{kind:<8} {last.purity:<13.6g} {last.v_total:<14.6g} {last.v_smc:.6g}")
    return 0


def cmd_prepare(args) -> int:
    cfg, seed, topology, rho0 = _load(args)
    section = _section(cfg, "prepare")
    target_k = _int_value(section, "target_k", "prepare")
    use_s = section.get("use_s_measurement", False)
    if not isinstance(use_s, bool):
        raise InputError(f"'prepare.use_s_measurement' must be true or false, got {use_s!r}")
    steps = _int_value(section, "steps", "prepare", 300)
    path = _output_path(args, cfg, f"prepare_k{target_k}.csv")
    rng = np.random.default_rng(seed)
    result = prepare_dicke(rho0, target_k, topology, rng, use_s_measurement=use_s, steps=steps)
    write_trajectory_csv(result.records, topology.m, path)
    print(f"wrote {path}")
    print("measurement log:")
    for event in result.measurement_log:
        where = "network" if event.site is None else f"site {event.site}"
        print(f"  {event.kind:<6} {where:<8} -> {event.value:+d}")
    print(f"final fidelity with target Dicke state (k={target_k}): {result.fidelity:.12g}")
    return 0


def cmd_convergence(args) -> int:
    cfg, seed, topology, rho0 = _load(args)
    family = _build_family(cfg)
    section = _section(cfg, "convergence")
    gamma = _int_value(section, "gamma", "convergence", gate=_as_real)
    horizon = _int_value(section, "horizon", "convergence")
    trials = _int_value(section, "trials", "convergence")
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
        raise InputError(f"verify supports 2 <= m <= 6, got {args.m}")
    family = ChannelFamily(args.family, args.alpha)
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
    v.add_argument("--family", required=True, choices=FAMILY_KINDS)
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
        code = args.func(args)
        sys.stdout.flush()  # here, not at exit, so a closed pipe is caught below
        return code
    except BrokenPipeError:  # the reader left early; stdout now points at os.devnull, so the exit flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
