"""Network topology, and the argument gates (the _as_* helpers) every module shares."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

__all__ = ["InputError", "NetworkTopology", "is_connected"]

PROBABILITY_SUM_ATOL = 1e-12


class InputError(ValueError):
    """An argument breaks a precondition: wrong type, range, shape or arity, or an unusable graph.

    Failures of an invariant of a computed state or operator stay plain
    ValueError; the CLI exits 1 on InputError and 2 on those.
    """


def _as_index(value, what: str) -> int:
    """An integer (Python or numpy) as int; bools, floats and strings raise InputError."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, Integral):
        raise InputError(f"{what} {value!r} is not an integer")
    return int(value)


def _as_real(value, what: str) -> float:
    """A finite real (Python or numpy) as float; bools, strings, complex numbers, NaN and inf raise InputError."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, Real):
        raise InputError(f"{what} {value!r} is not a real number (bools, strings and complex numbers are rejected)")
    if not np.isfinite(float(value)):
        raise InputError(f"{what} {value!r} is not a finite number")
    return float(value)


def _as_nonnegative(value, what: str) -> int:
    """A random seed or a qubit count as int; non-integers and negative integers raise InputError."""
    n = _as_index(value, what)
    if n < 0:
        raise InputError(f"{what} {n} is negative")
    return n


def _as_site(value, m: int, what: str = "site") -> int:
    """A 1-based site of an m-qubit register as int; non-integers and sites outside 1..m raise InputError."""
    site = _as_index(value, what)
    if not 1 <= site <= m:
        raise InputError(f"{what} {site} out of range 1..{m}")
    return site


def _as_pair(pair, m: int, what: str = "pair") -> tuple[int, int]:
    """Two distinct sites of an m-qubit register as a sorted tuple; anything else raises InputError."""
    sites = sorted(_as_site(s, m, f"{what} {pair} site") for s in pair)
    if len(sites) != 2:
        raise InputError(f"{what} {pair} has {len(sites)} sites, not 2")
    if sites[0] == sites[1]:
        raise InputError(f"{what} {pair} repeats a site")
    return sites[0], sites[1]


def _as_state(x, m: int) -> np.ndarray:
    """x as a complex array (no copy for complex input); InputError unless m is a qubit count and x is 2^m x 2^m."""
    x, m = np.asarray(x, dtype=complex), _as_nonnegative(m, "qubit count m")
    if x.shape != (1 << m, 1 << m):
        raise InputError(f"shape {x.shape} does not match m={m}, expected {(1 << m, 1 << m)}")
    return x


def _as_count(k, m: int) -> int:
    """An excitation count of an m-qubit register as int; non-integers and counts outside 0..m raise InputError."""
    k, m = _as_index(k, "excitation count"), _as_nonnegative(m, "qubit count m")
    if not 0 <= k <= m:
        raise InputError(f"excitation count {k} out of range 0..{m}")
    return k


@dataclass(frozen=True)
class NetworkTopology:
    """Qubit count, pairwise interaction neighborhoods, optional edge weights.

    Neighborhoods are unordered site pairs {j, k} with 1 <= j < k <= m; they
    are normalized to sorted tuples on construction.  Optional probabilities
    give the selection distribution for randomized schedules (one positive
    weight per neighborhood, summing to 1).
    """

    m: int
    neighborhoods: tuple[tuple[int, int], ...]
    probabilities: tuple[float, ...] | None = None

    def __post_init__(self):
        m = _as_index(self.m, "qubit count m")
        if m < 2:
            raise InputError(f"need at least 2 sites, got m={m}")
        object.__setattr__(self, "m", m)
        pairs = [_as_pair(pair, m, "neighborhood") for pair in self.neighborhoods]
        if len(set(pairs)) != len(pairs):
            raise InputError("duplicate neighborhoods")
        object.__setattr__(self, "neighborhoods", tuple(pairs))
        if self.probabilities is not None:
            q = tuple(_as_real(p, "selection probability") for p in self.probabilities)
            if len(q) != len(pairs):
                raise InputError(
                    f"{len(q)} probabilities for {len(pairs)} neighborhoods"
                )
            if any(p <= 0 for p in q):
                raise InputError("selection probabilities must be positive")
            if abs(sum(q) - 1.0) > PROBABILITY_SUM_ATOL:
                raise InputError(f"selection probabilities sum to {sum(q)!r}, not 1")
            object.__setattr__(self, "probabilities", q)


def is_connected(topology: NetworkTopology) -> bool:
    """True iff the interaction graph is connected and covers every site.

    Grows the set of sites reached from site 1: each sweep adds both sites of
    every pair that touches it, until a sweep adds nothing.
    """
    reached, size = {1}, 0
    while size < len(reached):
        size = len(reached)
        for pair in topology.neighborhoods:
            if reached.intersection(pair):
                reached.update(pair)
    return len(reached) == topology.m
