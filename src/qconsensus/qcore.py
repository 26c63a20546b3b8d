"""Dense linear algebra for multi-qubit states, operators, and Kraus channels.

Basis convention used everywhere in this package: the computational basis of
an m-qubit space is indexed by the integer value of the bit string
b1 b2 ... bm with site 1 as the most significant bit, so |01> has index 1 in
a two-qubit space.  States and Kraus operators are complex double precision;
a real pair superoperator (as for gossip, ssc and smc) is stored as float64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .network import InputError, _as_index, _as_real, _as_site, _as_state

__all__ = [
    "I2",
    "SIGMA_Z",
    "ket",
    "basis_ket",
    "bitstring_ket",
    "ket_to_density",
    "partial_trace",
    "purity",
    "expectation",
    "pure_state_fidelity",
    "hermiticity_residual",
    "check_trace",
    "validate_density_matrix",
    "KrausChannel",
    "CPTPReport",
    "completeness_residual",
    "apply_channel",
    "apply_error_bound",
    "dual_apply",
    "check_cptp",
    "save_matrix",
    "load_matrix",
]

I2 = np.eye(2, dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Default numerical tolerances for state and channel validation.
HERMITICITY_ATOL = 1e-9
TRACE_ATOL = 1e-9
PSD_ATOL = 1e-9
COMPLETENESS_ATOL = 1e-10
UNITALITY_ATOL = 1e-10


def ket(amplitudes) -> np.ndarray:
    """Normalized state vector from a sequence of complex amplitudes."""
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    if not norm >= 1e-15:
        raise InputError(f"cannot normalize a vector of norm {norm}")
    return v / norm


def basis_ket(dim: int, index: int) -> np.ndarray:
    """Computational basis vector |index> in a dim-dimensional space."""
    index, dim = _as_index(index, "basis index"), _as_index(dim, "dimension")
    if not 0 <= index < dim:
        raise InputError(f"basis index {index} out of range for dim {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def bitstring_ket(bits: str) -> np.ndarray:
    """Basis ket |b1 b2 ... bm> for a bit string, site 1 most significant."""
    if not bits or any(c not in "01" for c in bits):
        raise InputError(f"invalid bit string {bits!r}")
    return basis_ket(2 ** len(bits), int(bits, 2))


def ket_to_density(psi: np.ndarray) -> np.ndarray:
    """Rank-one density matrix |psi><psi|."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return np.outer(psi, psi.conj())


def hermiticity_residual(x: np.ndarray) -> float:
    """Max-abs deviation of a square matrix from its conjugate transpose."""
    x = np.asarray(x)
    return float(np.max(np.abs(x - x.conj().T)))


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), with u the float64 unit roundoff."""
    u = np.finfo(float).eps / 2
    return n * u / (1 - n * u)


def check_trace(rho: np.ndarray) -> None:
    """Raise ValueError unless |Tr(rho) - 1| <= TRACE_ATOL (so a NaN trace fails); rho is a matrix or its diagonal."""
    tr = complex(np.trace(rho) if np.ndim(rho) == 2 else np.sum(rho))
    if not abs(tr - 1.0) <= TRACE_ATOL:
        raise ValueError(f"trace {tr:.12g} deviates from 1 by more than {TRACE_ATOL:.1e}")


def validate_density_matrix(rho: np.ndarray) -> float:
    """Check Hermiticity, unit trace and positivity, and return the positivity debt.

    Raises ValueError naming the first violated property; rho is never
    modified.  The tolerances are HERMITICITY_ATOL, TRACE_ATOL and PSD_ATOL;
    the PSD check has an eigenvalue floor of -PSD_ATOL because channel
    arithmetic accumulates rounding.

    The debt is a certified upper bound, in trace norm, on the distance from
    rho to a positive semidefinite matrix.  With H the Hermitian part of rho,
    d the dimension and c = PSD_ATOL / (4d), a Cholesky factorization R^dag R
    of H + cI that succeeds is exact for H + cI + dA with
    ||dA||_F <= gamma_{d+1} ||R||_F^2 (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Thm 10.3), and ||R||_F^2 = Tr(H + cI + dA)
    is 1 + d c up to TRACE_ATOL and second-order terms.  Since
    ||X||_1 <= sqrt(d) ||X||_F, rho is within

        d c + sqrt(d) (gamma_{d+2} (1 + d c) + ||rho - H||_F)

    of the positive semidefinite R^dag R; the extra unit in gamma covers the
    rounding of forming H.  The shift is PSD_ATOL / (4d), not PSD_ATOL: a
    factorization bounds the most negative eigenvalue, but the debt sums d
    of them.  When the factorization fails, eigvalsh decides as it always
    has (reject below -PSD_ATOL), and the debt is the negative eigenvalue
    mass plus the same error terms (the symmetric eigensolver is backward
    stable, with an error of the same order).

    The work is in two parts (_Anchor): an O(d^2) prelude (the Hermiticity
    and trace checks, the shifted copy H + cI and the closed-form debt that
    a successful Cholesky returns) and the O(d^3) factorization.  A validated
    `run` on a large state uses the debt of the first while the second is
    still running.
    """
    anchor = _Anchor(rho)
    return anchor.debt if anchor.cholesky() else anchor.eigvalsh_debt()


class _Anchor:
    """validate_density_matrix in two parts, for a caller that needs the debt before the factorization ends.

    Construction is the O(d^2) prelude: it raises on a Hermiticity or trace
    violation, forms the shifted copy H + cI (`shifted`, LAPACK reads only
    its lower triangle) and sets `debt`, the bound a successful Cholesky
    factorization of it certifies.  cholesky() runs that O(d^3)
    factorization and says whether it succeeded; if it did not,
    eigvalsh_debt() decides, raising when rho is not positive semidefinite
    and otherwise returning the debt that replaces `debt`.
    """

    def __init__(self, rho: np.ndarray):
        rho = np.asarray(rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {rho.shape}")
        # rho - rho^H in one C-ordered buffer, conj(rho.T) written into it and
        # then subtracted from rho in place: one state-sized temporary fewer
        # than rho - rho.conj().T, and the same bits.
        skew = np.conjugate(rho.T, out=np.empty(rho.shape, complex))
        np.subtract(rho, skew, out=skew)
        skew_norm = np.sqrt(np.vdot(skew, skew).real)
        # The max-abs residual is at most the Frobenius norm, so the entrywise
        # scan runs only when the norm alone cannot pass the state.  Each check
        # is written to pass only a number within tolerance, so NaN fails.
        if not skew_norm <= HERMITICITY_ATOL and not (herm := float(np.max(np.abs(skew)))) <= HERMITICITY_ATOL:
            raise ValueError(f"not Hermitian: residual {herm:.3e} > {HERMITICITY_ATOL:.1e}")
        check_trace(rho)
        d = len(rho)
        self.shift = PSD_ATOL / (4 * d)
        self.floor = np.sqrt(d) * (_gamma(d + 2) * (1 + d * self.shift) + 0.5 * skew_norm)
        self.debt = float(d * self.shift + self.floor)
        # The one shifted copy: H + cI = rho - skew/2 + cI, formed in place.
        skew *= -0.5
        skew += rho
        skew.flat[:: d + 1] += self.shift
        self.shifted = skew

    def cholesky(self) -> bool:
        try:
            np.linalg.cholesky(self.shifted)
        except np.linalg.LinAlgError:
            return False
        return True

    def eigvalsh_debt(self) -> float:
        eigs = np.linalg.eigvalsh(self.shifted) - self.shift
        if not eigs[0] >= -PSD_ATOL:
            raise ValueError(f"not positive semidefinite: min eigenvalue {eigs[0]:.3e}")
        return float(self.floor - eigs[eigs < 0].sum())


def partial_trace(rho: np.ndarray, m: int, keep) -> np.ndarray:
    """Reduced state on the kept sites of an m-qubit density matrix.

    Parameters
    ----------
    rho : (2**m, 2**m) array
    m : number of qubit sites
    keep : iterable of 1-based site indices to retain (order-insensitive;
        the reduction preserves the original relative site order)
    """
    keep_set = {_as_site(s, m, "keep site") for s in keep}
    if not keep_set:
        raise InputError("keep set must be nonempty")
    t = _as_state(rho, m).reshape((2,) * (2 * m))
    row_labels = list(range(m))
    col_labels = [i if (i + 1) not in keep_set else m + i for i in range(m)]
    kept = [i for i in range(m) if (i + 1) in keep_set]
    out_labels = kept + [m + i for i in kept]
    reduced = np.einsum(t, row_labels + col_labels, out_labels)
    d_keep = 1 << len(kept)
    return reduced.reshape(d_keep, d_keep)


def purity(rho: np.ndarray) -> float:
    """Squared Frobenius norm sum |rho_ij|^2, which is Tr(rho^2) for Hermitian rho.

    1 for pure states, 1/dim for the maximally mixed state.  One O(d^2) pass;
    for a non-Hermitian matrix it is not Tr(rho^2).
    """
    return float(np.vdot(rho, rho).real)


def expectation(rho: np.ndarray, x: np.ndarray) -> float:
    """Tr(rho X) for a Hermitian observable X; rejects non-Hermitian input."""
    x = np.asarray(x, dtype=complex)
    resid = hermiticity_residual(x)
    if not resid <= HERMITICITY_ATOL:
        raise ValueError(f"observable is not Hermitian: residual {resid:.3e}")
    val = complex(np.einsum("ij,ji->", np.asarray(rho, dtype=complex), x))
    if not abs(val.imag) <= 1e-9:
        raise ValueError(f"expectation has imaginary part {val.imag:.3e}")
    return float(val.real)


def pure_state_fidelity(rho: np.ndarray, psi: np.ndarray) -> float:
    """Overlap <psi| rho |psi> of a state with a pure reference vector."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return float(np.real(psi.conj() @ np.asarray(rho, dtype=complex) @ psi))


def _kraus_list(channel_or_ops):
    if isinstance(channel_or_ops, KrausChannel):
        return list(channel_or_ops.kraus_ops)
    return [np.asarray(a, dtype=complex) for a in channel_or_ops]


def completeness_residual(kraus_ops) -> float:
    """Max-abs norm of sum_k A_k^dag A_k - I."""
    acc = sum(a.conj().T @ a for a in _kraus_list(kraus_ops))
    return float(np.max(np.abs(acc - np.eye(len(acc)))))


@dataclass(frozen=True)
class KrausChannel:
    """Quantum channel in operator-sum form: rho -> sum_k A_k rho A_k^dag.

    The 2^n x 2^n Kraus operators act on the 1-based `sites` of an m-qubit
    register (the first listed site is the most significant factor) and as
    the identity elsewhere; the defaults sites = (1..n), m = n mean the whole
    register.  dim = 2^m is the state dimension, and superop is the cached
    local superoperator sum_k A_k (x) conj(A_k), stored as float64 when it is
    exactly real.  perm brings the row and column axes of `sites` to the front
    of the (2,)*2m view of a state; inverse_perm undoes it.

    Construction enforces the completeness relation sum_k A_k^dag A_k = I
    within COMPLETENESS_ATOL; use check_cptp on a raw operator list to
    diagnose sets that are not trace preserving.
    """

    kraus_ops: tuple[np.ndarray, ...]
    label: str = ""
    sites: tuple[int, ...] | None = None
    m: int | None = None
    dim: int = field(init=False)
    superop: np.ndarray = field(init=False, repr=False)
    perm: tuple[int, ...] = field(init=False, repr=False)
    inverse_perm: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        ops = tuple(np.asarray(a, dtype=complex) for a in self.kraus_ops)
        if not ops:
            raise InputError("a channel needs at least one Kraus operator")
        local_dim = ops[0].shape[0]
        for a in ops:
            if a.ndim != 2 or a.shape != (local_dim, local_dim):
                raise InputError("all Kraus operators must be square with equal dims")
        n = local_dim.bit_length() - 1
        if n < 1 or local_dim != 1 << n:
            raise InputError(f"Kraus operator dimension {local_dim} is not a power of 2 >= 2")
        sites = tuple(range(1, n + 1)) if self.sites is None else tuple(_as_index(s, "site") for s in self.sites)
        m = n if self.m is None else _as_index(self.m, "qubit count m")
        if len(sites) != n or len(set(sites)) != n or not all(1 <= s <= m for s in sites):
            raise InputError(f"sites {sites} do not fit {n}-qubit operators on {m} qubits")
        resid = completeness_residual(ops)
        if not resid <= COMPLETENESS_ATOL:
            raise ValueError(
                f"Kraus operators are not complete: residual {resid:.3e} > {COMPLETENESS_ATOL:.1e}"
            )
        object.__setattr__(self, "kraus_ops", ops)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "dim", 1 << m)
        superop = sum(np.kron(a, a.conj()) for a in ops)
        object.__setattr__(self, "superop", superop if superop.imag.any() else np.ascontiguousarray(superop.real))
        axes = [s - 1 for s in sites] + [m + s - 1 for s in sites]
        perm = tuple(axes + [a for a in range(2 * m) if a not in axes])
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "inverse_perm", tuple(perm.index(a) for a in range(2 * m)))


@dataclass(frozen=True)
class CPTPReport:
    completeness_residual: float
    is_unital: bool


def check_cptp(channel_or_ops) -> CPTPReport:
    """Completeness residual and unitality of a channel or raw Kraus list."""
    ops = _kraus_list(channel_or_ops)
    acc = sum(a @ a.conj().T for a in ops)
    unital = float(np.max(np.abs(acc - np.eye(len(acc))))) <= UNITALITY_ATOL
    return CPTPReport(completeness_residual=completeness_residual(ops), is_unital=unital)


def _pair_step(t: np.ndarray, layout, channel: KrausChannel, superop: np.ndarray, front: np.ndarray, out: np.ndarray):
    """The pair kernel: one transposed copy and one matmul of superop on the (2,)*2m tensor t, into the caller's buffers.

    Axis layout[a] of t holds canonical axis a (None: canonical order).  front
    and out are C-contiguous arrays of t's size and dtype that the caller
    owns: the transposed copy goes into front and the product into out, which
    may hold t itself, so a step allocates no state-sized array.  t is
    complex, or float64 when superop is real (which then multiplies the
    float64 view of a complex t).  Returns out, the image in channel.perm
    order, and that layout, channel.inverse_perm.
    """
    axes = channel.perm if layout is None else [layout[a] for a in channel.perm]
    np.copyto(front.reshape(t.shape), t.transpose(axes))
    lhs, product = front.reshape(len(superop), -1), out.reshape(len(superop), -1)
    if superop.dtype != complex and front.dtype == complex:
        lhs, product = lhs.view(np.float64), product.view(np.float64)
    np.matmul(superop, lhs, out=product)
    return out.reshape(t.shape), channel.inverse_perm


def _canonical(t: np.ndarray, layout, into: np.ndarray) -> np.ndarray:
    """Copy the tensor t, whose axis layout[a] holds canonical axis a, into the C-contiguous `into` in canonical order; returns `into`."""
    np.copyto(into.reshape(t.shape), t.transpose(layout))
    return into


def _gather_tables(channels, reads: np.ndarray, weights: np.ndarray):
    """The smallest flat entry set holding `reads` that every channel keeps closed, and each channel's gather on it.

    The set starts as the flat positions `reads` (canonical layout) and grows
    until every channel's kept outputs read only kept inputs (superop rows).
    Returns the ascending kept positions; per channel (idx, coef) of shape
    (K, N), N = len(kept), K the most nonzeros in a kept row, so a step on
    v = x.flat[kept] is np.add.reduce(coef * v[idx]); and `weights` on kept.
    """
    mask = np.zeros(1 << (2 * channels[0].m), dtype=bool)
    mask[reads] = True
    while True:
        kept, tables = np.flatnonzero(mask), []
        for ch in channels:  # a superop index holds the row bits, then the column bits, of ch.sites in order
            shifts = np.array([2 * ch.m - s for s in ch.sites] + [ch.m - s for s in ch.sites])
            place = 1 << np.arange(len(shifts) - 1, -1, -1)
            loc = ((kept[:, None] >> shifts) & 1) @ place
            offsets = ((np.arange(len(ch.superop))[:, None] & place) > 0) @ (1 << shifts)
            nonzero = ch.superop != 0
            cols = np.argsort(~nonzero, axis=1, kind="stable")[loc, : nonzero.sum(1)[loc].max()]  # nonzeros first
            coef, inputs = ch.superop[loc[:, None], cols], (kept - offsets[loc])[:, None] + offsets[cols]
            mask[inputs[coef != 0]] = True
            inputs[coef == 0] = kept[0]  # padding reads a kept entry
            tables.append((np.searchsorted(kept, inputs.T), coef.T.copy()))
        if np.count_nonzero(mask) == len(kept):
            return kept, tables, np.bincount(np.searchsorted(kept, reads), weights, len(kept))


def _apply_pairs(x: np.ndarray, steps) -> np.ndarray:
    """Apply (channel, superop) steps to x with _pair_step in two buffers, restoring canonical order once, at the end, into one of them."""
    t, layout = x.reshape((2,) * (x.size.bit_length() - 1)), None
    front, out = np.empty(x.shape, x.dtype), np.empty(x.shape, x.dtype)
    for channel, superop in steps:
        t, layout = _pair_step(t, layout, channel, superop, front, out)
    return x if layout is None else _canonical(t, layout, front)


def apply_channel(channel: KrausChannel, rho: np.ndarray, *, validate: bool = True) -> np.ndarray:
    """Apply the channel: sum_k A_k rho A_k^dag, identity off its sites.

    With validate=True (the default) the output is checked against the
    density-matrix invariants; pass validate=False in benchmark loops or when
    mapping non-state operators through the same linear map.
    """
    out = _apply_pairs(_as_state(rho, channel.m), [(channel, channel.superop)])
    if validate:
        validate_density_matrix(out)
    return out


def apply_error_bound(channel: KrausChannel) -> float:
    """Trace-norm bound, per unit ||rho||_F, on the error of one apply_channel.

    Let E be the exactly CPTP map whose superoperator the stored one
    approximates.  For a channel on n sites, every output entry of
    _apply_pairs is a real N-term dot product, N = 4^n = len(S) (16 for a
    pair), of a row of the stored superoperator S with a column of the
    float64 view x of rho (its copies are exact), so
    |fl(S x) - S x| <= gamma_N |S| |x| (Higham, 2nd ed., Sec. 3.5).  The
    stored S is within 5u entrywise of E's superoperator (0 for ssc, at most
    2u for smc and 2.7u measured for gossip; 5u is the worst case of
    rounding 1 - alpha, its square root, the square and the sum), and
    gamma_N + 5u/(1 - 5u) <= gamma_{N+5}.  Column by column the error is then
    at most gamma_{N+5} || |S| ||_2 ||x||_F in Frobenius norm, with
    ||x||_F = ||rho||_F, and ||X||_1 <= sqrt(d) ||X||_F.  The result is
    sqrt(d) gamma_{N+5} times sqrt(||S||_1 ||S||_inf), the product of the
    largest column and row sums of |S|, which bounds || |S| ||_2 (equal for
    all three families) without an SVD.  The argument needs a real S, as
    for all three families; a complex one raises InputError.
    """
    if channel.superop.dtype == complex:
        raise InputError(f"apply_error_bound needs a real superoperator, got a complex one ({channel.label!r})")
    a = np.abs(channel.superop)
    return float(np.sqrt(channel.dim) * _gamma(len(a) + 5) * np.sqrt(a.sum(0).max() * a.sum(1).max()))


def dual_apply(channel: KrausChannel, x: np.ndarray) -> np.ndarray:
    """Heisenberg-picture dual map: X -> sum_k A_k^dag X A_k.

    Satisfies Tr[X E(rho)] = Tr[E^dag(X) rho] for every rho, and is unital
    whenever the channel is trace preserving.
    """
    return _apply_pairs(_as_state(x, channel.m), [(channel, channel.superop.conj().T)])


# Matrix (de)serialization: a JSON object {"dim": d, "entries": [[re, im], ...]}
# with d*d entries in row-major order.  The CLI shares this schema for
# explicit initial-state files.

def save_matrix(path, matrix: np.ndarray) -> None:
    """Write a square complex matrix to a JSON file of [re, im] pairs."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InputError(f"expected a square matrix, got shape {matrix.shape}")
    flat = matrix.reshape(-1)
    payload = {
        "dim": int(matrix.shape[0]),
        "entries": [[float(z.real), float(z.imag)] for z in flat],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by save_matrix; a file that breaks the schema raises InputError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"matrix file {path} is not JSON: {exc}") from None
    if not isinstance(payload, dict) or not isinstance(entries := payload.get("entries"), list):
        raise InputError(f"matrix file {path} is not an object with an 'entries' list")
    dim = _as_index(payload.get("dim"), f"matrix file {path}: dim")
    if dim < 1 or len(entries) != dim * dim:
        raise InputError(f"matrix file {path} has {len(entries)} entries, expected {dim * dim} for dim {dim}")
    what, flat = f"matrix file {path}: entry part", []
    for n, z in enumerate(entries):
        if not isinstance(z, list) or len(z) != 2:
            raise InputError(f"matrix file {path}: entry {n} {z!r} is not an [re, im] pair")
        flat.append(complex(_as_real(z[0], what), _as_real(z[1], what)))
    return np.array(flat, dtype=complex).reshape(dim, dim)
