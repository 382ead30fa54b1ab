"""Coupled integration of the oscillator and its evolving multiplication.

The state is ten numbers: (q, p) plus the eight structure constants of the
binary operation mu.  Both obey linear ODEs, (q, p) through the canonical
equations and mu through the bracket with the constant rotation generator M,
so a classical RK4 step of the joint system is one fixed linear map, and a
chunk of steps is one product with its powers, applied to a batch of runs at
a time; it holds the analytic reference well below the acceptance
tolerances.  Everything needed to check the construction is
computed here: analytic references on the continuous branch, finite-difference
PDE residuals, order measurements, and the randomized verification suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, reduce

import numpy as np

from .calculus import (
    LawReport,
    _blocks,
    _check_suite_args,
    _worst_case_reports,
    gerstenhaber_bracket,
)
from .errors import (BranchCutError, DegenerateStateError, DimensionMismatchError,
                     DivergenceError, EnergyOverflowError, _check_finite, _check_int,
                     _check_positive, _check_steps)
from .multilinear import Operation, _quiet
from .oscillator import (
    _OMEGAS,
    MuParams,
    OscState,
    _aux_values,
    _family_coeffs,
    _libm,
    _polar,
    _principal_angle,
    _principal_aux,
    _trial_draws,
    lax_matrices,
)

__all__ = [
    "Trajectory",
    "IntegratorConfig",
    "operadic_lax_rhs",
    "structure_constant_rhs",
    "structure_rhs_matrix",
    "analytic_mu",
    "evolve",
    "pde_residual",
    "rk4_order_check",
    "theorem_suite",
    "pde_suite",
    "trajectory_csv_lines",
    "trajectory_csv_chunks",
    "CSV_HEADER",
]

# Steps per chunk of the 10-dim propagator: a chunk's increment powers take 10 x 10
# x CHUNK_STEPS doubles per distinct omega, and an n-dim state steps as many as that
# holds (6400 at 2 dims).  theorem_suite peaks near 2.4 MB at 20 trials, and runs
# fastest here: shorter chunks take more products, longer ones more powers.
CHUNK_STEPS = 256


@dataclass(frozen=True)
class Trajectory:
    """One run's records as one read-only, C-contiguous table of shape (n, 22) in the
    CSV's column order, row n record n, and its columns as read-only views: t, q, p,
    H (energy), err (worst |mu - mu_ana|) and drift (relative energy drift) of shape
    (n,); mu (integrated) and mu_ana (analytic reference on the continuous branch) of
    shape (n, 8) in flat coefficient order.  A table of another shape is a ValueError."""

    table: np.ndarray
    t, q, p, H, mu, mu_ana, err, drift = (property(lambda self, k=k: self.table[:, k]) for k in (
        0, 1, 2, 3, slice(4, 12), slice(12, 20), 20, 21))

    def __post_init__(self):
        table = np.ascontiguousarray(self.table, dtype=float)
        if table.ndim != 2 or table.shape[1] != 22:
            raise ValueError(f"table must have shape (n, 22), got {table.shape}")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    def __len__(self) -> int:
        return len(self.table)

    def max_err_mu(self) -> float:
        return float(np.max(self.err))

    def max_energy_drift(self) -> float:
        return float(np.max(self.drift))


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step run description; dt must resolve the fast angle (dt <= 0.1/omega)."""

    dt: float
    t_end: float
    omega: float
    q0: float
    p0: float
    params: MuParams = field(default_factory=MuParams.zeros)
    record_every: int = 1

    def __post_init__(self):
        _check_finite(dt=self.dt, t_end=self.t_end, omega=self.omega, q0=self.q0, p0=self.p0)
        if not self.omega > 0.0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if not (0.0 < self.dt <= 0.1 / self.omega):
            raise ValueError(f"dt must be in (0, 0.1/omega], got {self.dt}")
        _check_steps(self.t_end, self.dt)
        _check_int(1, record_every=self.record_every)  # 2.5 would record steps 0, 5, 10
        if not isinstance(self.params, MuParams):
            raise ValueError(f"params must be a MuParams, got {self.params!r}")
        self.initial_state()  # whose energy must not overflow

    def initial_state(self) -> OscState:
        return OscState(self.omega, self.q0, self.p0)


def operadic_lax_rhs(mu: Operation, M: Operation) -> Operation:
    """Bracket form of the mu equation: [M, mu] = M*mu - mu*M (both signs +1)."""
    if M.arity != 1 or mu.arity != 2:
        raise DimensionMismatchError("expected arities (mu, M) = (2, 1)")
    return gerstenhaber_bracket(M, mu)  # which checks the dims


@_quiet
def structure_constant_rhs(mu: Operation, M: Operation) -> Operation:
    """Index form of the same flow:

        dmu^i_jk = mu^s_jk M^i_s - M^s_j mu^i_sk - M^s_k mu^i_js.

    It is the product structure_rhs_matrix(M) @ mu on the flat coefficients, and
    agrees with operadic_lax_rhs coefficient-wise.
    """
    if M.arity != 1 or mu.arity != 2:
        raise DimensionMismatchError("expected arities (mu, M) = (2, 1)")
    if mu.dim != M.dim:
        raise DimensionMismatchError(f"dimension mismatch: {mu.dim} vs {M.dim}")
    return Operation(mu.dim, 2, structure_rhs_matrix(M) @ mu.coeffs)


def structure_rhs_matrix(M: Operation) -> np.ndarray:
    """Matrix of the index formula's linear map mu -> dmu on flat coefficients.

    In the (i, j, k) coefficient order it is M x I x I - I x M^T x I - I x I x M^T
    (Kronecker products), one term per sum of the index formula.
    """
    if M.arity != 1:
        raise DimensionMismatchError("expected an arity-1 operation")
    at, factors = _rhs_plan(M.dim)
    a, b, c = M.coeffs[at] * factors
    return (a - b - c).reshape(M.dim ** 3, -1)


@lru_cache(maxsize=4)
def _rhs_plan(d: int) -> tuple:
    """structure_rhs_matrix's terms on flat axes (i, j, k, l, m, n) as m[a] x - m[b] y
    - m[c] z: the indices of M[i, l], M[m, j] and M[n, k] and the 0/1 factors d_jm d_kn,
    d_il d_kn and d_il d_jm.  A zero factor keeps its entry's sign, as np.kron does."""
    i, j, k, l, m, n = np.indices((d,) * 6).reshape(6, -1)
    return (np.array([i * d + l, m * d + j, n * d + k]),
            np.array([(j == m) & (k == n), (i == l) & (k == n), (i == l) & (j == m)], float))


def _rhs(omega: float) -> np.ndarray:
    """structure_rhs_matrix(M) of omega's generator M, which depends on omega alone."""
    return structure_rhs_matrix(lax_matrices(OscState(omega, 0.0, 0.0))[1])


def _increment_matrix(omega: float, dt: float) -> np.ndarray:
    """D = z + z^2/2 + z^3/6 + z^4/24 with z = dt*B, B the 10 x 10 generator of (q, p, mu).

    B does not depend on the state, so one classical RK4 step is exactly
    y -> y + D y.  The step adds the increment D y rather than applying
    I + D: stored in I + D, the O(dt) terms would sit beside the 1 on the
    diagonal and lose their low bits, which the order check then measures.
    """
    z = np.zeros((10, 10))
    z[0, 1], z[1, 0] = dt, -dt * omega * omega
    z[2:, 2:] = dt * _rhs(omega)
    z2 = z @ z
    return z + z2 / 2.0 + z2 @ z / 6.0 + z2 @ z2 / 24.0


def _increment_powers(d: np.ndarray, count: int) -> np.ndarray:
    """E[j] = (I + D)^j - I for j = 0..count, of an n x n D.

    The powers come transposed and side by side, shape (n, n * (count + 1))
    with E[j]^T in columns nj..nj+n-1, so one product y @ e[:, :n * r] gives
    y E[j]^T for r steps at once.  They are built by doubling in increment
    form, (I + E[m])(I + E[i]) - I = E[m] + E[i] + E[i] E[m]: the table never
    holds I + E, so the O(dt) terms keep the low bits that I + D would lose.
    """
    n = len(d)
    e = np.zeros((n, n * (count + 1)))
    e[:, n:2 * n] = d.T
    m = 1
    while m < count:
        k = min(m, count - m)
        low, top = e[:, n:n * (k + 1)], e[:, n * m:n * (m + 1)]
        # E[m+i]^T = E[m]^T + E[i]^T + E[m]^T E[i]^T for i = 1..k
        new = e[:, n * (m + 1):n * (m + k + 1)].reshape(n, k, n)
        np.add(top[:, None, :], low.reshape(n, k, n), out=new)
        new += (top @ low).reshape(n, k, n)
        m += k
    return e


@lru_cache(maxsize=8)
def _power_table(omega: float, dt: float, dims: int) -> np.ndarray:
    """_increment_powers of omega's D at step dt on its first dims coordinates, read-only, as
    far as 10 x 10 x CHUNK_STEPS coefficients go (~206 kB); fewer steps read a prefix."""
    e = _increment_powers(_increment_matrix(omega, dt)[:dims, :dims],
                          100 * CHUNK_STEPS // dims ** 2)  # CHUNK_STEPS at 10 dims, 6400 at 2
    e.flags.writeable = False
    return e


def _rk4_chunks(y0: np.ndarray, tables, n_steps: int, group):
    """Classical RK4 on a batch of runs, y -> y + D y, a chunk of steps at a time.

    y0 has shape (trials, n), and trial k steps with tables[group[k]], the powers
    of its D as _increment_powers gives them; a chunk is as many steps as they
    hold, so memory does not grow with n_steps.  Yields (first, ys) where ys[k, j]
    is the state of trial k at step first + j, from step 0 (y0 itself) through
    n_steps.  The steps of a chunk are one product per trial, written in place,
    ys[k, j] = y + y E[j]^T with y the chunk's first state, so a trial's numbers
    do not depend on which trials share its batch; a run of trials with equal group
    is one matmul call, which numpy makes one GEMV per trial.  Every ys is a view of
    one buffer, which the next chunk overwrites.  Raises DivergenceError naming the
    first step with a non-finite value.
    """
    y = np.array(y0, dtype=float)
    span = min(tables[0].shape[1] // y.shape[1] - 1, n_steps)
    buf = np.empty((len(y), span + 1, y.shape[1]))
    flat = buf.reshape(len(y), 1, -1)  # a view: trial k's chunk as one row
    edges = [0, *(np.flatnonzero(np.diff(group)) + 1).tolist(), len(y)]  # runs of one group
    for first in range(0, n_steps, span):
        rows = min(span, n_steps - first) + 1  # through the next chunk's first state
        ys, size = buf[:, :rows], rows * y.shape[1]
        for lo, hi in zip(edges, edges[1:]):
            np.matmul(y[lo:hi, None], tables[group[lo]][:, :size], out=flat[lo:hi, :, :size])
        ys += y[:, None]
        if not np.isfinite(ys).all():
            step = first + int(np.argmin(np.isfinite(ys).all(axis=(0, 2))))
            raise DivergenceError(f"non-finite state at step {step}")
        y = ys[:, -1].copy()
        yield first, ys if first + span >= n_steps else ys[:, :-1]  # the last chunk through n_steps


class _Batch:
    """Runs that share dt and step count, run k started at the state (w[k], q[k], p[k])
    on the principal-branch family with parameters cs[k], as arrays over trials."""

    def __init__(self, dt: float, t_end: float, w, q, p, cs):
        self.dt, self.w = dt, w
        self.h0 = 0.5 * (p * p + w * w * q * q)
        if np.any(self.h0 <= 0.0):
            raise DegenerateStateError("initial state has zero energy")
        self.n_steps = max(1, round(t_end / dt))
        self.omegas, self.group = np.unique(w, return_inverse=True)
        self.theta0 = _libm(_principal_angle, w * q, p)
        self.cs = np.transpose(cs)  # (8, trials)
        family = _family_coeffs(*_principal_aux(self.theta0, self.h0), self.cs)
        if not np.isfinite(family).all():  # before any step, which it would be blamed on
            raise ValueError("params C1..C8 overflow the family at the initial state")
        self.y0 = np.column_stack((q, p, family))

    def records(self, every: int = 1, dims: int = 10):
        """(t, ys) per chunk of the runs' first dims coordinates stepped by _rk4_chunks,
        one power table per omega: ys[k, j] is run k's state at time t[j] (t of shape
        (m, 1)), for every every-th step before n_steps, then step n_steps as a block of
        its own.  ys is a view of a buffer that the next chunk overwrites."""
        tables = [_power_table(x, self.dt, dims) for x in self.omegas.tolist()]
        n, r = self.n_steps, min(every, self.n_steps)  # r past n keeps as n does
        for first, ys in _rk4_chunks(self.y0[:, :dims], tables, n, self.group):
            pick = slice(-first % r, n - first, r)  # sliced, so a view
            yield (first + np.arange(ys.shape[1])[pick])[:, None] * self.dt, ys[:, pick]
        yield np.array([[n * self.dt]]), ys[:, -1:]  # step n, the last chunk's last row

    def analytic_qp(self, t: np.ndarray) -> tuple:
        """Closed-form (q, p) at times t, an array that broadcasts against (trials,)."""
        w, q0, p0 = self.w, self.y0[:, 0], self.y0[:, 1]
        c, s = np.cos(w * t), np.sin(w * t)
        return q0 * c + p0 / w * s, p0 * c - w * q0 * s

    @cached_property
    def amplitudes(self) -> np.ndarray:
        """K, shape (trials, 4, 8), with mu_ana = [cos, sin](w t/2), [cos, sin](3 w t/2) @ K:
        on shell A+/- rotate at omega/2 and D+/- at 3 omega/2 from theta0, and H stays H0."""
        ap, am, dp, dm = _aux_values(self.theta0, self.h0)
        z = np.zeros_like(ap)
        parts = ((ap, am, z, z), (-am, ap, z, z), (z, z, dp, dm), (z, z, -dm, dp))
        return _family_coeffs(*np.stack(parts, axis=-1), self.cs[:, :, None])

    def analytic_mu(self, t) -> np.ndarray:
        """Reference mu at times t, which broadcast against (rows, distinct omegas),
        trial-major (trials, rows, 8): the trig values at the exact half angle omega t/2,
        taken once per distinct omega, times each trial's amplitudes.  Those of 3 omega t/2
        come from the triple-angle identities, as D+/- from A+/-, since rounding
        3 omega t/2 itself would move the angle."""
        half = (self.omegas * np.atleast_2d(t) / 2.0).T
        c, s = np.cos(half), np.sin(half)
        b = np.stack((c, s, c * (c * c - 3.0 * s * s), s * (3.0 * c * c - s * s)), -1)
        # numpy's one-row product (its vector path) rounds otherwise: a lone row goes in twice
        rows = b.shape[1]
        b = np.take(b[:, [0, 0]] if rows == 1 else b, self.group, axis=0)  # one row set per trial
        return np.matmul(b, self.amplitudes)[:, :rows]

    def compare(self, t: np.ndarray, ys: np.ndarray) -> tuple:
        """Energy, mu_ana, |mu - mu_ana| and relative energy drift of the states ys[k, j]
        of run k at times t[j] (t of shape (m, 1)), trial-major: shape (trials, m, ...)."""
        q, p, w, h0 = ys[..., 0], ys[..., 1], self.w[:, None], self.h0[:, None]
        energy = 0.5 * (p * p + w * w * q * q)
        mu_ana = self.analytic_mu(t)
        dev = ys[..., 2:] - mu_ana
        return energy, mu_ana, np.abs(dev, out=dev), np.abs(energy - h0) / h0


def _config_batch(config: IntegratorConfig) -> _Batch:
    """The batch of config's one run; its initial state passes OscState's checks."""
    s = config.initial_state()
    w, q, p = (np.array([x], dtype=float) for x in (s.omega, s.q, s.p))
    return _Batch(config.dt, config.t_end, w, q, p, [config.params.c])


@_quiet
def analytic_mu(config: IntegratorConfig, t: float) -> Operation:
    """Reference mu at time t on the continuous branch.

    The closed-form flow advances the phase angle linearly, so the branch is
    picked by the exact unwrapped angle theta0 + omega*t, with theta0 the
    principal angle of the initial state.  Requires H > 0 and a finite number t.
    """
    _check_finite(t=t)
    return Operation(2, 2, _config_batch(config).analytic_mu(t)[0, 0])


@_quiet
def evolve(config: IntegratorConfig) -> Trajectory:
    """Integrate from t = 0 to t_end, comparing against the analytic family.

    The initial mu is the family evaluated on the principal branch at the
    initial state.  Each record carries the numeric and analytic structure
    constants, their worst difference, and the relative energy drift, all finite:
    EnergyOverflowError for H past the doubles, ValueError for mu_ana or err past them.
    """
    batch = _config_batch(config)
    blocks = []
    for t, ys in batch.records(config.record_every):
        energy, mu_ana, dev, drift = (a[0] for a in batch.compare(t, ys))
        err = reduce(np.maximum, dev.T)  # column by column: dev.max(axis=1) took ~10x longer
        blocks.append(np.column_stack((t, ys[0, :, :2], energy, ys[0, :, 2:], mu_ana, err, drift)))
    table = np.concatenate(blocks)
    if not np.isfinite(table).all():  # the steps are finite, so H, mu_ana or err is not
        if not np.isfinite(table[:, 3]).all():  # 2H a few ulps short of the largest double
            raise EnergyOverflowError(f"energy of (q, p) = ({config.q0}, {config.p0}) overflows")
        raise ValueError("params C1..C8 overflow the family's reference along the run")
    return Trajectory(table)


@_quiet
def _pde_residuals(w, q, p, cs, h: float) -> np.ndarray:
    """Max |p dmu/dq - omega^2 q dmu/dp - [M, mu]| by central differences of step h,
    for the principal-branch family with parameters cs[k] at (w[k], q[k], p[k]), every k.

    The family is evaluated at the centre and the four stencil points of
    every state as one array, with libm's angles and radii (_libm),
    since the central differences magnify a last-bit change by 1/h.  [M, mu]
    is structure_rhs_matrix(M) @ mu with one matrix per distinct omega and one
    product per state, so a state's numbers do not depend on its batch.
    Raises ValueError for a stencil point that rounds onto its centre (h below
    the spacing of the state's doubles), DegenerateStateError at zero energy,
    EnergyOverflowError for a stencil energy that is not finite, and
    BranchCutError for a stencil point within 10 h / sqrt(2H) of the cut,
    where the branch jumps.
    """
    h = float(h)  # a Python int past int64 would make the stencil an object array
    w, q, p = (np.asarray(x)[:, None] for x in (w, q, p))
    qs, ps = q + [0.0, h, -h, 0.0, 0.0], p + [0.0, 0.0, 0.0, h, -h]
    if np.any(qs[:, 1:3] == q) or np.any(ps[:, 3:] == p):
        raise ValueError(f"step h = {h!r} is below the spacing of the state's doubles")
    hs = 0.5 * (ps * ps + w * w * qs * qs)
    if not np.all(np.isfinite(hs)):
        raise EnergyOverflowError(f"PDE stencil energy at step h = {h!r} is not finite")
    if np.any(hs[:, 0] <= 0.0):
        raise DegenerateStateError("PDE stencil needs positive energy")
    theta = _libm(_principal_angle, w * qs, ps)
    margin = 10.0 * h / np.sqrt(2.0 * hs[:, :1])
    near = np.argwhere(math.pi - np.abs(theta[:, 1:]) <= margin)
    if near.size:
        k, j = near[0]
        raise BranchCutError(f"stencil point at angle {theta[k, j + 1]:.6f} is within "
                             f"{margin[k, 0]:.2e} of the cut")
    aux = _principal_aux(theta, hs)
    mu = _family_coeffs(*aux, np.asarray(cs, dtype=float).T[:, :, None])
    omegas, group = np.unique(w[:, 0], return_inverse=True)
    rhs = np.stack([_rhs(x) for x in omegas.tolist()])
    # a sum of exact products, added pairwise by numpy: each coefficient rounds as
    # a - (b0 + b1), the order gerstenhaber_bracket adds the same products in
    bracket = (rhs[group] * mu[:, 0, None, :]).sum(axis=-1)
    dmu_dq = (mu[:, 1] - mu[:, 2]) / (2.0 * h)
    dmu_dp = (mu[:, 3] - mu[:, 4]) / (2.0 * h)
    resid = p * dmu_dq - w * w * q * dmu_dp - bracket
    return np.max(np.abs(resid), axis=1)


def pde_residual(s: OscState, params: MuParams, h: float) -> float:
    """PDE residual of the principal-branch family at one state; O(h^2) exact.
    Raises ValueError unless h is a number > 0 that a finite double holds, and
    that moves each of q and p to another double."""
    _check_positive(h=h)
    _check_finite(h=h)
    return float(_pde_residuals(*(np.array([x]) for x in (s.omega, s.q, s.p)), [params.c], h)[0])


def rk4_order_check(config: IntegratorConfig) -> float:
    """Ratio of worst position errors at dt and dt/2 against the closed form.

    Classical fourth order puts the ratio near 16; values drop once the error
    at the finer step reaches the rounding floor.  D is block diagonal, so
    (q, p) steps alone with its 2x2 block, the RK4 polynomial of the oscillator.
    Raises ValueError when the error at dt/2 is exactly 0: the ratio is undefined.
    """

    def max_err(dt: float) -> float:
        batch = _config_batch(replace(config, dt=dt))
        return max(float(np.max(np.abs(ys[0] - np.stack(batch.analytic_qp(t[:, 0]), -1))))
                   for t, ys in batch.records(dims=2))

    coarse, fine = max_err(config.dt), max_err(config.dt / 2.0)
    if fine == 0.0:
        raise ValueError(f"order ratio undefined: the error at dt/2 = {config.dt / 2.0!r} is 0")
    return coarse / fine


CSV_HEADER = (
    "t,q,p,H,"
    "mu_111,mu_112,mu_121,mu_122,mu_211,mu_212,mu_221,mu_222,"
    "amu_111,amu_112,amu_121,amu_122,amu_211,amu_212,amu_221,amu_222,"
    "err_mu_max,energy_drift"
)


def _csv_bytes(table: np.ndarray) -> bytes:
    """The CSV rows of a 2-d table of doubles as ASCII, each ending in a newline.

    orjson writes the same shortest round-trip digits as repr, and spells them as
    repr does where |x| < 1e-9 or 1e-4 <= |x| < 1e16.  A table holding another
    value is one orjson call on its list with repr's string in those places, its
    quotes then dropped; any other is one call on its flat array.  Every ncol-th
    comma and the closing bracket become newlines.
    """
    import orjson  # only a CSV needs it, so importing operlax does not load it

    flat = np.ascontiguousarray(table, dtype=float).reshape(-1)
    if not flat.size:
        return b"\n" * len(table)
    size = np.abs(flat)
    # elsewhere orjson writes 1e16 for 1e+16, 1e-7 for 1e-07, 0.0000123 for 1.23e-05
    # and null for NaN and +-inf; shortest digits lie on the same side of a power of
    # ten as the double they spell, so |x| alone tells
    others = np.flatnonzero(~((size < 1e-9) | ((1e-4 <= size) & (size < 1e16))))
    if others.size:
        values = flat.tolist()
        for k in others.tolist():
            values[k] = repr(values[k])
        text = orjson.dumps(values).replace(b'"', b"")
    else:
        text = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)
    chars = np.frombuffer(text, np.uint8)[1:].copy()  # without the opening bracket
    chars[np.flatnonzero(chars == ord(","))[table.shape[1] - 1::table.shape[1]]] = ord("\n")
    chars[-1] = ord("\n")
    return chars.tobytes()


def trajectory_csv_lines(traj: Trajectory):
    """Yield the exact CSV lines for a trajectory (header first), without newlines.

    Numbers are written as repr writes them: shortest round-trip decimal
    formatting (at most 17 significant digits), so re-parsing reproduces the
    doubles bit for bit.  Each CHUNK_STEPS rows of the table are formatted at
    once; trajectory_csv_chunks yields the same text a chunk at a time.
    """
    for chunk in trajectory_csv_chunks(traj):
        yield from chunk.decode().splitlines()


def trajectory_csv_chunks(traj: Trajectory):
    """Yield the lines of trajectory_csv_lines as ASCII bytes, each ending in a newline, as
    the header line and then one bytes per CHUNK_STEPS records: one binary write each."""
    yield CSV_HEADER.encode() + b"\n"
    for lo in range(0, len(traj), CHUNK_STEPS):
        yield _csv_bytes(traj.table[lo:lo + CHUNK_STEPS])


# (energy, angle, C1..C8) of the theorem suite's trials, each uniform in [low, high]
_THEOREM_RANGES = ((0.1, 10.0), (-math.pi, math.pi)) + ((-1.0, 1.0),) * 8


def theorem_suite(
    trials: int, seed: int, tol: float, dt: float = 1e-3, t_end: float = 20.0
) -> list[LawReport]:
    """Trajectory-level verification over random configurations.

    Per trial: integrate a random configuration (omega in {1/2, 1, 2}, energy
    in [0.1, 10], parameters in [-1, 1]^8), then check four things at every
    record: worst |mu_numeric - mu_analytic| (tol), relative energy drift
    (1e-9), the spectral invariant |det L + 2 H0| with trace L = 0 (1e-8),
    and half-period antiperiodicity of the analytic branch (1e-9).  Each block
    of _blocks is drawn and stepped as one _Batch, so memory follows the block.
    dt must satisfy IntegratorConfig's dt <= 0.1/omega for the largest omega,
    whatever omegas the seed draws.  Raises ValueError, before any draw, unless
    seed and trials are ints >= 0, tol and dt are numbers > 0 (NaN is not, nor
    is a bool) and t_end is positive with at most 2**53 steps.
    """
    _check_suite_args(seed, tol, trials=trials)
    _check_positive(dt=dt)
    if dt > 0.1 / max(_OMEGAS):
        raise ValueError(f"dt: theorem trials sample omega up to {max(_OMEGAS)}, "
                         f"so dt must be in (0, {0.1 / max(_OMEGAS)}], got {dt}")
    _check_steps(t_end, dt)
    reports = []
    for ks in _blocks(trials):
        draws = _trial_draws(seed, ks, _THEOREM_RANGES, True)
        order = np.argsort(draws[0], kind="stable")  # runs of one omega: one product per run
        w, h, theta, *cs = draws[:, order]
        batch = _Batch(dt, t_end, w, *_polar(w, h, theta), np.transpose(cs))
        wk, h0 = w[:, None], batch.h0[:, None]
        err, dh, det_worst, trace_worst = (np.zeros(len(ks)) for _ in range(4))
        for t, ys in batch.records():
            q, p = np.moveaxis(ys[..., :2], -1, 0).copy()  # contiguous: no op below strides ys
            dev = batch.analytic_mu(t)  # |mu - mu_ana|, in the reference's own buffer
            np.abs(np.subtract(ys[..., 2:], dev, out=dev), out=dev)
            err = np.maximum(err, dev.max(axis=(1, 2)))
            dh = np.maximum(dh, np.abs(0.5 * (p * p + wk * wk * q * q) - h0).max(axis=1))
            # L = [[p, wq], [wq, -p]]: det = -(p^2 + (wq)^2), trace = p + (-p)
            det = p * (-p) - (wk * q) * (wk * q)
            det_worst = np.maximum(det_worst, np.abs(det + 2.0 * h0).max(axis=1))
            trace_worst = np.maximum(trace_worst, np.abs(p + (-p)).max(axis=1))

        # the analytic branch flips sign after one (q, p) period; the closed form
        # extends past t_end, so base times can range over the whole run
        t = np.linspace(0.0, t_end, 8)[:, None]
        anti = batch.analytic_mu(t) + batch.analytic_mu(t + 2.0 * math.pi / batch.omegas)
        columns = np.array([err, dh / batch.h0, det_worst, trace_worst,  # H0 > 0: max |E-H0|/H0
                            np.abs(anti).max(axis=(1, 2))])[:, np.argsort(order)]  # trial order
        n = batch.n_steps + 1
        for k, e, dr, det, trace, anti in zip(ks, *(x.tolist() for x in columns)):
            checks = (("antiperiodicity", 8, anti, anti <= 1e-9),
                      ("energy-drift", n, dr, dr <= 1e-9),
                      ("isospectral", n, max(det, trace), det <= 1e-8 and trace == 0.0),
                      ("trajectory-mu", n, e, e <= tol))
            reports += [LawReport(f"{law}-{k:02d}", m, r, ok, k) for law, m, r, ok in checks]
    return reports


# (log energy, angle) of the PDE suite's states, each uniform in [low, high]; probes draw row 0
_PDE_RANGES = ((math.log(0.1), math.log(10.0)), (-0.95 * math.pi, 0.95 * math.pi))


def pde_suite(n_states: int, seed: int, tol: float) -> list[LawReport]:
    """Finite-difference PDE residuals over random branch-safe states.

    Two aggregate checks.  "pde-residual": the worst residual at step h = 1e-5
    over n_states random states (each paired with one of 20 random parameter
    vectors) must stay below tol.  "pde-residual-halving": halving h must
    shrink the residual by a factor in [3, 5]; its report stores the measured
    factor's distance outside that interval (0 when inside).

    The halving factor is measured on a dedicated convergence probe of eight
    states rather than on the random ensemble.  At h = 1e-5 the O(h^2)
    truncation of this family is around 1e-10, which sits below the
    central-difference rounding floor eps*|mu|/(2h) for generic states, so a
    generic residual stops shrinking long before 5e-6.  On states with q = 0
    the q-stencil is exactly symmetric (the phase functions are componentwise
    even or odd in the angle) and the other advective coefficient vanishes, so
    for the eight one-parameter family generators the rounding cancels
    bit-exactly and the quadratic law is cleanly resolvable.  Linearity of the
    family in its parameters extends the law from the generators to every
    parameter vector.  A NaN factor counts as outside.  Raises ValueError
    unless seed and n_states are ints >= 0 and tol > 0.
    """
    _check_suite_args(seed, tol, n_states=n_states)
    h, n_params, n_probe_states = 1e-5, 20, 8
    # state k takes vector k % n_params, so only the first n_states are ever read
    params_pool = _trial_draws(seed, range(10_000, 10_000 + min(n_params, n_states)),
                               ((-1.0, 1.0),) * 8, False).T

    def residuals(ks):
        w, log_h, theta = _trial_draws(seed, ks, _PDE_RANGES, True)
        return _pde_residuals(w, *_polar(w, np.exp(log_h), theta),
                              params_pool[np.remainder(ks, len(params_pool))], h)[:, None]

    def probes(ks):  # worst over the eight generators of each probe state (angle 0), h and h/2
        w, log_h = _trial_draws(seed, range(20_000 + ks.start, 20_000 + ks.stop),
                                _PDE_RANGES[:1], True)
        pairs = [np.repeat(x, 8) for x in (w, *_polar(w, np.exp(log_h), 0.0))]
        generators = np.tile(np.eye(8), (len(ks), 1))
        return np.column_stack([_pde_residuals(*pairs, generators, step).reshape(-1, 8).max(axis=1)
                                for step in (h, 0.5 * h)])

    at_h, at_half = _worst_case_reports(("h", "h/2"), n_probe_states, probes, tol)
    factor = at_h.max_abs_residual / at_half.max_abs_residual
    outside = 0.0 if 3.0 <= factor <= 5.0 else max(3.0 - factor, factor - 5.0)
    return _worst_case_reports(["pde-residual"], n_states, residuals, tol) + [
        LawReport("pde-residual-halving", 8 * n_probe_states, outside, outside == 0.0,
                  at_h.worst_case_seed),
    ]
