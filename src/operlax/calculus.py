"""Composition calculus on multilinear operations.

Partial compositions insert one operation into an input slot of another with
a sign that depends on the slot and the reduced degree of the inserted
operation.  Total composition sums over slots, and the graded commutator of
total compositions gives the bracket that drives the Lax flows.  The
``check_*`` functions verify the defining laws numerically and report the
worst residual seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import DimensionMismatchError, _check_int, _check_positive
from .multilinear import Operation, _coeff_count, _finite, _quiet

__all__ = ["LawReport", "partial_compose", "total_compose", "gerstenhaber_bracket",
           "check_composition_relations", "check_graded_jacobi", "check_unit_laws",
           "random_operation", "trial_rng", "operad_law_suite"]


@dataclass(frozen=True)
class LawReport:
    """Outcome of one law check: worst absolute residual over all trials."""

    law_name: str
    trials: int
    max_abs_residual: float
    passed: bool
    worst_case_seed: int = -1

    def to_dict(self) -> dict:
        r = float(self.max_abs_residual)
        return {
            "law": self.law_name,
            "trials": self.trials,
            # strict JSON has no NaN or infinity: such a residual (which fails) is null
            "max_abs_residual": r if math.isfinite(r) else None,
            "pass": bool(self.passed),
            "seed": int(self.worst_case_seed),
        }


def _require_same_dim(*ops: Operation):
    if any(op.dim != ops[0].dim for op in ops):
        dims = " vs ".join(str(op.dim) for op in ops)
        raise DimensionMismatchError(f"dimension mismatch: {dims}")


def _sign(exponent: int) -> float:
    return -1.0 if exponent % 2 else 1.0


def _slots(d: int, f: np.ndarray, m: int, g: np.ndarray, n: int, slots):
    """Flat coefficients of g (arity n) inserted into each slot i of slots of f (arity
    m), dim d, one row per trial of f and g (a flat array or a single row broadcasts).

    f is viewed as (d^(1+i), d, d^(m-1-i)) with the contracted input in the
    middle and g as (d, d^n), so g^T @ f puts g's inputs in its place; the
    graded sign is (-1)**(i * (n - 1)).  g^T is built once for all slots, and the
    composites are yielded one at a time, so a caller can hold one at a time.
    """
    gt = g.reshape(-1, 1, d, d ** n).transpose(0, 1, 3, 2)
    for i in slots:
        x = gt @ f.reshape(-1, d ** (1 + i), d, d ** (m - 1 - i))
        yield (np.negative(x, out=x) if i * (n - 1) % 2 else x).reshape(len(x), -1)


def _compose(d: int, f: np.ndarray, m: int, g: np.ndarray, n: int, i: int) -> np.ndarray:
    return next(_slots(d, f, m, g, n, (i,)))


def _total_compose(d: int, f: np.ndarray, m: int, g: np.ndarray, n: int) -> np.ndarray:
    return reduce(np.add, _slots(d, f, m, g, n, range(m)))


def _sub(a, s: float, b):
    # a - s*b for a sign s of +-1: the bits of the product form, without the product
    return a - b if s > 0 else a + b


def _bracket(d: int, f: np.ndarray, m: int, g: np.ndarray, n: int) -> np.ndarray:
    return _sub(_total_compose(d, f, m, g, n), _sign((m - 1) * (n - 1)),
                _total_compose(d, g, n, f, m))


def _residual(diffs) -> np.ndarray:
    # each trial's largest |difference|, holding one difference at a time: at
    # arity 7 and dim 3 each holds 6561 doubles per trial
    return reduce(np.maximum, (np.abs(x).max(axis=1) for x in diffs))


def _triple_laws(d, h, l, f, m, g, n) -> list:
    """Differences of antisymmetry of (f, g), the composition relations of (h, f, g)
    and graded Jacobi of (f, g, h); the slot lists h o_j g, f o_j g and h o_i f also
    give the totals t(h, g), t(f, g) and t(h, f), summed in _total_compose's order."""
    sgn = _sign((m - 1) * (n - 1))
    hg = list(_slots(d, h, l, g, n, range(l)))
    fg = list(_slots(d, f, m, g, n, range(m)))
    hf = list(_slots(d, h, l, f, m, range(l)))

    def relations():
        for i in range(l):
            for j, lhs in enumerate(_slots(d, hf[i], l + m - 1, g, n, range(l + m - 1))):
                if i <= j < i + m:
                    yield lhs - _compose(d, h, l, fg[j - i], m + n - 1, i)
                else:  # g moves into slot k of h, before or after f
                    k, at = (j, i + n - 1) if j < i else (j - m + 1, i)
                    yield _sub(lhs, sgn, _compose(d, hg[k], l + n - 1, f, m, at))

    tfg, thg, thf = (reduce(np.add, c) for c in (fg, hg, hf))
    tgf = _total_compose(d, g, n, f, m)
    fxg, gxf = _sub(tfg, sgn, tgf), _sub(tgf, sgn, tfg)  # [f, g] and [g, f]
    inner = ((fxg, m, n, h, l),
             (_sub(_total_compose(d, g, n, h, l), _sign((n - 1) * (l - 1)), thg), n, l, f, m),
             (_sub(thf, _sign((l - 1) * (m - 1)), _total_compose(d, f, m, h, l)), l, m, g, n))
    jacobi = 0  # the three signed brackets, summed from 0
    for ab, p, q, c, r in inner:
        jacobi = _sub(jacobi, -_sign((p - 1) * (r - 1)), _bracket(d, ab, p + q - 1, c, r))
    return [[_sub(fxg, -sgn, gxf)], relations(), [jacobi]]


def _unit_laws(d: int, f: np.ndarray, n: int) -> list:
    e = np.eye(d).reshape(-1)  # the unit
    return [[_compose(d, e, 1, f, n, 0) - f] + [x - f for x in _slots(d, f, n, e, 1, range(n))]]


# Coefficients of a law's widest intermediate over the trials stacked together
# (d^(l+m+n-1) per trial for three operations: 6561 at dim 3 and arities 3).
# Larger groups are split, so peak memory stays near the one-trial path's.
STACK_COEFFS = 8192


def _by_signature(law, width: int, trials) -> np.ndarray:
    """Per trial, the residual of each of law's width lists of differences, for
    trials (d, (coeffs, arity), ...): law(d, coeffs, arity, ...) runs once per group
    of trials sharing dim and arities (split to STACK_COEFFS), stacked along axis 0."""
    groups: dict = {}
    for k, (d, *ops) in enumerate(trials):
        groups.setdefault((d, *(a for _, a in ops)), []).append(k)
    out = np.empty((len(trials), width))
    for (d, *arities), ks in groups.items():
        per = max(1, STACK_COEFFS // d ** (sum(arities) - len(arities) + 2))
        for part in (ks[i:i + per] for i in range(0, len(ks), per)):
            stacks = [np.stack([trials[k][1 + c][0] for k in part]) for c in range(len(arities))]
            laws = law(d, *(x for pair in zip(stacks, arities) for x in pair))
            out[part] = np.transpose([_residual(diffs) for diffs in laws])
    return out


@_quiet
def partial_compose(f: Operation, g: Operation, i: int) -> Operation:
    """Insert g into input slot i (zero-based) of f.

    The result has arity arity(f) + arity(g) - 1 and carries the graded sign
    (-1)**(i * reduced_degree(g)).  Coefficients come from contracting f's
    i-th input axis with g's output axis.
    """
    _require_same_dim(f, g)
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
        raise ValueError(f"slot i must be an int, got {i!r}")
    if not 0 <= i <= f.reduced_degree:
        raise IndexError(f"slot {i} out of range for arity-{f.arity} operation")
    coeffs = _compose(f.dim, f.coeffs, f.arity, g.coeffs, g.arity, i)
    return Operation(f.dim, f.arity + g.arity - 1, coeffs)


@_quiet
def total_compose(f: Operation, g: Operation) -> Operation:
    """Sum of g inserted into every slot of f; arity adds as for partial_compose."""
    _require_same_dim(f, g)
    coeffs = _total_compose(f.dim, f.coeffs, f.arity, g.coeffs, g.arity)
    return Operation(f.dim, f.arity + g.arity - 1, coeffs)


@_quiet
def gerstenhaber_bracket(f: Operation, g: Operation) -> Operation:
    """Graded commutator f*g - (-1)^(|f||g|) g*f of total compositions."""
    _require_same_dim(f, g)
    coeffs = _bracket(f.dim, f.coeffs, f.arity, g.coeffs, g.arity)
    return Operation(f.dim, f.arity + g.arity - 1, coeffs)


def _one_trial(law, column: int, *ops: Operation) -> float:
    # law on one trial's operations; only the column read must be finite
    laws = law(ops[0].dim, *(x for op in ops for x in (op.coeffs, op.arity)))
    return float(_finite(_residual(laws[column]))[0])


@_quiet
def check_composition_relations(h: Operation, f: Operation, g: Operation, tol: float) -> LawReport:
    """Verify the three-case composition (associativity) relations for (h, f, g).

    Each slot j of h o_i f is checked: for j < i and j >= i + arity(f) g moves
    into h (sign (-1)**(|f||g|)), in between into f.  Overflow in an
    intermediate raises ValueError.
    """
    _require_same_dim(h, f, g)
    _check_positive(tol=tol)
    worst = _one_trial(_triple_laws, 1, h, f, g)
    return LawReport("composition-relations", h.arity * (h.arity + f.reduced_degree), worst,
                     worst <= tol)


@_quiet
def check_graded_jacobi(f: Operation, g: Operation, h: Operation, tol: float) -> LawReport:
    """Three-term graded Jacobi sum for the bracket; residual is its max coefficient.
    Overflow in an intermediate raises ValueError."""
    _require_same_dim(f, g, h)
    _check_positive(tol=tol)
    worst = _one_trial(_triple_laws, 2, h, f, g)
    return LawReport("graded-jacobi", 1, worst, worst <= tol)


@_quiet
def check_unit_laws(f: Operation, tol: float) -> LawReport:
    """Left unit in slot 0 and right unit in every slot must reproduce f exactly."""
    _check_positive(tol=tol)
    worst = _one_trial(_unit_laws, 0, f)
    return LawReport("unit-laws", f.arity + 1, worst, worst <= tol)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """PCG64 stream for one trial: Generator(PCG64(SeedSequence([seed, trial]))).

    All randomness in the package is drawn from these streams (the suites take
    them in bulk, bit for bit), so any reported worst-case trial can be
    regenerated from (seed, trial) alone.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, trial])))


# SeedSequence's constants (numpy/random/bit_generator.pyx), whose uint32 words
# wrap as in C, and PCG64's 128-bit multiplier
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_chain(init: int, mult: int, count: int) -> list:
    # (xor, multiplier) of count successive hashes: the constant before and after each
    c = [np.uint32(init * pow(mult, i, 2 ** 32) % 2 ** 32) for i in range(count + 1)]
    return list(zip(c, c[1:]))


# four hashes fill the pool from the entropy and twelve mix it; eight give the words
_POOL_HASHES = _hash_chain(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASHES = _hash_chain(0x8B51F9DD, 0x58F38DED, 8)


def _hashed(v: np.ndarray, consts: tuple) -> np.ndarray:
    v = (v ^ consts[0]) * consts[1]
    return v ^ (v >> np.uint32(16))


def _seed_words(seed, ks: range) -> np.ndarray:
    """SeedSequence([seed, k]).generate_state(4, np.uint64) for every k of the increasing
    range ks, one row each; from SeedSequence itself, with its errors, unless
    0 <= seed < 2**64 and 0 <= k < 2**32, where all rows are hashed at once.

    The entropy is the seed's one or two 32-bit words, then k's one word; the
    pool of four words takes zeros past the entropy, as SeedSequence's does."""
    if not (isinstance(seed, (int, np.integer)) and 0 <= int(seed) < 2 ** 64
            and (not ks or 0 <= ks[0] and ks[-1] < 2 ** 32)):
        return np.array([np.random.SeedSequence([seed, k]).generate_state(4, np.uint64)
                         for k in ks], np.uint64).reshape(-1, 4)
    seed = int(seed)
    words = [seed % 2 ** 32, seed >> 32] if seed >> 32 else [seed]
    entropy = np.zeros((4, len(ks)), np.uint32)
    entropy[:len(words)] = np.array(words, np.uint32)[:, None]
    entropy[len(words)] = ks
    consts = iter(_POOL_HASHES)
    pool = [_hashed(x, next(consts)) for x in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                m = _MIX_L * pool[dst] - _MIX_R * _hashed(pool[src], next(consts))
                pool[dst] = m ^ (m >> np.uint32(16))
    out = np.array([_hashed(pool[i % 4], c) for i, c in enumerate(_STATE_HASHES)], np.uint64)
    return (out[0::2] | out[1::2] << np.uint64(32)).T


@lru_cache
def _jumps(count: int) -> np.ndarray:
    # output c of a PCG64 seeded with (initstate s, inc) is that of its state
    # a^(c+2) s + (1 + a + ... + a^(c+2)) inc mod 2**128, a the multiplier: these two
    # factors for c < count, as uint64 (high, low) words of shape (2, 1, count) each
    a = [pow(_PCG64_MULT, e, 2 ** 128) for e in range(count + 3)]
    k = [divmod(x, 2 ** 64) for c in range(count) for x in (a[c + 2], sum(a[:c + 3]) % 2 ** 128)]
    return np.array(k, np.uint64).reshape(count, 2, 2).T[:, :, None]


def _trial_raws(seed, ks: range, count: int):
    """trial_rng(seed, k).bit_generator.random_raw(count) for each k of the increasing
    range ks, one row each, in one array pass."""
    s_hi, s_lo, i_hi, i_lo = _seed_words(seed, ks).T
    # initstate and inc = 2 initseq + 1 as (high, low) words, each times its factor
    x_hi = np.stack((s_hi, i_hi << 1 | i_lo >> 63))[..., None]
    x_lo = np.stack((s_lo, i_lo << 1 | 1))[..., None]
    k_hi, k_lo = _jumps(count)
    # the high word of x_lo k_lo from 32-bit limbs
    x0, x1, k0, k1 = x_lo & 0xFFFFFFFF, x_lo >> 32, k_lo & 0xFFFFFFFF, k_lo >> 32
    mid = x1 * k0 + (x0 * k0 >> 32)
    hi = (x1 * k1 + (mid >> 32) + ((x0 * k1 + (mid & 0xFFFFFFFF)) >> 32)
          + x_hi * k_lo + x_lo * k_hi)
    lo = x_lo * k_lo
    state_lo = lo[0] + lo[1]  # the two terms' sum, with the low word's carry
    state_hi = hi[0] + hi[1] + (state_lo < lo[0])
    x, rot = state_hi ^ state_lo, state_hi >> 58  # XSL-RR: rotated by the top six bits
    return x >> rot | x << ((64 - rot) & 63)


def _draw_coeffs(rng: np.random.Generator, dim: int, arity: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size=dim ** (arity + 1))


def random_operation(rng: np.random.Generator, dim: int, arity: int) -> Operation:
    """Operation with coefficients drawn uniformly from [-1, 1], its sizes checked first."""
    if _coeff_count(dim, arity, 2 ** 60) >= 2 ** 60:  # more doubles than an array's bytes hold
        raise DimensionMismatchError(f"dim={dim}, arity={arity}: too many coefficients")
    return Operation(dim, arity, _draw_coeffs(rng, dim, arity))


# Trials per block of _blocks: memory follows the block, not the trial count.
TRIAL_BLOCK = 256


def _check_suite_args(seed, tol, **trials):
    """Raise ValueError unless the seed and trial count are ints >= 0 and tol a number > 0."""
    _check_int(0, seed=seed, **trials)
    _check_positive(tol=tol)


def _blocks(trials: int):
    """The ranges of trials 0..trials-1, TRIAL_BLOCK trials each, in order."""
    return (range(k, min(k + TRIAL_BLOCK, trials)) for k in range(0, trials, TRIAL_BLOCK))


def _worst_case_reports(names, trials: int, rows, tol: float) -> list[LawReport]:
    """One report per name over trials 0..trials-1, one of _blocks at a time.

    rows(ks) gives an array of one row per trial of the range ks, holding the
    trial's residual for each name.  A report keeps the worst residual and the
    trial that produced it; on a tie the last trial wins.  NaN ranks above every
    number, so a NaN residual is reported and fails.  No trials give residual 0.0
    and seed -1.
    """
    worst, at = np.zeros(len(names)), np.full(len(names), -1)
    for ks in _blocks(trials):
        block = rows(ks)
        # argmax takes the first NaN, else the first maximum: of the reversed
        # block, so the last trial's
        last = len(block) - 1 - np.argmax(block[::-1], axis=0)
        r = block[last, np.arange(len(names))]
        later = np.isnan(r) | (r >= worst)
        worst, at = np.where(later, r, worst), np.where(later, ks.start + last, at)
    return [LawReport(name, trials, float(r), bool(r <= tol), int(k))
            for name, r, k in zip(names, worst, at)]


def _operad_draws(seed, ks: range) -> list:
    """(d, (coeffs, arity) of h, of f, of g) of trials ks: a dim and three arities
    in 1..3, each arity before its coefficients, from trial_rng(seed, k) bit for bit.

    Each trial's PCG64 state is set as PCG64 seeds itself, on one local generator."""
    rng = np.random.Generator(np.random.PCG64())
    draws = []
    for s_hi, s_lo, i_hi, i_lo in _seed_words(seed, ks).tolist():
        # pcg64_set_seed: inc = 2 initseq + 1, then two LCG steps from state 0
        # with initstate added between them
        inc = (i_hi << 65 | i_lo << 1 | 1) % 2 ** 128
        state = (((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc) % 2 ** 128
        rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                   "state": {"state": state, "inc": inc}}
        d = int(rng.integers(1, 4))
        draws.append((d, *[(_draw_coeffs(rng, d, a), a)
                           for a in (int(rng.integers(1, 4)) for _ in range(3))]))
    return draws


def _operad_rows(seed: int, ks: range) -> np.ndarray:
    """Residual rows of trials ks, each (h, f, g) of one dim <= 3 and arities <= 3
    drawn from its own stream."""
    draws = _operad_draws(seed, ks)
    units = _by_signature(_unit_laws, 1, [(d, op) for d, *ops in draws for op in ops])
    return _finite(np.column_stack([_by_signature(_triple_laws, 3, draws),
                                    units.reshape(-1, 3).max(axis=1)]))


@_quiet
def operad_law_suite(trials: int, seed: int, tol: float) -> list[LawReport]:
    """Random-triple verification of all composition-calculus laws.

    Each trial draws a dimension and three arities, each in 1..3, and three random
    operations from its own seeded stream, then exercises the composition relations,
    unit laws, graded antisymmetry, and graded Jacobi identity.  Each report
    aggregates the worst residual over all trials and records the trial index
    that produced it.  The three triple laws run once per (d, l, m, n) group of a
    block's trials, the unit laws per (d, arity), with the one-trial checks' digits.
    Raises ValueError unless seed and trials are ints >= 0 and tol > 0.
    """
    _check_suite_args(seed, tol, trials=trials)
    names = ["antisymmetry", "composition-relations", "graded-jacobi", "unit-laws"]
    return _worst_case_reports(names, trials, lambda ks: _operad_rows(seed, ks), tol)
