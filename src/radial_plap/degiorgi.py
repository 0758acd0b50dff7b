"""The recursion-inequality decay lemma as an executable object.

For positive J_n with J_{n+1} <= K eta^n (J_n^{1+d1} + J_n^{1+d2}),
eta > 1, K > 0, 0 < d1 <= d2, a small enough J_0 forces geometric-in-the-
exponent decay:

    J_0 <= min(1, (2K)^{-1/d1} eta^{-1/d1^2})                    (threshold a)
    J_0 <= min((2K)^{-1/d1} eta^{-1/d1^2},
               (2K)^{-1/d2} eta^{-1/(d1 d2) - (d2-d1)/d2^2})     (threshold b)

imply J_n <= min(1, (2K)^{-1/d1} eta^{-1/d1^2} eta^{-n/d1}) for all n >= n0,
where n0 is the first index with J_n <= 1.

The *equality* recursion is the worst case consistent with the inequality;
it is simulated here both in plain floats (exact for power-of-two data) and
in log-space (thresholds like eta^{-1/d1^2} underflow long before the lemma
stops being checkable), and the displayed bound is verified index by index.
:func:`verify_bound` and :func:`sweep` share :func:`_thresholds` and
:func:`_log_bound`, which take floats or arrays.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

LOG_OVERFLOW = 700.0
#: the plain track is trusted only on normal floats: the logs of subnormal
#: values are inexact and would masquerade as bound violations
_NORMAL_MIN = sys.float_info.min
#: log-space allowance above the bound before an index counts as a violation
_SLACK = 1e-9


@dataclass(frozen=True)
class RecursionParams:
    K: float
    eta: float
    delta1: float
    delta2: float
    J0: float
    n_max: int = 10_000
    log_J0: float | None = None  # overrides J0 when the value underflows

    def __post_init__(self):
        # Python floats, so plain-track overflow raises OverflowError rather
        # than the RuntimeWarning of a numpy scalar
        for name in ("K", "eta", "delta1", "delta2", "J0", "log_J0"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, float(getattr(self, name)))
        if not 0.0 < self.K < math.inf:
            raise ValueError("K must be finite and positive")
        if not 1.0 < self.eta < math.inf:
            raise ValueError("eta must be finite and exceed 1")
        if not 0.0 < self.delta1 <= self.delta2 < math.inf:
            raise ValueError("need 0 < delta1 <= delta2 < inf")
        if not (math.isfinite(self.J0) and (self.J0 > 0 or self.log_J0 is not None)
                and math.isfinite(self.start_log)):
            raise ValueError("J0 (or log_J0) must be finite and positive")

    @property
    def start_log(self):
        return math.log(self.J0) if self.log_J0 is None else self.log_J0


@dataclass
class RecursionTrace:
    log_J: np.ndarray
    J: np.ndarray  # plain-float track where representable, else exp(log_J)
    n0: int | None
    overflowed: bool = False


def _thresholds(K, eta, d1, d2):
    """log b1 = log((2K)^{-1/d1} eta^{-1/d1^2}) and the logs of the two
    thresholds, min(0, log b1) and min(log b1, log b2): safe against underflow."""
    log_2K, logeta = np.log(2.0 * K), np.log(eta)
    log_b1 = -log_2K / d1 - logeta / d1**2
    log_b2 = -log_2K / d2 - logeta * (1.0 / (d1 * d2) + (d2 - d1) / d2**2)
    return log_b1, np.minimum(0.0, log_b1), np.minimum(log_b1, log_b2)


def _log_bound(log_b1, n, logeta, d1):
    """log of the displayed bound min(1, b1 eta^{-n/d1}) at the indices n."""
    return np.minimum(0.0, log_b1 - n * logeta / d1)


def threshold_log(params: RecursionParams):
    """Logs of the two threshold alternatives (safe against underflow)."""
    _, la, lb = _thresholds(params.K, params.eta, params.delta1, params.delta2)
    return float(la), float(lb)


def threshold(params: RecursionParams):
    """(thr_a, thr_b) exactly as displayed; may underflow to 0.0 for tiny
    delta1 (use :func:`threshold_log` then)."""
    la, lb = threshold_log(params)
    return math.exp(la), math.exp(lb)


def _step_plain(j, K, eta_n, d1, d2):
    try:
        return K * eta_n * (j ** (1.0 + d1) + j ** (1.0 + d2))
    except OverflowError:
        return math.inf


def simulate(params: RecursionParams) -> RecursionTrace:
    """Run the worst-case equality recursion J_{n+1} = K eta^n (J^{1+d1}+J^{1+d2}).

    Plain-float values are kept while they are normal floats (the
    hand-checkable power-of-two traces stay bit-exact); log-space is the
    master sequence once the plain track goes subnormal or overflows.  The run stops early once the
    trace overflows the float range upward, flagging the truncation.
    """
    K, eta, d1, d2 = params.K, params.eta, params.delta1, params.delta2
    logK, logeta = math.log(K), math.log(eta)
    logs = [params.start_log]
    plain = math.exp(logs[0]) if logs[0] < LOG_OVERFLOW else math.inf
    if plain < _NORMAL_MIN:
        plain = 0.0
    plains = [plain if 0.0 < plain < math.inf else math.nan]
    overflowed = False
    for n in range(params.n_max):
        L = logs[-1]
        if L > LOG_OVERFLOW:
            overflowed = True
            break
        nxt = logK + n * logeta + float(
            np.logaddexp((1.0 + d1) * L, (1.0 + d2) * L)
        )
        if 0.0 < plain < math.inf:
            eta_n = eta**n if n * logeta < LOG_OVERFLOW else math.inf
            p_nxt = _step_plain(plain, K, eta_n, d1, d2)
            if _NORMAL_MIN <= p_nxt < math.inf:
                plain = p_nxt
                nxt = math.log(p_nxt)  # keep the exact track authoritative
            else:
                plain = 0.0 if p_nxt < _NORMAL_MIN else math.inf
        logs.append(float(nxt))
        plains.append(plain if 0.0 < plain < math.inf else math.nan)
    log_J = np.array(logs)
    plains = np.array(plains)
    J_vals = np.where(np.isnan(plains), np.exp(np.minimum(log_J, LOG_OVERFLOW)),
                      plains)
    below = np.nonzero(log_J <= 0.0)[0]
    n0 = int(below[0]) if len(below) else None
    return RecursionTrace(log_J=log_J, J=J_vals, n0=n0, overflowed=overflowed)


def verify_bound(params: RecursionParams):
    """Check J_n <= min(1, (2K)^{-1/d1} eta^{-1/d1^2} eta^{-n/d1}) for n >= n0.

    Requires J_0 to satisfy one of the two threshold alternatives.  Returns
    (ok, first_violation_index_or_None, trace).
    """
    log_b1, la, lb = _thresholds(params.K, params.eta, params.delta1, params.delta2)
    L0 = params.start_log
    if not (L0 <= la + 1e-12 or L0 <= lb + 1e-12):
        raise ValueError("J0 satisfies neither threshold alternative")
    trace = simulate(params)
    if trace.n0 is None:
        return False, 0, trace
    n = np.arange(trace.n0, len(trace.log_J))
    log_bound = _log_bound(log_b1, n, np.log(params.eta), params.delta1)
    bad = np.nonzero(trace.log_J[trace.n0:] > log_bound + _SLACK)[0]
    if len(bad):
        return False, int(n[bad[0]]), trace
    return True, None, trace


#: log-space floor of the sweep; a draw that reaches it has decayed for good
_LOG_CLAMP = -1e290
#: the affine switch: once (d2 - d1) |L| reaches this many nats, the d2 term
#: of logaddexp sits below half an ulp of the d1 term (e^-40 < 2^-53)
_AFFINE_GAP = 40.0
#: steps per closed-form block, at most _BLOCK and about _BLOCK_CELLS over
#: the live draws: the block's (draws x steps) arrays stay at 64 KB each
_BLOCK, _BLOCK_CELLS = 64, 8192
#: draws per seeded chunk of samples
_CHUNK = 250


def _draws(size, rng_key):
    """One chunk's samples (K, eta, d1, d2), seeded by ``rng_key``."""
    rng = np.random.default_rng(rng_key)
    K = 10.0 ** rng.uniform(-2.0, 3.0, size=size)
    eta = rng.uniform(1.0 + 1e-9, 10.0, size=size)
    d = np.sort(rng.uniform(1e-6, 3.0, size=(size, 2)), axis=1)
    return K, eta, d[:, 0], d[:, 1]


def _affine_block(L, n, k, logK, logeta, e1):
    """log J at indices n+1..n+k, one row per draw, of the affine recursion
    L_m = c_m + (1+d1) L_{m-1}, c_m = logK + (m-1) log(eta), from L = L_n:
    with w_j = (1+d1)^-j, L_{n+j} = (L_n + sum_{i<=j} w_i c_{n+i}) / w_j.
    Works in place on two (draws x k) arrays."""
    j = np.arange(1, k + 1)
    w = e1[:, None] ** -j
    out = np.multiply(n + j - 1, logeta[:, None])
    out += logK[:, None]
    out *= w
    np.cumsum(out, axis=1, out=out)
    out += L[:, None]
    out /= w
    return out


def _advance(K, eta, d1, d2, alternative, n_max, margin):
    """Run the equality recursion for every draw at once; returns (n0, first_bad).

    Draws are retired as soon as their answer is final (see :func:`sweep`),
    so late steps only advance the slowly decaying ones.  A retired draw
    waits at the clamp, a fixpoint, until a quarter of the arrays has
    retired and they are compacted: few distinct array sizes keep numpy's
    per-size cache of small buffers, and so peak memory, as in a loop over
    fixed chunks.

    The live draws take the exact step, one index at a time, until every
    one of them has its n0 and, at the current index n, both
    (d2 - d1) |L_n| >= ``_AFFINE_GAP`` and an affine decrement
    D_n = c_{n+1} + d1 L_n <= -log(eta)/d1 - 1/2, where
    c_m = logK + (m-1) log(eta).  From then on they advance a block of
    indices at a time in closed form (:func:`_affine_block`), which is the
    float recursion already: the decrements obey
    D_{k+1} = (1+d1) D_k + log(eta), so D_k <= -log(eta)/d1 keeps them
    negative and falling (the half nat keeps rounding from undoing that),
    and L_k only decreases; then |L_k| >= |L_n|,
    exp(-(d2-d1)|L_k|) < 2^-53, and logaddexp returns exactly (1+d1) L_k.
    A draw at a deep bound qualifies: L_n <= bound_n =
    min(0, log_b1 - n log(eta)/d1) < 0 gives D_n <= -log(eta)/d1 - log 2,
    and its affine step lands log 2 below bound_{n+1} (2K b1^d1 = eta^-1/d1).
    Every draw enters a block at or below its bound, so the block's check of
    each index guards only the rounding of the closed form, whose clamp and
    retirement rules are the exact step's.  Draws with d1 == d2 never switch.
    """
    logK, logeta = np.log(K), np.log(eta)
    log_b1, thr_a, thr_b = _thresholds(K, eta, d1, d2)
    L = math.log(margin) + (thr_a if alternative == "a" else thr_b)
    n0 = np.where(L <= 0.0, 0, -1)
    first_bad = np.where((n0 == 0) & (L > _log_bound(log_b1, 0, logeta, d1) + _SLACK), 0, -1)
    L[first_bad == 0] = _LOG_CLAMP  # its answer is final: park it at the clamp
    live = np.arange(K.size)  # draw indices still advancing
    m0 = n0.copy()  # n0 of the live draws
    e1, e2 = 1.0 + d1, 1.0 + d2
    gap, falls = d2 - d1, -logeta / d1 - 0.5
    n = 0
    with np.errstate(over="ignore"):
        while n < n_max and live.size:
            found = m0.min() >= 0
            if found and np.all((gap * L <= -_AFFINE_GAP)
                                & (d1 * L + logK + n * logeta <= falls)):
                k = min(max(_BLOCK_CELLS // live.size, 1), _BLOCK, n_max - n)
                block = _affine_block(L, n, k, logK, logeta, e1)
                np.maximum(block, _LOG_CLAMP, out=block)
                viol = block > _log_bound(log_b1[:, None], np.arange(n + 1, n + k + 1),
                                          logeta[:, None], d1[:, None]) + _SLACK
                bad = viol.any(axis=1)
                first_bad[live[bad]] = n + 1 + viol[bad].argmax(axis=1)
                L = block[:, -1].copy()
                n += k
            else:
                n += 1
                L = logK + (n - 1) * logeta + np.logaddexp(e1 * L, e2 * L)
                L = np.maximum(L, _LOG_CLAMP)
                bad = L > _log_bound(log_b1, n, logeta, d1) + _SLACK
                if not found:
                    m0 = np.where((m0 < 0) & (L <= 0.0), n, m0)
                    bad &= m0 >= 0
                first_bad[live[bad]] = n
            L[bad] = _LOG_CLAMP  # its answer is final: park it at the clamp
            stay = L > _LOG_CLAMP
            if 4 * (live.size - np.count_nonzero(stay)) < live.size:
                continue
            n0[live[~stay]] = m0[~stay]
            live, L, m0 = live[stay], L[stay], m0[stay]
            logK, logeta, d1, log_b1 = logK[stay], logeta[stay], d1[stay], log_b1[stay]
            e1, e2, gap, falls = e1[stay], e2[stay], gap[stay], falls[stay]
    n0[live] = m0
    return n0, first_bad


def sweep(n_draws=1000, seed=0, alternative="a", n_max=10_000, margin=0.99,
          workers=1):
    """Randomized verification sweep at J0 = margin * threshold.

    K log-uniform in [1e-2, 1e3], eta uniform in (1, 10], 0 < d1 <= d2 <= 3.
    The samples are drawn in chunks of ``_CHUNK`` seeded by (seed, index),
    then all draws advance together in log space (the thresholds underflow
    any float for small d1).  A draw is retired once its answer is final:
    once its log J sits at the -1e290 deep-decay clamp (<= 0, so its n0 is
    found), or at its first violation (its n0 is found by then; it is
    parked at the clamp); as in :func:`verify_bound`, a J0 above the bound
    at n0 = 0 violates at index 0.  The clamp is a fixpoint: the next step
    gives -(1+d1) 1e290 plus at most logK + n log(eta), far below it, and
    since every bound is >= -3e12 a draw there can violate nothing later.
    All draws run in one pass; ``workers`` accepts only 1 and goes with the
    benchmark's next change, which drops the one caller that passes it.
    Returns the counterexample count (expected 0) plus the largest n0 seen.
    """
    if workers != 1:
        raise ValueError("sweep runs its draws in one pass: workers must be 1")
    sizes = [min(_CHUNK, n_draws - s) for s in range(0, n_draws, _CHUNK)]
    chunks = [_draws(sz, [seed, idx]) for idx, sz in enumerate(sizes)]
    draws = [np.concatenate(cols) for cols in zip(*chunks or [_draws(0, seed)])]
    n0, first_bad = _advance(*draws, alternative, n_max, margin)
    K, eta, d1, d2 = draws
    bad = np.flatnonzero(first_bad >= 0)
    details = [
        {"draw": int(i), "K": float(K[i]), "eta": float(eta[i]),
         "d1": float(d1[i]), "d2": float(d2[i]),
         "first_violation": int(first_bad[i])}
        for i in bad[:10]
    ]
    return {
        "draws": n_draws,
        "alternative": alternative,
        "counterexamples": int(bad.size),
        "details": details,
        "max_n0": int(n0.max(initial=0)),
        "all_n0_found": bool(np.all(n0 >= 0)),
    }
