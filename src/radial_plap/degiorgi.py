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
        if not self.K > 0:
            raise ValueError("K must be positive")
        if not self.eta > 1.0:
            raise ValueError("eta must exceed 1")
        if not 0.0 < self.delta1 <= self.delta2:
            raise ValueError("need 0 < delta1 <= delta2")
        if self.log_J0 is None and not self.J0 > 0:
            raise ValueError("J0 must be positive")

    @property
    def start_log(self):
        return math.log(self.J0) if self.log_J0 is None else self.log_J0


@dataclass
class RecursionTrace:
    log_J: np.ndarray
    J: np.ndarray  # plain-float track where representable, else exp(log_J)
    n0: int | None
    overflowed: bool = False


def threshold_log(params: RecursionParams):
    """Logs of the two threshold alternatives (safe against underflow)."""
    K, eta, d1, d2 = params.K, params.eta, params.delta1, params.delta2
    log_b1 = -math.log(2.0 * K) / d1 - math.log(eta) / d1**2
    log_b2 = -math.log(2.0 * K) / d2 - math.log(eta) * (
        1.0 / (d1 * d2) + (d2 - d1) / d2**2
    )
    return min(0.0, log_b1), min(log_b1, log_b2)


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


def verify_bound(params: RecursionParams, slack=1e-9):
    """Check J_n <= min(1, (2K)^{-1/d1} eta^{-1/d1^2} eta^{-n/d1}) for n >= n0.

    Requires J_0 to satisfy one of the two threshold alternatives.  Returns
    (ok, first_violation_index_or_None, trace).
    """
    la, lb = threshold_log(params)
    L0 = params.start_log
    if not (L0 <= la + 1e-12 or L0 <= lb + 1e-12):
        raise ValueError("J0 satisfies neither threshold alternative")
    trace = simulate(params)
    if trace.n0 is None:
        return False, 0, trace
    K, eta, d1 = params.K, params.eta, params.delta1
    log_b1 = -math.log(2.0 * K) / d1 - math.log(eta) / d1**2
    n = np.arange(len(trace.log_J))
    log_bound = np.minimum(0.0, log_b1 - n * math.log(eta) / d1)
    sel = n >= trace.n0
    bad = np.nonzero(trace.log_J[sel] > log_bound[sel] + slack)[0]
    if len(bad):
        return False, int(n[sel][bad[0]]), trace
    return True, None, trace


#: log-space floor of the sweep; a draw that reaches it has decayed for good
_LOG_CLAMP = -1e290


def _draws(size, rng_key):
    """One chunk's samples (K, eta, d1, d2), seeded by ``rng_key``."""
    rng = np.random.default_rng(rng_key)
    K = 10.0 ** rng.uniform(-2.0, 3.0, size=size)
    eta = rng.uniform(1.0 + 1e-9, 10.0, size=size)
    d = np.sort(rng.uniform(1e-6, 3.0, size=(size, 2)), axis=1)
    return K, eta, d[:, 0], d[:, 1]


def _advance(K, eta, d1, d2, alternative, n_max, margin, slack):
    """Run the equality recursion for every draw at once; returns (n0, first_bad).

    Draws are retired as soon as their answer is final (see :func:`sweep`),
    so late steps only advance the slowly decaying ones.  A retired draw
    waits at the clamp, a fixpoint, until a quarter of the arrays has
    retired and they are compacted: few distinct array sizes keep numpy's
    per-size cache of small buffers, and so peak memory, as in a loop over
    fixed chunks.
    """
    logK, logeta = np.log(K), np.log(eta)
    log_b1 = -np.log(2.0 * K) / d1 - logeta / d1**2
    if alternative == "a":
        target = np.minimum(0.0, log_b1)
    else:
        log_b2 = -np.log(2.0 * K) / d2 - logeta * (1.0 / (d1 * d2)
                                                   + (d2 - d1) / d2**2)
        target = np.minimum(log_b1, log_b2)
    L = math.log(margin) + target
    n0 = np.where(L <= 0.0, 0, -1)
    first_bad = np.full(K.size, -1)
    live = np.arange(K.size)  # draw indices still advancing
    m0 = n0.copy()  # n0 of the live draws
    e1, e2 = 1.0 + d1, 1.0 + d2
    with np.errstate(over="ignore"):
        for n in range(1, n_max + 1):
            if live.size == 0:
                break
            L = logK + (n - 1) * logeta + np.logaddexp(e1 * L, e2 * L)
            L = np.maximum(L, _LOG_CLAMP)
            viol = L > np.minimum(0.0, log_b1 - n * logeta / d1) + slack
            if m0.min() < 0:
                m0 = np.where((m0 < 0) & (L <= 0.0), n, m0)
                viol &= m0 >= 0
            if viol.any():
                first_bad[live[viol]] = n
                L[viol] = _LOG_CLAMP  # its answer is final: park it at the clamp
            stay = L > _LOG_CLAMP
            if 4 * (live.size - np.count_nonzero(stay)) < live.size:
                continue
            n0[live[~stay]] = m0[~stay]
            live, L, m0 = live[stay], L[stay], m0[stay]
            logK, logeta, d1 = logK[stay], logeta[stay], d1[stay]
            log_b1, e1, e2 = log_b1[stay], e1[stay], e2[stay]
    n0[live] = m0
    return n0, first_bad


def sweep(n_draws=1000, seed=0, alternative="a", n_max=10_000, margin=0.99,
          slack=1e-9, workers=1, chunk=250):
    """Randomized verification sweep at J0 = margin * threshold.

    K log-uniform in [1e-2, 1e3], eta uniform in (1, 10], 0 < d1 <= d2 <= 3.
    The samples are drawn in chunks of ``chunk`` seeded by (seed, index),
    then all draws advance together in log space (the thresholds underflow
    any float for small d1).  A draw is retired once its answer is final:
    once its log J sits at the -1e290 deep-decay clamp (<= 0, so its n0 is
    found), or at its first violation (its n0 is found by then; it is
    parked at the clamp).  The clamp is a fixpoint: the next step gives
    -(1+d1) 1e290 plus at most logK + n log(eta), far below it, and since
    every bound is >= -3e12 a draw there can violate nothing later.
    All draws run in one pass; ``workers`` accepts only 1 and goes with the
    benchmark's next change, which drops the one caller that passes it.
    Returns the counterexample count (expected 0) plus the largest n0 seen.
    """
    if workers != 1:
        raise ValueError("sweep runs its draws in one pass: workers must be 1")
    sizes = [min(chunk, n_draws - s) for s in range(0, n_draws, chunk)]
    chunks = [_draws(sz, [seed, idx]) for idx, sz in enumerate(sizes)]
    draws = [np.concatenate(cols) for cols in zip(*chunks or [_draws(0, seed)])]
    n0, first_bad = _advance(*draws, alternative, n_max, margin, slack)
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
