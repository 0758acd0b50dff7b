import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radial_plap import degiorgi as D


class TestThreshold:
    def test_hand_case(self):
        p = D.RecursionParams(K=1.0, eta=2.0, delta1=1.0, delta2=1.0, J0=0.25)
        thr_a, thr_b = D.threshold(p)
        assert thr_a == pytest.approx(0.25)  # min(1, (1/2)(1/2))
        assert thr_b == pytest.approx(0.25)

    def test_equal_deltas_coincide(self):
        for d in (0.3, 1.0, 2.5):
            p = D.RecursionParams(K=2.0, eta=3.0, delta1=d, delta2=d, J0=1e-6)
            thr_a, thr_b = D.threshold(p)
            b1 = (2.0 * p.K) ** (-1.0 / d) * p.eta ** (-1.0 / d**2)
            assert thr_b == pytest.approx(min(thr_a, b1))
            assert thr_a == pytest.approx(min(1.0, b1))

    def test_monotone_in_K(self):
        thr_prev = None
        for K in (1.0, 10.0, 100.0, 1e4, 1e8):
            p = D.RecursionParams(K=K, eta=2.0, delta1=0.5, delta2=1.5, J0=1e-30)
            thr_a, thr_b = D.threshold(p)
            if thr_prev is not None:
                assert thr_a <= thr_prev[0]
                assert thr_b <= thr_prev[1]
            thr_prev = (thr_a, thr_b)
        assert thr_prev[0] < 1e-4

    def test_log_form_survives_underflow(self):
        p = D.RecursionParams(K=1.0, eta=5.0, delta1=0.02, delta2=0.5,
                              J0=1.0, log_J0=0.0)
        la, lb = D.threshold_log(p)
        assert la < -3000.0  # any float threshold would read 0.0
        assert D.threshold(p)[0] == 0.0


class TestSimulate:
    def test_hand_trace_exact(self):
        p = D.RecursionParams(K=1.0, eta=2.0, delta1=1.0, delta2=1.0, J0=0.25,
                              n_max=60)
        tr = D.simulate(p)
        exact = 2.0 ** -(np.arange(len(tr.log_J)) + 2)
        assert np.array_equal(tr.J, exact)
        assert tr.n0 == 0

    def test_hand_steps(self):
        p = D.RecursionParams(K=1.0, eta=2.0, delta1=1.0, delta2=1.0, J0=0.25,
                              n_max=3)
        tr = D.simulate(p)
        assert tr.J[1] == 0.125
        assert tr.J[2] == 0.0625

    def test_small_seed_shrinks(self):
        p = D.RecursionParams(K=1.0, eta=2.0, delta1=0.7, delta2=1.3, J0=1e-12,
                              n_max=50)
        tr = D.simulate(p)
        assert np.all(np.diff(tr.log_J) < 0)

    def test_above_threshold_diverges(self):
        p = D.RecursionParams(K=1.0, eta=2.0, delta1=1.0, delta2=1.0, J0=1.0,
                              n_max=60)
        tr = D.simulate(p)
        assert tr.J[1] == 2.0  # K eta^0 (1 + 1)
        assert tr.overflowed

    def test_strictly_positive_while_finite(self):
        p = D.RecursionParams(K=0.5, eta=1.5, delta1=0.4, delta2=2.0, J0=0.01,
                              n_max=200)
        tr = D.simulate(p)
        assert np.all(tr.log_J < math.inf)
        assert np.all(np.isfinite(tr.log_J))


class TestVerifyBound:
    def test_hand_case_bound_met_with_equality(self):
        p = D.RecursionParams(K=1.0, eta=2.0, delta1=1.0, delta2=1.0, J0=0.25,
                              n_max=100)
        ok, bad, tr = D.verify_bound(p)
        assert ok and bad is None
        bound = np.minimum(1.0, 0.25 * 2.0 ** -np.arange(len(tr.log_J)))
        assert np.array_equal(tr.J, bound * np.minimum(1.0, 1.0))

    def test_precondition_enforced(self):
        p = D.RecursionParams(K=1.0, eta=2.0, delta1=1.0, delta2=1.0, J0=0.9,
                              n_max=50)
        with pytest.raises(ValueError):
            D.verify_bound(p)

    @settings(max_examples=60, deadline=None)
    @given(
        logK=st.floats(-2.0, 3.0), eta=st.floats(1.01, 10.0),
        d1=st.floats(0.05, 3.0), dgap=st.floats(0.0, 2.0),
    )
    # the plain-float track goes subnormal at n=31 here
    @example(logK=0.03125, eta=2.0, d1=0.05, dgap=0.0)
    def test_randomized_second_alternative(self, logK, eta, d1, dgap):
        d2 = min(d1 + dgap, 3.0)
        p0 = D.RecursionParams(K=10.0**logK, eta=eta, delta1=d1, delta2=d2,
                               J0=1.0, log_J0=0.0, n_max=2000)
        la, lb = D.threshold_log(p0)
        p = D.RecursionParams(K=10.0**logK, eta=eta, delta1=d1, delta2=d2,
                              J0=1.0, log_J0=math.log(0.99) + lb, n_max=2000)
        ok, bad, _ = D.verify_bound(p)
        assert ok, (logK, eta, d1, d2, bad)


def _reference_sweep(n_draws, seed, alternative, n_max, margin, slack=1e-9, chunk=250):
    """The sweep as a plain loop: every chunk of draws steps all n_max times,
    with no draw retired early."""
    details, counterexamples, max_n0, all_found = [], 0, 0, True
    for idx, start in enumerate(range(0, n_draws, chunk)):
        size = min(chunk, n_draws - start)
        rng = np.random.default_rng([seed, idx])
        K = 10.0 ** rng.uniform(-2.0, 3.0, size=size)
        eta = rng.uniform(1.0 + 1e-9, 10.0, size=size)
        d = np.sort(rng.uniform(1e-6, 3.0, size=(size, 2)), axis=1)
        d1, d2 = d[:, 0], d[:, 1]
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
        first_bad = np.full(size, -1)
        with np.errstate(over="ignore"):
            for n in range(1, n_max + 1):
                L = logK + (n - 1) * logeta + np.logaddexp((1.0 + d1) * L,
                                                           (1.0 + d2) * L)
                L = np.maximum(L, -1e290)
                n0 = np.where((n0 < 0) & (L <= 0.0), n, n0)
                bound = np.minimum(0.0, log_b1 - n * logeta / d1)
                viol = (n0 >= 0) & (L > bound + slack) & (first_bad < 0)
                first_bad = np.where(viol, n, first_bad)
        bad = np.nonzero(first_bad >= 0)[0]
        counterexamples += len(bad)
        details += [{"draw": int(i) + start, "K": float(K[i]), "eta": float(eta[i]),
                     "d1": float(d1[i]), "d2": float(d2[i]),
                     "first_violation": int(first_bad[i])} for i in bad]
        max_n0 = max(max_n0, int(np.max(n0)))
        all_found &= bool(np.all(n0 >= 0))
    return {"draws": n_draws, "alternative": alternative,
            "counterexamples": counterexamples, "details": details[:10],
            "max_n0": max_n0, "all_n0_found": all_found}


class TestSweep:
    @pytest.mark.parametrize("alternative", ["a", "b"])
    @pytest.mark.parametrize("margin, count", [(0.99, 0), (2.0, 176)])
    def test_matches_reference_loop(self, alternative, margin, count):
        kw = dict(n_draws=200, seed=3, alternative=alternative, n_max=2000, margin=margin)
        ref = _reference_sweep(**kw)
        assert ref["counterexamples"] == count
        assert D.sweep(**kw) == ref
        # chunks of 64 draw other samples and leave a short last chunk
        assert D.sweep(**kw, chunk=64) == _reference_sweep(**kw, chunk=64)

    def test_runs_in_one_pass(self):
        kw = dict(n_draws=50, seed=4, n_max=500)
        assert D.sweep(**kw, workers=1) == D.sweep(**kw)
        with pytest.raises(ValueError, match="workers"):
            D.sweep(**kw, workers=2)

    def test_both_alternatives_clean(self):
        for alt in ("a", "b"):
            out = D.sweep(300, seed=1, alternative=alt)
            assert out["counterexamples"] == 0
            assert out["all_n0_found"]

    def test_deterministic_given_seed(self):
        a = D.sweep(100, seed=9, alternative="a")
        b = D.sweep(100, seed=9, alternative="a")
        assert a == b


class TestDominance:
    def test_sub_equality_sequences_stay_below(self):
        """Any sequence satisfying the inequality with the same J0 is
        pointwise at most the equality trace."""
        rng = np.random.default_rng(7)
        for _ in range(100):
            K = 10.0 ** rng.uniform(-1, 1)
            eta = rng.uniform(1.1, 4.0)
            d = np.sort(rng.uniform(0.2, 2.0, 2))
            thr = min(1.0, (2 * K) ** (-1 / d[0]) * eta ** (-1 / d[0] ** 2))
            J0 = 0.9 * thr
            params = D.RecursionParams(K=K, eta=eta, delta1=d[0], delta2=d[1],
                                       J0=J0, n_max=50)
            tr = D.simulate(params)
            J = J0
            for n in range(50):
                J = rng.uniform(0.2, 1.0) * K * eta**n * (
                    J ** (1 + d[0]) + J ** (1 + d[1])
                )
                assert J <= tr.J[n + 1] * (1 + 1e-12)


class TestSharpnessProbe:
    def test_just_above_threshold_eventually_grows(self):
        """Recorded, not asserted as a lemma: at J0 = thr (1 + 1e-6) the
        equality trace eventually turns around and blows up."""
        p = D.RecursionParams(K=1.0, eta=2.0, delta1=1.0, delta2=1.0,
                              J0=0.25 * (1.0 + 1e-6), n_max=200)
        tr = D.simulate(p)
        growth = np.nonzero(np.diff(tr.log_J) > 0.0)[0]
        assert len(growth) > 0  # empirical failure margin exists
        assert tr.overflowed
