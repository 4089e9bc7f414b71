import math

import pytest
from hypothesis import example, given, strategies as st

from barriersmc.gains import (
    BarrierPoleError,
    ConcaveParams,
    ConvexParams,
    GainRangeError,
    PsbParams,
    UltimateBound,
    UnsupportedVariantError,
    eval_gain,
    ultimate_bound,
)

CC = ConcaveParams(1.0, 0.01366)
CV = ConvexParams(5.0, 0.05)


def bisect_inverse(f, k, lo=0.0, hi=1.0):
    """Independent oracle: solve f(x) = k by pure bisection."""
    while f(hi) < k:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < k:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestConcave:
    def test_zero_at_zero(self):
        assert CC.gain(0.0) == 0.0

    def test_unit_at_scaled_e(self):
        p = ConcaveParams(3.7, 0.2)
        assert p.gain(p.lambda1 * (math.e - 1.0)) == pytest.approx(p.rho1)

    def test_benchmark_band_gain(self):
        # tuned so the gain meets the 0.2 disturbance bound at |s| ~ 3.02e-3
        assert CC.gain(3.02e-3) == pytest.approx(0.2, rel=1e-2)

    def test_inverse_closed_form(self):
        assert CC.inverse(0.2) == pytest.approx(3.02e-3, rel=1e-2)
        assert CC.inverse(0.0) == 0.0

    def test_inverse_against_bisection(self):
        p = ConcaveParams(5.0, 0.2033)
        oracle = bisect_inverse(p.gain, 2.0)
        got = p.inverse(2.0)
        assert got == pytest.approx(oracle, rel=1e-10)
        assert got == pytest.approx(0.1, rel=1e-3)

    def test_inverse_overflow_guard(self):
        with pytest.raises(GainRangeError):
            ConcaveParams(1.0, 1.0).inverse(800.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ConcaveParams(0.0, 1.0)
        with pytest.raises(ValueError):
            ConcaveParams(1.0, -2.0)
        with pytest.raises(ValueError):
            ConcaveParams(math.nan, 1.0)


class TestConvex:
    def test_zero_at_zero(self):
        assert CV.gain(0.0) == 0.0

    def test_rho_at_lambda(self):
        # atan(1) = pi/4 makes the arctan ratio exactly one
        assert CV.gain(CV.lambda2) == pytest.approx(CV.rho2)

    def test_benchmark_band_gain(self):
        assert CV.gain(3.02e-3) == pytest.approx(0.2, rel=1e-2)

    def test_inverse_closed_form(self):
        assert CV.inverse(0.2) == pytest.approx(3.02e-3, rel=1e-2)
        assert CV.inverse(0.0) == 0.0

    def test_inverse_against_bisection(self):
        oracle = bisect_inverse(CV.gain, 1.3)
        assert CV.inverse(1.3) == pytest.approx(oracle, rel=1e-10)

    def test_round_trip_at_fixed_point(self):
        x = 1.7
        assert CV.inverse(CV.gain(x)) == pytest.approx(x, abs=1e-9)

    def test_finite_for_large_k(self):
        assert math.isfinite(CV.inverse(1e12))

    def test_unbounded_where_the_ratio_overflows(self):
        # |s|/lambda2 overflows to inf; 1/inf = 0 must not divide by zero
        assert ConvexParams(5e-4, 1e-4).gain(1e305) == math.inf
        assert ConvexParams(5e-4, 1e-4).gain(math.inf) == math.inf


class TestPsb:
    P = PsbParams(0.1, 2.0)

    def test_halfway(self):
        assert self.P.gain(0.05) == pytest.approx(1.0)

    def test_zero(self):
        assert self.P.gain(0.0) == 0.0

    def test_negative_past_pole(self):
        # the literal formula flips sign beyond the pole; required behavior
        assert self.P.gain(0.2) == pytest.approx(-2.0)

    def test_pole_raises(self):
        with pytest.raises(BarrierPoleError):
            self.P.gain(0.1)

    def test_sign_change_exactly_at_epsilon(self):
        eps = self.P.epsilon
        below = math.nextafter(eps, 0.0)
        above = math.nextafter(eps, math.inf)
        assert self.P.gain(below) > 0
        assert self.P.gain(above) < 0


class TestUltimateBound:
    def test_benchmark_values(self):
        assert ultimate_bound(CC, 0.2).sigma == pytest.approx(3.02e-3, rel=1e-2)
        assert ultimate_bound(CV, 0.2).sigma == pytest.approx(3.02e-3, rel=1e-2)

    def test_vanishes_with_bound(self):
        assert ultimate_bound(CC, 1e-12).sigma == pytest.approx(0.0, abs=1e-12)

    def test_unsupported_variants(self):
        with pytest.raises(UnsupportedVariantError):
            ultimate_bound(PsbParams(0.1, 2.0), 0.2)

    def test_rejects_nonpositive_d_bar(self):
        with pytest.raises(ValueError):
            ultimate_bound(CC, 0.0)

    def test_record_invariants(self):
        with pytest.raises(ValueError):
            UltimateBound(-1.0)
        with pytest.raises(ValueError):
            UltimateBound(math.inf)


def test_eval_gain_dispatch():
    assert eval_gain(PsbParams(0.1, 2.0), 0.05) == PsbParams(0.1, 2.0).gain(0.05)
    assert eval_gain(CC, 0.0) == 0.0
    with pytest.raises(UnsupportedVariantError):
        eval_gain("nope", 1.0)


# --- law-level properties --------------------------------------------------

positive = st.floats(min_value=1e-2, max_value=1e2)
law_params = st.one_of(
    st.builds(ConcaveParams, positive, positive),
    st.builds(ConvexParams, positive, positive),
)


@given(law_params, st.floats(min_value=0.0, max_value=1e3),
       st.floats(min_value=1e-6, max_value=1e3))
def test_strict_monotonicity(law, a, delta):
    assert eval_gain(law, a + delta) > eval_gain(law, a)


@pytest.mark.parametrize("law", [CC, CV])
def test_round_trip_log_spaced(law):
    from barriersmc.gains import gain_inverse
    for i in range(1000):
        x = 10.0 ** (-6.0 + 9.0 * i / 999.0)
        back = gain_inverse(law, eval_gain(law, x))
        assert abs(back - x) <= 1e-9 * (1.0 + x)


def test_second_difference_signs_on_grid():
    import numpy as np
    for x in np.geomspace(0.01, 100.0, 200):
        h = x / 100.0
        d2_cc = CC.gain(x - h) + CC.gain(x + h) - 2 * CC.gain(x)
        d2_cv = CV.gain(x - h) + CV.gain(x + h) - 2 * CV.gain(x)
        assert d2_cc <= 1e-12 * (1.0 + abs(CC.gain(x)))
        assert d2_cv >= -1e-12 * (1.0 + abs(CV.gain(x)))


@pytest.mark.parametrize("law", [CC, CV])
def test_radially_unbounded(law):
    assert eval_gain(law, 1e6) > eval_gain(law, 1e3)


# simulate's relay and TBG loops catch nothing: they call a class-Kinf gain
# on |s| (a NaN included) and count on a float back, whatever the parameters
@given(st.sampled_from([ConcaveParams, ConvexParams]),
       st.floats(min_value=5e-324, allow_infinity=False),
       st.floats(min_value=5e-324, allow_infinity=False),
       st.floats(min_value=0.0, allow_infinity=True) | st.just(math.nan))
@example(ConvexParams, 1.0, 1.0, math.inf)
def test_kinf_gain_raises_on_no_magnitude(law, rho, lam, abs_s):
    assert isinstance(law(rho, lam).gain(abs_s), float)
