import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from barriersmc import analysis
from barriersmc.analysis import (
    AssumptionViolatedError,
    convergence_time,
    sat_time_bound,
    total_variation,
)
from barriersmc.gains import (
    ConcaveParams,
    ConvexParams,
    PsbParams,
    UnsupportedVariantError,
)
from barriersmc.simkernel import Trajectory

CV = ConvexParams(5.0, 0.05)
CC = ConcaveParams(1.0, 0.01366)


def make_traj(s, u=None, gain=None, h=0.1):
    s = np.asarray(s, dtype=float)
    n = len(s)
    zeros = np.zeros(n)
    u = zeros if u is None else np.asarray(u, dtype=float)
    gain = zeros if gain is None else np.asarray(gain, dtype=float)
    return Trajectory(np.arange(n) * h, s, u, u, gain, zeros)


class TestConvergenceTime:
    def test_constant_zero(self):
        rep = convergence_time(make_traj([0.0] * 5), 0.1)
        assert rep.t_conv == 0.0
        assert rep.sigma_measured == 0.0
        assert rep.escapes == ()

    def test_suffix_entry(self):
        rep = convergence_time(make_traj([1.0, 0.5, 0.05, 0.2, 0.05, 0.01]), 0.1)
        assert rep.t_conv == pytest.approx(0.4)
        assert rep.sigma_measured == pytest.approx(0.05)
        assert rep.escapes == ((pytest.approx(0.3), pytest.approx(0.4)),)

    def test_no_convergence_with_open_escape(self):
        rep = convergence_time(make_traj([1.0, 0.05, 0.3, 0.04, 0.5, 0.6]), 0.1)
        assert rep.t_conv is None
        assert len(rep.escapes) == 2
        assert rep.escapes[0] == (pytest.approx(0.2), pytest.approx(0.3))
        assert rep.escapes[1] == (pytest.approx(0.4), None)
        assert rep.sigma_measured == pytest.approx(0.6)

    def test_never_entered(self):
        rep = convergence_time(make_traj([1.0, 2.0, 3.0]), 0.1)
        assert rep.t_conv is None
        assert rep.escapes == ()
        assert rep.sigma_measured == 3.0

    def test_negative_band_rejected(self):
        with pytest.raises(ValueError):
            convergence_time(make_traj([0.0]), 0.0)

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=2,
                    max_size=50),
           st.floats(min_value=0.01, max_value=1.0),
           st.floats(min_value=1.01, max_value=3.0))
    def test_monotone_in_sigma(self, samples, sigma, factor):
        traj = make_traj(samples)
        small = convergence_time(traj, sigma)
        large = convergence_time(traj, sigma * factor)
        if small.t_conv is not None:
            assert large.t_conv is not None
            assert large.t_conv <= small.t_conv

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1,
                    max_size=50),
           st.floats(min_value=0.01, max_value=1.0))
    def test_escapes_alternate_and_only_the_last_can_stay_open(self, samples, sigma):
        rep = convergence_time(make_traj(samples), sigma)
        times = [t for escape in rep.escapes for t in escape if t is not None]
        assert times == sorted(set(times))
        open_ = [reentry is None for _, reentry in rep.escapes]
        assert not any(open_[:-1])
        assert (rep.t_conv is None) == (any(open_) or rep.sigma_measured > sigma)
        if rep.t_conv is not None and rep.escapes:
            assert rep.escapes[-1][1] == rep.t_conv

    def test_measured_within_target_when_converged(self):
        rep = convergence_time(make_traj([1.0, 0.08, 0.09]), 0.1)
        assert rep.t_conv is not None
        assert rep.sigma_measured <= rep.sigma_target


class TestTotalVariation:
    def test_constant(self):
        traj = make_traj([0.0] * 10, u=[1.0] * 10)
        assert total_variation(traj, (0.0, 0.9)) == 0.0

    def test_triangle(self):
        traj = make_traj([0.0] * 3, u=[0.0, 1.0, 0.0])
        assert total_variation(traj, (0.0, 0.2)) == 2.0

    def test_additive_over_adjacent_windows(self):
        rng = np.random.default_rng(7)
        u = rng.normal(size=101)
        traj = make_traj(np.zeros(101), u=u)
        whole = total_variation(traj, (0.0, 10.0))
        left = total_variation(traj, (0.0, 5.0))
        right = total_variation(traj, (5.0, 10.0))
        assert whole == pytest.approx(left + right, rel=1e-12)

    def test_bad_windows(self):
        traj = make_traj([0.0] * 10)
        with pytest.raises(ValueError):
            total_variation(traj, (0.5, 0.5))
        with pytest.raises(ValueError):
            total_variation(traj, (0.0, 99.0))


class TestSatTimeBound:
    def test_already_converged(self):
        sigma1 = CV.inverse(0.2)
        assert sat_time_bound(sigma1, CV, 5.0, 0.2) == 0.0

    def test_inside_cap_region_reduces(self):
        # |s0| below K^{-1}(k_max): no capped descent leg
        sigma1 = CV.inverse(0.2)
        s0 = 0.03
        s_star = sigma1 + 0.5 * (s0 - sigma1)
        expected = (s0 - sigma1) / (CV.gain(s_star) - 0.2)
        assert sat_time_bound(s0, CV, 5.0, 0.2) == pytest.approx(expected)

    def test_assumption_violated(self):
        with pytest.raises(AssumptionViolatedError):
            sat_time_bound(1.0, CV, 0.1, 0.2)

    def test_needs_class_kinf_law(self):
        with pytest.raises(UnsupportedVariantError):
            sat_time_bound(1.0, PsbParams(0.1, 2.0), 5.0, 0.2)

    def test_sign_of_s0_irrelevant(self):
        assert sat_time_bound(-1.0, CV, 5.0, 0.2) == sat_time_bound(1.0, CV, 5.0, 0.2)


def test_intersection_premise_of_benchmark_laws():
    # the two tuned laws cross at ~the shared band radius, where both equal
    # the disturbance bound
    sigma_c = CV.inverse(0.2)
    assert CC.gain(sigma_c) == pytest.approx(CV.gain(sigma_c), rel=1e-2)


def test_default_chatter_window_is_final_fifth():
    traj = make_traj(np.zeros(101), h=0.1)
    assert analysis.default_chatter_window(traj) == (8.0, 10.0)
