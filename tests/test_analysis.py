import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from barriersmc import analysis, experiment
from barriersmc.analysis import (
    REACH_INTERVALS,
    convergence_time,
    reach_time_bound,
    total_variation,
)
from barriersmc.controllers import Controller, FixedSign, KInfty, SaturatedKInfty
from barriersmc.gains import ConcaveParams, ConvexParams
from barriersmc.simkernel import DisturbanceSpec, SimConfig, Sinusoid, Trajectory, simulate

CV = ConvexParams(5.0, 0.05)
CC = ConcaveParams(1.0, 0.01366)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SEC7 = {s.name: s for s in experiment.load_config(CONFIGS / "paper_sec7.cfg")}
SEC3 = {s.name: s for s in experiment.load_config(CONFIGS / "paper_sec3.cfg")}


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


def spec_bound(spec):
    return reach_time_bound(spec.controller, spec.disturbance.d_bar, spec.sim, spec.sigma_target)


class TestReachTimeBound:
    def test_zero_inside_the_band(self):
        for s0 in (0.0, 0.002, -0.003):
            assert reach_time_bound(KInfty(CV), 0.2, SimConfig(s0, 1e-3, 1.0), 0.003) == 0.0

    def test_inf_where_the_applied_gain_cannot_beat_the_disturbance(self):
        # sec3 clamps |u| at u_max = 1.9 under d_bar = 2
        assert spec_bound(SEC3["kinf_cc"]) == math.inf
        sim = SimConfig(1.0, 1e-3, 1.0)
        for k_max in (0.1, 0.2):
            assert reach_time_bound(SaturatedKInfty(CV, k_max), 0.2, sim, 0.01) == math.inf

    @pytest.mark.parametrize("controller", [SEC7["tbg"].controller, SEC3["obeid"].controller,
                                            FixedSign(5.0)], ids=["tbg", "obeid", "fixed_sign"])
    def test_other_descriptors_are_rejected(self, controller):
        with pytest.raises(ValueError, match=type(controller).__name__):
            reach_time_bound(controller, 0.2, SimConfig(1.0, 1e-3, 1.0), 0.01)

    @pytest.mark.parametrize("sigma", [0.0, -0.01, math.nan])
    def test_sigma_must_be_positive(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            reach_time_bound(KInfty(CV), 0.2, SimConfig(1.0, 1e-3, 1.0), sigma)

    def test_sign_of_s0_irrelevant(self):
        c = SaturatedKInfty(CV, 5.0)
        up, down = SimConfig(1.0, 1e-3, 1.0), SimConfig(-1.0, 1e-3, 1.0)
        assert reach_time_bound(c, 0.2, up, 0.01) == reach_time_bound(c, 0.2, down, 0.01)

    @pytest.mark.parametrize("controller, u_max", [(SaturatedKInfty(CV, 5.0), None),
                                                   (KInfty(CV), 5.0)], ids=["k_max", "u_max"])
    def test_on_a_capped_stretch_the_bound_is_the_linear_descent(self, controller, u_max):
        # K(0.1) > 5 = K(0.05): from 0.1 up the applied gain is the cap alone
        sim = SimConfig(1.0, 0.01, 1.0, u_max)
        expected = (1.0 - 0.1) / (5.0 - 0.2) + 0.01
        assert reach_time_bound(controller, 0.2, sim, 0.1) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("name", ["cc", "cv", "sat"])
    def test_at_least_the_integral(self, name):
        spec = SEC7[name]
        c, d_bar, sigma = spec.controller, spec.disturbance.d_bar, spec.sigma_target
        x = np.geomspace(sigma, abs(spec.sim.s0), 16 * REACH_INTERVALS + 1)
        mid = [min(c.law.gain(v), c.cap) - d_bar for v in ((x[1:] + x[:-1]) / 2).tolist()]
        integral = float(np.sum(np.diff(x) / mid))
        assert spec_bound(spec) >= integral + spec.sim.h

    @settings(deadline=None, max_examples=200)
    @given(law=st.one_of(st.builds(ConcaveParams, st.floats(1e-2, 1e2), st.floats(1e-2, 1e2)),
                         st.builds(ConvexParams, st.floats(1e-2, 1e2), st.floats(1e-2, 1e2))),
           d_bar=st.floats(0.1, 5.0),
           k_max=st.one_of(st.none(), st.floats(1.1, 10.0)),
           u_max=st.one_of(st.none(), st.floats(1.1, 10.0)),
           band=st.floats(1.2, 4.0), reach=st.floats(1.0, 20.0),
           sign=st.sampled_from([-1.0, 1.0]),
           step=st.floats(0.05, 3.0), amplitude=st.floats(0.0, 1.0), omega=st.floats(0.0, 50.0),
           phase=st.floats(0.0, 2 * math.pi))
    def test_first_entry_comes_by_the_bound(self, law, d_bar, k_max, u_max, band, reach, sign,
                                            step, amplitude, omega, phase):
        # k_max and u_max are multiples of d_bar, and sigma of K^{-1}(d_bar): the bound is
        # finite. h is a multiple of sigma over the largest |ds/dt|, so most runs keep
        # the sign of s until they enter the band; those that do not are discarded.
        sigma = band * law.inverse(d_bar)
        controller = KInfty(law) if k_max is None else SaturatedKInfty(law, k_max * d_bar)
        u_max = None if u_max is None else u_max * d_bar
        s0 = sign * reach * sigma
        h = step * sigma / (min(law.gain(abs(s0)), controller.cap, u_max or math.inf) + d_bar)
        bound = reach_time_bound(controller, d_bar, SimConfig(s0, h, h, u_max), sigma)
        n = math.floor(bound / h) + 2  # steps to just past the bound
        assume(n <= 20_000)  # a short run
        d = DisturbanceSpec(Sinusoid(amplitude * d_bar, omega, phase), d_bar)
        traj = simulate(Controller(controller), d, SimConfig(s0, h, n * h, u_max))
        inside = np.flatnonzero(np.abs(traj.s) <= sigma)
        first = int(inside[0]) if inside.size else len(traj)
        assume(np.all(np.sign(traj.s[:first]) == sign))
        # a relative 1e-9 for float rounding: the bound is tight for an s0 just outside
        # the band, which enters at t = h, and where d opposes s at d_bar on a capped stretch
        assert inside.size and traj.t[first] <= bound * (1 + 1e-9)


def test_intersection_premise_of_benchmark_laws():
    # the two tuned laws cross at ~the shared band radius, where both equal
    # the disturbance bound
    sigma_c = CV.inverse(0.2)
    assert CC.gain(sigma_c) == pytest.approx(CV.gain(sigma_c), rel=1e-2)


def test_default_chatter_window_is_final_fifth():
    traj = make_traj(np.zeros(101), h=0.1)
    assert analysis.default_chatter_window(traj) == (8.0, 10.0)
