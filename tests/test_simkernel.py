import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from barriersmc.controllers import Controller, FixedSign, KInfty, ObeidTwoPhase
from barriersmc.gains import BarrierPoleError, ConvexParams, PsbParams
from barriersmc.simkernel import (
    CustomTable,
    DisturbanceSpec,
    DisturbanceBoundError,
    ExtrapolationError,
    PiecewiseVII,
    SimConfig,
    SimulationDiverged,
    Sinusoid,
    Trajectory,
    simulate,
)

CV = ConvexParams(5.0, 0.05)
QUIET = DisturbanceSpec(Sinusoid(0.0, 1.0), 1e-9)
VII = DisturbanceSpec(PiecewiseVII(), 0.2)


class TestDisturbances:
    def test_piecewise_branches(self):
        assert VII.signal(0.0) == 0.0
        # the first branch is inclusive at the boundary
        assert VII.signal(5.0) == pytest.approx(0.1 * math.sin(15.0))
        assert VII.signal(5.0 + 1e-9) == pytest.approx(0.2 * math.cos(25.0))

    def test_sin_two(self):
        # the config alias sin_two is this sinusoid, bit-identical to 2*sin(t)
        d = DisturbanceSpec(Sinusoid(2.0, 1.0, 0.0), 2.0)
        assert d.signal(math.pi / 2.0) == pytest.approx(2.0)
        for t in np.arange(0, 20001) * 1e-3:
            assert d.signal(t) == 2.0 * math.sin(t)

    def test_sinusoid_phase(self):
        d = DisturbanceSpec(Sinusoid(3.0, 2.0, math.pi / 2.0), 3.0)
        assert d.signal(0.0) == pytest.approx(3.0)

    def test_custom_table_interpolates(self):
        d = DisturbanceSpec(CustomTable((0.0, 1.0, 2.0), (0.0, 2.0, 2.0)), 2.0)
        assert d.signal(0.5) == pytest.approx(1.0)
        assert d.signal(2.0) == pytest.approx(2.0)

    def test_rejects_a_non_signal(self):
        with pytest.raises(TypeError):
            DisturbanceSpec(lambda t: 0.0, 1.0)

    def test_custom_table_rejects_extrapolation(self):
        d = DisturbanceSpec(CustomTable((0.0, 1.0), (0.0, 1.0)), 1.0)
        with pytest.raises(ExtrapolationError):
            d.signal(1.5)

    def test_custom_table_validation(self):
        with pytest.raises(ValueError):
            CustomTable((0.0, 0.0), (1.0, 2.0))
        with pytest.raises(ValueError):
            CustomTable((0.0,), (1.0,))

    def test_d_bar_positive(self):
        with pytest.raises(ValueError):
            DisturbanceSpec(Sinusoid(2.0, 1.0), 0.0)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            SimConfig(1.0, 1e-3, 1e-4)
        with pytest.raises(ValueError):
            SimConfig(1.0, 1e-3, 1.0, u_max=-1.0)


class TestSimulate:
    def test_free_plant_holds_state(self):
        traj = simulate(Controller(FixedSign(0.0)), QUIET, SimConfig(1.0, 1e-3, 1.0))
        assert len(traj) == 1001
        assert np.all(traj.s == 1.0)
        assert traj.t[0] == 0.0
        assert traj.t[-1] == pytest.approx(1.0)

    def test_unit_relay_descends_linearly(self):
        traj = simulate(Controller(FixedSign(1.0)), QUIET, SimConfig(1.0, 1e-3, 0.01))
        assert np.allclose(np.diff(traj.s), -1e-3)

    def test_benchmark_band_entry(self):
        traj = simulate(Controller(KInfty(CV)), VII, SimConfig(1.0, 1e-3, 10.0))
        band = 3.02e-3 + 5e-4
        tail = np.abs(traj.s[traj.t >= 1.0])
        assert tail.max() <= band

    def test_determinism(self):
        cfg = SimConfig(1.0, 1e-3, 2.0)
        a = simulate(Controller(KInfty(CV)), VII, cfg)
        b = simulate(Controller(KInfty(CV)), VII, cfg)
        for name in ("t", "s", "u_commanded", "u_applied", "gain", "d"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_actuator_clamp_exact(self):
        cfg = SimConfig(1.0, 1e-3, 1.0, u_max=1.5)
        traj = simulate(Controller(KInfty(CV)), VII, cfg)
        assert np.abs(traj.u_applied).max() <= 1.5
        # commanded gain is recorded pre-clamp
        assert np.abs(traj.u_commanded).max() > 1.5

    def test_halving_step_keeps_measured_bound(self):
        from barriersmc.analysis import convergence_time
        band = 3.52e-3
        s1 = convergence_time(
            simulate(Controller(KInfty(CV)), VII, SimConfig(1.0, 1e-3, 10.0)), band
        ).sigma_measured
        s2 = convergence_time(
            simulate(Controller(KInfty(CV)), VII, SimConfig(1.0, 5e-4, 10.0)), band
        ).sigma_measured
        assert abs(s2 - s1) < 0.5 * s1

    def test_divergence_carries_partial_trajectory(self):
        class Unstable(Controller):
            def __init__(self):
                super().__init__(FixedSign(0.0))

            def control(self, t, s, h):
                return 2.0 * s / h  # positive feedback, overflows

        with pytest.raises(SimulationDiverged) as exc:
            simulate(Unstable(), QUIET, SimConfig(1.0, 1e-3, 2.0))
        partial = exc.value.trajectory
        assert isinstance(partial, Trajectory)
        assert 0 < len(partial) < 2001
        assert exc.value.t == pytest.approx(partial.t[-1] + 1e-3)

    def test_pole_error_becomes_divergence(self):
        # s0 = epsilon/2 switches the two-phase controller immediately; the
        # constant disturbance then lands the next sample exactly on the pole
        ctrl = Controller(ObeidTwoPhase(PsbParams(0.1, 1.0)))
        d = DisturbanceSpec(CustomTable((0.0, 1.0), (1.5, 1.5)), 1.5)
        with pytest.raises(SimulationDiverged) as exc:
            simulate(ctrl, d, SimConfig(0.05, 0.1, 1.0))
        assert isinstance(exc.value.__cause__, BarrierPoleError)
        assert len(exc.value.trajectory) == 1

    def test_disturbance_bound_enforced(self):
        d = DisturbanceSpec(Sinusoid(2.0, 1.0), 1.0)  # declared bound too small
        with pytest.raises(DisturbanceBoundError):
            simulate(Controller(FixedSign(0.0)), d, SimConfig(0.0, 1e-3, 10.0))


@settings(deadline=None, max_examples=100)
@given(
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=0.1, max_value=2.0),
    st.floats(min_value=0.0, max_value=5.0),
)
def test_one_step_bound(s0, d_bar, k):
    d = DisturbanceSpec(Sinusoid(d_bar, 3.0), d_bar)
    cfg = SimConfig(s0, 1e-3, 0.05)
    traj = simulate(Controller(FixedSign(k)), d, cfg)
    step = np.abs(np.diff(traj.s))
    limit = cfg.h * (np.abs(traj.u_applied[:-1]) + d_bar)
    assert np.all(step <= limit + 1e-12)
