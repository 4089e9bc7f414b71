import gc
import math
import weakref
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from barriersmc.controllers import (
    Controller,
    ControllerState,
    FixedSign,
    KInfty,
    ObeidTwoPhase,
    SaturatedKInfty,
    TbgIntegral,
    TbgParams,
)
from barriersmc.gains import BarrierPoleError, ConcaveParams, ConvexParams, PsbParams
from barriersmc.simkernel import (
    CustomTable,
    DisturbanceSpec,
    DisturbanceBoundError,
    ExtrapolationError,
    MAX_STEPS,
    PiecewiseVII,
    SimConfig,
    SimulationDiverged,
    Sinusoid,
    Trajectory,
    n_steps,
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

    @pytest.mark.parametrize("times, values", [
        ((0.0, math.nan, 1.0), (0.0, 0.5, 0.1)),
        ((math.nan, 1.0), (0.0, 0.1)),
        ((0.0, math.inf), (0.0, 0.1)),
        ((-math.inf, 1.0), (0.0, 0.1)),
        ((0.0, 1.0), (math.nan, 0.1)),
        ((0.0, 0.5, 1.0), (0.0, -math.inf, 0.1)),
    ])
    def test_custom_table_rejects_non_finite_entries(self, times, values):
        with pytest.raises(ValueError, match="finite|increasing"):
            CustomTable(times, values)

    @pytest.mark.parametrize("args", [(1.0, math.inf), (math.nan, 1.0), (1.0, 1.0, -math.inf)])
    def test_sinusoid_rejects_non_finite_parameters(self, args):
        # a bad input, not a divergence of the run it would drive
        with pytest.raises(ValueError, match="finite"):
            Sinusoid(*args)

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

    def test_step_count_ceiling(self):
        # checked on the config alone: nothing this long is ever simulated
        assert n_steps(SimConfig(1.0, 0.01, 1e6)) == MAX_STEPS == 10**8
        with pytest.raises(ValueError, match=r"<= 1e\+08 \* h"):
            SimConfig(1.0, 0.01, 1e6 + 0.01)
        with pytest.raises(ValueError):
            SimConfig(1.0, 1e-300, 1.0)


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
        class Unstable(FixedSign):
            def control(self, st, t, s, h):
                return 2.0 * s / h  # positive feedback, overflows

        with pytest.raises(SimulationDiverged) as exc:
            simulate(Controller(Unstable(0.0)), QUIET, SimConfig(1.0, 1e-3, 2.0))
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

    def test_columns_share_no_memory(self):
        # u_applied equals u_commanded without a clamp, and d comes from a
        # column that both runs share: writing to one run's arrays must
        # touch nothing else
        cfg = SimConfig(1.0, 0.1, 1.0)
        column = VII.sample(cfg.h, n_steps(cfg))
        sampled = column.tobytes()
        a = simulate(Controller(FixedSign(0.5)), VII, cfg, column)
        want = a.u_applied.copy(), a.d.copy()
        b = simulate(Controller(FixedSign(0.5)), VII, cfg, column)
        a.u_commanded[:] = 7.0
        a.d[:] = 7.0
        assert np.array_equal(a.u_applied, want[0]) and np.array_equal(b.d, want[1])
        assert column.tobytes() == sampled

    def test_keeps_no_reference_to_its_inputs(self):
        signal = Sinusoid(0.1, 3.0)
        ref = weakref.ref(signal)
        traj = simulate(Controller(FixedSign(0.5)), DisturbanceSpec(signal, 0.1),
                        SimConfig(1.0, 0.1, 1.0))
        del signal, traj
        gc.collect()
        assert ref() is None

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


# --- simulate against a reference oracle -----------------------------------


def _reference_simulate(c, d, cfg):
    """The kernel's plain form: numpy time grid, numpy record stores and the
    disturbance sampled and bound-checked at every step. `simulate` must
    give the same bytes and raise the same errors at the same steps."""
    n = n_steps(cfg)
    t = np.arange(n + 1) * cfg.h
    s_rec = np.empty(n + 1)
    u_cmd = np.empty(n + 1)
    u_app = np.empty(n + 1)
    g_rec = np.empty(n + 1)
    d_rec = np.empty(n + 1)

    def partial(k):
        return Trajectory(t[:k], s_rec[:k].copy(), u_cmd[:k].copy(),
                          u_app[:k].copy(), g_rec[:k].copy(), d_rec[:k].copy())

    control, signal = c.control, d.signal
    s = cfg.s0
    for k in range(n + 1):
        tk = t[k]
        if not math.isfinite(s):
            raise SimulationDiverged(f"state non-finite at t = {tk:g}", tk, partial(k))
        dk = signal(tk)
        if abs(dk) > d.d_bar * (1.0 + 1e-12):
            raise DisturbanceBoundError(
                f"|d({tk:g})| = {abs(dk):g} exceeds declared d_bar = {d.d_bar:g}"
            )
        try:
            u = control(tk, s, cfg.h)
        except BarrierPoleError as exc:
            raise SimulationDiverged(
                f"controller pole at t = {tk:g}: {exc}", tk, partial(k)
            ) from exc
        if not math.isfinite(u):
            raise SimulationDiverged(f"control non-finite at t = {tk:g}", tk, partial(k))
        if cfg.u_max is not None:
            ua = min(cfg.u_max, max(-cfg.u_max, u))
        else:
            ua = u
        s_rec[k] = s
        u_cmd[k] = u
        u_app[k] = ua
        g_rec[k] = c.state.gain
        d_rec[k] = dk
        if k < n:
            s = s + cfg.h * (ua + dk)

    return Trajectory(t, s_rec, u_cmd, u_app, g_rec, d_rec)


COLUMNS = ("t", "s", "u_commanded", "u_applied", "gain", "d")


def _outcome(sim, spec, d, cfg, *column):
    """The column bytes of a run, or its error: type, message, abort time
    and the bytes of the partial record."""
    try:
        with np.errstate(over="ignore"):  # a table's numpy samples make s a numpy scalar
            traj = sim(Controller(spec), d, cfg, *column)
    except (SimulationDiverged, DisturbanceBoundError, ExtrapolationError) as exc:
        partial = getattr(exc, "trajectory", None)
        return (type(exc), str(exc), getattr(exc, "t", None),
                None if partial is None else tuple(getattr(partial, c).tobytes()
                                                   for c in COLUMNS))
    return tuple(getattr(traj, c).tobytes() for c in COLUMNS)


def assert_matches_reference(spec, d, cfg):
    want = _outcome(_reference_simulate, spec, d, cfg)
    # sampling the columns in simulate or passing them in, as sweep does
    assert _outcome(simulate, spec, d, cfg) == want
    column = d.sample(cfg.h, n_steps(cfg))
    assert _outcome(simulate, spec, d, cfg, column) == want
    if isinstance(spec, TbgIntegral):
        tbg = spec.tbg_columns(cfg.s0, cfg.h, n_steps(cfg))
        assert _outcome(simulate, spec, d, cfg, column, tbg) == want
    return want


# A rho of 1e3 and more makes the convex gain overshoot, and soon overflow.
positive = st.floats(1e-3, 10.0)
rhos = positive | st.floats(1e3, 1e300)
laws = st.one_of(st.builds(ConcaveParams, rhos, positive),
                 st.builds(ConvexParams, rhos, positive))
controllers = st.one_of(
    st.builds(KInfty, laws),
    st.builds(SaturatedKInfty, laws, positive),
    st.builds(ObeidTwoPhase, st.builds(PsbParams, positive, positive)),
    st.builds(TbgIntegral, laws, st.builds(TbgParams, positive,
                                           st.floats(min_value=1e-6, max_value=0.5))),
    st.builds(FixedSign, st.floats(min_value=0.0, max_value=5.0)),
)
zeros = st.sampled_from([0.0, -0.0])
signals = st.one_of(
    st.builds(Sinusoid, st.floats(-2.0, 2.0), st.floats(-5.0, 5.0),
              st.one_of(zeros, st.floats(-4.0, 4.0))),
    st.just(PiecewiseVII()),
    # a table that may end before t_end: ExtrapolationError at its first uncovered sample
    st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=5).flatmap(
        lambda values: st.floats(0.1, 8.0).map(lambda end: CustomTable(
            tuple(end * i / (len(values) - 1) for i in range(len(values))),
            tuple(values)))),
)


def _scalar_column(signal, h, n):
    """signal(k*h) for k = 0..n, up to the first sample that raises."""
    out = []
    for k in range(n + 1):
        try:
            out.append(signal(k * h))
        except ValueError:  # ExtrapolationError, or math.sin(inf)
            break
    return array("d", out).tobytes()


@settings(deadline=None, max_examples=300)
@given(signal=signals | st.builds(Sinusoid, st.floats(-2.0, 2.0),
                                  st.sampled_from([1e300, -1e307, 1e308]),
                                  zeros | st.floats(-1e308, 1e308)),
       h=st.sampled_from([1e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0]), n=st.integers(0, 300))
@example(Sinusoid(1.0, 2.0, -0.0), 0.1, 30)
@example(Sinusoid(-0.0, 1.0, 0.0), 0.1, 30)
@example(PiecewiseVII(), 0.5, 12)  # t == 5.0 takes the sine branch
@example(CustomTable((0.0, 0.35), (0.1, -0.1)), 0.1, 10)  # ends early
@example(CustomTable((0.0, 1.0), (0.1, -0.1)), 0.25, 4)  # the last sample on the last node
@example(CustomTable((0.1, 1.0), (0.1, -0.1)), 0.1, 4)  # starts after t = 0: no sample
@example(Sinusoid(1.0, 1e308, 0.0), 0.5, 10)  # omega*t overflows at t = 2
def test_signal_column_is_its_scalar_form(signal, h, n):
    want = _scalar_column(signal, h, n)
    assert signal.column(np.arange(n + 1) * h).tobytes() == want
    assert DisturbanceSpec(signal, 1e300).sample(h, n).tobytes() == want


@st.composite
def disturbances(draw):
    signal = draw(signals)
    peak = (max(map(abs, signal.values)) if isinstance(signal, CustomTable)
            else abs(signal.amplitude) if isinstance(signal, Sinusoid) else 0.2)
    # a table's nodes must fit d_bar; a sinusoid's d_bar may be too small
    low = 1.0 if isinstance(signal, CustomTable) else 0.5
    return DisturbanceSpec(signal, max(peak, 1e-3) * draw(st.floats(low, 1.5)))


@st.composite
def sim_configs(draw):
    h = draw(st.sampled_from([1e-3, 0.01, 0.05, 0.1, 0.25, 0.5]))
    # clamp a quarter of the runs; a clamped run's state stays finite
    u_max = draw(st.floats(0.1, 5.0)) if draw(st.integers(0, 3)) == 0 else None
    # start a quarter of the runs on the surface, where sign(+-0.0) is a signed zero
    s0 = draw(zeros) if draw(st.integers(0, 3)) == 0 else draw(st.floats(-2.0, 2.0))
    return SimConfig(s0, h, h * draw(st.integers(1, 60)), u_max)


@settings(deadline=None, max_examples=150)
@given(controllers, disturbances(), sim_configs())
def test_simulate_matches_reference(spec, d, cfg):
    assert_matches_reference(spec, d, cfg)


DIVERGING = KInfty(ConvexParams(1e100, 0.01))  # the control overflows at t = 0.3 for h = 0.1
# the descriptors that simulate runs in its fused loop
FUSED = {"kinfty_concave": KInfty(ConcaveParams(1.0, 0.01366)), "kinfty_convex": KInfty(CV),
         "saturated": SaturatedKInfty(CV, 0.5), "tbg": TbgIntegral(CV, TbgParams(0.5, 1e-5))}


@pytest.mark.parametrize("spec, d, cfg, sign", [
    (SaturatedKInfty(CV, 1.0), QUIET, SimConfig(1.0, 1.0, 3.0), 1.0),  # 1 + 1*(-1 + 0) = +0
    # -0.0 + h*(-0.0 + -0.0) stays -0.0: d = -0.0*sin(t) for t in [0, 1]
    (KInfty(CV), DisturbanceSpec(Sinusoid(-0.0, 1.0), 1e-9), SimConfig(-0.0, 0.1, 1.0), -1.0),
], ids=["+0", "-0"])
def test_relay_states_on_a_signed_zero_derive_the_reference_u(spec, d, cfg, sign):
    got = assert_matches_reference(spec, d, cfg)
    s = np.frombuffer(got[COLUMNS.index("s")])[1:]
    assert np.all(s == 0.0) and np.all(np.copysign(1.0, s) == sign)


class PoleAfterOverflow(FixedSign):
    """u = s/h doubles the state every step of a quiet plant with h = 1;
    the pole is raised only once the state is no longer finite."""

    def control(self, st, t, s, h):
        if not math.isfinite(s):
            raise BarrierPoleError("pole past the overflow")
        return s / h


class PoleAtHalfASecond(ObeidTwoPhase):
    """The two-phase relay, with a pole from t = 0.5 on: a reference-loop
    run that records several steps before its control raises."""

    def control(self, st, t, s, h):
        if t >= 0.5:
            raise BarrierPoleError("pole from t = 0.5 on")
        return super().control(st, t, s, h)


ONE = DisturbanceSpec(Sinusoid(1.0, 0.0, 0.5 * math.pi), 1.0)  # d = sin(pi/2) = 1.0


@pytest.mark.parametrize("spec, d, cfg, error", [
    (FixedSign(0.0), DisturbanceSpec(CustomTable((0.0, 0.5), (0.1, 0.1)), 0.1),
     SimConfig(1.0, 0.1, 1.0), ExtrapolationError),
    (DIVERGING, DisturbanceSpec(CustomTable((0.0, 5.0), (0.1, 0.1)), 0.1),
     SimConfig(1.0, 0.1, 10.0), SimulationDiverged),
    (FixedSign(0.0), DisturbanceSpec(Sinusoid(2.0, 1.0), 1.0),
     SimConfig(0.0, 0.1, 10.0), DisturbanceBoundError),
    (DIVERGING, DisturbanceSpec(Sinusoid(2.0, 1.0), 1.0),
     SimConfig(1.0, 0.1, 10.0), SimulationDiverged),
    (ObeidTwoPhase(PsbParams(0.1, 1.0)), DisturbanceSpec(CustomTable((0.0, 1.0), (1.5, 1.5)), 1.5),
     SimConfig(0.05, 0.1, 1.0), SimulationDiverged),
    # the state overflows on the very step whose sample the table misses
    (FixedSign(1e308), DisturbanceSpec(CustomTable((0.0, 5.0), (0.1, 0.1)), 0.1),
     SimConfig(1.0, 10.0, 20.0), SimulationDiverged),
    (KInfty(CV), VII, SimConfig(1.0, 1e-3, 2.0, u_max=1.5), None),
    *((spec, VII, SimConfig(s0, 0.1, 1.0), None)
      for spec in FUSED.values() for s0 in (0.0, -0.0)),
    (SaturatedKInfty(CV, CV.gain(1.0)), VII, SimConfig(1.0, 1e-3, 0.5), None),
    (FUSED["tbg"], VII, SimConfig(1.0, 1e-3, 1.0, u_max=0.5), None),
    (SaturatedKInfty(CV, 5.0), VII, SimConfig(1.0, 1e-3, 1.0, u_max=1.5), None),
    # kg*z stays finite at t = 2, h*kg*z does not: z = -inf, then u = nan at t = 4
    (TbgIntegral(CV, TbgParams(2.00637, 1e-4)), QUIET, SimConfig(2e306, 2.0, 6.0, u_max=1.0),
     SimulationDiverged),
    (PoleAfterOverflow(0.0), QUIET, SimConfig(1.0, 1.0, 2000.0), SimulationDiverged),
    # t_f = 0.5 = 5*h: horizons ending before t_f, at the first kg = 0.0 step and one after
    *((FUSED["tbg"], VII, SimConfig(1.0, 0.1, t_end), None) for t_end in (0.3, 0.5, 0.6)),
    # t_f < h: z and w freeze at k = 1, where kg(h) = 0.0; kg(0) = 0.0 turned z = -0.0 to +0.0
    (TbgIntegral(CV, TbgParams(0.05, 1e-5)), VII, SimConfig(-0.0, 0.1, 0.5), None),
    # s = z = e = 0.0 throughout: past t_f, u = w - 0.0 is -0.0 only by w = -0.0*z's sign
    (FUSED["tbg"], QUIET, SimConfig(0.0, 0.1, 1.0), None),
    (SaturatedKInfty(CV, 5.0), VII, SimConfig(1.0, 0.1, 3.0, u_max=1.5), None),
    # g = inf at t = 0.3 gives u = -inf, then s = nan: the |u| gain column stops before it
    (DIVERGING, QUIET, SimConfig(1.0, 0.1, 2.0), SimulationDiverged),
    # the rebuilt states start at s0 = -0.0 and add the clamped u
    (KInfty(CV), VII, SimConfig(-0.0, 0.1, 1.0, u_max=0.5), None),
    # u = s/h, clamped to 5e307 from t = 1023 on, takes s past the largest float at t = 1025
    (PoleAfterOverflow(0.0), QUIET, SimConfig(1.0, 1.0, 2000.0, u_max=5e307), SimulationDiverged),
    (PoleAtHalfASecond(PsbParams(0.1, 1.0)), VII, SimConfig(1.0, 0.1, 1.0), SimulationDiverged),
    # d = 1 outruns u_max = 0.5: |s| grows until K(|s|) = inf at t = 22.2; the clamp keeps s finite
    (KInfty(ConvexParams(1e307, 1.0)), ONE, SimConfig(1.0, 0.1, 60.0, u_max=0.5),
     SimulationDiverged),
], ids=["table_ends_early", "diverges_before_table_ends", "bound_violation",
        "diverges_before_bound_violation", "pole", "state_overflows_where_table_ends",
        "clamped", *(f"{name}_s0_{sign}0" for name in FUSED for sign in "+-"),
        "saturated_gain_on_k_max", "tbg_clamped", "saturated_clamped", "tbg_z_overflows",
        "pole_after_state_overflow", "tbg_ends_before_t_f", "tbg_ends_at_t_f",
        "tbg_ends_after_t_f", "tbg_t_f_below_h_s0_-0", "tbg_rests_on_the_surface",
        "saturated_clamped_coarse", "relay_diverges_with_infinite_gain", "clamped_s0_-0",
        "clamped_state_overflows", "reference_pole_after_steps", "clamped_infinite_gain"])
def test_simulate_matches_reference_on_edge_cases(spec, d, cfg, error):
    got = assert_matches_reference(spec, d, cfg)
    assert (got[0] if error else None) is error


class QuarterCapped(KInfty):
    """A capped relay given by its law and its cap alone."""

    cap = 0.25


def test_a_relay_variant_is_its_law_and_its_cap():
    # the relay loop reads the cap that the descriptor's own control reads
    got = assert_matches_reference(QuarterCapped(CV), VII, SimConfig(1.0, 1e-3, 1.0))
    assert np.frombuffer(got[COLUMNS.index("gain")]).max() == 0.25


def test_a_later_pole_does_not_hide_the_state_divergence():
    with pytest.raises(SimulationDiverged, match="^state non-finite at t = 1024$") as exc:
        simulate(Controller(PoleAfterOverflow(0.0)), QUIET, SimConfig(1.0, 1.0, 2000.0))
    assert exc.value.__cause__ is None and len(exc.value.trajectory) == 1024


# every variant: the fused loops and the reference loop
VARIANTS = {**FUSED, "obeid": ObeidTwoPhase(PsbParams(0.1, 1.0)), "fixed_sign": FixedSign(0.5)}


@pytest.mark.parametrize("name", VARIANTS)
def test_fused_loop_leaves_the_controller_state_alone(name):
    c = Controller(VARIANTS[name])
    simulate(c, VII, SimConfig(1.0, 1e-3, 0.5))
    assert c.state == ControllerState()


def test_one_controller_gives_the_same_run_twice():
    # obeid's adaptive gain k_a grows while it reaches: a second run that
    # started from the first run's state would start with a larger gain
    c = Controller(ObeidTwoPhase(PsbParams(0.1, 1.0)))
    runs = [simulate(c, VII, SimConfig(1.0, 1e-3, 2.0)) for _ in range(2)]
    first, second = ([getattr(r, col).tobytes() for col in COLUMNS] for r in runs)
    assert first == second
