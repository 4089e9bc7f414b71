import math
from array import array
from dataclasses import fields

import pytest
from hypothesis import example, given, settings, strategies as st

from barriersmc.controllers import (
    Controller,
    FixedSign,
    KInfty,
    ObeidTwoPhase,
    SaturatedKInfty,
    TbgIntegral,
    TbgParams,
    sign,
    tbg_kg,
    tbg_z_closed_form,
    tbg_zeta,
    tbg_zeta_dot,
)
from barriersmc.gains import (
    BarrierPoleError,
    ConcaveParams,
    ConvexParams,
    PsbParams,
)

CV = ConvexParams(5.0, 0.05)
CC = ConcaveParams(1.0, 0.01366)
TBG = TbgParams(2.0, 1e-5)
H = 1e-3


def test_sign_convention():
    assert sign(3.2) == 1.0
    assert sign(-0.001) == -1.0
    assert sign(0.0) == 0.0


class TestTbgSchedule:
    def test_zeta_endpoints(self):
        assert tbg_zeta(0.0, 2.0) == 0.0
        assert tbg_zeta(2.0, 2.0) == 1.0
        assert tbg_zeta(7.5, 2.0) == 1.0
        assert tbg_zeta(1.0, 2.0) == pytest.approx(0.5)

    def test_zeta_dot(self):
        assert tbg_zeta_dot(0.0, 2.0) == 0.0
        assert tbg_zeta_dot(2.0, 2.0) == 0.0
        assert tbg_zeta_dot(5.0, 2.0) == 0.0
        assert tbg_zeta_dot(1.0, 2.0) == pytest.approx(math.pi / 4.0)

    def test_kg(self):
        assert tbg_kg(0.0, TBG) == 0.0
        assert tbg_kg(2.0, TBG) == 0.0
        assert tbg_kg(1.0, TBG) == pytest.approx((math.pi / 4.0) / (0.5 + 1e-5))

    @given(st.floats(min_value=1e-3, max_value=10.0),
           st.floats(min_value=1e-6, max_value=0.5, exclude_max=True),
           st.floats(min_value=0.0, max_value=1e300))
    def test_kg_is_positive_zero_from_t_f_on(self, t_f, delta, past):
        # tbg_columns freezes z and w from t_f on, where kg is +0.0 and stays +0.0
        p = TbgParams(t_f, delta)
        for t in (t_f, math.nextafter(t_f, math.inf), t_f + past):
            assert math.copysign(1.0, tbg_kg(t, p)) == 1.0 and tbg_kg(t, p) == 0.0

    @given(st.floats(min_value=0.0, max_value=20.0))
    def test_kg_finite_and_nonnegative(self, t):
        v = tbg_kg(t, TBG)
        assert math.isfinite(v) and v >= 0.0

    def test_z_closed_form(self):
        assert tbg_z_closed_form(0.0, 1.0, TBG) == pytest.approx(1.0)
        assert tbg_z_closed_form(2.0, 1.0, TBG) == pytest.approx(1e-5 / (1 + 1e-5))
        assert tbg_z_closed_form(2.0, -3.0, TBG) == pytest.approx(-3e-5 / (1 + 1e-5))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            TbgParams(0.0, 1e-5)
        with pytest.raises(ValueError):
            TbgParams(2.0, 0.0)
        with pytest.raises(ValueError):
            TbgParams(2.0, 1.5)


class TestKInfty:
    def test_relay_value(self):
        c = Controller(KInfty(CV))
        # K(lambda2) = rho2, sign(-0.05) = -1
        assert c.control(0.0, -0.05, H) == pytest.approx(5.0)

    def test_zero_on_surface(self):
        c = Controller(KInfty(CV))
        assert c.control(0.0, 0.0, H) == 0.0

    def test_rejects_legacy_law(self):
        with pytest.raises(ValueError):
            KInfty(PsbParams(0.1, 2.0))


def test_the_cap_is_no_field():
    # so configs, equality and `replace` see only the law and k_max
    assert [f.name for f in fields(SaturatedKInfty)] == ["law", "k_max"]
    assert [f.name for f in fields(TbgIntegral)] == ["law", "tbg"]
    assert SaturatedKInfty(CV, 2.0).cap == 2.0
    assert KInfty(CV).cap == TbgIntegral(CV, TBG).cap == math.inf


class TestSaturatedKInfty:
    def test_cap(self):
        c = Controller(SaturatedKInfty(CV, 2.0))
        u = c.control(0.0, 10.0, H)  # unsaturated gain way above 2
        assert u == -2.0
        assert c.state.gain == 2.0

    @given(st.floats(min_value=-100.0, max_value=100.0))
    def test_bounded_by_k_max(self, s):
        c = Controller(SaturatedKInfty(CV, 3.0))
        assert abs(c.control(0.0, s, H)) <= 3.0


class TestObeidTwoPhase:
    def test_reaching_integration(self):
        c = Controller(ObeidTwoPhase(PsbParams(0.1, 2.0)))
        c.control(0.0, 1.0, H)
        assert c.state.t_bar is None  # still reaching
        assert c.state.k_a == pytest.approx(0.002)

    def test_gain_nondecreasing_while_reaching(self):
        c = Controller(ObeidTwoPhase(PsbParams(0.1, 2.0)))
        prev = -1.0
        for k in range(100):
            c.control(k * H, 1.0 - 1e-4 * k, H)
            assert c.state.k_a >= prev
            prev = c.state.k_a

    def test_switch_is_permanent_and_timestamped(self):
        c = Controller(ObeidTwoPhase(PsbParams(0.1, 2.0)))
        c.control(0.0, 1.0, H)
        assert c.state.t_bar is None
        c.control(H, 0.04, H)  # first sample with |s| <= epsilon/2
        assert c.state.t_bar == H
        c.control(2 * H, 0.5, H)  # back outside: no phase flip back
        assert c.state.t_bar == H

    def test_barrier_gain_and_pole(self):
        c = Controller(ObeidTwoPhase(PsbParams(0.1, 2.0)))
        c.control(0.0, 0.05, H)  # switches immediately, K_psb(0.05) = 1
        assert c.state.gain == pytest.approx(1.0)
        with pytest.raises(BarrierPoleError):
            c.control(H, 0.1, H)


class TestTbgIntegral:
    def test_initial_control_is_zero(self):
        c = Controller(TbgIntegral(CV, TBG))
        assert c.control(0.0, 1.0, H) == 0.0

    def test_euler_z_tracks_closed_form(self):
        c = Controller(TbgIntegral(CV, TBG))
        s0 = 1.0
        # drive the controller open-loop; z evolves independently of s
        for k in range(10001):
            c.control(k * H, s0 if k == 0 else 0.0, H)
            t_next = (k + 1) * H
            ref = tbg_z_closed_form(min(t_next, 10.0), s0, TBG)
            assert abs(c.state.z - ref) <= 10.0 * H * abs(s0)

    def test_z_lands_near_delta_fraction(self):
        c = Controller(TbgIntegral(CV, TBG))
        for k in range(2001):
            c.control(k * H, 1.0 if k == 0 else 0.0, H)
        assert abs(c.state.z - 1e-5 / (1 + 1e-5)) <= 1e-3


# t_f as a multiple of h: below h, on the time grid, or off it
t_f_steps = st.one_of(st.floats(0.01, 0.99), st.integers(1, 70).map(float),
                      st.tuples(st.integers(1, 70), st.floats(0.01, 0.99)).map(sum))


@settings(deadline=None, max_examples=300)
@given(s0=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0)),
       h=st.sampled_from([1e-3, 0.01, 0.1, 0.5]), n=st.integers(1, 60), t_f_h=t_f_steps,
       delta=st.floats(1e-6, 0.5))
# z_2 = -inf, so w_2 = -0.0 * -inf is a NaN whose sign bit the operation order sets
@example(s0=2e306, h=2.0, n=2, t_f_h=1.003185, delta=1e-4)
def test_tbg_columns_are_the_z_and_feedforward_that_control_steps(s0, h, n, t_f_h, delta):
    p = TbgParams(t_f_h * h, delta)
    z, w = TbgIntegral(CV, p).tbg_columns(s0, h, n)
    c = Controller(TbgIntegral(CV, p))
    want = []
    for k in range(n + 1):
        want.append(s0 if k == 0 else c.state.z)  # the z that step k reads
        c.control(k * h, s0, h)
    assert z.tobytes() == array("d", want).tobytes()
    assert w.tobytes() == array("d", [-tbg_kg(k * h, p) * zk for k, zk in enumerate(z)]).tobytes()


controller_specs = st.one_of(
    st.just(KInfty(CV)),
    st.just(KInfty(CC)),
    st.builds(SaturatedKInfty, st.just(CV),
              st.floats(min_value=0.5, max_value=10.0)),
    st.builds(FixedSign, st.floats(min_value=0.0, max_value=10.0)),
)


@given(controller_specs, st.floats(min_value=-1e3, max_value=1e3))
def test_sign_opposition(spec, s):
    u = Controller(spec).control(0.0, s, H)
    assert u * s <= 0.0


def test_controller_rejects_garbage():
    with pytest.raises(TypeError):
        Controller(CV)
