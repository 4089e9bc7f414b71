import configparser
import itertools
import math
import os
import pickle
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from barriersmc import analysis, cli, controllers, experiment, gains, simkernel
from barriersmc.controllers import (
    FixedSign,
    KInfty,
    ObeidTwoPhase,
    SaturatedKInfty,
    TbgIntegral,
    TbgParams,
    tbg_kg,
)
from barriersmc.experiment import (
    TRAJECTORY_COLUMNS,
    ConfigError,
    Expectations,
    ExperimentSpec,
    dumps_config,
    emit_plot_data,
    load_config,
    loads_config,
    read_trajectory_csv,
    run_batch,
    run_experiment,
    sweep,
    write_trajectory_csv,
)
from barriersmc.gains import ConcaveParams, ConvexParams, PsbParams
from barriersmc.simkernel import (
    CustomTable,
    DisturbanceSpec,
    PiecewiseVII,
    SimConfig,
    Sinusoid,
    Trajectory,
)

REPO = Path(__file__).resolve().parents[1]
SEC7 = REPO / "configs" / "paper_sec7.cfg"
SEC3 = REPO / "configs" / "paper_sec3.cfg"

QUIET = DisturbanceSpec(Sinusoid(0.0, 1.0), 1e-9)


def quick_spec(name="quick", controller=None, **kw):
    return ExperimentSpec(
        name=name,
        controller=controller or FixedSign(0.0),
        disturbance=kw.get("disturbance", QUIET),
        sim=kw.get("sim", SimConfig(1.0, 1e-3, 0.1)),
        sigma_target=kw.get("sigma_target"),
        chatter_window=kw.get("chatter_window"),
        expect=kw.get("expect", Expectations()),
    )


class TestLoadConfig:
    def test_bundled_benchmark_config(self):
        specs = load_config(SEC7)
        assert [s.name for s in specs] == ["cc", "cv", "sat", "tbg"]
        cc, cv, sat, tbg = specs
        assert cc.controller == KInfty(ConcaveParams(1.0, 0.01366))
        assert cv.controller == KInfty(ConvexParams(5.0, 0.05))
        assert sat.controller == SaturatedKInfty(ConvexParams(5.0, 0.05), 5.0)
        assert tbg.controller == TbgIntegral(ConvexParams(5.0, 0.05),
                                             TbgParams(2.0, 1e-5))
        for s in specs:
            assert s.disturbance == DisturbanceSpec(PiecewiseVII(), 0.2)
            assert s.sim.s0 == 1.0 and s.sim.h == 1e-3

    def test_bundled_saturation_config(self):
        specs = load_config(SEC3)
        assert [s.name for s in specs] == ["obeid", "kinf_cc"]
        obeid, kinf = specs
        assert obeid.controller == ObeidTwoPhase(PsbParams(0.1, 2.0))
        assert kinf.controller == KInfty(ConcaveParams(5.0, 0.2033))
        for s in specs:
            assert s.disturbance == DisturbanceSpec(Sinusoid(2.0, 1.0, 0.0), 2.0)
            assert s.sim.u_max == 1.9

    def test_empty_file_is_an_error(self, tmp_path):
        p = tmp_path / "empty.cfg"
        p.write_text("")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_unknown_key_named_in_error(self):
        text = ("[x]\ncontroller = fixed_sign\nk = 1.0\n"
                "disturbance = sin_two\nd_bar = 2.0\n"
                "s0 = 1.0\nh = 0.001\nt_end = 1.0\nrho_typo = 3\n")
        with pytest.raises(ConfigError, match=r"\[x\].*rho_typo"):
            loads_config(text)

    def test_missing_required_key(self):
        text = "[x]\ncontroller = fixed_sign\nk = 1.0\ndisturbance = sin_two\n"
        with pytest.raises(ConfigError, match="d_bar"):
            loads_config(text)

    def test_bad_number_diagnosed(self):
        text = ("[x]\ncontroller = fixed_sign\nk = banana\n"
                "disturbance = sin_two\nd_bar = 2.0\n"
                "s0 = 1.0\nh = 0.001\nt_end = 1.0\n")
        with pytest.raises(ConfigError, match="'k'"):
            loads_config(text)

    def test_invalid_parameter_rejected(self):
        text = ("[x]\ncontroller = kinfty\nlaw = concave\nrho = -1\nlam = 0.1\n"
                "disturbance = sin_two\nd_bar = 2.0\n"
                "s0 = 1.0\nh = 0.001\nt_end = 1.0\n")
        with pytest.raises(ConfigError, match=r"\[x\]"):
            loads_config(text)

    def test_expectations_require_sigma_target(self):
        text = ("[x]\ncontroller = fixed_sign\nk = 1.0\n"
                "disturbance = sin_two\nd_bar = 2.0\n"
                "s0 = 1.0\nh = 0.001\nt_end = 1.0\n"
                "expect_sigma_max = 0.1\n")
        with pytest.raises(ConfigError, match="sigma_target"):
            loads_config(text)


ALL_VARIANT_SPECS = [
    quick_spec("a", KInfty(ConcaveParams(1.0, 0.01366)), sigma_target=0.5),
    quick_spec("b", SaturatedKInfty(ConvexParams(5.0, 0.05), 2.0)),
    quick_spec("c", ObeidTwoPhase(PsbParams(0.1, 2.0)),
               disturbance=DisturbanceSpec(Sinusoid(2.0, 1.0, 0.0), 2.0),
               sim=SimConfig(1.0, 1e-3, 0.1, u_max=1.9)),
    quick_spec("d", TbgIntegral(ConvexParams(5.0, 0.05), TbgParams(2.0, 1e-5)),
               chatter_window=(0.02, 0.08)),
    quick_spec("e", FixedSign(5.0),
               disturbance=DisturbanceSpec(
                   CustomTable((0.0, 0.05, 0.1), (0.1, -0.2, 0.0)), 0.2),
               sigma_target=0.5,
               expect=Expectations(sigma_max=0.5, final_inside=True)),
]


class TestConfigRoundTrip:
    def test_all_variants_round_trip_exactly(self):
        text = dumps_config(ALL_VARIANT_SPECS)
        assert loads_config(text) == ALL_VARIANT_SPECS

    def test_write_and_load_file(self, tmp_path):
        p = tmp_path / "rt.cfg"
        p.write_text(dumps_config(ALL_VARIANT_SPECS))
        assert load_config(p) == ALL_VARIANT_SPECS

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError):
            dumps_config([quick_spec("same"), quick_spec("same")])


def configparser_dicts(text):
    """The oracle: what configparser reads from config text."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string(text)
    return {name: dict(parser.items(name)) for name in parser.sections()}


# characters for comment and value text, the delimiters and blanks included
LINE_CHARS = "ab1.-e=:;#[] \t\u00e9\u2028"


@st.composite
def decorated_config(draw):
    """dumps_config output with blank and comment lines inserted, the
    blanks around each `=` changed and some values extended by `=...`."""
    specs = draw(st.lists(st.sampled_from(ALL_VARIANT_SPECS), min_size=1,
                          unique_by=lambda spec: spec.name))
    # one seed, not one draw per character: per-character draws made the
    # property take ~40 ms an example
    rnd = random.Random(draw(st.integers(0, 2 ** 32 - 1)))

    def blank():
        return rnd.choice(["", " ", "  ", "\t"])

    def text():
        return "".join(rnd.choices(LINE_CHARS, k=rnd.randrange(12)))

    lines = []
    for line in dumps_config(specs).splitlines():
        for _ in range(rnd.randrange(3)):
            lines.append(rnd.choice([blank(), blank() + rnd.choice("#;") + text()]))
        if "=" in line:
            key, _, value = line.partition(" = ")
            if rnd.random() < 0.3:
                value += "=" + text()
            line = f"{key}{blank()}={blank()}{value}{blank()}"
        lines.append(line)
    return "\n".join(lines) + rnd.choice(["", "\n", "\n\n"])


class TestReadIni:
    @pytest.mark.parametrize("path", [SEC7, SEC3], ids=["sec7", "sec3"])
    def test_bundled_configs_read_as_configparser_reads_them(self, path):
        text = path.read_text()
        assert experiment._read_ini(text, str(path)) == configparser_dicts(text)

    @settings(deadline=None, max_examples=200)
    @given(decorated_config())
    def test_reads_what_configparser_reads(self, text):
        assert experiment._read_ini(text, "gen.cfg") == configparser_dicts(text)

    @pytest.mark.parametrize("text, line, configparser_accepts", [
        ("[x]\nk = 1\nj: 2\n", 3, True),  # key: value
        ("[x]\nk = 1\n  2\n", 3, True),  # continuation line
        ("[x]\nk = 1\n[DEFAULT]\nj = 2\n", 3, True),
        ("[x] junk\nk = 1\n", 1, True),
        ("[]\nk = 1\n", 1, False),
        ("# header below\nk = 1\n[x]\n", 2, False),
        ("[x]\nk = 1\n\n[x]\nj = 2\n", 4, False),
        ("[x]\nk = 1\nj = 2\nk = 3\n", 4, False),
    ], ids=["colon", "continuation", "default", "header_junk", "empty_header",
            "key_outside_section", "duplicate_section", "duplicate_key"])
    def test_rejected_form_names_source_and_line(self, text, line, configparser_accepts):
        with pytest.raises(ConfigError, match=rf"^src\.cfg:{line}: "):
            loads_config(text, source="src.cfg")
        try:
            configparser_dicts(text)
            accepted = True
        except configparser.Error:
            accepted = False
        assert accepted == configparser_accepts


def assert_columns_bitwise_equal(a: Trajectory, b: Trajectory) -> None:
    # tobytes, not array_equal, which takes -0.0 == 0.0
    for c in TRAJECTORY_COLUMNS:
        assert getattr(a, c).tobytes() == getattr(b, c).tobytes(), c


# float64 values whose %.17g text is easy to get wrong
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               1.7976931348623157e308, -1.7976931348623157e308,
               math.inf, -math.inf, 1.0, -3.0, 2.0 ** 53, 0.1)
csv_values = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, width=64),
    st.floats(min_value=-2.2250738585072014e-308,  # subnormals: below the least normal
              max_value=2.2250738585072014e-308),
    st.integers(min_value=-2 ** 60, max_value=2 ** 60).map(float),
)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    # module scope: hypothesis reruns the test body, not the fixture
    return tmp_path_factory.mktemp("csv") / "t.csv"


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path):
        res = run_experiment(quick_spec())
        p = tmp_path / "t.csv"
        write_trajectory_csv(res.trajectory, p)
        assert_columns_bitwise_equal(read_trajectory_csv(p), res.trajectory)

    @settings(deadline=None, max_examples=100)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.just(6)),
                      elements=csv_values))
    def test_byte_format_and_bitwise_round_trip(self, csv_path, rows):
        traj = Trajectory(*rows.T)
        write_trajectory_csv(traj, csv_path)
        expected = ",".join(TRAJECTORY_COLUMNS) + "\n" + "".join(
            ",".join("%.17g" % v for v in row) + "\n" for row in rows.tolist())
        assert csv_path.read_text() == expected
        assert_columns_bitwise_equal(read_trajectory_csv(csv_path), traj)

    def test_rejects_foreign_csv(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError):
            read_trajectory_csv(p)


class TestRunBatch:
    def test_outputs_and_idempotence(self, tmp_path):
        specs = [quick_spec("one"), quick_spec("two", FixedSign(1.0))]
        out = tmp_path / "out"
        run_batch(specs, out)
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(first) == {"one.csv", "two.csv", "summary.csv"}
        run_batch(specs, out)
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_expectation_failure_recorded(self, tmp_path):
        spec = quick_spec("strict", FixedSign(0.0), sigma_target=0.5,
                          expect=Expectations(sigma_max=1e-6))
        summary = run_batch([spec], tmp_path)
        assert summary.any_failed
        row = summary.results[0]
        assert not row.passed
        assert any("expect_sigma_max" in f for f in row.failures)

    def test_summary_matches_rederivation_from_csv(self, tmp_path):
        specs = load_config(SEC3)
        out = tmp_path / "out"
        summary = run_batch(specs, out)
        for spec, res in zip(specs, summary.results):
            traj = read_trajectory_csv(out / f"{spec.name}.csv")
            rep = analysis.convergence_time(traj, spec.sigma_target)
            assert rep.t_conv == (res.report.t_conv if res.report else None)
            assert rep.sigma_measured == pytest.approx(res.report.sigma_measured)

    def test_zero_gain_zero_disturbance_constant_column(self, tmp_path):
        out = tmp_path / "out"
        run_batch([quick_spec("still")], out)
        traj = read_trajectory_csv(out / "still.csv")
        assert np.all(traj.s == 1.0)


class TestSweep:
    def base(self):
        return [s for s in load_config(SEC7) if s.name == "sat"][0]

    def test_benchmark_point_feasible(self):
        rows = sweep(self.base(), [(5.0, 0.05)], 3.1e-3, 10.0)
        assert len(rows) == 1
        assert rows[0].feasible
        assert rows[0].bound <= 3.1e-3
        assert rows[0].peak_u <= 10.0

    def test_zero_target_infeasible(self):
        rows = sweep(self.base(), [(5.0, 0.05)], 0.0, 10.0)
        assert not rows[0].feasible

    def test_bound_decreasing_in_rho(self):
        rows = sweep(self.base(), [(1.0, 0.05), (5.0, 0.05), (25.0, 0.05)],
                     3.1e-3, 1e6)
        by_rho = {r.rho: r.bound for r in rows}
        assert by_rho[1.0] > by_rho[5.0] > by_rho[25.0]

    def test_feasible_ranked_first_by_time(self):
        rows = sweep(self.base(), [(1.0, 0.05), (5.0, 0.05), (25.0, 0.05)],
                     3.1e-3, 1e6)
        feas = [r.feasible for r in rows]
        assert feas == sorted(feas, reverse=True)
        times = [math.inf if r.t_conv is None else r.t_conv
                 for r in rows if r.feasible]
        assert times == sorted(times)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            sweep(self.base(), [], 1e-3, 10.0)

    def test_tbg_columns_are_built_once_per_base(self, monkeypatch):
        calls = []

        def counting_kg(t, p):
            calls.append(t)
            return tbg_kg(t, p)

        monkeypatch.setattr(controllers, "tbg_kg", counting_kg)
        base = [s for s in load_config(SEC7) if s.name == "tbg"][0]
        grid = [(rho, lam) for rho in (1.0, 2.0, 5.0) for lam in (0.03, 0.05, 0.1)]
        assert len(sweep(base, grid, 3.52e-3, 10.0)) == 9
        # k*h for k = 0..2000: t_f = 2 s at h = 1 ms, then z and w are frozen
        assert 0 < len(calls) <= 2001


class TestEmitPlotData:
    def _batch(self, tmp_path):
        specs = load_config(SEC3)
        specs = [ExperimentSpec(s.name, s.controller, s.disturbance,
                                SimConfig(s.sim.s0, s.sim.h, 0.5, s.sim.u_max))
                 for s in specs]
        out = tmp_path / "out"
        run_batch(specs, out)
        return out

    def test_escape_overlay_columns(self, tmp_path):
        out = self._batch(tmp_path)
        fig = tmp_path / "fig.csv"
        emit_plot_data([out / "obeid.csv", out / "kinf_cc.csv"], "escape", fig)
        header = fig.read_text().splitlines()[0].split(",")
        assert header == ["t", "s_kinf_cc", "s_obeid", "u_kinf_cc", "u_obeid", "d"]

    def test_single_experiment_single_column(self, tmp_path):
        out = self._batch(tmp_path)
        fig = tmp_path / "fig.csv"
        emit_plot_data([out / "obeid.csv"], "sliding", fig)
        header = fig.read_text().splitlines()[0].split(",")
        assert header == ["t", "s_obeid"]

    def test_mismatched_grid_rejected(self, tmp_path):
        out = self._batch(tmp_path)
        short = run_experiment(quick_spec("short"))
        write_trajectory_csv(short.trajectory, tmp_path / "short.csv")
        with pytest.raises(ConfigError, match="grid"):
            emit_plot_data([out / "obeid.csv", tmp_path / "short.csv"],
                           "sliding", tmp_path / "fig.csv")

    def test_unknown_figure(self, tmp_path):
        out = self._batch(tmp_path)
        with pytest.raises(ConfigError):
            emit_plot_data([out / "obeid.csv"], "hologram", tmp_path / "f.csv")


class TestForkMap:
    """`_fork_map` against the serial loop it stands for. The `cpus`
    fixture sets the affinity mask, so these fork on any host."""

    MIN = experiment._FORK_MIN_SAMPLES

    @pytest.mark.parametrize("ncpu", [1, 2, 3])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_equals_the_list_comprehension(self, n, ncpu, cpus, forks):
        cpus(ncpu)
        items = [i + 0.5 for i in range(n)]
        got = experiment._fork_map(lambda x: (x, os.getpid()), items, n * self.MIN)
        assert [x for x, _ in got] == items
        assert len(forks) == min(n, ncpu) - 1
        # contiguous shares: this process's first, then each child's in fork order
        assert [pid for pid, _ in itertools.groupby(p for _, p in got)] == [os.getpid(), *forks]

    def test_serial_below_the_minimum_share(self, cpus, forks):
        cpus(2)
        assert experiment._fork_map(abs, [-1, -2, -3], 2 * self.MIN - 1) == [1, 2, 3]
        assert forks == []

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_serial_without_the_platform_calls(self, monkeypatch, cpus, forks, missing):
        cpus(2)
        monkeypatch.delattr(os, missing)
        assert experiment._fork_map(abs, [-1, -2], 2 * self.MIN) == [1, 2]
        assert forks == []

    @pytest.mark.parametrize("bad, first", [
        ({1, 3, 5}, 1),  # this process's share
        ({3, 5}, 3),  # the first child's
        ({5}, 5),  # the last child's
        ({2, 3}, 2),  # the first child's first item
    ])
    def test_the_first_error_in_item_order_wins(self, cpus, forks, bad, first):
        cpus(3)  # shares [0, 2), [2, 4), [4, 6)

        def fn(x):
            if x in bad:
                raise ValueError(f"item {x}")
            return x

        with pytest.raises(ValueError, match=f"^item {first}$"):
            experiment._fork_map(fn, range(6), 6 * self.MIN)
        assert len(forks) == 2

    def test_a_child_that_ends_without_a_result_raises(self, cpus, forks):
        cpus(2)
        parent = os.getpid()

        def fn(x):
            if os.getpid() != parent:
                os._exit(1)
            return x

        with pytest.raises(RuntimeError, match="ended without a result"):
            experiment._fork_map(fn, range(4), 4 * self.MIN)
        assert len(forks) == 1


def _exception_classes():
    modules = (analysis, cli, controllers, experiment, gains, simkernel)
    return sorted({cls for mod in modules for cls in vars(mod).values()
                   if isinstance(cls, type) and issubclass(cls, BaseException)
                   and cls.__module__.startswith("barriersmc.")}, key=lambda c: c.__name__)


@pytest.mark.parametrize("cls", _exception_classes(), ids=lambda c: c.__name__)
def test_every_exception_survives_pickle(cls):
    # a forked share returns its error pickled
    if cls is simkernel.SimulationDiverged:
        traj = run_experiment(quick_spec()).trajectory
        exc = cls("control non-finite at t = 0.5", 0.5, traj)
    else:
        exc = cls("message")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls and str(back) == str(exc)
    assert vars(back).keys() == vars(exc).keys()
    for name, value in vars(exc).items():
        if isinstance(value, Trajectory):
            for column in TRAJECTORY_COLUMNS:
                assert getattr(vars(back)[name], column).tobytes() == \
                    getattr(value, column).tobytes()
        else:
            assert vars(back)[name] == value


def test_exception_classes_found():
    assert {c.__name__ for c in _exception_classes()} >= {
        "ConfigError", "SimulationDiverged", "DisturbanceBoundError", "BarrierPoleError"}
