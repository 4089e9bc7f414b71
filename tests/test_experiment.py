import configparser
import dataclasses
import hashlib
import itertools
import math
import os
import pickle
import random
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from barriersmc import analysis, cli, controllers, experiment, fieldtext, gains, simkernel
from barriersmc.controllers import (
    FixedSign,
    KInfty,
    ObeidTwoPhase,
    SaturatedKInfty,
    TbgIntegral,
    TbgParams,
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
    n_steps,
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

    @pytest.mark.parametrize("name, eol", [("c\rc", "\n"), ("c", "\r\n")],
                             ids=["carriage_return_in_a_name", "crlf_lines"])
    def test_a_file_reads_as_its_text(self, tmp_path, name, eol):
        # a line ends at "\n" alone; a "\r" before it is a blank that the reader strips
        text = dumps_config([quick_spec(name)]).replace("\n", eol)
        p = tmp_path / "x.cfg"
        p.write_text(text, newline="")
        assert load_config(p) == loads_config(text) == [quick_spec(name)]

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


PINNED = ("[x]\ncontroller = kinfty\nlaw = convex\nrho = 5.0\nlam = 0.05\n"
          "disturbance = custom\ntable_t = 0.0, 1.0\ntable_d = 0.0, 0.1\nd_bar = 0.2\n"
          "s0 = 1.0\nh = 0.001\nt_end = 1.0\n")


# case: (a text of PINNED, what replaces it, the whole ConfigError message)
CONFIG_MESSAGES = {
    "missing_required": ("d_bar = 0.2\n", "", "[x] missing required key 'd_bar'"),
    "missing_selector": ("controller = kinfty\n", "",
                         "[x] missing required key 'controller'"),
    "empty_required": ("h = 0.001", "h = ", "[x] key 'h': not a number: ''"),
    # an empty optional value is not an absent key
    "empty_optional": ("t_end = 1.0\n", "t_end = 1.0\nu_max = \n",
                       "[x] key 'u_max': not a number: ''"),
    "not_a_number": ("rho = 5.0", "rho = banana", "[x] key 'rho': not a number: 'banana'"),
    "inf": ("s0 = 1.0", "s0 = inf", "[x] key 's0': must be finite, got 'inf'"),
    "nan": ("lam = 0.05", "lam = nan", "[x] key 'lam': must be finite, got 'nan'"),
    "bad_bool": ("t_end = 1.0\n",
                 "t_end = 1.0\nsigma_target = 0.1\nexpect_final_inside = yes\n",
                 "[x] key 'expect_final_inside': expected true/false, got 'yes'"),
    "bad_list_entry": ("table_t = 0.0, 1.0", "table_t = 0.0, one",
                       "[x] key 'table_t': not a number: 'one'"),
    "non_finite_list_entry": ("table_d = 0.0, 0.1", "table_d = 0.0 , 1e999",
                              "[x] key 'table_d': must be finite, got '1e999'"),
    "unknown_controller": ("controller = kinfty", "controller = warp",
                           "[x] unknown controller 'warp' (expected one of "
                           "['fixed_sign', 'kinfty', 'obeid', 'saturated', 'tbg'])"),
    "unknown_law": ("law = convex", "law = linear",
                    "[x] unknown law 'linear' (expected one of ['concave', 'convex'])"),
    "unknown_disturbance": ("disturbance = custom", "disturbance = noise",
                            "[x] unknown disturbance 'noise' (expected one of "
                            "['custom', 'piecewise_vii', 'sin_two', 'sinusoid'])"),
    "unknown_keys": ("t_end = 1.0\n", "t_end = 1.0\nzeta = 1\nrho_typo = 3\n",
                     "[x] unknown keys: rho_typo, zeta"),
}


@pytest.mark.parametrize("case", CONFIG_MESSAGES)
def test_config_reader_message(case):
    old, new, message = CONFIG_MESSAGES[case]
    assert PINNED.count(old) == 1
    with pytest.raises(ConfigError) as info:
        loads_config(PINNED.replace(old, new))
    assert str(info.value) == message


class TestConfigRoundTrip:
    def test_all_variants_round_trip_exactly(self):
        text = dumps_config(ALL_VARIANT_SPECS)
        assert loads_config(text) == ALL_VARIANT_SPECS

    def test_write_and_load_file(self, tmp_path):
        p = tmp_path / "rt.cfg"
        p.write_text(dumps_config(ALL_VARIANT_SPECS))
        assert load_config(p) == ALL_VARIANT_SPECS

    def test_table_entries_whose_sum_overflows_round_trip(self):
        # each time is finite, but their sum is not: the reader's slow path reads them
        table = CustomTable((0.0, 1e308, 1.7e308), (0.0, 0.0, 0.0))
        specs = [quick_spec(disturbance=DisturbanceSpec(table, 1.0))]
        assert loads_config(dumps_config(specs)) == specs

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


@pytest.mark.parametrize("name, shown", [("c\rc", "c\\rc"), ("a\nb", "a\\nb")],
                         ids=["carriage_return", "newline"])
def test_a_line_break_cannot_name_an_output_file(name, shown):
    # it would split the name's row of summary.csv and its column of a figure's
    # header; the config reader splits lines at "\n" alone, so "[c\rc]" reads back
    specs = [quick_spec(name)]
    if "\n" not in name:
        specs = loads_config(dumps_config(specs))
    with pytest.raises(ConfigError) as err:
        experiment.check_output_names(specs)
    assert str(err.value).startswith(f"[{shown}] cannot name an output file: ")


def assert_cannot_name_an_output_file(specs, shown, tmp_path):
    """`check_output_names` and `run_batch` reject the name, shown as
    `shown`, in a one-line ConfigError, and nothing is written."""
    out = tmp_path / "out"
    for check in (experiment.check_output_names, lambda s: run_batch(s, out)):
        with pytest.raises(ConfigError) as err:
            check(specs)
        assert str(err.value).startswith(f"[{shown}] cannot name an output file: ")
        assert len(str(err.value).splitlines()) == 1
    assert list(tmp_path.iterdir()) == []  # nothing written


def test_a_name_the_file_system_cannot_encode_cannot_name_an_output_file(tmp_path):
    # a lone surrogate reaches a name through `loads_config`, and no file name holds it
    specs = loads_config(dumps_config([quick_spec("a\ud800")]))
    assert_cannot_name_an_output_file(specs, "a\\ud800", tmp_path)


def test_the_empty_name_cannot_name_an_output_file(tmp_path):
    # only a library caller reaches it: the config reader rejects the header []
    assert_cannot_name_an_output_file([quick_spec("")], "", tmp_path)


def _table(start, span, values):
    return CustomTable(tuple(start + span * (i / (len(values) - 1)) for i in range(len(values))),
                       tuple(values))


@settings(deadline=None, max_examples=300)
@given(signal=st.one_of(
           st.builds(Sinusoid, st.floats(-2.0, 2.0),
                     st.floats(-1e308, 1e308) | st.sampled_from([1e300, -1e307, 1e308]),
                     st.floats(-4.0, 4.0) | st.floats(-1e308, 1e308)),
           st.just(PiecewiseVII()),
           # tables that may start after t = 0 or end before the last sample
           st.builds(_table, st.sampled_from([0.0, 1e-3, 0.3]), st.floats(0.01, 8e307),
                     st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=4))),
       h=st.sampled_from([1e-3, 0.1, 0.5, 1e306, 1e307, 3e307]), steps=st.integers(1, 20))
# 5 * t overflows past t = 3.6e307: the column holds 4 of the 11 samples
@example(signal=PiecewiseVII(), h=1e307, steps=10)
def test_a_spec_is_rejected_exactly_when_its_disturbance_misses_a_sample(signal, h, steps):
    assume(math.isfinite(steps * h))
    sim = SimConfig(1.0, h, steps * h)
    d = DisturbanceSpec(signal, 2.0)
    n = n_steps(sim)
    try:
        quick_spec(disturbance=d, sim=sim)
    except ValueError:
        rejected = True
    else:
        rejected = False
    assert rejected == (len(d.sample(h, n)) < n + 1)


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
        assert write_trajectory_csv(traj, csv_path) == hashlib.sha256(
            csv_path.read_bytes()).digest()
        expected = ",".join(TRAJECTORY_COLUMNS) + "\n" + "".join(
            ",".join("%.17g" % v for v in row) + "\n" for row in rows.tolist())
        assert csv_path.read_text() == expected
        assert_columns_bitwise_equal(read_trajectory_csv(csv_path), traj)

    # any 64-bit pattern, so every NaN payload and subnormal too
    @given(st.floats() | st.integers(0, 2 ** 64 - 1).map(
        lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]))
    @example(0.0)
    @example(-0.0)
    def test_every_double_fills_one_field(self, x):
        text = "%.17g" % x
        field = fieldtext.FIELD_FMT % x
        assert len(text) <= fieldtext.WIDTH and len(field) == fieldtext.WIDTH
        assert " " not in field.rstrip(" ") and field.rstrip(" ") == text

    # the longest %.17g texts of a double, 24 bytes, and -0.0
    WIDEST = (-2.2250738585072014e-308, -4.9406564584124654e-324,
              -1.7976931348623157e+308, -0.0)

    @pytest.mark.parametrize("rows", [1, 2 * experiment._CHUNK_ROWS + 500],
                             ids=["one_row", "partial_last_chunk"])
    def test_rows_are_the_row_template_rows(self, tmp_path, row_template_csv, rows):
        bits = np.random.default_rng(rows).integers(0, 2 ** 64, (6, rows), np.uint64,
                                                    endpoint=False)
        cols = bits.view(np.float64)  # every kind of double, NaN included
        cols[:4, 0] = cols[:4, -1] = self.WIDEST
        cols[4:, -1] = self.WIDEST[:2]  # a last row of widest values only
        traj, expected = Trajectory(*cols), tmp_path / "expected.csv"
        row_template_csv(expected, TRAJECTORY_COLUMNS, cols)
        p = tmp_path / "t.csv"
        digest = write_trajectory_csv(traj, p)
        assert p.read_bytes() == expected.read_bytes()
        assert digest == hashlib.sha256(p.read_bytes()).digest()
        for k in (1, 3):  # figures have other column counts
            row_template_csv(expected, TRAJECTORY_COLUMNS[:k], cols[:k])
            assert b"".join(experiment._csv_bytes(
                TRAJECTORY_COLUMNS[:k], experiment._texts(list(cols[:k])))) == (
                    expected.read_bytes())

    @staticmethod
    def _write(path, rows):
        path.write_text("\n".join([",".join(TRAJECTORY_COLUMNS), *rows]) + "\n", newline="")

    # str.splitlines ends a line at each of these characters; a line ends at "\n" alone
    @pytest.mark.parametrize("char", ["\x0c", "\x85", "\u2028", "\r"],
                             ids=["form_feed", "next_line", "line_separator", "carriage_return"])
    def test_a_line_break_character_within_a_field_is_not_a_number(self, tmp_path, char):
        p = tmp_path / "t.csv"
        self._write(p, ["0,1,2,3,4,5", f"0,1{char}1,2,3,4,5", "0,1,2,3,4,5"])
        with pytest.raises(ConfigError) as err:
            read_trajectory_csv(p)
        assert str(err.value) == f"{p}: line 3: s is not a number: {'1' + char + '1'!r}"

    @pytest.mark.parametrize("char", ["\x0c", "\x85", "\u2028"],
                             ids=["form_feed", "next_line", "line_separator"])
    def test_a_blank_at_the_edge_of_a_field_ends_no_line(self, tmp_path, char):
        # np.loadtxt strips it from the field, as it strips a space
        rows, p = ["0,1,2,3,4,5"] * 4, tmp_path / "t.csv"
        self._write(p, [rows[0] + char, *rows[1:]])
        assert_columns_bitwise_equal(read_trajectory_csv(p), Trajectory(*np.array(
            [[0.0, 1, 2, 3, 4, 5]] * 4).T))
        self._write(p, [rows[0] + char, *rows[1:3], "0,x,2,3,4,5"])
        with pytest.raises(ConfigError) as err:
            read_trajectory_csv(p)
        assert str(err.value) == f"{p}: line 5: s is not a number: 'x'"

    def test_crlf_lines_read_as_lf_lines(self, tmp_path):
        res = run_experiment(quick_spec())
        p = tmp_path / "t.csv"
        write_trajectory_csv(res.trajectory, p)
        p.write_bytes(p.read_bytes().replace(b"\n", b"\r\n"))
        assert_columns_bitwise_equal(read_trajectory_csv(p), res.trajectory)

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
        (row,) = run_batch([spec], tmp_path)
        assert row.error is None and row.failures
        assert any("expect_sigma_max" in f for f in row.failures)

    def test_summary_matches_rederivation_from_csv(self, tmp_path):
        specs = load_config(SEC3)
        out = tmp_path / "out"
        results = run_batch(specs, out)
        for spec, res in zip(specs, results):
            traj = read_trajectory_csv(out / f"{spec.name}.csv")
            rep = analysis.convergence_time(traj, spec.sigma_target)
            assert rep.t_conv == (res.report.t_conv if res.report else None)
            assert rep.sigma_measured == pytest.approx(res.report.sigma_measured)

    def test_a_divergence_at_the_first_sample_writes_no_csv(self, tmp_path):
        # the convex gain overflows at |s0| = 1: u is non-finite at t = 0
        spec = quick_spec("x", KInfty(ConvexParams(1e300, 1e-300)))
        (result,) = run_batch([spec], tmp_path)
        assert result.error == "control non-finite at t = 0"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["summary.csv"]

    def test_zero_gain_zero_disturbance_constant_column(self, tmp_path):
        out = tmp_path / "out"
        run_batch([quick_spec("still")], out)
        traj = read_trajectory_csv(out / "still.csv")
        assert np.all(traj.s == 1.0)

    def test_columns_that_differ_only_in_the_sign_of_zero_keep_their_text(self, tmp_path):
        # equal as numbers, so a column key by value would give both d columns one text
        def zeros(v):
            return DisturbanceSpec(CustomTable((0.0, 1.0), (v, v)), 1.0)

        specs = [quick_spec(name, disturbance=zeros(v), sim=SimConfig(1.0, 0.1, 1.0))
                 for name, v in (("plus", 0.0), ("minus", -0.0))]
        results = run_batch(specs, tmp_path)
        plus, minus = (r.trajectory.d for r in results)
        assert np.array_equal(plus, minus) and plus.tobytes() != minus.tobytes()
        for r in results:
            parsed = read_trajectory_csv(tmp_path / f"{r.spec.name}.csv")
            assert_columns_bitwise_equal(parsed, r.trajectory)

    def test_the_text_record_holds_the_last_batch_only(self, tmp_path):
        def digests(out, names):
            return {hashlib.sha256((out / f"{n}.csv").read_bytes()).digest() for n in names}

        def text_ids(record):  # the text objects of a record's chunks
            return {id(part) for columns in record.values() for col in columns.values()
                    for part in col}

        out = tmp_path / "a"
        run_batch([quick_spec("one"), quick_spec("two", FixedSign(1.0))], out)
        # one entry per written file, keyed by its bytes, holding its figure columns
        assert set(experiment._WRITTEN) == digests(out, ("one", "two"))
        assert all(tuple(columns) == experiment.FIGURE_COLUMNS
                   for columns in experiment._WRITTEN.values())
        record = dict(experiment._WRITTEN)
        # a file the batch did not write, charted first, beside its files:
        # its columns are formatted for the figure, and nothing is recorded
        fresh = run_experiment(quick_spec("fresh", FixedSign(2.0))).trajectory
        write_trajectory_csv(fresh, out / "fresh.csv")
        emit_plot_data([out / "one.csv", out / "two.csv", out / "fresh.csv"], "escape",
                       tmp_path / "fig.csv")
        assert (tmp_path / "fig.csv").read_text().splitlines()[0] == \
            "t,s_fresh,s_one,s_two,u_fresh,u_one,u_two,d"
        assert experiment._WRITTEN.keys() == record.keys()
        assert all(experiment._WRITTEN[k] is columns for k, columns in record.items())
        run_batch([quick_spec("four", sim=SimConfig(0.5, 1e-3, 0.2))], tmp_path / "b")
        assert set(experiment._WRITTEN) == digests(tmp_path / "b", ("four",))
        # `record` keeps the first batch's text alive, so no id is reused
        assert not text_ids(experiment._WRITTEN) & text_ids(record)


# FixedSign(1) from s0 = 1 with h = 0.25 and no disturbance steps s through
# 1, 0.75, 0.5, 0.25 and then rests at 0: it settles into the band 0.5 at
# t = 0.5 with sigma_measured = 0.5 and a gain of 1, and 1 s later the
# settle pad ends. FixedSign(0) never moves; under a constant d = 1, s
# leaves the band at t = 0.5 for good.
RISE = DisturbanceSpec(CustomTable((0.0, 10.0), (1.0, 1.0)), 1.0)


def _expecting(k, t_end=5.0, s0=1.0, disturbance=QUIET, **expect):
    return quick_spec("x", FixedSign(k), disturbance=disturbance,
                      sim=SimConfig(s0, 0.25, t_end), sigma_target=0.5,
                      expect=Expectations(**expect))


@pytest.mark.parametrize("spec, failure", [
    pytest.param(_expecting(0.0, t_conv_max=1.0), "expect_t_conv_max: no convergence",
                 id="t_conv_max-missing"),
    pytest.param(_expecting(1.0, t_conv_max=0.25), "expect_t_conv_max: 0.5 > 0.25",
                 id="t_conv_max-exceeded"),
    pytest.param(_expecting(1.0, t_conv_max=0.5), None, id="t_conv_max-at_the_limit"),
    pytest.param(_expecting(0.0, sigma_max=1.0), "expect_sigma_max: no convergence",
                 id="sigma_max-missing"),
    pytest.param(_expecting(1.0, sigma_max=0.25), "expect_sigma_max: 0.5 > 0.25",
                 id="sigma_max-exceeded"),
    pytest.param(_expecting(1.0, sigma_max=0.5), None, id="sigma_max-at_the_limit"),
    pytest.param(_expecting(1.0, t_end=1.0, gain_max_post=1.0),
                 "expect_gain_max_post: no post-convergence window",
                 id="gain_max_post-missing"),
    pytest.param(_expecting(1.0, gain_max_post=0.5), "expect_gain_max_post: 1 > 0.5",
                 id="gain_max_post-exceeded"),
    pytest.param(_expecting(1.0, gain_max_post=1.0), None, id="gain_max_post-at_the_limit"),
    pytest.param(_expecting(0.0, final_inside=True), "expect_final_inside: final |s| = 1",
                 id="final_inside-outside"),
    pytest.param(_expecting(1.0, final_inside=False), "expect_final_inside: final |s| = 0",
                 id="final_inside-inside"),
    pytest.param(_expecting(0.0, s0=0.25, disturbance=RISE, escapes_all_reenter=True),
                 "expect_escapes_all_reenter: open escape found",
                 id="escapes_all_reenter-open"),
    pytest.param(_expecting(1.0, no_reentry_after_last_escape=True),
                 "expect_no_reentry_after_last_escape: no terminal escape",
                 id="no_reentry_after_last_escape-converged"),
    pytest.param(_expecting(0.0, no_reentry_after_last_escape=True),
                 "expect_no_reentry_after_last_escape: no terminal escape",
                 id="no_reentry_after_last_escape-never_entered"),
    pytest.param(_expecting(0.0, s0=0.25, disturbance=RISE,
                            no_reentry_after_last_escape=True), None,
                 id="no_reentry_after_last_escape-open"),
])
def test_expectation_message(tmp_path, spec, failure):
    assert run_experiment(spec).failures == (() if failure is None else (failure,))
    run_batch([spec], tmp_path)
    row = (tmp_path / "summary.csv").read_text().splitlines()[1].split(",")
    assert row[-2:] == (["pass", ""] if failure is None else ["fail", failure])


class TestSweep:
    def base(self):
        return [s for s in load_config(SEC7) if s.name == "sat"][0]

    def test_benchmark_point_feasible(self):
        rows = sweep(self.base(), [(5.0, 0.05)], 3.1e-3, 10.0)
        assert len(rows) == 1
        assert rows[0].feasible
        assert rows[0].bound <= 3.1e-3
        assert rows[0].peak_u <= 10.0

    @pytest.mark.parametrize("forked", [True, False], ids=["two_cpus", "one_process"])
    def test_a_diverging_point_is_a_row(self, monkeypatch, cpus, forks, forked):
        # h*rho*pi/(2*lam) ~ 3.9 > 2 at (25, 0.01): the explicit Euler step grows |s|
        cpus(2)
        if not forked:
            monkeypatch.setattr(experiment, "_FORK_MIN_STEPS", 10 ** 18)
        cv = [s for s in load_config(SEC7) if s.name == "cv"][0]
        rows = sweep(cv, [(25.0, 0.01), (5.0, 0.05)], 3.52e-3, 10.0)
        assert len(forks) == forked
        bound = gains.ultimate_bound(ConvexParams(25.0, 0.01), cv.disturbance.d_bar).sigma
        assert rows == [sweep(cv, [(5.0, 0.05)], 3.52e-3, 10.0)[0],
                        experiment.SweepRow(25.0, 0.01, bound, math.inf, None, False,
                                            "control non-finite at t = 0.654")]
        assert rows[0].error is None

    @pytest.mark.parametrize("ncpu", [1, 2])
    def test_a_disturbance_over_d_bar_is_a_row(self, cpus, forks, ncpu):
        # piecewise_vii reaches |d| = 0.19837 at t = 5.001, over a declared 0.15
        cpus(ncpu)
        cc = [s for s in load_config(SEC7) if s.name == "cc"][0]
        cc = dataclasses.replace(cc, disturbance=DisturbanceSpec(PiecewiseVII(), 0.15))
        rows = sweep(cc, [(1.0, 0.01366), (2.0, 0.01366)], 3.52e-3, 10.0)
        assert len(forks) == ncpu - 1
        error = "|d(5.001)| = 0.19837 exceeds declared d_bar = 0.15"
        assert [(r.rho, r.peak_u, r.t_conv, r.feasible, r.error) for r in rows] == \
            [(1.0, math.inf, None, False, error), (2.0, math.inf, None, False, error)]

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

    def test_tbg_columns_are_built_once_per_base(self, monkeypatch, cpus):
        # and the disturbance sampled once: a point that sampled it again
        # would give the same bytes, only slower
        cpus(1)  # every grid point in this process, where the calls are counted
        calls, samples = [], []
        tbg_columns, sample = TbgIntegral.tbg_columns, DisturbanceSpec.sample

        def counting_columns(spec, s0, h, n):
            calls.append((s0, h, n))
            return tbg_columns(spec, s0, h, n)

        def counting_sample(spec, h, n):
            samples.append((h, n))
            return sample(spec, h, n)

        monkeypatch.setattr(TbgIntegral, "tbg_columns", counting_columns)
        monkeypatch.setattr(DisturbanceSpec, "sample", counting_sample)
        base = [s for s in load_config(SEC7) if s.name == "tbg"][0]
        grid = [(rho, lam) for rho in (1.0, 2.0, 5.0) for lam in (0.03, 0.05, 0.1)]
        assert len(sweep(base, grid, 3.52e-3, 10.0)) == 9
        assert calls == [(base.sim.s0, base.sim.h, n_steps(base.sim))]
        assert samples == [(base.sim.h, n_steps(base.sim))]


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

    MIN = experiment._FORK_MIN_STEPS

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

    @staticmethod
    def stretched(name, steps):
        """A sec7 experiment run for `steps` Euler steps."""
        base = [s for s in load_config(SEC7) if s.name == name][0]
        spec = ExperimentSpec(base.name, base.controller, base.disturbance,
                              SimConfig(base.sim.s0, base.sim.h, steps * base.sim.h))
        assert n_steps(spec.sim) == steps
        return spec

    @pytest.mark.parametrize("steps, forked", [(6000, 0), (12000, 1)])
    def test_sweep_forks_from_its_break_even(self, cpus, forks, steps, forked):
        cpus(2)
        rows = sweep(self.stretched("sat", steps), [(5.0, 0.05), (4.0, 0.05)], 3.1e-3, 10.0)
        assert len(rows) == 2 and len(forks) == forked

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
