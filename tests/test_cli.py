import configparser
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from barriersmc import analysis, cli, experiment, fieldtext
from barriersmc.experiment import FIGURE_SIGNALS, TRAJECTORY_COLUMNS, read_trajectory_csv

REPO = Path(__file__).resolve().parents[1]
SEC3 = REPO / "configs" / "paper_sec3.cfg"
SEC7 = REPO / "configs" / "paper_sec7.cfg"

QUICK = """\
[still]
controller = fixed_sign
k = 0.0
disturbance = sinusoid
amplitude = 0.0
omega = 1.0
phase_rad = 0.0
d_bar = 1e-9
s0 = 1.0
h = 0.001
t_end = 0.1
"""

FAILING = QUICK + "sigma_target = 0.5\nexpect_sigma_max = 1e-06\n"

DIVERGING = """\
[pole]
controller = obeid
epsilon = 0.1
k_bar = 1.0
disturbance = custom
table_t = 0.0, 1.0
table_d = 1.5, 1.5
d_bar = 1.5
s0 = 0.05
h = 0.1
t_end = 1.0
"""


def _src_env():
    """The environment for a fresh interpreter that imports this checkout."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}


def write(tmp_path, text, name="c.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_validate_ok(tmp_path, capsys):
    assert cli.main(["validate", str(write(tmp_path, QUICK))]) == cli.EXIT_OK
    assert "still" in capsys.readouterr().out


def test_validate_bad_config(tmp_path, capsys):
    p = write(tmp_path, "[x]\ncontroller = warp_drive\n")
    assert cli.main(["validate", str(p)]) == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_run_success(tmp_path, capsys):
    p = write(tmp_path, QUICK)
    code = cli.main(["run", str(p), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    assert (tmp_path / "out" / "still.csv").is_file()
    assert (tmp_path / "out" / "summary.csv").is_file()
    assert "still" in capsys.readouterr().out


def test_run_expectation_failure(tmp_path):
    p = write(tmp_path, FAILING)
    code = cli.main(["run", str(p), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_EXPECTATION


def test_run_divergence(tmp_path, capsys):
    p = write(tmp_path, DIVERGING)
    code = cli.main(["run", str(p), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_DIVERGED
    assert "error" in capsys.readouterr().out


def test_rerun_without_a_trajectory_leaves_no_stale_csv(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", str(write(tmp_path, QUICK, "s1.cfg")), "--out", str(out)]) \
        == cli.EXIT_OK
    assert (out / "still.csv").is_file()
    # the same experiment, now with a disturbance over its declared bound
    over = QUICK.replace("amplitude = 0.0", "amplitude = 1.0")
    assert cli.main(["run", str(write(tmp_path, over, "s2.cfg")), "--out", str(out)]) \
        == cli.EXIT_DIVERGED
    assert sorted(p.name for p in out.iterdir()) == ["summary.csv"]
    capsys.readouterr()
    assert cli.main(["plot", str(out), "--figure", "sliding",
                     "--out", str(tmp_path / "f.csv")]) == cli.EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err


def test_sweep_divergence_exits_3_without_traceback(capsys):
    # h*rho*pi/(2*lam) ~ 3.9 > 2: the explicit Euler step grows |s|
    code = cli.main(["sweep", str(SEC7), "--experiment", "cv",
                     "--grid", "rho=25;lam=0.01", "--target", "0.01",
                     "--budget", "100"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_DIVERGED
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_sweep_divergence_prints_one_stderr_line_in_a_fresh_interpreter():
    # no pytest warning filter here: a numpy RuntimeWarning would print a second line
    proc = subprocess.run(
        [sys.executable, "-m", "barriersmc", "sweep", str(SEC7), "--experiment", "cv",
         "--grid", "rho=25;lam=0.01", "--target", "0.01", "--budget", "100"],
        env=_src_env(), capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_DIVERGED and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("simulation error: ")


# `<name>.csv` over 255 bytes, the longest file name, whether a byte is a character or not
LONG_NAMES = [pytest.param("x" * 252, id="252_ascii_bytes"),
              pytest.param("é" * 126, id="126_two_byte_characters")]


@pytest.mark.parametrize("name", ["summary", "fig_sliding", "../escaped", "a\0b", "a,b",
                                  "c\rc", *LONG_NAMES])
def test_name_that_cannot_name_an_output_file_exits_2(tmp_path, capsys, name):
    # a "\r" does not end the header's line: the reader ends lines at "\n" alone
    p = write(tmp_path, QUICK.replace("[still]", f"[{name}]"))
    out = tmp_path / "run" / "out"
    shown = name.replace("\0", "\\x00").replace("\r", "\\r")  # backslash-escaped
    for argv in (["validate", str(p)], ["run", str(p), "--out", str(out)]):
        assert cli.main(argv) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"configuration error: [{shown}] cannot name an output file: "
                                "no path separator, NUL, comma, line break, empty, '.', '..', "
                                "'summary', 'fig_' prefix, unencodable character or "
                                "over 251 bytes\n")
    assert not (tmp_path / "run").exists()  # nothing written, in --out or beside it


@settings(deadline=None, max_examples=100)
@given(name=st.text())
@example(name="x" * 252)
@example(name="é" * 126)
@example(name="x" * 251)  # the longest name: `<name>.csv` is 255 bytes
@example(name="\ud800")  # the file does not decode: no name is read
def test_a_name_that_validates_is_a_name_that_run_writes(tmp_path_factory, name):
    tmp = tmp_path_factory.mktemp("name")
    cfg, out = tmp / "c.cfg", tmp / "out"
    text = QUICK.replace("[still]", f"[{name}]").replace("h = 0.001", "h = 0.1")
    cfg.write_bytes(text.encode("utf-8", "surrogatepass"))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = cli.main(["validate", str(cfg)])
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG)
        if code == cli.EXIT_OK:
            assert cli.main(["run", str(cfg), "--out", str(out)]) == cli.EXIT_OK
            assert (out / f"{name}.csv").is_file()


def test_sweep_gain_overflow_exits_3(capsys):
    # |s|/lam overflows before the convex gain does: a non-finite control,
    # not a ZeroDivisionError
    code = cli.main(["sweep", str(SEC7), "--experiment", "cv",
                     "--grid", "rho=0.5;lam=1e-4", "--target", "0.01", "--budget", "100"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_DIVERGED
    assert err == "simulation error: control non-finite at t = 0.364\n"


@pytest.mark.parametrize("base, grid, point", [
    *((base, grid, point) for base in ("cc", "cv") for grid, point in [
        ("rho=0;lam=0.05", "rho=0.0, lam=0.05"),
        ("rho=nan;lam=0.05", "rho=nan, lam=0.05"),
        ("rho=5;lam=-1", "rho=5.0, lam=-1.0"),
        ("rho=1,inf;lam=0.05", "rho=inf, lam=0.05"),
    ]),
    # a valid law whose band K^{-1}(0.2) = lam*(e^{0.2/rho} - 1) overflows
    ("cc", "rho=1e-4;lam=0.05", "rho=0.0001, lam=0.05"),
])
def test_sweep_invalid_grid_point_exits_2(capsys, base, grid, point):
    code = cli.main(["sweep", str(SEC7), "--experiment", base, "--grid", grid,
                     "--target", "0.01", "--budget", "10"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_CONFIG and captured.out == ""
    assert captured.err.startswith(f"configuration error: grid point {point}: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("flag", ["--target", "--budget"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_sweep_non_finite_target_or_budget_exits_2(capsys, flag, value):
    args = {"--target": "0.01", "--budget": "10", flag: value}
    code = cli.main(["sweep", str(SEC7), "--grid", "rho=1;lam=0.01",
                     *(f"{name}={v}" for name, v in args.items())])
    captured = capsys.readouterr()
    assert code == cli.EXIT_CONFIG and captured.out == ""
    assert captured.err == f"configuration error: sweep {flag[2:]} must be finite, got {float(value)!r}\n"


# NaN, infinities, zero, negatives and subnormals, plus values a tuning might
# use; rho = 25 or 0.5 with lam = 1e-4 diverges on the convex bases
sweep_values = st.one_of(st.floats(), st.floats(1e-3, 30.0),
                         st.sampled_from([0.0, -1.0, 0.5, 25.0, 1e-4]))


@settings(deadline=None, max_examples=60)
@given(base=st.sampled_from(["cc", "cv", "sat", "tbg"]),
       rhos=st.lists(sweep_values, min_size=1, max_size=2),
       lams=st.lists(sweep_values, min_size=1, max_size=2),
       target=sweep_values, budget=sweep_values)
def test_sweep_and_validate_never_traceback(tmp_path_factory, base, rhos, lams, target,
                                            budget):
    grid = f"rho={','.join(map(repr, rhos))};lam={','.join(map(repr, lams))}"
    raw = configparser.ConfigParser(interpolation=None)
    raw.read(SEC7)
    raw[base].update(rho=repr(rhos[0]), lam=repr(lams[0]), sigma_target=repr(target))
    cfg = tmp_path_factory.mktemp("fuzz") / "sec7.cfg"
    with open(cfg, "w") as f:
        raw.write(f)
    for argv, codes in [
        (["sweep", str(SEC7), "--experiment", base, "--grid", grid,
          f"--target={target!r}", f"--budget={budget!r}"],
         (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DIVERGED)),
        (["validate", str(cfg)], (cli.EXIT_OK, cli.EXIT_CONFIG)),
    ]:
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main(argv)
        assert code in codes
        assert "Traceback" not in err.getvalue()
        if code != cli.EXIT_OK:
            assert len(err.getvalue().splitlines()) == 1


def _sections(path):
    raw = configparser.ConfigParser(interpolation=None)
    raw.read(path)
    return [dict(raw[name]) for name in raw.sections()]


# one section of a bundled campaign with a fuzzed tuning, start and horizon;
# (rho, lam) = (25, 1e-4) or (1e100, 0.01) diverges on the convex sections
# without an actuator limit
FUZZED_RUNS = dict(
    section=st.sampled_from(_sections(SEC7) + _sections(SEC3)),
    tuning=st.one_of(st.lists(sweep_values, min_size=2, max_size=2),
                     st.sampled_from([[25.0, 1e-4], [1e100, 0.01]])),
    s0=st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, 1e300])),
    t_end=st.sampled_from(["0.001", "0.05", "0.5"]), keep_expectations=st.booleans())


def write_fuzzed(tmp, section, tuning, s0, t_end, keep_expectations):
    """The config file of one FUZZED_RUNS draw, and its items."""
    items = dict(section)
    keys = ("rho", "lam") if "rho" in items else ("epsilon", "k_bar")
    items.update(zip(keys, map(repr, tuning)), s0=repr(s0), t_end=t_end)
    if not keep_expectations:
        items = {k: v for k, v in items.items() if not k.startswith("expect_")}
    return write(tmp, "[fuzzed]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())), items


@settings(deadline=None, max_examples=100)
@given(**FUZZED_RUNS)
# the convex gain overflows at |s| = 1e300: the run diverges at its first sample
@example(section=_sections(SEC7)[1], tuning=[5.0, 0.05], s0=1e300, t_end="0.05",
         keep_expectations=False)
def test_run_never_tracebacks(tmp_path_factory, section, tuning, s0, t_end,
                              keep_expectations):
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg, items = write_fuzzed(tmp, section, tuning, s0, t_end, keep_expectations)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(["run", str(cfg), "--out", str(tmp / "out")])
    assert code in (cli.EXIT_OK, cli.EXIT_EXPECTATION, cli.EXIT_CONFIG, cli.EXIT_DIVERGED)
    assert "Traceback" not in err.getvalue()
    if code == cli.EXIT_EXPECTATION:
        assert any(k.startswith("expect_") for k in items)
    files = [p for p in (tmp / "out").glob("*.csv") if p.name != "summary.csv"]
    if code != cli.EXIT_CONFIG:  # the run recorded exactly the files it wrote
        assert len(experiment._WRITTEN) == len(files)
    for path in files:  # every trajectory CSV reads back as recorded
        parsed = read_trajectory_csv(path)
        entry = experiment._WRITTEN[hashlib.sha256(path.read_bytes()).digest()]
        for c in experiment.FIGURE_COLUMNS:  # the text of each figure column
            assert b"".join(entry[c]) == "".join(
                "%-24.17g" % v for v in getattr(parsed, c).tolist()).encode(), c


@settings(deadline=None, max_examples=100)
@given(**FUZZED_RUNS)
def test_validate_rejects_exactly_what_run_rejects(tmp_path_factory, section, tuning, s0,
                                                   t_end, keep_expectations):
    tmp = tmp_path_factory.mktemp("agree")
    cfg, _ = write_fuzzed(tmp, section, tuning, s0, t_end, keep_expectations)
    codes = []
    for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(tmp / "out")]):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            codes.append(cli.main(argv))
    validate, run = codes
    assert (validate == cli.EXIT_CONFIG) == (run == cli.EXIT_CONFIG)
    if run == cli.EXIT_CONFIG:
        assert not (tmp / "out").exists()  # run wrote nothing


def custom_table(table_t, table_d, d_bar="1.0", t_end="1.0", h="0.1"):
    return QUICK.replace("disturbance = sinusoid\namplitude = 0.0\nomega = 1.0\n"
                         "phase_rad = 0.0\nd_bar = 1e-9\n",
                         f"disturbance = custom\ntable_t = {table_t}\n"
                         f"table_d = {table_d}\nd_bar = {d_bar}\n"
                         ).replace("h = 0.001\nt_end = 0.1", f"h = {h}\nt_end = {t_end}")


@pytest.mark.parametrize("text", [
    custom_table("0.0, 0.5", "0.0, 0.0"),  # ends before t_end
    custom_table("0.1, 1.0", "0.0, 0.0"),  # starts after 0
    custom_table("0.0, 1.0", "0.0, 1.5"),  # exceeds d_bar at a node
])
def test_validate_rejects_table_run_cannot_use(tmp_path, capsys, text):
    p = write(tmp_path, text)
    assert cli.main(["validate", str(p)]) == cli.EXIT_CONFIG
    assert cli.main(["run", str(p), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("configuration error") for line in err)


def test_validate_accepts_table_covering_last_sample(tmp_path):
    # t_end = 0.95 with h = 0.1 puts the last sample at 0.9
    p = write(tmp_path, custom_table("0.0, 0.9", "1.0, -1.0", t_end="0.95"))
    assert cli.main(["validate", str(p)]) == cli.EXIT_OK
    assert cli.main(["run", str(p), "--out", str(tmp_path / "out")]) == cli.EXIT_OK


def test_run_disturbance_bound_violation_exits_3(tmp_path, capsys):
    text = QUICK.replace("amplitude = 0.0", "amplitude = 3.0").replace(
        "d_bar = 1e-9", "d_bar = 2.0").replace(
        "h = 0.001\nt_end = 0.1", "h = 0.01\nt_end = 3.0")
    p = write(tmp_path, text)
    assert cli.main(["validate", str(p)]) == cli.EXIT_OK
    capsys.readouterr()
    code = cli.main(["run", str(p), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DIVERGED
    assert "Traceback" not in captured.err
    row = captured.out.splitlines()[1].split(",")
    assert row[0] == "still" and row[6] == "error" and "d_bar" in row[7]


@pytest.mark.parametrize("command", ["validate", "run"])
def test_non_utf8_config_exits_2(tmp_path, capsys, command):
    p = tmp_path / "c.cfg"
    p.write_bytes(b"\xff\xfe" + QUICK.encode())
    out = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert cli.main([command, str(p), *out]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {p}: ") and len(err.splitlines()) == 1


def test_sinusoid_argument_overflow_exits_2(tmp_path, capsys):
    # omega * 3.0 overflows to inf at the last sample, and sin(inf) raises
    text = QUICK.replace("omega = 1.0", "omega = 1e308").replace(
        "h = 0.001\nt_end = 0.1", "h = 0.5\nt_end = 3.0")
    p = write(tmp_path, text)
    assert cli.main(["validate", str(p)]) == cli.EXIT_CONFIG
    assert cli.main(["run", str(p), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err == ["configuration error: [still] invalid ExperimentSpec: disturbance cannot "
                   "be sampled at t = 3.0: math domain error"] * 2


@pytest.mark.parametrize("disturbance, plant, message", [
    # 5 * t overflows to inf past t = 3.6e307, and cos(inf) raises
    ("disturbance = piecewise_vii\nd_bar = 1.0\n", "h = 1e307\nt_end = 1e308",
     "invalid ExperimentSpec: disturbance cannot be sampled at t = 1e+308: "
     "math domain error"),
    # the time span overflows to inf: interpolation would give 2 * inf / inf = nan
    ("disturbance = custom\ntable_t = -1e308, 1e308\ntable_d = -1.0, 1.0\nd_bar = 1.0\n",
     "h = 0.001\nt_end = 0.01",
     "invalid CustomTable: table value range times time span must be finite"),
    # t_end / h reads 3.0, and 3 * h overflows: the last sample time is inf
    ("disturbance = sinusoid\namplitude = 0.0\nomega = 0.0\nphase_rad = 0.0\n"
     "d_bar = 1e-9\n",
     "h = 5.992310450140284e307\nt_end = 1.7976931348623157e308",
     "invalid SimConfig: last sample time n_steps * h overflows, "
     "got t_end = 1.7976931348623157e+308"),
], ids=["piecewise_vii_argument_overflow", "table_interpolation_overflow",
        "last_sample_time_overflow"])
def test_disturbance_run_cannot_sample_exits_2(tmp_path, capsys, disturbance, plant, message):
    text = QUICK.replace("disturbance = sinusoid\namplitude = 0.0\nomega = 1.0\n"
                         "phase_rad = 0.0\nd_bar = 1e-9\n", disturbance)
    p = write(tmp_path, text.replace("h = 0.001\nt_end = 0.1", plant))
    for argv in (["validate", str(p)], ["run", str(p), "--out", str(tmp_path / "out")]):
        assert cli.main(argv) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: [still] {message}\n"
    assert not (tmp_path / "out").exists()  # run wrote nothing


@pytest.mark.parametrize("command", ["validate", "run"])
def test_step_too_small_for_the_horizon_exits_2(tmp_path, capsys, command):
    # t_end / h = 1e320 overflows: no step count
    p = write(tmp_path, QUICK.replace("h = 0.001\nt_end = 0.1", "h = 1e-320\nt_end = 1.0"))
    out = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert cli.main([command, str(p), *out]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: [still] ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("plant, tv", [
    ("h = 0.1\nt_end = 0.1", ""),  # the default window [0.08, 0.1] holds one sample
    ("h = 0.1\nt_end = 1.0\nchatter_t0 = 0.05\nchatter_t1 = 0.06", ""),  # none
    # the window ends past the last sample, 1.0: it holds the 6 samples from 0.5
    ("h = 0.1\nt_end = 1.05\nchatter_t0 = 0.5\nchatter_t1 = 1.05", "0.5 1.0"),
], ids=["default_window_one_sample", "window_between_samples", "window_past_last_sample"])
def test_chattering_window_run_cannot_fill(tmp_path, capsys, plant, tv):
    # a unit relay from s0 = 0.25 chatters around s = 0 from t = 0.3 on
    text = QUICK.replace("k = 0.0", "k = 1.0").replace("s0 = 1.0", "s0 = 0.25")
    p = write(tmp_path, text.replace("h = 0.001\nt_end = 0.1", plant))
    assert cli.main(["validate", str(p)]) == cli.EXIT_OK
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main(["run", str(p), "--out", str(out)]) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    cell = captured.out.splitlines()[1].split(",")[5]
    if tv:
        traj = read_trajectory_csv(out / "still.csv")
        want = analysis.total_variation(traj, tuple(map(float, tv.split())))
        assert cell == "%.17g" % want and want > 0
    else:
        assert cell == ""


def test_cli_and_config_loading_import_no_configparser():
    # a fresh interpreter: the test process itself imports configparser
    code = ("import sys\nfrom barriersmc import cli\n"
            f"for path in ({str(SEC3)!r}, {str(SEC7)!r}):\n"
            "    cli.experiment.load_config(path)\n"
            "print('configparser' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                         text=True, check=True).stdout
    assert out == "False\n"


def test_cli_and_config_loading_import_no_process_pool():
    # forked shares need only os and pickle, which `_fork_map` imports when
    # it is called; a pool module would add its import time to every command
    code = ("import sys\nfrom barriersmc import cli\n"
            f"for path in ({str(SEC3)!r}, {str(SEC7)!r}):\n"
            "    cli.experiment.load_config(path)\n"
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_cli_and_config_loading_import_no_numpy():
    # `validate` builds no array: numpy, most of a fresh interpreter's
    # start-up time, loads only in the functions that make or read arrays
    code = ("import io, sys\nfrom contextlib import redirect_stdout\n"
            "from barriersmc import cli\n"
            f"for path in ({str(SEC3)!r}, {str(SEC7)!r}):\n"
            "    cli.experiment.load_config(path)\n"
            "    with redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(['validate', path]) == cli.EXIT_OK\n"
            "print(sorted({'numpy', 'pickle'} & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("command", ["validate", "run", "sweep"])
def test_step_count_over_the_ceiling_exits_2(tmp_path, capsys, command):
    # 1e300 steps: rejected with the config, before anything is simulated
    text = QUICK.replace("fixed_sign\nk = 0.0", "kinfty\nlaw = convex\nrho = 5.0\nlam = 0.05")
    p = write(tmp_path, text.replace("h = 0.001\nt_end = 0.1", "h = 1e-300\nt_end = 1.0"))
    extra = {"validate": [], "run": ["--out", str(tmp_path / "out")],
             "sweep": ["--grid", "rho=1;lam=0.05", "--target", "1", "--budget", "1"]}
    assert cli.main([command, str(p), *extra[command]]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: [still] ") and len(err.splitlines()) == 1
    assert "<= 1e+08 * h" in err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("ncpu", [1, 2])
def test_sweep_divergence_in_a_forked_share_exits_3(capsys, cpus, forks, ncpu):
    # the diverging point (25, 0.01) is the second, which a child computes on two CPUs
    cpus(ncpu)
    code = cli.main(["sweep", str(SEC7), "--experiment", "cv", "--grid", "rho=1,25;lam=0.01",
                     "--target", "3.52e-3", "--budget", "10"])
    assert code == cli.EXIT_DIVERGED and len(forks) == ncpu - 1
    assert capsys.readouterr().err == "simulation error: control non-finite at t = 0.654\n"


@pytest.mark.parametrize("ncpu", [1, 2])
def test_sweep_names_the_first_diverging_point_in_grid_order(tmp_path, capsys, cpus, forks,
                                                             ncpu):
    # (25, 0.01) diverges at t = 0.654, (25, 1e-4) at 0.117 and (0.5, 1e-4) at 0.364
    cpus(ncpu)
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", str(SEC7), "--experiment", "cv", "--grid",
                     "rho=25,0.5;lam=0.01,1e-4", "--target", "3.52e-3", "--budget", "10",
                     "--out", str(out)])
    assert code == cli.EXIT_DIVERGED and len(forks) == ncpu - 1
    assert capsys.readouterr() == ("", "simulation error: control non-finite at t = 0.654\n")
    assert not out.exists()


@pytest.mark.parametrize("parent", ["missing", "afile"])
def test_sweep_out_that_cannot_be_written_exits_2_with_empty_stdout(tmp_path, capsys, parent):
    write(tmp_path, "", "afile")
    code = cli.main(["sweep", str(SEC7), "--experiment", "cv", "--grid", "rho=1;lam=0.01366",
                     "--target", "3.52e-3", "--budget", "10",
                     "--out", str(tmp_path / parent / "sweep.csv")])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_CONFIG and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("configuration error: ")


def test_sweep_disturbance_over_d_bar_exits_3(tmp_path, capsys):
    # piecewise_vii reaches |d| = 0.19837 at t = 5.001, over a declared 0.15
    p = write(tmp_path, SEC7.read_text().replace("d_bar = 0.2", "d_bar = 0.15"))
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", str(p), "--grid", "rho=1,2;lam=0.01366", "--target", "3.52e-3",
                     "--budget", "10", "--out", str(out)])
    assert code == cli.EXIT_DIVERGED
    assert capsys.readouterr() == (
        "", "simulation error: |d(5.001)| = 0.19837 exceeds declared d_bar = 0.15\n")
    assert not out.exists()


def test_outputs_are_the_same_on_one_and_two_cpus(tmp_path, monkeypatch, cpus, forks):
    # both campaigns cut to 1.5 s; the full-length bytes are the replay
    # golden's. Each figure is plotted from the run's record, then from the
    # files alone.
    trees, codes = [], []
    for ncpu in (1, 2):
        cpus(ncpu)
        for cfg, figures in ((SEC7, ("sliding", "gains", "inputs")), (SEC3, ("escape",))):
            p = write(tmp_path, _cut(cfg))
            out = tmp_path / str(ncpu) / cfg.stem
            codes.append(cli.main(["run", str(p), "--out", str(out)]))
            for figure in figures:
                assert cli.main(["plot", str(out), "--figure", figure]) == cli.EXIT_OK
            with monkeypatch.context() as fresh:  # as a new `plot` process would
                fresh.setattr(cli.experiment, "_WRITTEN", {})
                for figure in figures:
                    assert cli.main(["plot", str(out), "--figure", figure, "--out",
                                     str(out / f"parsed_{figure}.csv")]) == cli.EXIT_OK
        trees.append({f.relative_to(tmp_path / str(ncpu)).as_posix(): f.read_bytes()
                      for f in (tmp_path / str(ncpu)).rglob("*") if f.is_file()})
        # `run` simulates and formats, and `plot` parses, in this process
        assert len(forks) == 0
    assert trees[0] == trees[1] and len(trees[0]) == 16
    for name, data in trees[0].items():
        if "/parsed_" in name:
            assert data == trees[0][name.replace("/parsed_", "/fig_")]
    assert codes[:2] == codes[2:]


# sha256 prefixes of sweep_csv on each sec7 base over the 9-point grid that
# the benchmark's `sweep` draws with seed 0
SWEEP_DIGESTS = {"cc": "5228c3e0690c4bf0", "cv": "eae45c10b8c4a314",
                 "sat": "051d07fc5f13993a", "tbg": "de1c7cf564f521a7"}


def test_sweep_csv_is_the_same_on_one_and_two_cpus(cpus, forks):
    rng = random.Random(0)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    grid = [(log_uniform(0.5, 5.0), log_uniform(0.03, 0.3)) for _ in range(9)]
    for ncpu in (1, 2):
        cpus(ncpu)
        digests = {base.name: hashlib.sha256(cli.experiment.sweep_csv(
            cli.experiment.sweep(base, grid, 3.52e-3, 10.0)).encode()).hexdigest()[:16]
            for base in cli.experiment.load_config(SEC7)}
        assert digests == SWEEP_DIGESTS
        assert len(forks) == (ncpu - 1) * 4


def test_a_short_run_forks_nothing(tmp_path, monkeypatch, cpus):
    # only `sweep` can fork: the replay test counts the forks of `run` and `plot`
    def no_fork():
        raise AssertionError("forked for a 101-sample run")

    cpus(2)
    monkeypatch.setattr(os, "fork", no_fork)
    p = write(tmp_path, QUICK.replace("fixed_sign\nk = 0.0",
                                      "kinfty\nlaw = convex\nrho = 5.0\nlam = 0.05"))
    assert cli.main(["sweep", str(p), "--grid", "rho=1,5;lam=0.05",
                     "--target", "3.1e-3", "--budget", "1e6"]) == cli.EXIT_OK


def test_run_missing_config(tmp_path):
    assert cli.main(["run", str(tmp_path / "nope.cfg")]) == cli.EXIT_CONFIG


def test_sweep_cli(tmp_path, capsys):
    p = write(tmp_path, QUICK.replace("fixed_sign\nk = 0.0",
                                      "kinfty\nlaw = convex\nrho = 5.0\nlam = 0.05"))
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", str(p), "--grid", "rho=1,5;lam=0.05",
                     "--target", "3.1e-3", "--budget", "1e6",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "rho,lam,bound,peak_u,t_conv,feasible"
    assert len(lines) == 3


def test_sweep_bad_grid(tmp_path):
    p = write(tmp_path, QUICK)
    code = cli.main(["sweep", str(p), "--grid", "sigma=1",
                     "--target", "1e-3", "--budget", "10"])
    assert code == cli.EXIT_CONFIG


def test_sweep_duplicate_grid_axis(tmp_path, capsys):
    # the second rho would otherwise replace the first without a word
    p = write(tmp_path, QUICK)
    code = cli.main(["sweep", str(p), "--grid", "rho=1;rho=2;lam=0.05",
                     "--target", "1e-3", "--budget", "10"])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "configuration error: duplicate grid axis 'rho'\n"


def test_sweep_unknown_experiment(tmp_path):
    p = write(tmp_path, QUICK)
    code = cli.main(["sweep", str(p), "--grid", "rho=1;lam=0.05",
                     "--target", "1e-3", "--budget", "10",
                     "--experiment", "ghost"])
    assert code == cli.EXIT_CONFIG


def test_plot_cli(tmp_path, capsys):
    cfg = write(tmp_path, QUICK)
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    assert cli.main(["plot", str(out), "--figure", "sliding"]) == cli.EXIT_OK
    fig = out / "fig_sliding.csv"
    assert fig.is_file()
    assert fig.read_text().splitlines()[0] == "t,s_still"
    # rerunning plot must not pick up its own output as a trajectory
    assert cli.main(["plot", str(out), "--figure", "sliding"]) == cli.EXIT_OK


def test_plot_missing_dir(tmp_path):
    assert cli.main(["plot", str(tmp_path / "nope"), "--figure",
                     "sliding"]) == cli.EXIT_CONFIG


@pytest.fixture
def replay_script():
    spec = importlib.util.spec_from_file_location(
        "run_paper_experiments", REPO / "scripts" / "run_paper_experiments.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def replay_matches_golden(replay_script, out):
    """Run the replay script into `out`: its exit code is ok and the sha256
    of each output is the benchmark's."""
    assert replay_script.main(["--out", str(out)]) == cli.EXIT_OK
    golden = json.loads((REPO / "benchmark" / "replay_sha256.json").read_text())
    got = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.rglob("*") if p.is_file()}
    assert got == golden


def test_replay_outputs_match_benchmark_sha256(tmp_path, replay_script, cpus, forks):
    # the replay script runs what the benchmark's replay workload runs: both
    # campaigns through `run`, then the four figures through `plot`
    cpus(2)
    replay_matches_golden(replay_script, tmp_path)
    # each of the 2 batches simulates and formats the distinct 1000-value
    # chunks of its columns in this process. The plots look up the text of
    # the trajectories the batches just wrote.
    assert len(forks) == 0


def test_replay_outputs_match_with_every_value_formatted_by_percent(tmp_path, monkeypatch,
                                                                     replay_script):
    # as where the longdouble is too narrow for the exact digits of `fields`
    monkeypatch.setattr(fieldtext, "NMANT", 1000)
    monkeypatch.setattr(fieldtext, "_tables", no_parse)
    replay_matches_golden(replay_script, tmp_path)


@pytest.mark.parametrize("text, code", [(FAILING, cli.EXIT_EXPECTATION),
                                        (DIVERGING, cli.EXIT_DIVERGED)])
def test_replay_script_exits_with_the_cli_code(tmp_path, replay_script, text, code):
    replay_script.CAMPAIGNS = {"only": (write(tmp_path, text), ("sliding",))}
    assert replay_script.main(["--out", str(tmp_path / "out")]) == code


# 41 samples: a small trajectory CSV to corrupt
SMALL = QUICK.replace("t_end = 0.1", "t_end = 0.04")


def run_small(tmp_path, text=SMALL):
    out = tmp_path / "out"
    assert cli.main(["run", str(write(tmp_path, text)), "--out", str(out)]) == cli.EXIT_OK
    return out


def test_plot_trajectory_file_with_a_comma_in_its_name_exits_2(tmp_path, capsys):
    # the stem would name a column of the figure's header, splitting it in two
    out = run_small(tmp_path)
    (out / "summary.csv").unlink()  # so that plot charts every file of the directory
    bad = out / "x,y.csv"
    bad.write_text((out / "still.csv").read_text())
    capsys.readouterr()
    assert cli.main(["plot", str(out), "--figure", "sliding"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (f"configuration error: {bad}: a comma or line "
                                       "break in the file name would split its column\n")
    assert not (out / "fig_sliding.csv").exists()


@pytest.mark.parametrize("stem, shown", [("a\nb", "a\\nb"), ("a\rb", "a\\rb")],
                         ids=["newline", "carriage_return"])
def test_plot_trajectory_file_with_a_line_break_in_its_name_exits_2(tmp_path, capsys, stem,
                                                                   shown):
    # the stem would split the figure's header line; the message shows it on one line
    out = run_small(tmp_path)
    (out / "summary.csv").unlink()  # so that plot charts every file of the directory
    (out / f"{stem}.csv").write_text((out / "still.csv").read_text())
    capsys.readouterr()
    assert cli.main(["plot", str(out), "--figure", "sliding"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (f"configuration error: {out}/{shown}.csv: a comma or "
                                       "line break in the file name would split its column\n")
    assert not (out / "fig_sliding.csv").exists()


def test_plot_trajectory_file_whose_name_does_not_decode_exits_2(tmp_path, capsys,
                                                                 monkeypatch):
    # the byte 0xff decodes to a surrogate, which the figure's header cannot hold
    out = run_small(tmp_path)
    (out / "summary.csv").unlink()  # so that plot charts every file of the directory
    bad = out / os.fsdecode(b"\xff.csv")
    bad.write_bytes((out / "still.csv").read_bytes())
    monkeypatch.setattr(experiment, "_file_sha256", no_parse)
    monkeypatch.setattr(experiment, "read_trajectory_csv", no_parse)
    capsys.readouterr()
    assert cli.main(["plot", str(out), "--figure", "sliding"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (f"configuration error: {out}/\\udcff.csv: the file "
                                       "name cannot be written in the figure's header\n")
    assert not (out / "fig_sliding.csv").exists()


@pytest.mark.parametrize("mangle, where", [
    (lambda rows: rows[:3] + [rows[3].rsplit(",", 1)[0] + ",zero"] + rows[4:],
     "line 4: d is not a number: 'zero'"),
    (lambda rows: rows[:3] + [rows[3].rsplit(",", 1)[0]] + rows[4:],
     "line 4: 5 fields, expected 6"),
    (lambda rows: rows[:3] + [rows[3] + ",0"] + rows[4:], "line 4: 7 fields, expected 6"),
    (lambda rows: rows[:3] + [""] + rows[3:], "line 4: 0 fields, expected 6"),
    (lambda rows: rows[:3] + ["# comment"] + rows[3:], "line 4: 1 fields, expected 6"),
    (lambda rows: rows[:1], None),
    (lambda rows: ["t,s,u,u_applied,gain,d"] + rows[1:], None),
], ids=["non_number", "short_row", "long_row", "blank_line", "hash_line",
        "header_only", "wrong_header"])
def test_plot_malformed_trajectory_exits_2(tmp_path, capsys, mangle, where):
    out = run_small(tmp_path)
    # the run recorded still.csv: once edited, it is parsed, as an unrecorded file is
    csv = out / "still.csv"
    csv.write_text("\n".join(mangle(csv.read_text().splitlines())) + "\n")
    capsys.readouterr()
    assert cli.main(["plot", str(out), "--figure", "sliding"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err and "usecols" not in err
    assert len(err.splitlines()) == 1 and err.startswith(f"configuration error: {csv}: ")
    if where is not None:  # the 1-based file line, the header being line 1
        assert err == f"configuration error: {csv}: {where}\n"


@pytest.mark.parametrize("ncpu", [1, 2])
@pytest.mark.parametrize("bad", [("a", "still"), ("still",)])
def test_plot_names_the_first_malformed_file_in_sorted_order(tmp_path, capsys, monkeypatch,
                                                             cpus, forks, ncpu, bad):
    # the files are read in sorted order, in this process on any number of
    # CPUs; with nothing recorded, the byte copy a.csv is read too
    cpus(ncpu)
    out = run_small(tmp_path)
    monkeypatch.setattr(cli.experiment, "_WRITTEN", {})
    (out / "summary.csv").unlink()  # so that plot charts every file of the directory
    rows = (out / "still.csv").read_text().splitlines()
    (out / "a.csv").write_text("\n".join(rows) + "\n")
    for name in bad:
        (out / f"{name}.csv").write_text("\n".join(rows[:2] + ["1,2"] + rows[3:]) + "\n")
    capsys.readouterr()
    assert cli.main(["plot", str(out), "--figure", "sliding"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (f"configuration error: {out / bad[0]}.csv: "
                                       "line 3: 2 fields, expected 6\n")
    assert len(forks) == 0


def test_plot_charts_only_the_last_runs_experiments(tmp_path):
    # a second run into the same directory leaves the first run's still.csv
    out = run_small(tmp_path)
    moved = SMALL.replace("[still]", "[moved]").replace("k = 0.0", "k = 1.0")
    assert cli.main(["run", str(write(tmp_path, moved)), "--out", str(out)]) == cli.EXIT_OK
    assert (out / "still.csv").is_file()
    assert cli.main(["plot", str(out), "--figure", "sliding"]) == cli.EXIT_OK
    assert (out / "fig_sliding.csv").read_text().splitlines()[0] == "t,s_moved"
    (out / "summary.csv").unlink()  # without one: every trajectory file of the directory
    assert cli.main(["plot", str(out), "--figure", "sliding"]) == cli.EXIT_OK
    assert (out / "fig_sliding.csv").read_text().splitlines()[0] == "t,s_moved,s_still"


def no_parse(path):
    raise AssertionError(f"parsed {path}")


def test_plot_parses_a_trajectory_edited_after_the_run(tmp_path):
    # the run recorded still.csv by its bytes, so the edited file is read anew
    out = run_small(tmp_path)
    rows = (out / "still.csv").read_text().splitlines()
    fields = rows[3].split(",")
    fields[1] = "0.5"  # s
    rows[3] = ",".join(fields)
    (out / "still.csv").write_text("\n".join(rows) + "\n")
    assert cli.main(["plot", str(out), "--figure", "sliding"]) == cli.EXIT_OK
    assert (out / "fig_sliding.csv").read_text().splitlines()[3] == f"{fields[0]},0.5"


def test_a_byte_copy_of_a_written_trajectory_is_looked_up(tmp_path, monkeypatch):
    out = run_small(tmp_path)
    (out / "a.csv").write_bytes((out / "still.csv").read_bytes())
    monkeypatch.setattr(experiment, "read_trajectory_csv", no_parse)
    experiment.emit_plot_data([out / "still.csv", out / "a.csv"], "sliding", out / "fig.csv")
    header, *rows = (out / "fig.csv").read_text().splitlines()
    assert header == "t,s_a,s_still" and len(rows) == 41
    assert all(a == b for _, a, b in (row.split(",") for row in rows))


def test_writing_into_a_run_result_does_not_change_the_figure(tmp_path, monkeypatch):
    # the record keeps the text and the keys of what the run wrote, not the
    # caller's arrays; the escape overlay also checks the grid and the d column
    out = tmp_path / "out"
    text = SMALL + "\n" + SMALL.replace("[still]", "[other]").replace("k = 0.0", "k = 1.0")
    results = experiment.run_batch(experiment.loads_config(text), out)
    files = [out / "still.csv", out / "other.csv"]
    figures = [tmp_path / "before.csv", tmp_path / "after.csv"]
    experiment.emit_plot_data(files, "escape", figures[0])
    for r in results:  # the caller's arrays stay writable
        for c in TRAJECTORY_COLUMNS:
            getattr(r.trajectory, c)[:] = 7.0 + len(r.spec.name)
    monkeypatch.setattr(experiment, "read_trajectory_csv", no_parse)
    experiment.emit_plot_data(files, "escape", figures[1])
    assert figures[1].read_bytes() == figures[0].read_bytes()


def test_with_nothing_recorded_plot_reads_each_file_once(tmp_path, monkeypatch):
    # as in a fresh `barriersmc plot` process: no file is hashed
    out = run_small(tmp_path, SMALL + "\n" + SMALL.replace("[still]", "[other]"))
    monkeypatch.setattr(experiment, "_WRITTEN", {})
    monkeypatch.setattr(experiment, "_file_sha256", no_parse)
    parsed = []
    monkeypatch.setattr(experiment, "read_trajectory_csv",
                        lambda path: parsed.append(path) or read_trajectory_csv(path))
    assert cli.main(["plot", str(out), "--figure", "sliding"]) == cli.EXIT_OK
    assert parsed == [out / "other.csv", out / "still.csv"]


def _cut(cfg):
    """A bundled campaign cut to 1.5 s."""
    return re.sub(r"t_end = \d+\.0", "t_end = 1.5", cfg.read_text())


SIGNED_ZERO_D = (custom_table("0.0, 1.0", "0.0, 0.0") + "\n"
                 + custom_table("0.0, 1.0", "-0.0, -0.0").replace("[still]", "[minus]"))
TWO_GRIDS = SMALL + "\n" + SMALL.replace("[still]", "[longer]").replace("0.04", "0.05")
# -1.2345678901234567e-300 fills its 24-byte field: no blank separates it
# from the next value of the recorded text
WIDEST_D = "\n".join(custom_table("0.0, 1.0", f"{d}, {d}").replace("[still]", f"[{name}]")
                     for name, d in (("a", "-1.2345678901234567e-300"),
                                     ("b", "-2.2345678901234567e-300")))
# other.csv is rewritten after the run in the text of `repr`, such as `0.0`
# for `0`: the same values, in a file whose sha256 misses the record. It is
# the first file in sorted order, so the recorded still.csv is checked
# against its parsed floats.
MIXED = SMALL + "\n" + SMALL.replace("[still]", "[other]").replace("k = 0.0", "k = 1.0")


def retext(path):
    """Rewrite a trajectory CSV with each value as its `repr`."""
    traj = read_trajectory_csv(path)
    rows = zip(*(getattr(traj, c).tolist() for c in TRAJECTORY_COLUMNS))
    path.write_text(",".join(TRAJECTORY_COLUMNS) + "\n"
                    + "".join(",".join(map(repr, row)) + "\n" for row in rows))


@pytest.mark.parametrize("text, figure, code", [
    *((_cut(SEC7), figure, cli.EXIT_OK) for figure in ("sliding", "gains", "inputs")),
    (_cut(SEC3), "escape", cli.EXIT_OK),
    (SIGNED_ZERO_D, "escape", cli.EXIT_OK),  # the d columns are equal as numbers
    (TWO_GRIDS, "sliding", cli.EXIT_CONFIG),
    (WIDEST_D, "escape", cli.EXIT_CONFIG),
    (MIXED, "sliding", cli.EXIT_OK),
], ids=["sec7_sliding", "sec7_gains", "sec7_inputs", "sec3_escape", "signed_zero_d",
        "two_grids", "widest_d", "mixed"])
def test_a_figure_from_the_record_is_the_figure_from_the_files(tmp_path, monkeypatch,
                                                                text, figure, code):
    out = tmp_path / "out"
    assert cli.main(["run", str(write(tmp_path, text)), "--out", str(out)]) in (
        cli.EXIT_OK, cli.EXIT_EXPECTATION)
    edited = [out / "other.csv"] if text is MIXED else []
    for path in edited:
        before = path.read_bytes()
        retext(path)
        assert path.read_bytes() != before
    got = []
    for recorded in (True, False):
        with monkeypatch.context() as m:
            if recorded:  # every file the run wrote is looked up: only edited ones are parsed
                m.setattr(experiment, "read_trajectory_csv",
                          lambda path: (read_trajectory_csv if path in edited else no_parse)(path))
                if not edited:  # and nothing is formatted
                    m.setattr(fieldtext, "fields", no_parse)
            else:  # as a new `plot` process, which has no record
                m.setattr(experiment, "_WRITTEN", {})
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                got.append(cli.main(["plot", str(out), "--figure", figure]))
            fig = out / f"fig_{figure}.csv"
            got += [err.getvalue(), fig.read_bytes() if fig.exists() else None]
            fig.unlink(missing_ok=True)
    assert got[:3] == got[3:] and got[0] == code
    if text is SIGNED_ZERO_D:  # the two files differ in the sign of their last d
        assert (out / "still.csv").read_bytes() != (out / "minus.csv").read_bytes()
    if text is TWO_GRIDS:
        assert got[1] == ("configuration error: time grid of 'still' does not match; "
                          "no resampling\n")
    if text is WIDEST_D:
        assert got[1] == "configuration error: escape overlay requires a shared disturbance\n"


def test_a_non_ascii_name_is_written_as_text_mode_writes_it(tmp_path, monkeypatch,
                                                            row_template_csv):
    # the name reaches the figure's header, which is encoded as text mode encodes it
    out = run_small(tmp_path, SMALL.replace("[still]", "[σ_cc]"))
    traj, expected = read_trajectory_csv(out / "σ_cc.csv"), tmp_path / "expected.csv"
    row_template_csv(expected, TRAJECTORY_COLUMNS, [getattr(traj, c) for c in TRAJECTORY_COLUMNS])
    assert (out / "σ_cc.csv").read_bytes() == expected.read_bytes()
    figures = []
    for recorded in (True, False):
        with monkeypatch.context() as m:
            if recorded:
                m.setattr(experiment, "read_trajectory_csv", no_parse)
            else:  # as a new `plot` process, which has no record
                m.setattr(experiment, "_WRITTEN", {})
            assert cli.main(["plot", str(out), "--figure", "escape"]) == cli.EXIT_OK
        figures.append((out / "fig_escape.csv").read_bytes())
    row_template_csv(expected, ["t", "s_σ_cc", "u_σ_cc", "d"],
                     [traj.t, traj.s, traj.u_applied, traj.d])
    assert figures == [expected.read_bytes()] * 2 and "σ".encode() in figures[0]


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    """The bytes of a 41-sample trajectory CSV that `run` wrote."""
    return (run_small(tmp_path_factory.mktemp("small")) / "still.csv").read_bytes()


# file stems as text, and as raw bytes, which may not decode; neither may
# hold the path separator or a NUL, which no file name can
file_stems = st.one_of(st.text(min_size=1, max_size=8),
                       st.binary(min_size=1, max_size=8).map(os.fsdecode)).filter(
    lambda stem: not {"/", "\0"} & set(stem))


@settings(deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(stem=file_stems)
@example(stem="σ_cc")
@example(stem="a,b")
@example(stem="a\nb")
@example(stem="\r")
@example(stem="\n\udc80")
@example(stem=os.fsdecode(b"\xffs"))
@example(stem="summary")
def test_plot_on_any_file_name_exits_0_or_2(tmp_path_factory, row_template_csv, small_csv,
                                            stem):
    directory = tmp_path_factory.mktemp("names")
    (directory / f"{stem}.csv").write_bytes(small_csv)
    figure, err = directory.parent / f"{directory.name}_fig.csv", io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(["plot", str(directory), "--figure", "sliding", "--out", str(figure)])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG)
    assert "Traceback" not in err.getvalue()
    if code == cli.EXIT_OK:
        assert not {",", "\n", "\r"} & set(stem)  # each would split the header
        traj, expected = read_trajectory_csv(directory / f"{stem}.csv"), directory / "expected"
        row_template_csv(expected, ["t", f"s_{stem}"], [traj.t, traj.s])
        assert figure.read_bytes() == expected.read_bytes()
    else:  # on one line, whatever the name holds
        assert err.getvalue().startswith("configuration error: ")
        assert err.getvalue().count("\n") == 1 and "\r" not in err.getvalue()


def test_an_unreadable_file_is_named_as_the_parse_names_it(tmp_path):
    # a.csv cannot be hashed: it is then read, and fails, as it did unrecorded
    out = run_small(tmp_path)
    (out / "a.csv").symlink_to(out / "gone.csv")
    with pytest.raises(experiment.ConfigError) as err:
        experiment.emit_plot_data([out / "still.csv", out / "a.csv"], "sliding",
                                  out / "fig.csv")
    assert str(err.value) == (f"{out / 'a.csv'}: [Errno 2] No such file or directory: "
                              f"'{out / 'a.csv'}'")


def test_unwritable_run_output_exits_2(tmp_path, capsys):
    afile = write(tmp_path, "", "afile")
    code = cli.main(["run", str(write(tmp_path, QUICK)), "--out", str(afile / "sub")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert "Traceback" not in err and len(err.splitlines()) == 1 and str(afile) in err


def test_unwritable_plot_output_exits_2(tmp_path, capsys):
    out = run_small(tmp_path)
    target = tmp_path / "nodir" / "f.csv"
    capsys.readouterr()
    code = cli.main(["plot", str(out), "--figure", "escape", "--out", str(target)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert "Traceback" not in err and len(err.splitlines()) == 1 and str(target) in err


@pytest.fixture(scope="module")
def small_pair(tmp_path_factory):
    """Two 41-sample trajectories on one time grid, and their CSV text."""
    tmp = tmp_path_factory.mktemp("pair")
    pushed = SMALL.replace("[still]", "[pushed]").replace("k = 0.0", "k = 1.0")
    out = run_small(tmp, SMALL + "\n" + pushed)
    return out, [(p, p.read_text()) for p in (out / "still.csv", out / "pushed.csv")]


@settings(deadline=None, max_examples=150)
@given(which=st.integers(0, 1), line=st.integers(0, 41), at=st.integers(0, 400),
       op=st.sampled_from(["truncate", "junk", "drop_field", "add_field",
                           "blank_line", "change_t"]),
       junk=st.text(max_size=8), t=st.floats(), figure=st.sampled_from(sorted(FIGURE_SIGNALS)))
def test_plot_never_tracebacks_on_a_mutated_trajectory(small_pair, which, line, at, op,
                                                       junk, t, figure):
    out, files = small_pair
    path, text = files[which]
    lines = text.splitlines()
    if op == "change_t":
        line = max(line, 1)  # a data row, not the header
    fields = lines[line].split(",")
    k = at % len(fields)
    if op == "truncate":
        lines[line] = lines[line][:at % (len(lines[line]) + 1)]
    elif op == "junk":
        fields[k] = junk
    elif op == "drop_field":
        del fields[k]
    elif op == "add_field":
        fields.insert(k, "0")
    elif op == "blank_line":
        lines.insert(line, "")
    else:
        fields[0] = "%.17g" % t
    if op in ("junk", "drop_field", "add_field", "change_t"):
        lines[line] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    err = io.StringIO()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main(["plot", str(out), "--figure", figure,
                             "--out", str(out.parent / "fig.csv")])
    finally:
        path.write_text(text)
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG)
    assert "Traceback" not in err.getvalue() and "usecols" not in err.getvalue()
    if code == cli.EXIT_CONFIG:
        assert err.getvalue().startswith("configuration error: ")
