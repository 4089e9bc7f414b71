#!/usr/bin/env python3
"""Run the mutant kill list: each row changes one exact text of one file,
and the tests it names must then fail (a killed mutant) or, for a
documented equivalent mutant, still pass (it survives).

Each mutant is applied to a fresh temporary copy of the repository's code
and tests, where only its named tests run, in a new interpreter. A row
whose `old` text does not occur exactly once in its file is stale: a change
that rewrites such a text updates its row in the same commit
(`tests/test_scripts.py` checks this on every test run).

A row whose named tests pytest cannot find (a renamed test or
parametrize id) is stale as well.

Prints one line per row, `<outcome> <name> (expected <expect>)`, where the
outcome is killed, survived, stale or error (pytest failed to collect or
hit an internal error, or ran past TIMEOUT_S), and exits 0 when every
killed row was killed and every equivalent survived.

Usage: python3 scripts/mutants.py   (runs every row)
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Tuple

REPO = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "configs", "benchmark", "scripts", "pyproject.toml")
TIMEOUT_S = 300

PINS = "tests/test_variant_pins.py::test_variant_trajectory_bytes"
ORACLE = "tests/test_simkernel.py::test_simulate_matches_reference"
EDGE = "tests/test_simkernel.py::test_simulate_matches_reference_on_edge_cases"
MESSAGE = "tests/test_experiment.py::test_config_reader_message"
ROWS = "tests/test_experiment.py::TestTrajectoryCsv::test_rows_are_the_row_template_rows"
FIELDS = "tests/test_fieldtext.py::TestFields"
REACH = "tests/test_analysis.py::TestReachTimeBound"
TBG_TESTS = (ORACLE, EDGE, f"{PINS}[tbg-concave-piecewise_vii]",
             f"{PINS}[tbg-convex-piecewise_vii]", f"{PINS}[tbg-convex-sinusoid]",
             "tests/test_controllers.py::"
             "test_tbg_columns_are_the_z_and_feedforward_that_control_steps")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    tests: Tuple[str, ...]  # pytest node ids
    expect: str = "killed"  # or "equivalent": the tests still pass


MUTANTS = (
    # --- the byte-identity guarantee: the pins, the oracle, the byte test
    Mutant("concave_gain_as_log_of_sum", "src/barriersmc/gains.py",
           "log1p(abs_s / self.lambda1)", "math.log(1 + abs_s / self.lambda1)",
           tuple(f"{PINS}[kinfty-concave-{d}]"
                 for d in ("custom", "piecewise_vii", "sinusoid"))),
    Mutant("table_interpolation_regrouped", "src/barriersmc/simkernel.py",
           "            v1 *= t - t0\n            v1 /= t1 - t0\n",
           "            v1 *= (t - t0) / (t1 - t0)\n",
           tuple(f"{PINS}[{c}-custom]"
                 for c in ("fixed_sign", "kinfty-concave", "kinfty-convex"))),
    Mutant("writer_turns_negative_zero_positive", "src/barriersmc/fieldtext.py",
           "part = values.tolist()", "part = (values + 0.0).tolist()",
           ("tests/test_experiment.py::TestTrajectoryCsv::"
            "test_byte_format_and_bitwise_round_trip",)),
    # `fieldtext.fields` gives the bytes of `%`: log10 may round across a
    # power of ten, a near-tie needs `%` to round it to even, and the
    # longdouble products are exact only from correctly rounded powers of ten
    Mutant("field_exponent_left_one_off", "src/barriersmc/fieldtext.py",
           "        e += off\n", "", (f"{FIELDS}::test_edge_cases[powers_of_ten]",)),
    Mutant("field_ties_rounded_up", "src/barriersmc/fieldtext.py",
           "    near_tie = np.abs(frac - 0.5) < 1 / 64\n    digits += frac > 0.5\n",
           "    near_tie = frac != frac\n    digits += frac >= 0.5\n",
           (f"{FIELDS}::test_edge_cases[ties]",)),
    Mutant("field_powers_of_ten_from_doubles", "src/barriersmc/fieldtext.py",
           'np.array([f"1e{k}" for k in powers], np.longdouble)',
           'np.array([float(f"1e{k}") for k in powers], np.longdouble)',
           (f"{FIELDS}::test_each_power_of_ten_is_correctly_rounded",
            f"{FIELDS}::test_edge_cases[every_layout]")),
    # a field must hold the widest %.17g text of a double, 24 bytes
    Mutant("field_narrower_than_the_widest_double", "src/barriersmc/fieldtext.py",
           "WIDTH = 24", "WIDTH = 23", (ROWS,)),
    Mutant("last_column_ends_in_a_comma", "src/barriersmc/experiment.py",
           'cells[:, -1, WIDTH] = ord("\\n")', 'cells[:, -1, WIDTH] = ord(",")', (ROWS,)),
    Mutant("relay_sign_as_copysign", "src/barriersmc/simkernel.py",
           "u = -g if s > 0.0 else g if s < 0.0 else -g * 0.0", "u = -math.copysign(g, s)",
           (ORACLE, f"{EDGE}[kinfty_concave_s0_-0]", f"{EDGE}[kinfty_convex_s0_-0]",
            f"{EDGE}[saturated_s0_-0]")),
    # kg = -0.0 from t_f on would freeze the feedforward as +0.0 * z
    Mutant("tbg_frozen_feedforward_as_positive_zero", "src/barriersmc/controllers.py",
           "                break\n", "                w[-1] = 0.0 * zk\n                break\n",
           (f"{EDGE}[tbg_rests_on_the_surface]",)),
    # the relay loop yields u alone: its odd slots are u, not gains
    Mutant("relay_gain_column_from_unwritten_records", "src/barriersmc/simkernel.py",
           "u, g = (ug, np.abs(ug)) if relay", "u, g = (ug, ug[1::2]) if relay", (ORACLE,)),
    Mutant("no_divergence_scan_on_an_exception", "src/barriersmc/simkernel.py",
           "    if not (math.isfinite(s[k])", "    if not raised and not (math.isfinite(s[k])",
           (f"{EDGE}[pole_after_state_overflow]",
            "tests/test_simkernel.py::test_a_later_pole_does_not_hide_the_state_divergence")),
    # the loop's state adds the applied u: the commanded one leaves clamped runs
    Mutant("states_rebuilt_from_the_commanded_u", "src/barriersmc/simkernel.py",
           "np.add(ua, drec, out=inc)", "np.add(u, drec, out=inc)",
           (ORACLE, f"{EDGE}[clamped]", f"{EDGE}[clamped_s0_-0]")),
    Mutant("states_summed_from_zero", "src/barriersmc/simkernel.py",
           "s[0], inc = cfg.s0, s[1:]", "s[0], inc = 0.0, s[1:]",
           (f"{EDGE}[clamped_s0_-0]", f"{EDGE}[kinfty_convex_s0_-0]", ORACLE)),
    # the law of a negative s: K is only defined on |s|
    Mutant("relay_gain_of_a_negative_s", "src/barriersmc/simkernel.py",
           "else gain(-s) if s < 0.0", "else gain(s) if s < 0.0",
           (ORACLE, f"{PINS}[kinfty-concave-piecewise_vii]", f"{PINS}[kinfty-convex-sinusoid]")),
    # the clamp turns an infinite control finite: a finite last state misses it
    Mutant("clamped_controls_unscanned", "src/barriersmc/simkernel.py",
           "math.isfinite(s[k]) and (u_max is None or np.isfinite(u).all())",
           "math.isfinite(s[k])", (f"{EDGE}[clamped_infinite_gain]",)),
    # an overflowing or inf - inf state is inf or nan, as in the loop, and no warning
    Mutant("states_rebuilt_outside_errstate", "src/barriersmc/simkernel.py",
           '    with np.errstate(over="ignore", invalid="ignore"):', "    if True:",
           (f"{EDGE}[relay_diverges_with_infinite_gain]",
            "tests/test_simkernel.py::test_a_later_pole_does_not_hide_the_state_divergence")),
    # a reference control may raise, so its loop's length is not known beforehand
    Mutant("reference_loop_given_a_count", "src/barriersmc/simkernel.py",
           "-1 if law is None else m if relay", "2 * m if law is None else m if relay",
           (f"{EDGE}[pole]", f"{EDGE}[reference_pole_after_steps]")),
    # the relay and TBG loops catch nothing: past the overflow, atan(1/y) is 0.0
    Mutant("convex_gain_divides_by_zero_past_overflow", "src/barriersmc/gains.py",
           "        if y == inf:  # abs_s/lambda2 overflowed: K is unbounded\n            return inf\n",
           "", ("tests/test_gains.py::test_kinf_gain_raises_on_no_magnitude",)),
    # equivalent: e = s - z is never -0.0 (z = s0 at step 0 gives e = +0.0),
    # and K(0) = +0.0, so copysign(g, e) and the signed product agree
    Mutant("tbg_sign_as_copysign", "src/barriersmc/simkernel.py",
           "u = w - (g if e > 0.0 else -g if e < 0.0 else g * 0.0)",
           "u = w - math.copysign(g, e)", TBG_TESTS, "equivalent"),
    # equivalent: kg is 0.0 from t_f on, and z there is neither -0.0 nor
    # infinite, so one more update z -= h*0.0*z leaves it as it is
    Mutant("tbg_tail_after_the_boundary_update", "src/barriersmc/controllers.py",
           "return z + z[-1:] * rest,",
           'return z + array("d", [z[-1] - h * 0.0 * z[-1]]) * rest,',
           TBG_TESTS, "equivalent"),
    # --- robustness: names, step counts, chattering windows
    Mutant("nul_name_accepted", "src/barriersmc/experiment.py",
           r'set("/\\\0")', r'set("/\\")',
           ("tests/test_cli.py::"
            "test_name_that_cannot_name_an_output_file_exits_2[a\\x00b]",)),
    # a line break in a name splits its CSV row, as a comma splits its field
    Mutant("line_break_name_accepted", "src/barriersmc/experiment.py",
           'frozenset(",\\n\\r")', 'frozenset(",")',
           ("tests/test_cli.py::"
            "test_plot_trajectory_file_with_a_line_break_in_its_name_exits_2[newline]",)),
    # `<name>.csv` longer than a file name fails only once `run` writes it
    Mutant("long_name_accepted", "src/barriersmc/experiment.py",
           'len(os.fsencode(name + ".csv")) <= 255', 'len(os.fsencode(name + ".csv")) > 0',
           tuple(f"tests/test_cli.py::test_name_that_cannot_name_an_output_file_exits_2[{case}]"
                 for case in ("252_ascii_bytes", "126_two_byte_characters"))),
    # a lone surrogate fails `os.fsencode`: a traceback, not a configuration error
    Mutant("unencodable_name_accepted", "src/barriersmc/experiment.py",
           "            fits = False\n", "            fits = True\n",
           ("tests/test_experiment.py::"
            "test_a_name_the_file_system_cannot_encode_cannot_name_an_output_file",)),
    # `.csv` is a hidden file, and `dumps_config` would write a `[]` header
    Mutant("empty_name_accepted", "src/barriersmc/experiment.py",
           'name in ("", ".", "..", "summary")', 'name in (".", "..", "summary")',
           ("tests/test_experiment.py::test_the_empty_name_cannot_name_an_output_file",)),
    # the first sample alone misses a table that ends early and an argument
    # that overflows later
    Mutant("disturbance_probed_at_the_first_sample_only", "src/barriersmc/simkernel.py",
           "for t in (0.0, n * h):", "for t in (0.0,):",
           ("tests/test_experiment.py::"
            "test_a_spec_is_rejected_exactly_when_its_disturbance_misses_a_sample",
            "tests/test_cli.py::test_disturbance_run_cannot_sample_exits_2"
            "[piecewise_vii_argument_overflow]")),
    # the probe samples at t = inf, where sin(0 * inf) is nan and raises nothing
    Mutant("last_sample_time_unchecked", "src/barriersmc/simkernel.py",
           "if not math.isfinite(n_steps(self) * self.h):", "if False:",
           ("tests/test_cli.py::test_disturbance_run_cannot_sample_exits_2"
            "[last_sample_time_overflow]",)),
    # an overflowing table interpolates to nan: `run` reports a divergence
    Mutant("table_span_unchecked", "src/barriersmc/simkernel.py",
           'raise ValueError("table value range times time span must be finite")', "pass",
           ("tests/test_cli.py::test_disturbance_run_cannot_sample_exits_2"
            "[table_interpolation_overflow]",)),
    # only `validate` runs: `run` would start the huge simulation
    Mutant("step_count_unchecked", "src/barriersmc/simkernel.py",
           "self.t_end >= self.h and self.t_end / self.h <= MAX_STEPS", "self.t_end >= self.h",
           ("tests/test_simkernel.py::TestSimConfig::test_step_count_ceiling",
            "tests/test_cli.py::test_step_too_small_for_the_horizon_exits_2[validate]",
            "tests/test_cli.py::test_step_count_over_the_ceiling_exits_2[validate]")),
    Mutant("chattering_window_unguarded", "src/barriersmc/experiment.py",
           "    except ValueError:  # fewer than two samples",
           "    except ZeroDivisionError:  # fewer than two samples",
           tuple(f"tests/test_cli.py::test_chattering_window_run_cannot_fill[{case}]"
                 for case in ("default_window_one_sample", "window_between_samples"))),
    # a failed simulation leaves `sweep` as a row, through `run_experiment`:
    # `cli.main` catches no simulation error
    Mutant("sweep_bound_failure_raises", "src/barriersmc/experiment.py",
           "    except (SimulationDiverged, DisturbanceBoundError) as exc:\n",
           "    except SimulationDiverged as exc:\n",
           ("tests/test_experiment.py::TestSweep::test_a_disturbance_over_d_bar_is_a_row[1]",
            "tests/test_cli.py::test_sweep_disturbance_over_d_bar_exits_3")),
    # a sweep point is scored without the base's expectations, which a
    # non-positive target (no sigma_target) could not carry
    Mutant("sweep_keeps_base_expectations", "src/barriersmc/experiment.py",
           "replace(base, expect=_NO_EXPECTATIONS,\n", "replace(base,\n",
           ("tests/test_experiment.py::TestSweep::test_zero_target_infeasible",)),
    # the disturbance is sampled once per base, not once per grid point
    Mutant("sweep_samples_per_point", "src/barriersmc/experiment.py",
           "                                column, tbg)",
           "                                None, tbg)",
           ("tests/test_experiment.py::TestSweep::test_tbg_columns_are_built_once_per_base",)),
    # each simulate call starts the reference loop's controller from scratch
    Mutant("reference_loop_reuses_caller_state", "src/barriersmc/simkernel.py",
           "control, state = c.spec.control, ControllerState()",
           "control, state = c.spec.control, c.state",
           ("tests/test_simkernel.py::test_one_controller_gives_the_same_run_twice",)),
    # `validate` builds no array, so it must not pay numpy's import time
    Mutant("numpy_imported_with_the_package", "src/barriersmc/analysis.py",
           "from barriersmc.controllers import", "import numpy\nfrom barriersmc.controllers import",
           ("tests/test_cli.py::test_cli_and_config_loading_import_no_numpy",)),
    # --- the config key reader and the trajectory files of `run`
    Mutant("number_accepts_non_finite", "src/barriersmc/experiment.py",
           "    if not math.isfinite(v):\n", "    if False:\n",
           (f"{MESSAGE}[inf]", f"{MESSAGE}[nan]")),
    Mutant("empty_value_read_as_absent", "src/barriersmc/experiment.py",
           "        if raw is None:\n", "        if not raw:\n",
           (f"{MESSAGE}[empty_required]", f"{MESSAGE}[empty_optional]")),
    Mutant("numbers_fast_path_unchecked", "src/barriersmc/experiment.py",
           "        if math.isfinite(sum(values)):  # no inf or nan; an overflow reads below\n"
           "            return values\n",
           "        return values\n", (f"{MESSAGE}[non_finite_list_entry]",)),
    Mutant("stale_trajectory_kept", "src/barriersmc/experiment.py",
           "            path.unlink(missing_ok=True)", "            pass",
           ("tests/test_cli.py::test_rerun_without_a_trajectory_leaves_no_stale_csv",)),
    Mutant("empty_record_written", "src/barriersmc/experiment.py",
           "if r.trajectory is not None and len(r.trajectory):",
           "if r.trajectory is not None:",
           ("tests/test_experiment.py::TestRunBatch::"
            "test_a_divergence_at_the_first_sample_writes_no_csv",
            "tests/test_cli.py::test_run_never_tracebacks")),
    Mutant("duplicate_config_key_kept", "src/barriersmc/experiment.py",
           "            elif key in items:\n", "            elif False:\n",
           ("tests/test_experiment.py::TestReadIni::"
            "test_rejected_form_names_source_and_line[duplicate_key]",)),
    Mutant("bad_csv_line_counted_from_the_first_row", "src/barriersmc/experiment.py",
           "enumerate(lines[1:], start=2)", "enumerate(lines[1:], start=1)",
           tuple(f"tests/test_cli.py::test_plot_malformed_trajectory_exits_2[{case}]"
                 for case in ("non_number", "short_row"))),
    # a declared limit is met at equality
    Mutant("expectation_limit_inclusive", "src/barriersmc/experiment.py",
           "elif value > limit:", "elif value >= limit:",
           tuple(f"tests/test_experiment.py::test_expectation_message[{key}-at_the_limit]"
                 for key in ("t_conv_max", "sigma_max", "gain_max_post"))),
    # --- what `plot` looks up instead of parsing: the text of the columns `run` wrote
    Mutant("record_keyed_by_file_path", "src/barriersmc/experiment.py",
           "_WRITTEN[digest] = {", "_WRITTEN[path] = {",
           ("tests/test_cli.py::test_a_byte_copy_of_a_written_trajectory_is_looked_up",
            "tests/test_cli.py::test_run_never_tracebacks")),
    # a key by value takes -0.0 for 0.0: two columns that differ only in the
    # sign of a zero would share one text
    Mutant("column_text_keyed_by_value", "src/barriersmc/experiment.py",
           "hashlib.sha256(part).digest()", "hash(tuple(part.tolist()))",
           ("tests/test_experiment.py::TestRunBatch::"
            "test_columns_that_differ_only_in_the_sign_of_zero_keep_their_text",)),
    # columns with two texts can still be equal: a figure from the record
    # must then pass the grid and disturbance checks, as the parsed files do
    Mutant("grid_check_compares_keys_not_values", "src/barriersmc/experiment.py",
           "np.array_equal(_floats(a), _floats(b))", "np.array_equal(a, b)",
           ("tests/test_cli.py::"
            "test_a_figure_from_the_record_is_the_figure_from_the_files[signed_zero_d]",)),
    # `==` between a tuple of text and a float array broadcasts and raises:
    # a figure of one recorded and one parsed file compares the two
    Mutant("record_text_compared_with_parsed_floats", "src/barriersmc/experiment.py",
           "isinstance(a, tuple) and isinstance(b, tuple) and a == b",
           "isinstance(a, tuple) and a == b",
           ("tests/test_cli.py::"
            "test_a_figure_from_the_record_is_the_figure_from_the_files[mixed]",)),
    # a field that fills all its bytes has no blank to split the recorded text at
    Mutant("recorded_text_split_at_blanks", "src/barriersmc/experiment.py",
           'np.frombuffer(b"".join(col), f"S{WIDTH}").astype(np.float64)',
           "np.array([float(v) for part in col for v in part.split()])",
           ("tests/test_cli.py::"
            "test_a_figure_from_the_record_is_the_figure_from_the_files[widest_d]",)),
    # --- the paper's claims: the first entry into the band comes by the reaching bound
    Mutant("reach_bound_without_the_last_step", "src/barriersmc/analysis.py",
           "float(np.sum(np.diff(x) / rate)) + sim.h", "float(np.sum(np.diff(x) / rate))",
           (f"{REACH}::test_on_a_capped_stretch_the_bound_is_the_linear_descent",)),
    # right endpoints under-estimate the integral of a decreasing integrand
    Mutant("reach_bound_from_right_endpoints", "src/barriersmc/analysis.py",
           "for v in x[:-1].tolist()", "for v in x[1:].tolist()",
           (f"{REACH}::test_at_least_the_integral",)),
    Mutant("reach_bound_ignores_the_actuator_clamp", "src/barriersmc/analysis.py",
           "min(controller.cap, sim.u_max or math.inf)", "controller.cap",
           (f"{REACH}::test_inf_where_the_applied_gain_cannot_beat_the_disturbance",)),
    # --- no gain overestimation once settled in the band
    # the classical law integrates |s|: a signed s lets its gain fall back
    Mutant("classical_gain_integrates_signed_s", "src/barriersmc/controllers.py",
           "st.k_a += h * p.k_bar * abs(s)", "st.k_a += h * p.k_bar * s",
           ("tests/test_acceptance.py::test_criterion_12_classical_law_overestimates",)),
    Mutant("settled_peak_gain_reads_the_whole_record", "src/barriersmc/analysis.py",
           "mask = traj.t >= t_conv + SETTLE_PAD", "mask = traj.t >= traj.t[0]",
           ("tests/test_acceptance.py::test_criterion_6_no_overestimation",)),
    # a converged run still lists its escapes: the relay of criterion 5 has six
    Mutant("converged_escapes_never_reenter", "src/barriersmc/analysis.py",
           "zip_longest(times[0::2], times[1::2])", "zip_longest(times[0::2], ())",
           ("tests/test_acceptance.py::test_criterion_5_saturation_contrast",)),
    # the criteria read the report `run_experiment` made, at the spec's own band
    Mutant("report_at_another_band", "src/barriersmc/experiment.py",
           "analysis.convergence_time(traj, spec.sigma_target)",
           "analysis.convergence_time(traj, 2 * spec.sigma_target)",
           ("tests/test_acceptance.py::test_criterion_1_ultimate_bounds",
            "tests/test_acceptance.py::test_criterion_5_saturation_contrast")),
)


def occurrences(m: Mutant) -> int:
    return (REPO / m.file).read_text().count(m.old)


def outcome(m: Mutant) -> str:
    """killed, survived, stale or error: the mutant applied to a copy of
    the repository, and only its tests run there."""
    if occurrences(m) != 1:
        return "stale"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp)
        for name in COPIED:
            if (REPO / name).is_dir():
                shutil.copytree(REPO / name, root / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(REPO / name, root / name)
        path = root / m.file
        path.write_text(path.read_text().replace(m.old, m.new))
        paths = [str(root / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        pytest = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
        quiet = dict(stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            code = subprocess.run([*pytest, *m.tests], cwd=root, env=env, timeout=TIMEOUT_S,
                                  **quiet).returncode
        except subprocess.TimeoutExpired:
            return "error"
    # pytest exits 2 (interrupted, e.g. a collection error), 3 (internal
    # error), 4 (usage error: a node id not found) or 5 (no tests collected)
    return {0: "survived", 1: "killed", 4: "stale", 5: "stale"}.get(code, "error")


def main() -> int:
    wrong = 0
    for m in MUTANTS:
        got = outcome(m)
        wrong += got != {"killed": "killed", "equivalent": "survived"}[m.expect]
        print(f"{got:8} {m.name} (expected {m.expect})", flush=True)
    print(f"{len(MUTANTS) - wrong} of {len(MUTANTS)} mutants as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
