"""The tooling scripts that the performance, code-size and test-strength
measures rest on: `scripts/loc.py` counts code lines, `scripts/bench.py`
records benchmark runs (the benchmark itself is replaced by a stub), and
`scripts/mutants.py` holds the mutant kill list, which is checked here for
staleness only: its mutants are not run."""

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCRIPTS = REPO / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


loc, bench, mutants = load("loc"), load("bench"), load("mutants")

MODULE = '''"""Module docstring,
over two lines."""

# a comment
x = 1  # a trailing comment


def f(
    y,
):
    """A docstring."""
    return (y +
            1)
'''


def test_loc_counts_the_code_lines_of_each_module(tmp_path, capsys):
    # a.py: x = 1 (1 line), the def over 3 lines, the return over 2
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text('\n# only a comment\n"""and a docstring"""\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "    6 a.py\n    0 b.py\n    6 total\n"


STUB = '''import json, sys
for name in ("replay", "sweep"):
    print(json.dumps({"info": {"workload": name, "argv": sys.argv}}))
    print(json.dumps({"op_ms_p50": len(name)}))
sys.exit(CODE)
'''


# the command names an argument of its own, so the run shows where it came from
COMMAND = ["python3", "benchmark/run.py", "--from-benchmark-json"]


def checkout(tmp_path, code):
    """A directory whose BENCHMARK.json runs benchmark/run.py, which prints
    two info/result pairs, then exits with `code`."""
    (tmp_path / "benchmark").mkdir()
    (tmp_path / "benchmark" / "run.py").write_text(STUB.replace("CODE", str(code)))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"command": COMMAND}))
    return tmp_path


def bench_main(tmp_path, out, code):
    return bench.main(["--out", str(out), "--label", "change",
                       "--checkout", str(checkout(tmp_path, code)),
                       "--", "--workload", "all", "--seconds", "1"])


def test_bench_appends_one_record_per_workload(tmp_path, capsys):
    out = tmp_path / "BENCH.json"
    out.write_text('[{"label": "parent"}]\n')
    assert bench_main(tmp_path, out, 0) == 0
    args = ["--workload", "all", "--seconds", "1"]
    argv = [*COMMAND[1:], *args]  # what the stub saw: the command, then the arguments
    assert json.loads(out.read_text()) == [{"label": "parent"}] + [
        {"label": "change", "args": args, "info": {"workload": name, "argv": argv},
         "result": {"op_ms_p50": len(name)}}
        for name in ("replay", "sweep")]
    assert capsys.readouterr().out.count('{"info": ') == 2  # the output is echoed


def test_bench_failure_appends_nothing_and_returns_its_code(tmp_path):
    out = tmp_path / "BENCH.json"
    out.write_text('[{"label": "parent"}]\n')
    assert bench_main(tmp_path, out, 3) == 3
    assert out.read_text() == '[{"label": "parent"}]\n'


def test_every_mutant_still_applies_and_names_existing_tests():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for m in mutants.MUTANTS:
        assert mutants.occurrences(m) == 1, f"{m.name}: its old text must occur exactly once"
        assert m.expect in ("killed", "equivalent") and m.tests, m.name
        for node in m.tests:  # file::[Class::]function[params]
            path, *scope = node.split("[")[0].split("::")
            assert f"def {scope[-1]}(" in (REPO / path).read_text(), f"{m.name}: {node}"
