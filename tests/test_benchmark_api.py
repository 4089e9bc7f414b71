"""The program API that `benchmark/` calls, checked in the tier-1 suite.

The benchmark's own self-tests (`python3 -m pytest benchmark`) sit outside
`testpaths`, so a change to `src/` could break a name, a call form or a
return type that the benchmark reads without failing a test here; every
operation of that workload would then fail. These checks import the
benchmark as its self-tests do and run one small operation of each kind.
"""

import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "benchmark"
sys.path.insert(0, str(BENCH))

import microbench  # noqa: E402
import run  # noqa: E402


def test_traced_functions_exist():
    program = run.load_program()
    for module, names in run.TRACED.items():
        for name in names:
            assert callable(getattr(getattr(program, module), name, None)), f"{module}.{name}"


def test_microbench_measures_every_metric():
    want = {f"{layer}.{v}" for layer in ("simkernel.us_per_step", "controllers.control_us")
            for v in microbench.VARIANTS}
    want |= {f"gains.eval_us.{v}" for v in ("concave", "convex", "psb")}
    want |= {f"gains.inverse_us.{v}" for v in ("concave", "convex")}
    got = microbench.measure(run.load_program())
    assert len(want) == 17 and got.keys() == want
    assert all(math.isfinite(us) and us > 0 for us in got.values())


def test_sweep_operation_matches_its_reference(tmp_path):
    workload = run.Sweep(run.load_program(), 7, tmp_path)
    assert workload.check(workload.run_op(None)) is None
