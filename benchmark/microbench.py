"""Per-step layers timed in isolation: one simulation step per controller
variant, one controller update, one gain-law evaluation and inversion.

These run in a ~1-2 us step, where a span per call would cost as much as
the call itself, so they are timed here as tight loops over fixed inputs
and reported per call. Every loop includes its own iteration overhead
(~30-50 ns per call on a 2-core Xeon host).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REPEATS = 5

# One section per controller variant, all on the sec7 plant and disturbance.
VARIANTS = {
    "kinfty_concave": "controller = kinfty\nlaw = concave\nrho = 1.0\nlam = 0.01366",
    "kinfty_convex": "controller = kinfty\nlaw = convex\nrho = 5.0\nlam = 0.05",
    "saturated": ("controller = saturated\nlaw = convex\nrho = 5.0\nlam = 0.05\n"
                  "k_max = 5.0"),
    "tbg": ("controller = tbg\nlaw = convex\nrho = 5.0\nlam = 0.05\nt_f = 2.0\n"
            "delta = 1e-05"),
    "obeid": "controller = obeid\nepsilon = 0.1\nk_bar = 2.0",
    "fixed_sign": "controller = fixed_sign\nk = 0.25",
}
PLANT = "disturbance = piecewise_vii\nd_bar = 0.2\ns0 = 1.0\nh = 0.001\nt_end = 5.0\n"


def _median_seconds(loop):
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


def measure(program):
    """Return {metric name: microseconds per call} for every variant."""
    experiment, simkernel = program.experiment, program.simkernel
    Controller, gains = program.controllers.Controller, program.gains
    text = "".join(f"[{name}]\n{items}\n{PLANT}\n" for name, items in VARIANTS.items())
    out = {}
    for spec in experiment.loads_config(text, source="microbench"):
        traj = simkernel.simulate(Controller(spec.controller), spec.disturbance, spec.sim)
        steps = len(traj) - 1
        secs = _median_seconds(lambda: simkernel.simulate(
            Controller(spec.controller), spec.disturbance, spec.sim))
        out[f"simkernel.us_per_step.{spec.name}"] = secs / steps * 1e6

        # Replay the recorded states with the argument types simulate passes:
        # numpy scalar times, Python float states.
        ts, ss, h = list(traj.t), traj.s.tolist(), spec.sim.h

        def control_loop():
            control = Controller(spec.controller).control
            for tk, sk in zip(ts, ss):
                control(tk, sk, h)

        out[f"controllers.control_us.{spec.name}"] = (
            _median_seconds(control_loop) / len(ts) * 1e6)

    xs = np.geomspace(1e-6, 2.0, 4096).tolist()
    ks = np.linspace(0.0, 5.0, 4096).tolist()
    laws = {"concave": gains.ConcaveParams(1.0, 0.01366),
            "convex": gains.ConvexParams(5.0, 0.05),
            "psb": gains.PsbParams(0.1, 2.0)}
    for name, law in laws.items():
        # stay below the legacy barrier's pole at |s| = epsilon
        args = [x for x in xs if x < 0.09] if name == "psb" else xs

        def eval_loop():
            for x in args:
                gains.eval_gain(law, x)

        out[f"gains.eval_us.{name}"] = _median_seconds(eval_loop) / len(args) * 1e6
    for name in ("concave", "convex"):
        law = laws[name]

        def inverse_loop():
            for k in ks:
                gains.gain_inverse(law, k)

        out[f"gains.inverse_us.{name}"] = _median_seconds(inverse_loop) / len(ks) * 1e6
    return out
