"""Byte pins for the controller, gain-law and disturbance variants that the
replay golden (`benchmark/replay_sha256.json`) does not exercise.

Every controller (each gain law, where it takes one) runs under every
disturbance for 2001 samples; the sha256 of the six trajectory arrays'
bytes must match the pin. The combinations are read from the config schema,
so a variant added there without a pin here fails `test_every_variant_is_pinned`.
"""

import hashlib

import pytest

from barriersmc import experiment
from barriersmc.controllers import Controller
from barriersmc.simkernel import simulate

# Keys of each config name; the law keys are added for controllers with a law.
CONTROLLER_KEYS = {
    "kinfty": "",
    "saturated": "k_max = 0.6\n",
    "obeid": "epsilon = 0.1\nk_bar = 2.0\n",
    "tbg": "t_f = 2.0\ndelta = 1e-05\n",
    "fixed_sign": "k = 0.25\n",
}
LAW_KEYS = {
    "concave": "rho = 1.0\nlam = 0.01366\n",
    "convex": "rho = 5.0\nlam = 0.05\n",
}
DISTURBANCE_KEYS = {
    "piecewise_vii": "",
    "sinusoid": "amplitude = 0.15\nomega = 2.0\nphase_rad = 0.7\n",
    "custom": ("table_t = 0.0, 1.5, 4.0, 6.5, 10.0\n"
               "table_d = 0.1, -0.15, 0.2, -0.05, 0.12\n"),
}
# 2001 samples over [0, 10]: both branches of piecewise_vii, all table segments
PLANT = "d_bar = 0.2\ns0 = 1.0\nh = 0.005\nt_end = 10.0\n"

# sha256 of t, s, u_commanded, u_applied, gain, d (float64 bytes, in that
# order), computed before controllers, gain laws and disturbances carried
# their own evaluators.
PINS = {
    "fixed_sign-custom": "9efade49acb47774a63efe621eb088928f8eaad60c762c098a1849bee8fa7109",
    "fixed_sign-piecewise_vii": "70672ec43b980450f2b86cef0255345ffb060699dfd7899d980a59bcf0aa3a77",
    "fixed_sign-sinusoid": "9ffc59d8bd6a142b8009793de456859c7ae3c8d5d904fbf5cb000a6f40602e1c",
    "kinfty-concave-custom": "be5dbf46084540357072fa3e99543b7233fea51849a28d0563c0ae434b566420",
    "kinfty-concave-piecewise_vii": "e071a06d7d3cbde68f6592ddab537d4d589a940d66e862e009102c8b072c8e63",
    "kinfty-concave-sinusoid": "7b4c00623068ecfb1130d57283929f567485bedb842d194319015999311641dd",
    "kinfty-convex-custom": "05b4f31c38a292b8215b2952f20779508746486d9ecd79add1d382e74f2c67a0",
    "kinfty-convex-piecewise_vii": "0a7e644635bf681e80cc7b784cc9ab8e9bb51f48011f0f950efde40789e145dc",
    "kinfty-convex-sinusoid": "e1f790a5b02a2e6af93e84bb5ecdd5d2f943cdc4507076e44564cdcd46a58767",
    "obeid-custom": "4932f0a1e2b728b92e5be63b57e4194696108761be8628d30625c9de0bd5ae9e",
    "obeid-piecewise_vii": "1a05f11d9c677477ddc4f4f8971ecd95dbae759cb3be07b6403a6a54d81fda98",
    "obeid-sinusoid": "7242f38ae6a3997db6db399e7bec6ec3a9fbd51e54260db350f13d655240018e",
    "saturated-concave-custom": "7ac7d713d2e75506cfe44f59eb66f46af7b80865c1262e07c0c83b9efb7c77e6",
    "saturated-concave-piecewise_vii": "0beedd576e78086cf894b8851e2b8ea6c4cfe5674b2a224995b3ce1f5bcb137f",
    "saturated-concave-sinusoid": "46e1a698b652538d846c0ba87dbb794565652980e06951600074479fad9894b5",
    "saturated-convex-custom": "7e260dda1c3d39e9298d37a3ded351dd82b0eca357eb5c5495f410d686eb31e6",
    "saturated-convex-piecewise_vii": "9c70e2d9624ce6de83a8a535fd080875b0a861dcdbf2584d0e695dc17a372f7e",
    "saturated-convex-sinusoid": "8102d44478e25a8020acc5c8703a7e29f6e5f9c3e8463bf6979b3871824a90b7",
    "tbg-concave-custom": "6b99a4e01981da732d37d32948ba6f66f80022a462115ca31f812bdbb70cd2f8",
    "tbg-concave-piecewise_vii": "895394e1356009e748af5f1b730cdc4c02c0ce24c11bc89c9aa00c1a18068423",
    "tbg-concave-sinusoid": "b863a70325d643fa8090157af703016c85df4f501d8961c401c6d8008b7d8953",
    "tbg-convex-custom": "b55af7374e9ebaadf5ab6295723bde8e4e87ee9664128bc5c392dc9882d7ca24",
    "tbg-convex-piecewise_vii": "b754a33070167686963d7d459570122dd6ef4f5ca99965b87b62bdfcf0d51016",
    "tbg-convex-sinusoid": "958bfb7e2f2c3cf272f352fcfe6d89c7d2f558b50f40b923c5ebd961846b9ffd",
}


def _families():
    """The config schema's variant families, by selecting key."""
    found, stack = {}, [experiment._SPEC]
    while stack:
        node = stack.pop()
        if isinstance(node, experiment._Family):
            found[node.key] = node
            stack.extend(node.variants.values())
        elif isinstance(node, experiment._Record):
            stack.extend(key for key, _ in node.keys)
    return found


def _combinations():
    """{pin id: config section} for every controller/law/disturbance name."""
    families = _families()
    laws = families["law"].variants
    combos = {}
    for ctrl, rec in families["controller"].variants.items():
        with_law = any(key is families["law"] for key, _ in rec.keys)
        for law in (laws if with_law else [None]):
            for dist in families["disturbance"].variants:
                name = "-".join(filter(None, (ctrl, law, dist)))
                combos[name] = (
                    f"[{name}]\ncontroller = {ctrl}\n"
                    + (f"law = {law}\n{LAW_KEYS[law]}" if law else "")
                    + CONTROLLER_KEYS[ctrl]
                    + f"disturbance = {dist}\n{DISTURBANCE_KEYS[dist]}{PLANT}")
    return combos


def trajectory_sha256(section: str) -> str:
    (spec,) = experiment.loads_config(section)
    traj = simulate(Controller(spec.controller), spec.disturbance, spec.sim)
    digest = hashlib.sha256()
    for column in experiment.TRAJECTORY_COLUMNS:
        digest.update(getattr(traj, column).tobytes())
    return digest.hexdigest()


def test_every_variant_is_pinned():
    assert sorted(_combinations()) == sorted(PINS)


@pytest.mark.parametrize("name", sorted(PINS))
def test_variant_trajectory_bytes(name):
    assert trajectory_sha256(_combinations()[name]) == PINS[name]


if __name__ == "__main__":  # print the pins for the code on the path
    for name, section in sorted(_combinations().items()):
        print(f'    "{name}": "{trajectory_sha256(section)}",')
