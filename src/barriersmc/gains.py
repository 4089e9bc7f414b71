"""Gain laws for adaptive relay control: two class-Kinf barrier gains
(logarithmic/concave and arctangent/convex) and the legacy bounded
barrier, plus closed-form inverses and ultimate-bound radii.

Each law is an immutable parameter record that carries its own evaluator:
`gain(abs_s)` on every law and the closed-form `inverse(k)` on the
class-Kinf ones. Parameters are validated once at construction, so the
per-sample path is one method call with no dispatch over variants.
`eval_gain` and `gain_inverse` delegate to those methods and reject
anything that is not a law (or, for the inverse, not a class-Kinf law).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import atan, inf, log1p

# exp() overflows just past 709 in double precision; keep a margin.
_EXP_ARG_MAX = 700.0
_HALF_PI = 0.5 * math.pi  # bound once: `gain` runs once per simulation step


class GainRangeError(ValueError):
    """Inverse gain evaluation left the representable double range."""


class UnsupportedVariantError(TypeError):
    """Requested operation is undefined for this gain-law variant."""


class BarrierPoleError(ArithmeticError):
    """Legacy barrier gain evaluated exactly at its pole."""


def _require_positive(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")


@dataclass(frozen=True)
class ConcaveParams:
    """Logarithmic gain K(x) = rho1 * ln(x/lambda1 + 1): strictly increasing,
    concave, unbounded."""

    rho1: float
    lambda1: float

    def __post_init__(self) -> None:
        _require_positive("rho1", self.rho1)
        _require_positive("lambda1", self.lambda1)

    def gain(self, abs_s: float) -> float:
        """rho1 * ln(abs_s/lambda1 + 1); zero at zero, strictly increasing."""
        return self.rho1 * log1p(abs_s / self.lambda1)

    def inverse(self, k: float) -> float:
        """Exact inverse lambda1 * (e^{k/rho1} - 1) of `gain`."""
        arg = k / self.rho1
        if abs(arg) > _EXP_ARG_MAX:
            raise GainRangeError(
                f"k/rho1 = {arg:g} exceeds the double-precision exponent range"
            )
        return self.lambda1 * math.expm1(arg)


@dataclass(frozen=True)
class ConvexParams:
    """Arctangent-ratio gain K(x) = rho2 * atan(x/lambda2) / (pi/2 - atan(x/lambda2)):
    strictly increasing, convex, unbounded."""

    rho2: float
    lambda2: float

    def __post_init__(self) -> None:
        _require_positive("rho2", self.rho2)
        _require_positive("lambda2", self.lambda2)

    def gain(self, abs_s: float) -> float:
        """rho2 * atan(abs_s/lambda2) / (pi/2 - atan(abs_s/lambda2)).

        Uses atan(y) + atan(1/y) = pi/2 to keep both the numerator and the
        denominator well conditioned on either side of abs_s = lambda2; the
        naive subtraction cancels catastrophically for large abs_s.
        """
        y = abs_s / self.lambda2
        if y <= 1.0:
            a = atan(y)
            return self.rho2 * a / (_HALF_PI - a)
        if y == inf:  # abs_s/lambda2 overflowed: K is unbounded
            return inf
        b = atan(1.0 / y)
        return self.rho2 * (_HALF_PI - b) / b

    def inverse(self, k: float) -> float:
        """Exact inverse lambda2 * tan(pi*k / (2*(k + rho2))) of `gain`.

        The tangent argument stays strictly below pi/2 for every finite k >= 0,
        so the result is finite. For k > rho2 the cotangent of the complementary
        angle is used; the angle pi/2 * rho2/(k + rho2) is computed directly
        instead of by subtraction near pi/2.
        """
        if k <= self.rho2:
            return self.lambda2 * math.tan(0.5 * math.pi * k / (k + self.rho2))
        return self.lambda2 / math.tan(0.5 * math.pi * self.rho2 / (k + self.rho2))


@dataclass(frozen=True)
class PsbParams:
    """Legacy two-phase barrier: half-width epsilon of the pole barrier
    |s|/(epsilon - |s|) and reaching-phase adaptation rate k_bar."""

    epsilon: float
    k_bar: float

    def __post_init__(self) -> None:
        _require_positive("epsilon", self.epsilon)
        _require_positive("k_bar", self.k_bar)

    def gain(self, abs_s: float) -> float:
        """Legacy barrier abs_s / (epsilon - abs_s), evaluated literally.

        Past the pole (abs_s > epsilon) the value is negative; this is the
        documented failure mode of the two-phase controller under actuator
        saturation and is deliberately not clamped.
        """
        if abs_s == self.epsilon:
            raise BarrierPoleError(f"barrier pole at |s| = epsilon = {self.epsilon:g}")
        return abs_s / (self.epsilon - abs_s)


KinfLaw = ConcaveParams | ConvexParams  # the laws with a closed-form inverse
GainLaw = KinfLaw | PsbParams


@dataclass(frozen=True)
class UltimateBound:
    """Predicted real-sliding-band radius sigma = K^{-1}(d_bar)."""

    sigma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma!r}")


def eval_gain(law: GainLaw, abs_s: float) -> float:
    """Evaluate any gain law at |s|."""
    if not isinstance(law, GainLaw):
        raise UnsupportedVariantError(f"not a gain law: {law!r}")
    return law.gain(abs_s)


def gain_inverse(law: GainLaw, k: float) -> float:
    """Inverse of a class-Kinf law; undefined for the legacy barrier."""
    if not isinstance(law, KinfLaw):
        raise UnsupportedVariantError(
            f"no class-Kinf inverse for variant {type(law).__name__}"
        )
    return law.inverse(k)


def ultimate_bound(law: KinfLaw, d_bar: float) -> UltimateBound:
    """Analysis-side real-sliding radius K^{-1}(d_bar) for a class-Kinf law."""
    _require_positive("d_bar", d_bar)
    return UltimateBound(gain_inverse(law, d_bar))
