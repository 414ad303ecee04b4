"""The free Schrodinger kernel and the lens identity that links it to the
oscillator kernel: with v = tan 2t,

    K_{i arctan(v)/2}(x, y)
        = (1 + v^2)^{(d + 2 gamma)/4} e^{-i v |x|^2 / 2} L_{i v/2}(x sqrt(1 + v^2), y),

so the free evolution at time v/2 is a dilation + quadratic phase of the
harmonic-oscillator evolution at time arctan(v)/2.  ``lens_relation_residual``
measures the identity pointwise on the two closed-form kernels; it is the
lens check of ``verify-kernels``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hermite import _kernel_body, kernel_Kit
from .structure import DunklStructure, as_points

__all__ = [
    "LensMap",
    "kernel_Lit",
    "lens_relation_residual",
]


@dataclass(frozen=True)
class LensMap:
    """Change of variables v = tan 2t between free and oscillator time."""

    v: float
    d_eff: float
    t_hermite: float = field(init=False)
    scale: float = field(init=False)
    amplitude: float = field(init=False)

    def __post_init__(self):
        if self.v <= 0:
            raise ValueError(f"lens parameter must be positive, got {self.v}")
        object.__setattr__(self, "t_hermite", 0.5 * np.arctan(self.v))
        object.__setattr__(self, "scale", float(np.sqrt(1.0 + self.v**2)))
        object.__setattr__(self, "amplitude", float((1.0 + self.v**2) ** (self.d_eff / 4.0)))

    @property
    def t_free(self) -> float:
        return 0.5 * self.v


def kernel_Lit(s: DunklStructure, t: float, x, y):
    """Kernel of e^{it Laplacian} for t != 0 (principal-branch power)."""
    if t == 0:
        raise ValueError("free Schrodinger kernel undefined at t = 0")
    return _kernel_body(s, 2j * t, 1.0, 1.0, x, y)


def lens_relation_residual(s: DunklStructure, v: float, x, y) -> float:
    """|K_{i arctan(v)/2}(x,y) - lens-transformed L_{iv/2}| (absolute)."""
    lens = LensMap(v, s.d_eff)
    x = np.asarray(x, dtype=float)
    lhs = kernel_Kit(s, lens.t_hermite, x, y)
    xp = as_points(s, x)
    phase = np.exp(-0.5j * lens.v * (xp * xp).sum(axis=-1))
    rhs = lens.amplitude * phase * kernel_Lit(s, lens.t_free, lens.scale * x, y)
    return np.abs(lhs - rhs)
