"""Correlation surfaces over a (theta, alpha) grid and their CSV form.

Analytic surfaces serialize as ``theta_rad,alpha_deg,probability``; sampled
surfaces add a standard-error column (``...,estimate,stderr``).  Floats are
written with ``repr`` so a round trip through CSV is bit-identical.
"""
from __future__ import annotations

import io
from typing import NamedTuple


class SurfacePoint(NamedTuple):
    theta: float
    alpha_deg: float
    value: float
    stderr: float | None


class CorrelationSurface:
    __slots__ = ("points",)

    def __init__(self, points: list[SurfacePoint]):
        if not points:
            raise ValueError("empty surface")
        self.points = points

    @property
    def sampled(self) -> bool:
        return any(p.stderr is not None for p in self.points)

    def min_value(self) -> float:
        return min(p.value for p in self.points)

    def max_value(self) -> float:
        return max(p.value for p in self.points)

    def to_csv(self) -> str:
        out = io.StringIO()
        if self.sampled:
            out.write("theta_rad,alpha_deg,estimate,stderr\n")
            for p in self.points:
                err = repr(float(p.stderr)) if p.stderr is not None else ""
                out.write(f"{p.theta!r},{p.alpha_deg!r},{p.value!r},{err}\n")
        else:
            out.write("theta_rad,alpha_deg,probability\n")
            for p in self.points:
                out.write(f"{p.theta!r},{p.alpha_deg!r},{p.value!r}\n")
        return out.getvalue()
