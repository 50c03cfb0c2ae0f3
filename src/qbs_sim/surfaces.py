"""Correlation surfaces over a (theta, alpha) grid and their CSV form.

Analytic surfaces serialize as ``theta_rad,alpha_deg,probability``; sampled
surfaces add a standard-error column (``...,estimate,stderr``).  Floats are
written with ``repr`` so a round trip through CSV is bit-identical.
"""
from __future__ import annotations

from itertools import product
from typing import NamedTuple


class SurfacePoint(NamedTuple):
    theta: float
    alpha_deg: float
    value: float
    stderr: float | None


class CorrelationSurface:
    """The grid as columns: ``values`` (and ``stderrs``, None on an analytic
    surface) are row-major in ``thetas`` then ``alphas``."""

    __slots__ = ("thetas", "alphas", "values", "stderrs")

    def __init__(self, thetas, alphas, values: list[float], stderrs: list[float] | None = None):
        self.thetas, self.alphas = list(map(float, thetas)), list(map(float, alphas))
        if not values or len(values) != len(self.thetas) * len(self.alphas):
            raise ValueError("the values do not fill the grid")
        self.values, self.stderrs = values, stderrs

    @property
    def points(self) -> list[SurfacePoint]:
        """The grid as a row-major list of points, built on each access."""
        stderrs = self.stderrs or [None] * len(self.values)
        grid = product(self.thetas, self.alphas)
        return [SurfacePoint(*g, v, e) for g, v, e in zip(grid, self.values, stderrs)]

    def min_value(self) -> float:
        return min(self.values)

    def max_value(self) -> float:
        return max(self.values)

    def to_csv(self) -> str:
        """The CSV text; each theta and each alpha is formatted once."""
        alphas = list(map(",{!r},".format, self.alphas))
        rows = map("".join, product(map(repr, self.thetas), alphas))
        if self.stderrs is None:
            head, cells = "theta_rad,alpha_deg,probability\n", map(repr, self.values)
        else:
            head = "theta_rad,alpha_deg,estimate,stderr\n"
            cells = map("{!r},{!r}".format, self.values, self.stderrs)
        return head + "".join([f"{r}{c}\n" for r, c in zip(rows, cells)])
