"""Correlation surfaces over a (theta, alpha) grid and their CSV and JSON forms.

Analytic surfaces serialize as ``theta_rad,alpha_deg,probability``; sampled
surfaces add a standard-error column (``...,estimate,stderr``).  The JSON form
is a list with one ``{"theta", "alpha_deg", "value", "stderr"}`` object per
point, row-major, with the bytes of ``json.dumps(..., indent=2)``; ``stderr``
is ``null`` on an analytic surface.  Both forms are written from the columns,
each theta and each alpha formatted once.  Floats are written with ``repr``
(which ``json`` also uses), so a round trip through either form is
bit-identical.
"""
from __future__ import annotations

from itertools import product, repeat


class CorrelationSurface:
    """The grid as columns: ``values`` (and ``stderrs``, None on an analytic
    surface) are row-major in ``thetas`` then ``alphas``."""

    __slots__ = ("thetas", "alphas", "values", "stderrs")

    def __init__(self, thetas, alphas, values: list[float], stderrs: list[float] | None = None):
        self.thetas, self.alphas = list(map(float, thetas)), list(map(float, alphas))
        if not values or len(values) != len(self.thetas) * len(self.alphas):
            raise ValueError("the values do not fill the grid")
        self.values, self.stderrs = values, stderrs

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

    def to_json(self) -> str:
        """The JSON text; each theta and each alpha is formatted once."""
        alphas = list(map('\n    "alpha_deg": {!r},\n    "value": '.format, self.alphas))
        rows = map("".join, product(map('{{\n    "theta": {!r},'.format, self.thetas), alphas))
        stderrs = repeat("null") if self.stderrs is None else map(repr, self.stderrs)
        return "[\n  " + ",\n  ".join([f'{r}{v!r},\n    "stderr": {e}\n  }}'
                                       for r, v, e in zip(rows, self.values, stderrs)]) + "\n]"
