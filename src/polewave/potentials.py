"""Potential models and radial grids.

Everything downstream works with the rescaled potential U(r) = 2m V(r)
in units hbar = 2m = 1, which enters the radial equation as

    u'' + (k^2 - l(l+1)/r^2 - U(r)) u = 0.

A positive ``depth`` means an attractive well, U = -depth * profile.

Potentials are described piecewise so that a genuine discontinuity (the
square-well edge, the end of tabulated data) is represented exactly:
integrators evaluate U one-sidedly inside each smooth piece instead of
smearing the jump across a node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridError, SpecError

KINDS = ("free", "square", "exponential", "gaussian", "table")

#: tail mass below which a potential counts as numerically over
_TAIL_TINY = 1e-13


@dataclass(frozen=True)
class Piece:
    """One smooth piece of a potential on the closed interval [lo, hi]."""

    lo: float
    hi: float
    fn: Callable[[np.ndarray], np.ndarray]


class Potential:
    """Base class for radial potentials.

    Subclasses provide smooth pieces, one-sided Taylor data at the
    origin and at breakpoints, and a bound on the tail integral.
    """

    #: radius beyond which U vanishes identically, or None if U only decays
    cutoff: float | None = None
    #: radii of genuine discontinuities, strictly inside (0, inf)
    breakpoints: tuple[float, ...] = ()

    def pieces(self) -> list[Piece]:
        raise NotImplementedError

    def __call__(self, r):
        """U(r), right-continuous at breakpoints. For diagnostics and
        quadrature; the integrators use sided piece values instead."""
        r = np.asarray(r, dtype=float)
        out = np.zeros(r.shape)
        for p in self.pieces():
            mask = (r >= p.lo) if np.isinf(p.hi) else (r >= p.lo) & (r < p.hi)
            if mask.any():
                out[mask] = p.fn(r[mask])
        return out

    def taylor_at_zero(self) -> tuple[float, float, float]:
        """(U, U', U'') at r = 0+, for the power-series seed of the
        regular solution."""
        raise NotImplementedError

    def taylor_sided(self, r0: float, side: int) -> tuple[float, float, float]:
        """(U, U', U'') at r0 evaluated from the piece on the given side
        (+1 right, -1 left)."""
        raise NotImplementedError

    def tail_integral(self, radius: float) -> float:
        """Upper bound on integral of |U| from ``radius`` to infinity."""
        raise NotImplementedError

    def suggested_rmax(self) -> float:
        if self.cutoff is not None:
            return max(25.0, self.cutoff + 10.0)
        rmax = 25.0
        while self.tail_integral(rmax) > _TAIL_TINY and rmax < 200.0:
            rmax += 5.0
        return rmax


class Free(Potential):
    """U identically zero."""

    cutoff = 0.0

    def pieces(self):
        return [Piece(0.0, np.inf, lambda r: np.zeros(np.shape(r)))]

    def taylor_at_zero(self):
        return (0.0, 0.0, 0.0)

    def taylor_sided(self, r0, side):
        return (0.0, 0.0, 0.0)

    def tail_integral(self, radius):
        return 0.0


@dataclass(frozen=True)
class SquareWell(Potential):
    """U(r) = -depth for r < radius, 0 beyond."""

    depth: float
    radius: float

    @property
    def cutoff(self):
        return self.radius

    @property
    def breakpoints(self):
        return (self.radius,)

    def pieces(self):
        d, a = self.depth, self.radius
        return [
            Piece(0.0, a, lambda r: np.full(np.shape(r), -d)),
            Piece(a, np.inf, lambda r: np.zeros(np.shape(r))),
        ]

    def taylor_at_zero(self):
        return (-self.depth, 0.0, 0.0)

    def taylor_sided(self, r0, side):
        if side < 0:
            return (-self.depth, 0.0, 0.0)
        return (0.0, 0.0, 0.0)

    def tail_integral(self, radius):
        if radius >= self.radius:
            return 0.0
        return abs(self.depth) * (self.radius - radius)


@dataclass(frozen=True)
class ExponentialWell(Potential):
    """U(r) = -depth * exp(-r / radius)."""

    depth: float
    radius: float

    def pieces(self):
        d, a = self.depth, self.radius
        return [Piece(0.0, np.inf, lambda r: -d * np.exp(-np.asarray(r) / a))]

    def taylor_at_zero(self):
        d, a = self.depth, self.radius
        return (-d, d / a, -d / a**2)

    def taylor_sided(self, r0, side):
        d, a = self.depth, self.radius
        e = math.exp(-r0 / a)
        return (-d * e, d * e / a, -d * e / a**2)

    def tail_integral(self, radius):
        return abs(self.depth) * self.radius * math.exp(-radius / self.radius)


@dataclass(frozen=True)
class GaussianWell(Potential):
    """U(r) = -depth * exp(-(r / radius)^2)."""

    depth: float
    radius: float

    def pieces(self):
        d, a = self.depth, self.radius
        return [Piece(0.0, np.inf, lambda r: -d * np.exp(-((np.asarray(r) / a) ** 2)))]

    def taylor_at_zero(self):
        return (-self.depth, 0.0, 2.0 * self.depth / self.radius**2)

    def taylor_sided(self, r0, side):
        d, a = self.depth, self.radius
        e = math.exp(-((r0 / a) ** 2))
        u = -d * e
        up = -u * 2.0 * r0 / a**2
        upp = -u * (4.0 * r0**2 / a**4 - 2.0 / a**2)
        return (u, up, upp)

    def tail_integral(self, radius):
        scale = abs(self.depth) * self.radius * math.sqrt(math.pi) / 2.0
        return scale * math.erfc(radius / self.radius)


class Tabulated(Potential):
    """U given on a set of radii, interpolated monotonically in between
    and set to exactly zero beyond the last sample.

    The sample must start at r = 0 and should have decayed by its end;
    a non-negligible last value is treated as a real discontinuity.
    """

    def __init__(self, r: np.ndarray, u: np.ndarray):
        from scipy.interpolate import PchipInterpolator

        r = np.asarray(r, dtype=float)
        u = np.asarray(u, dtype=float)
        if r.ndim != 1 or r.shape != u.shape or r.size < 4:
            raise SpecError("tabulated potential needs matching 1d arrays, at least 4 points")
        if not np.all(np.diff(r) > 0):
            raise SpecError("tabulated radii must be strictly increasing")
        if abs(r[0]) > 1e-12:
            raise SpecError("tabulated potential must start at r = 0")
        if not np.all(np.isfinite(u)):
            raise SpecError("tabulated potential contains non-finite values")
        self.r_data = r
        self.u_data = u
        self._interp = PchipInterpolator(r, u, extrapolate=False)
        self._d1 = self._interp.derivative(1)
        self._d2 = self._interp.derivative(2)
        edge = abs(u[-1]) > 1e-10 * (1.0 + np.max(np.abs(u)))
        self.cutoff = float(r[-1])
        self.breakpoints = (float(r[-1]),) if edge else ()

    @classmethod
    def from_file(cls, path) -> "Tabulated":
        """Load two whitespace- or comma-separated columns r, U(r)."""
        try:
            data = np.loadtxt(path, delimiter=None, comments="#")
        except ValueError:
            data = np.loadtxt(path, delimiter=",", comments="#")
        if data.ndim != 2 or data.shape[1] < 2:
            raise SpecError(f"{path}: expected two columns r, U")
        return cls(data[:, 0], data[:, 1])

    def pieces(self):
        def inner(r):
            return self._interp(np.asarray(r))

        return [
            Piece(0.0, self.cutoff, inner),
            Piece(self.cutoff, np.inf, lambda r: np.zeros(np.shape(r))),
        ]

    def taylor_at_zero(self):
        return (float(self.u_data[0]), float(self._d1(0.0)), float(self._d2(0.0)))

    def taylor_sided(self, r0, side):
        if side > 0 and r0 >= self.cutoff - 1e-12:
            return (0.0, 0.0, 0.0)
        rq = min(r0, self.cutoff)
        return (float(self._interp(rq)), float(self._d1(rq)), float(self._d2(rq)))

    def tail_integral(self, radius):
        if radius >= self.cutoff:
            return 0.0
        mask = self.r_data >= radius
        rs = np.concatenate(([radius], self.r_data[mask]))
        us = np.concatenate(([float(self._interp(radius))], self.u_data[mask]))
        return float(np.trapezoid(np.abs(us), rs))


@dataclass(frozen=True)
class PotentialSpec:
    """Declarative description of a potential, as accepted on the CLI.

    kind is one of free, square, exponential, gaussian, table;
    depth is U0 > 0 for attraction; radius is the range parameter a;
    path points to the data file for kind = table.
    """

    kind: str
    depth: float = 0.0
    radius: float = 1.0
    path: str | None = None


def make_potential(spec: PotentialSpec) -> Potential:
    kind = spec.kind.lower().strip()
    if kind not in KINDS:
        raise SpecError(f"unknown potential kind {spec.kind!r}, expected one of {KINDS}")
    if kind == "table":
        if not spec.path:
            raise SpecError("kind='table' needs a path")
        return Tabulated.from_file(spec.path)
    if not math.isfinite(spec.depth):
        raise SpecError("depth must be finite")
    if kind == "free":
        return Free()
    if not (math.isfinite(spec.radius) and spec.radius > 0):
        raise SpecError("radius must be finite and positive")
    cls = {"square": SquareWell, "exponential": ExponentialWell, "gaussian": GaussianWell}[kind]
    return cls(depth=spec.depth, radius=spec.radius)


@dataclass(frozen=True)
class Grid:
    """Uniform radial grid with nodes r_i = i h, i = 0..n."""

    h: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.h) and self.h > 0):
            raise GridError("grid step must be positive")
        if self.n < 16:
            raise GridError("grid needs at least 16 steps")

    @property
    def r_max(self) -> float:
        return self.n * self.h

    def r(self) -> np.ndarray:
        return np.arange(self.n + 1) * self.h

    def index_of(self, radius: float) -> int:
        """Index of the node at ``radius``; the radius must sit on the
        grid to within a relative 1e-9."""
        i = int(round(radius / self.h))
        if not (0 <= i <= self.n) or abs(i * self.h - radius) > 1e-9 * max(1.0, radius):
            raise GridError(f"radius {radius!r} is not a node of this grid")
        return i

    def halved(self) -> "Grid":
        """Grid with twice the resolution on the same interval."""
        return Grid(h=self.h / 2.0, n=self.n * 2)


def make_grid(
    potential: Potential,
    h: float = 1.0 / 256.0,
    r_max: float | None = None,
) -> Grid:
    """Build a grid aligned with the potential's breakpoints.

    The step is nudged so that every breakpoint (and the cutoff) falls
    exactly on a node; r_max is rounded up to a whole number of steps.
    """
    if not (math.isfinite(h) and h > 0):
        raise GridError("step must be positive")
    if r_max is None:
        r_max = potential.suggested_rmax()
    anchors = set(potential.breakpoints)
    if potential.cutoff:
        anchors.add(potential.cutoff)
    for b in sorted(anchors):
        m = max(1, round(b / h))
        h_b = b / m
        if abs(h_b - h) > 1e-9 * h:
            h = h_b  # realign; breakpoints in our models are commensurate
    for b in anchors:
        if abs(round(b / h) * h - b) > 1e-9 * max(1.0, b):
            raise GridError(
                f"cannot align step with breakpoints {sorted(anchors)}; pass an explicit h"
            )
        if r_max <= b + 4 * h:
            raise GridError(f"r_max = {r_max:g} must exceed the outermost breakpoint by > 4h")
    n = int(math.ceil(r_max / h - 1e-9))
    return Grid(h=h, n=n)
