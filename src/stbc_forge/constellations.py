"""Signal constellations and the rotations that give full diversity.

For the maximal-rate unitary-weight SSD codes, the determinant of a
codeword-difference Gram matrix collapses to |d_I^2 - d_Q^2|^n for a
single constellation difference d (see ``codinggain``).  Full transmit
diversity therefore requires the difference set to avoid the +-45
degree lines, and the determinant is maximized over QAM by rotating the
grid through pi/4 + arctan(2)/2.  Coordinate-interleaved designs need
the companion rotation arctan(2)/2, which maximizes the product
distance min |d_I * d_Q|.  All of them read ``Constellation.differences()``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .gmatrix import _negligible

ENERGY_RAW = "raw"
ENERGY_UNIT = "unit-average"

QAM_SIZES = (4, 16, 64)


@dataclass(frozen=True, eq=False)
class Constellation:
    """A finite set of complex signal points, compared by identity.

    ``points`` is a read-only complex128 array, the constructor's own copy.
    ``energy_mode`` is ``raw`` (odd-integer grid as-is) or
    ``unit-average`` (scaled so the mean of |x|^2 is exactly 1).
    """

    name: str
    points: np.ndarray
    energy_mode: str = ENERGY_RAW

    def __post_init__(self):
        points = np.array(self.points, dtype=np.complex128)
        if points.ndim != 1 or len(points) < 2:
            raise ValueError("a constellation needs a 1-D array of at least 2 points")
        if not np.all(np.isfinite(points)):
            raise ValueError("constellation points must be finite")
        if np.any(np.diff(np.sort(points)) == 0):  # np.unique would import numpy.ma
            raise ValueError("constellation points must be distinct")
        if self.energy_mode not in (ENERGY_RAW, ENERGY_UNIT):
            raise ValueError(f"unknown energy mode {self.energy_mode!r}")
        points.setflags(write=False)
        object.__setattr__(self, "points", points)
        if self.energy_mode == ENERGY_UNIT and abs(self.mean_energy - 1.0) > 1e-12:
            raise ValueError("unit-average constellation is not normalized")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def mean_energy(self) -> float:
        return float(np.mean(np.abs(self.points) ** 2))

    def differences(self) -> np.ndarray:
        """The distinct nonzero differences of the points, each once, sorted by key.

        One per key round(2^-t d, 12), 2^t just above the largest |d| (a power-of-two scale
        keeps every key), the last ordered pair (a, b) of a key its representative d = a - b.
        d[i] = -d[-1 - i], and a difference keyed 0 is none.
        """
        p = self.points[::-1]  # the ordered pairs last to first: np.unique keeps the first
        d = (p[:, None] - p)[~np.eye(len(p), dtype=bool)]
        t = math.frexp(np.max(np.abs(d)))[1]
        keys, last = np.unique(np.round(np.ldexp(d.view(np.float64), -t), 12)
                               .view(np.complex128), return_index=True)
        return d[last[keys != 0]]


def _finish(name: str, base: list[complex], angle: float, energy_mode: str) -> Constellation:
    rot = cmath.exp(1j * angle)
    pts = [p * rot for p in base]
    if energy_mode == ENERGY_UNIT:
        scale = 1.0 / math.sqrt(sum(abs(p) ** 2 for p in pts) / len(pts))
        pts = [p * scale for p in pts]
    return Constellation(name=name, points=pts, energy_mode=energy_mode)


def rotated_qam(m: int, angle: float = 0.0, energy_mode: str = ENERGY_RAW) -> Constellation:
    """Square M-QAM on the odd-integer grid, rotated by ``angle`` radians."""
    if m not in QAM_SIZES:
        raise ValueError(f"supported QAM sizes are {QAM_SIZES}, got {m}")
    side = int(round(math.sqrt(m)))
    base = [complex(2 * i - side + 1, 2 * q - side + 1)
            for i in range(side) for q in range(side)]
    return _finish(f"qam{m}", base, angle, energy_mode)


def special_8qam(kind: str, angle: float = 0.0, energy_mode: str = ENERGY_RAW) -> Constellation:
    """Two 8-point constellations used at 3 bits per channel use.

    ``square-derived`` is the 3x3 grid on {-1, 1, 3}^2 with its
    highest-energy point (3+3j) removed; ``rect`` is the 4x2 grid
    {+-1, +-3} x {+-1}.
    """
    if kind == "square-derived":
        base = [-1 - 1j, -1 + 1j, -1 + 3j, 1 - 1j, 1 + 1j, 1 + 3j, 3 - 1j, 3 + 1j]
    elif kind == "rect":
        base = [complex(re, im) for re in (-3, -1, 1, 3) for im in (-1, 1)]
    else:
        raise ValueError(f"kind must be 'rect' or 'square-derived', got {kind!r}")
    return _finish(f"8qam-{kind}", base, angle, energy_mode)


def optimal_angle() -> float:
    """Rotation maximizing the coding gain of unitary-weight SSD codes on QAM."""
    return math.pi / 4 + 0.5 * math.atan(2)


def ciod_optimal_angle() -> float:
    """Companion rotation for coordinate-interleaved designs (product distance)."""
    return 0.5 * math.atan(2)


@dataclass(frozen=True)
class DiversityReport:
    ok: bool
    witnesses: tuple[complex, ...]


def diversity_check(constellation: Constellation) -> DiversityReport:
    """Full-diversity test: no difference may lie on a +-45 degree line.

    Witnesses are the distinct differences d whose ||d_I| - |d_Q|| is negligible against |d|
    by the one tolerance rule of :mod:`.gmatrix`, a verdict no uniform scale changes.
    """
    d = constellation.differences()
    witnesses = tuple(map(complex, d[_negligible(abs(abs(d.real) - abs(d.imag)), abs(d))]))
    return DiversityReport(ok=not witnesses, witnesses=witnesses)
