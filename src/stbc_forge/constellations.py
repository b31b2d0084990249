"""Signal constellations and the rotations that give full diversity.

For the maximal-rate unitary-weight SSD codes, the determinant of a
codeword-difference Gram matrix collapses to |d_I^2 - d_Q^2|^n for a
single constellation difference d (see ``codinggain``).  Full transmit
diversity therefore requires the difference set to avoid the +-45
degree lines, and the determinant is maximized over QAM by rotating the
grid through pi/4 + arctan(2)/2.  Coordinate-interleaved designs need
the companion rotation arctan(2)/2, which maximizes the product
distance min |d_I * d_Q|.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .gmatrix import _negligible

ENERGY_RAW = "raw"
ENERGY_UNIT = "unit-average"

QAM_SIZES = (4, 16, 64)


@dataclass(frozen=True)
class Constellation:
    """A finite set of complex signal points.

    ``energy_mode`` is ``raw`` (odd-integer grid as-is) or
    ``unit-average`` (scaled so the mean of |x|^2 is exactly 1).
    """

    name: str
    points: tuple[complex, ...]
    energy_mode: str = ENERGY_RAW

    def __post_init__(self):
        if len(self.points) < 2:
            raise ValueError("a constellation needs at least 2 points")
        if not all(map(cmath.isfinite, self.points)):
            raise ValueError("constellation points must be finite")
        if len(set(self.points)) != len(self.points):
            raise ValueError("constellation points must be distinct")
        if self.energy_mode not in (ENERGY_RAW, ENERGY_UNIT):
            raise ValueError(f"unknown energy mode {self.energy_mode!r}")
        if self.energy_mode == ENERGY_UNIT and abs(self.mean_energy - 1.0) > 1e-12:
            raise ValueError("unit-average constellation is not normalized")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def mean_energy(self) -> float:
        return sum(abs(p) ** 2 for p in self.points) / len(self.points)

    def differences(self) -> list[complex]:
        """All ordered nonzero differences a - b over point pairs."""
        return [a - b for a in self.points for b in self.points if a != b]


def _finish(name: str, base: list[complex], angle: float, energy_mode: str) -> Constellation:
    rot = cmath.exp(1j * angle)
    pts = [p * rot for p in base]
    if energy_mode == ENERGY_UNIT:
        scale = 1.0 / math.sqrt(sum(abs(p) ** 2 for p in pts) / len(pts))
        pts = [p * scale for p in pts]
    return Constellation(name=name, points=tuple(pts), energy_mode=energy_mode)


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

    Returns the offending differences as witnesses when the test fails.
    A difference d lies on such a line when ||d_I| - |d_Q|| is negligible
    against |d| by the one tolerance rule of :mod:`.gmatrix`, so the
    verdict does not change under a uniform scale of the points.
    """
    witnesses = tuple(d for d in constellation.differences()
                      if _negligible(abs(abs(d.real) - abs(d.imag)), abs(d)))
    return DiversityReport(ok=not witnesses, witnesses=witnesses)
