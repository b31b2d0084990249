"""Constellations, rotations, diversity of the difference set."""

import cmath
import math

import pytest

from stbc_forge.constellations import (
    Constellation,
    ciod_optimal_angle,
    diversity_check,
    optimal_angle,
    rotated_qam,
    special_8qam,
)


def _as_point_set(constellation, ndigits=9):
    return {(round(p.real, ndigits), round(p.imag, ndigits)) for p in constellation.points}


def test_qam4_unrotated():
    c = rotated_qam(4)
    assert _as_point_set(c) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert c.mean_energy == pytest.approx(2.0)


def test_qam4_quarter_turn_is_same_set():
    assert _as_point_set(rotated_qam(4, math.pi / 2)) == _as_point_set(rotated_qam(4))


def test_qam16_grid():
    c = rotated_qam(16)
    grid = {(float(a), float(b)) for a in (-3, -1, 1, 3) for b in (-3, -1, 1, 3)}
    assert _as_point_set(c) == grid


def test_qam_size_validation():
    with pytest.raises(ValueError):
        rotated_qam(8)
    with pytest.raises(ValueError):
        rotated_qam(32)


def test_unit_average_mode():
    for m in (4, 16, 64):
        c = rotated_qam(m, optimal_angle(), "unit-average")
        assert abs(c.mean_energy - 1.0) <= 1e-12


def test_square_derived_8qam_points():
    c = special_8qam("square-derived")
    expected = {(-1, -1), (-1, 1), (-1, 3), (1, -1), (1, 1), (1, 3), (3, -1), (3, 1)}
    assert _as_point_set(c) == expected
    # enumerated mean of |x|^2: (4*2 + 4*10) / 8
    assert c.mean_energy == pytest.approx(6.0)


def test_rect_8qam_points():
    c = special_8qam("rect")
    assert len(c) == 8
    assert max(abs(p) ** 2 for p in c.points) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        special_8qam("hexagonal")


def test_8qam_rotation_applies():
    theta = optimal_angle()
    rot = special_8qam("square-derived", theta)
    base = special_8qam("square-derived")
    for p, q in zip(rot.points, base.points):
        assert abs(p - q * cmath.exp(1j * theta)) < 1e-12


def test_optimal_angle_value():
    assert optimal_angle() == pytest.approx(math.pi / 4 + 0.5536, abs=1e-4)
    assert 0 < optimal_angle() < math.pi / 2
    assert ciod_optimal_angle() == pytest.approx(0.5 * math.atan(2))


def test_diversity_unrotated_qam_fails():
    report = diversity_check(rotated_qam(4))
    assert not report.ok
    assert any(abs(w - (2 + 2j)) < 1e-12 for w in report.witnesses)


def test_diversity_rotated_qam_passes():
    c = rotated_qam(4, optimal_angle())
    report = diversity_check(c)
    assert report.ok
    # independent enumeration: all 12 ordered differences stay off the
    # +-45 degree lines
    diffs = [a - b for a in c.points for b in c.points if a != b]
    assert len(diffs) == 12
    assert all(abs(abs(d.real) - abs(d.imag)) > 1e-12 for d in diffs)


def test_diversity_two_point_pam_passes():
    pam = Constellation(name="pam2", points=(-1 + 0j, 1 + 0j))
    assert diversity_check(pam).ok


def test_constellation_validation():
    with pytest.raises(ValueError):
        Constellation(name="one", points=(1 + 0j,))
    with pytest.raises(ValueError):
        Constellation(name="dup", points=(1 + 0j, 1 + 0j))
    with pytest.raises(ValueError):
        Constellation(name="bad-unit", points=(1 + 0j, -1 + 0j, 3 + 0j),
                      energy_mode="unit-average")
    with pytest.raises(ValueError):
        Constellation(name="bad-mode", points=(1 + 0j, -1 + 0j), energy_mode="peak")
