"""Constellations, rotations, diversity of the difference set."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stbc_forge.constellations import (
    Constellation,
    ciod_optimal_angle,
    diversity_check,
    optimal_angle,
    rotated_qam,
    special_8qam,
)

from conftest import difference_keys


def _as_point_set(constellation, ndigits=9):
    return {(round(p.real, ndigits), round(p.imag, ndigits)) for p in constellation.points}


def test_qam4_unrotated():
    c = rotated_qam(4)
    assert _as_point_set(c) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert np.mean(np.abs(c.points) ** 2) == pytest.approx(2.0)


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


def test_square_derived_8qam_points():
    c = special_8qam("square-derived")
    expected = {(-1, -1), (-1, 1), (-1, 3), (1, -1), (1, 1), (1, 3), (3, -1), (3, 1)}
    assert _as_point_set(c) == expected
    # enumerated mean of |x|^2: (4*2 + 4*10) / 8
    assert np.mean(np.abs(c.points) ** 2) == pytest.approx(6.0)


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
    # each witness once: +-2a +-2aj for a = 1, 2, 3 on unrotated QAM16
    assert len(diversity_check(rotated_qam(16)).witnesses) == 12


@pytest.mark.parametrize("scale", [1e-100, 0.01, 1.0, 100.0, 1e100])
def test_diversity_verdict_is_scale_invariant(scale):
    # a difference 1e-11 relative off the 45 degree line lies on it at every scale, one
    # 1e-8 relative off it does not: the rule is relative to |d|, not an absolute step
    on_line = diversity_check(Constellation("two", (0j, scale * complex(1, 1 + 1e-11))))
    assert not on_line.ok and len(on_line.witnesses) == 2
    assert diversity_check(Constellation("two", (0j, scale * complex(1, 1 + 1e-8)))).ok


def test_diversity_rotated_qam_passes():
    c = rotated_qam(4, optimal_angle())
    report = diversity_check(c)
    assert report.ok
    # independent enumeration: all 12 ordered differences stay off the
    # +-45 degree lines
    diffs = [a - b for a in c.points for b in c.points if a != b]
    assert len(diffs) == 12
    assert all(abs(abs(d.real) - abs(d.imag)) > 1e-12 for d in diffs)


@pytest.mark.parametrize("make, size", [(lambda a: rotated_qam(4, a), 8),
                                        (lambda a: rotated_qam(16, a), 48),
                                        (lambda a: rotated_qam(64, a), 224),
                                        (lambda a: special_8qam("rect", a), 20),
                                        (lambda a: special_8qam("square-derived", a), 22)],
                         ids=["qam4", "qam16", "qam64", "8qam-rect", "8qam-sq"])
def test_difference_set_sizes(make, size):
    # of |A|(|A| - 1) ordered pairs, the distinct differences of the grid, which these
    # rotations keep distinct
    for angle in (0.0, optimal_angle(), 0.3):
        assert len(make(angle).differences()) == size


def _key_classes(points):
    """Each ordered pair labelled by the first pair of its key: equal lists, equal partitions."""
    first = {}
    return [first.setdefault(key, i) for i, (key, _) in enumerate(difference_keys(points))]


@given(grid=st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
                     min_size=2, max_size=10, unique=True),
       angle=st.sampled_from([0.0, 0.3, optimal_angle()]),
       scale=st.sampled_from([1.0, 3.0, 1e100, 1e-100, 2.0 ** 600, 2.0 ** -600]))
@settings(max_examples=150, deadline=None)
def test_differences_one_per_relative_key(grid, angle, scale):
    base = Constellation("base", [complex(a, b) * cmath.exp(1j * angle) for a, b in grid])
    c = Constellation("scaled", base.points * scale)
    d = c.differences()
    keyed = dict(difference_keys(c.points))  # the last ordered pair of each key
    keys = sorted(key for key in keyed if key != (0.0, 0.0))
    # one entry per key, the last ordered pair of the key, in key order
    assert d.dtype == np.complex128 and list(d) == [keyed[key] for key in keys]
    # d[i] = -d[-1 - i] within one key step, 1e-12 of 2^t
    step = 1e-12 * 2.0 ** math.frexp(np.max(np.abs(d)))[1]
    assert np.all(np.abs((d + d[::-1]).view(np.float64)) <= step)
    # the scale groups the pairs as before: exactly so under a power of two, and on the
    # unrotated grid, whose keys are dyadic; another scale rounds the rotated points, and
    # two pairs within that rounding of a rounding boundary could split
    if angle == 0.0 or math.frexp(scale)[0] == 0.5:
        assert _key_classes(c.points) == _key_classes(base.points)
        if math.frexp(scale)[0] == 0.5:
            assert keys == sorted({key for key, _ in difference_keys(base.points)} - {(0.0, 0.0)})


def test_points_are_one_read_only_array():
    pts = [1 + 1j, -1 - 1j]
    c = Constellation("two", pts)
    pts[0] = 0j  # the constellation owns a copy
    assert c.points.dtype == np.complex128 and list(c.points) == [1 + 1j, -1 - 1j]
    with pytest.raises(ValueError):
        c.points[0] = 0j
    assert rotated_qam(4).points.flags.writeable is False


def test_diversity_two_point_pam_passes():
    pam = Constellation(name="pam2", points=(-1 + 0j, 1 + 0j))
    assert diversity_check(pam).ok


def test_constellation_validation():
    with pytest.raises(ValueError):
        Constellation(name="one", points=(1 + 0j,))
    with pytest.raises(ValueError):
        Constellation(name="dup", points=(1 + 0j, 1 + 0j))


def test_constellation_rejects_non_finite_points():
    for point in (complex(math.inf, 0), complex(0, -math.inf), complex(math.nan, 1)):
        with pytest.raises(ValueError, match="finite"):
            Constellation(name="non-finite", points=(1 + 0j, point))
    # an infinite angle gave all-NaN points that reached the searches and the simulator
    with pytest.raises(ValueError, match="finite"):
        rotated_qam(4, math.inf)
