"""Pouch actuator geometry and inflation moment."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from selflock import (
    ActuatorConditions,
    DomainError,
    central_angle,
    chord_length,
    input_moment,
    pouch_geometry,
)


def test_geometry_frozen_at_89():
    g = pouch_geometry(25.0, math.radians(89))
    assert g.L1 == pytest.approx(0.4363766232054418, abs=1e-12)
    assert g.n == pytest.approx(0.42875964091423446, abs=1e-12)
    assert g.Lp == pytest.approx(24.56736510549483, abs=1e-12)
    assert g.D == pytest.approx(24.57498324806605, abs=1e-12)
    assert g.L0 == pytest.approx(49.13473021098966, abs=1e-12)


def test_geometry_frozen_at_80():
    g = pouch_geometry(25.0, math.radians(80))
    assert g.L1 == pytest.approx(4.408174517711626, abs=1e-12)
    assert g.n == pytest.approx(3.6308944145675417, abs=1e-12)
    assert g.Lp == pytest.approx(20.90948758202263, abs=1e-12)
    assert g.D == pytest.approx(21.69875848364443, abs=1e-12)


def test_geometry_validation():
    for m in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="finite and positive"):
            pouch_geometry(m, math.radians(80))
    for deg in (45, 90):
        with pytest.raises(DomainError, match="self-locking joint needs alpha in"):
            pouch_geometry(25.0, math.radians(deg))


@given(
    m=st.floats(min_value=1.0, max_value=100.0),
    a=st.floats(min_value=46.0, max_value=89.9),
)
def test_geometry_positive_and_consistent(m, a):
    g = pouch_geometry(m, math.radians(a))
    assert g.L1 > 0 and g.n > 0 and g.Lp > 0 and g.D > 0
    assert g.L0 == 2.0 * g.Lp
    # The cut offset and pouch side reconstruct the plate edge.
    assert g.L1 + g.Lp * math.sin(math.radians(a)) == pytest.approx(m, rel=1e-12)


def test_chord_reduced():
    L0 = 49.13473021098966
    assert chord_length(math.radians(90), L0) == pytest.approx(
        L0 * math.cos(math.radians(45)), abs=1e-12
    )
    assert chord_length(0.0, L0) == L0


def test_central_angle_values():
    assert central_angle(0.0) == 0.0
    assert central_angle(math.radians(90)) == pytest.approx(
        1.325654296142367, abs=1e-12
    )
    assert central_angle(math.radians(180)) == pytest.approx(
        math.sqrt(6.0), abs=1e-12
    )


@given(t=st.floats(min_value=0.0, max_value=math.pi))
def test_central_angle_even(t):
    assert central_angle(-t) == pytest.approx(central_angle(t), abs=1e-15)


def test_small_bend_tracks_constant_curvature():
    # The S expansion should track the exact constant-curvature relation
    # sin(S)/S = cos(theta1/2) to within 5 percent over the actuation range.
    ts = np.linspace(1e-6, math.pi / 2, 2001)
    S = np.array([central_angle(float(t)) for t in ts])
    rel = np.abs(np.sin(S) / S - np.cos(0.5 * ts)) / np.cos(0.5 * ts)
    assert float(rel.max()) == pytest.approx(0.034909804332196405, abs=1e-9)
    assert float(rel.max()) < 0.05


def test_input_moment_frozen():
    g = pouch_geometry(25.0, math.radians(89))
    c = ActuatorConditions(10000.0)
    assert input_moment(g, c, 0.0) == pytest.approx(
        0.15979651927679214, abs=1e-15
    )
    assert input_moment(g, c, math.radians(90)) == pytest.approx(
        0.023774785751445746, abs=1e-15
    )


def test_input_moment_matches_series_limit_at_zero():
    g = pouch_geometry(25.0, math.radians(89))
    P = 10000.0
    limit = (1 + 2 / math.sqrt(3)) / 2 * (g.Lp * 1e-3) ** 2 * (g.D * 1e-3) * P
    got = input_moment(g, ActuatorConditions(P), 0.0)
    assert got == pytest.approx(limit, rel=1e-12)


def test_input_moment_continuous_at_series_switchover():
    # The series limit takes over below S = 1e-4; the closed expression and
    # the limit agree to much better than 1e-6 relative there.
    g = pouch_geometry(25.0, math.radians(89))
    c = ActuatorConditions(10000.0)
    t_sw = 2.0 * math.acos(1.0 - 1e-8 / 6.0)
    below = input_moment(g, c, t_sw * 0.999)
    above = input_moment(g, c, t_sw * 1.001)
    assert abs(above - below) / below < 1e-6


def test_input_moment_even_and_linear_in_pressure():
    g = pouch_geometry(25.0, math.radians(85))
    c = ActuatorConditions(10000.0)
    c2 = ActuatorConditions(20000.0)
    for t in (0.2, 0.9, 1.5):
        assert input_moment(g, c, -t) == pytest.approx(
            input_moment(g, c, t), rel=1e-12
        )
        assert input_moment(g, c2, t) == pytest.approx(
            2.0 * input_moment(g, c, t), rel=1e-12
        )
    assert input_moment(g, ActuatorConditions(0.0), 0.7) == 0.0


def test_input_moment_strictly_decreasing():
    g = pouch_geometry(25.0, math.radians(89))
    c = ActuatorConditions(10000.0)
    vals = [input_moment(g, c, math.radians(t)) for t in range(0, 91)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_input_moment_domain():
    g = pouch_geometry(25.0, math.radians(89))
    c = ActuatorConditions(10000.0)
    with pytest.raises(DomainError):
        input_moment(g, c, math.pi / 2 + 1e-6)
    with pytest.raises(DomainError):
        input_moment(g, c, -math.pi / 2 - 1e-6)
    for p in (-1.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="finite and nonnegative"):
            ActuatorConditions(p)
