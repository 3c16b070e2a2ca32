"""Mechanical advantage and output moment transmission."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selflock import (
    ActuatorConditions,
    Configuration,
    DomainError,
    SingularityError,
    central_angle,
    input_moment,
    mechanical_advantage,
    moment_curve,
    output_moment,
    pouch_geometry,
    theta3_of_theta1,
    theta4_of_theta1,
)

UP = Configuration.UP
DOWN = Configuration.DOWN


def test_mechanical_advantage_frozen():
    assert mechanical_advantage(math.radians(80), math.radians(90), UP) == (
        pytest.approx(5.932418660810562, abs=1e-12)
    )


def test_mechanical_advantage_at_zero_is_2cos_alpha():
    for a in (61, 70, 80, 85, 89):
        alpha = math.radians(a)
        got = mechanical_advantage(alpha, 0.0, UP)
        assert abs(got - 2.0 * math.cos(alpha)) < 1e-10


def test_mechanical_advantage_branch_and_parity():
    alpha = math.radians(85)
    for t in (0.3, 1.0, 2.0):
        up = mechanical_advantage(alpha, t, UP)
        assert mechanical_advantage(alpha, t, DOWN) == pytest.approx(up, rel=1e-12)
        assert mechanical_advantage(alpha, -t, UP) == pytest.approx(up, rel=1e-12)


def test_mechanical_advantage_minimized_at_zero():
    alpha = math.radians(80)
    base = mechanical_advantage(alpha, 0.0, UP)
    for t in range(1, 91):
        assert mechanical_advantage(alpha, math.radians(t), UP) > base


def test_singularity_raises():
    # sin(theta2) vanishes at the fold-over point theta1 -> pi.
    with pytest.raises(SingularityError):
        mechanical_advantage(math.radians(89), math.pi - 1e-11, UP)
    assert issubclass(SingularityError, DomainError)


def test_output_moment_frozen_and_product():
    g = pouch_geometry(25.0, math.radians(89))
    c = ActuatorConditions(10000.0)
    alpha = math.radians(89)
    got = output_moment(g, c, alpha, 0.0, UP)
    assert got == pytest.approx(0.005577667603363424, abs=1e-15)
    assert got == mechanical_advantage(alpha, 0.0, UP) * input_moment(g, c, 0.0)


def test_moment_curve_rows():
    alpha = math.radians(85)
    g = pouch_geometry(25.0, alpha)
    c = ActuatorConditions(10000.0)
    rows = moment_curve(alpha, UP, g, c, math.radians(-90), math.radians(90), 19)
    assert len(rows) == 19
    assert rows[0].theta1 == pytest.approx(math.radians(-90))
    assert rows[-1].theta1 == pytest.approx(math.radians(90))
    for row in rows:
        assert row.M_output == row.MA * row.M_input
        assert row.S == central_angle(row.theta1)
        assert row.M_input == input_moment(g, c, row.theta1)


def test_moment_curve_validation():
    alpha = math.radians(85)
    g = pouch_geometry(25.0, alpha)
    c = ActuatorConditions(10000.0)
    with pytest.raises(DomainError):
        moment_curve(alpha, UP, g, c, 0.0, 1.0, 1)
    with pytest.raises(DomainError):
        moment_curve(alpha, UP, g, c, 1.0, 0.0, 5)


# The five closed forms that take a float or an ndarray theta1, each as a
# function of (alpha, theta1, config), with the theta1 half-range its grids
# are drawn from.
_ARRAY_FORMS = {
    "theta4_of_theta1": (theta4_of_theta1, math.pi),
    "theta3_of_theta1": (theta3_of_theta1, math.pi),
    "central_angle": (lambda a, t, cfg: central_angle(t), math.pi),
    "input_moment": (
        lambda a, t, cfg: input_moment(
            pouch_geometry(25.0, a), ActuatorConditions(1e4), t
        ),
        math.pi / 2,
    ),
    "mechanical_advantage": (mechanical_advantage, math.pi),
}
# An element outside the domain, for the forms that have one.
_OUTSIDE = {
    "input_moment": st.floats(math.pi / 2 + 1e-9, math.pi)
    | st.floats(-math.pi, -math.pi / 2 - 1e-9),
    "mechanical_advantage": st.sampled_from((math.pi, -math.pi)),
}
_ALPHAS = st.floats(
    math.radians(45), math.radians(90), exclude_min=True, exclude_max=True
)
_CONFIGS = st.sampled_from((UP, DOWN))


def _scalar_outcomes(f, alpha, grid, config):
    """Each element's scalar result, or the exception it raises."""
    out = []
    for t in grid:
        try:
            out.append(f(alpha, t, config))
        except DomainError as exc:
            out.append(exc)
    return out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(_ARRAY_FORMS))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), alpha=_ALPHAS, config=_CONFIGS)
def test_array_call_matches_scalar_calls(name, data, alpha, config):
    f, half = _ARRAY_FORMS[name]
    grid = data.draw(st.lists(st.floats(-half, half), min_size=1, max_size=40))
    scalars = _scalar_outcomes(f, alpha, grid, config)
    failed = [r for r in scalars if isinstance(r, DomainError)]
    if failed:
        with pytest.raises(DomainError) as info:
            f(alpha, np.array(grid), config)
        assert type(info.value) is type(failed[0])
        return
    assert all(type(r) is float for r in scalars)
    got = f(alpha, np.array(grid), config)
    assert got.shape == (len(grid),)
    assert got.tobytes() == np.array(scalars).tobytes()


@pytest.mark.parametrize("name", sorted(_OUTSIDE))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), alpha=_ALPHAS, config=_CONFIGS)
def test_array_call_raises_like_scalar_call(name, data, alpha, config):
    f = _ARRAY_FORMS[name][0]
    grid = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=20))
    bad = data.draw(_OUTSIDE[name])
    grid.insert(data.draw(st.integers(0, len(grid))), bad)
    with pytest.raises(DomainError) as scalar:
        f(alpha, bad, config)
    with pytest.raises(DomainError) as array:
        f(alpha, np.array(grid), config)
    assert type(array.value) is type(scalar.value)
