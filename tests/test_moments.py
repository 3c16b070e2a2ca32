"""Mechanical advantage and output moment transmission."""

import math
import re

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
    joint_state,
    mechanical_advantage,
    moment_curve,
    mpf_theta1,
    output_moment,
    pouch_geometry,
    theta1_of_theta4,
    theta3_of_theta1,
    theta4_of_theta1,
)

UP = Configuration.UP
DOWN = Configuration.DOWN


def test_mechanical_advantage_frozen():
    assert mechanical_advantage(math.radians(80), math.radians(90)) == (
        pytest.approx(5.932418660810562, abs=1e-12)
    )


def test_mechanical_advantage_at_zero_is_2cos_alpha():
    for a in (61, 70, 80, 85, 89):
        alpha = math.radians(a)
        got = mechanical_advantage(alpha, 0.0)
        assert abs(got - 2.0 * math.cos(alpha)) < 1e-10


# Below 89.9 degrees sin(theta2) stays far above the singular floor for
# |theta1| <= 3.
@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(math.radians(45), math.radians(89.9), exclude_min=True),
    t=st.floats(-3.0, 3.0),
    gamma=st.floats(0.0, math.pi / 2, exclude_min=True),
    config=st.sampled_from((UP, DOWN)),
)
def test_mechanical_advantage_branch_and_parity(alpha, t, gamma, config):
    # MA and the MPF input fold take no branch: each is, to the bit, its
    # formula on either branch's joint state.
    js = joint_state(alpha, t, config)
    want = abs(np.sin(js.theta3)) / (math.sin(alpha) * abs(np.sin(js.theta2)))
    assert mechanical_advantage(alpha, t) == want
    assert mpf_theta1(alpha, gamma) == theta1_of_theta4(alpha, config.sign * gamma, config)
    assert mechanical_advantage(alpha, -t) == pytest.approx(want, rel=1e-12)


def test_mechanical_advantage_minimized_at_zero():
    alpha = math.radians(80)
    base = mechanical_advantage(alpha, 0.0)
    for t in range(1, 91):
        assert mechanical_advantage(alpha, math.radians(t)) > base


def test_singularity_raises():
    # sin(theta2) vanishes at the fold-over point theta1 -> pi.
    with pytest.raises(SingularityError):
        mechanical_advantage(math.radians(89), math.pi - 1e-11)
    assert issubclass(SingularityError, DomainError)


def test_output_moment_frozen_and_product():
    g = pouch_geometry(25.0, math.radians(89))
    c = ActuatorConditions(10000.0)
    got = output_moment(g, c, 0.0)
    assert got == pytest.approx(0.005577667603363424, abs=1e-15)
    assert got == mechanical_advantage(math.radians(89), 0.0) * input_moment(g, c, 0.0)


def test_moment_curve_rows():
    alpha = math.radians(85)
    g = pouch_geometry(25.0, alpha)
    c = ActuatorConditions(10000.0)
    theta1 = np.linspace(math.radians(-90), math.radians(90), 19)
    table = moment_curve(g, c, theta1)
    assert table.shape == (19, 5)
    # Columns theta1, S, M_input, MA, M_output.
    assert np.array_equal(table[:, 0], theta1)
    for t1, S, m_in, ma, m_out in table.tolist():
        assert m_out == ma * m_in
        assert S == central_angle(t1)
        assert m_in == input_moment(g, c, t1)
        assert ma == mechanical_advantage(alpha, t1)


def test_moment_curve_validation():
    g = pouch_geometry(25.0, math.radians(89))
    c = ActuatorConditions(10000.0)
    bad = math.radians(-100)
    message = f"theta1 = {bad!r} outside the actuation range [-pi/2, pi/2]"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        moment_curve(g, c, np.array([bad, 0.0, 0.1]))
    # At the flat-foldable limit theta2 vanishes once theta1 leaves 0.
    with pytest.raises(SingularityError, match=r"^sin\(theta2\) = .* at theta1 = 1\.0;"):
        moment_curve(pouch_geometry(25.0, math.pi / 2 - 1e-13), c, np.array([0.0, 1.0]))


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
    "mechanical_advantage": (lambda a, t, cfg: mechanical_advantage(a, t), math.pi),
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
