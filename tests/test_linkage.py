"""Closed-form kinematics against frozen values and the numerical oracle."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selflock import (
    CentralAngles,
    Configuration,
    DomainError,
    closure_residual,
    joint_state,
    mpf_theta1,
    oracle_roots,
    semi_flat_theta1,
    sweep,
    theta1_of_theta4,
    theta3_of_theta1,
    theta4_of_theta1,
)

UP = Configuration.UP
DOWN = Configuration.DOWN


def test_theta4_frozen_values():
    assert math.degrees(
        theta4_of_theta1(math.radians(89), math.radians(90), UP)
    ) == pytest.approx(0.9998477260772541, abs=1e-12)
    assert math.degrees(
        theta4_of_theta1(math.radians(80), math.radians(90), UP)
    ) == pytest.approx(9.851076116583913, abs=1e-12)
    assert math.degrees(
        theta4_of_theta1(math.radians(89), math.radians(90), DOWN)
    ) == pytest.approx(-0.9998477260772541, abs=1e-12)


def test_theta4_at_zero_is_right_angle():
    for a in (50, 61, 70, 80, 85, 89):
        t4 = theta4_of_theta1(math.radians(a), 0.0, UP)
        assert abs(t4 - math.pi / 2) < 1e-15
        assert theta4_of_theta1(math.radians(a), 0.0, DOWN) == pytest.approx(
            -math.pi / 2, abs=1e-15
        )


def test_theta3_frozen_values():
    assert math.degrees(
        theta3_of_theta1(math.radians(89), math.radians(90), UP)
    ) == pytest.approx(90.01745152066944, abs=1e-12)
    assert math.degrees(
        theta3_of_theta1(math.radians(89), 0.0, UP)
    ) == pytest.approx(2.0, abs=1e-12)


def test_theta3_at_zero_identity():
    for a in (50, 61, 70, 80, 85, 89):
        alpha = math.radians(a)
        t3 = theta3_of_theta1(alpha, 0.0, UP)
        assert abs(t3 - (math.pi - 2 * alpha)) < 1e-10


def test_theta2_equals_theta4():
    for t1 in (-2.0, -0.3, 0.0, 0.7, 2.5):
        st_ = joint_state(math.radians(85), t1, UP)
        assert st_.theta2 == st_.theta4


def test_down_branch_mirrors_up():
    for t1 in (-1.2, 0.4, 2.0):
        su = joint_state(math.radians(80), t1, UP)
        sd = joint_state(math.radians(80), t1, DOWN)
        assert sd.theta1 == su.theta1
        assert sd.theta2 == -su.theta2
        assert sd.theta3 == -su.theta3
        assert sd.theta4 == -su.theta4


def test_branch_ranges():
    for t1 in np.radians(np.arange(-178, 179, 7)):
        assert 0.0 < theta4_of_theta1(math.radians(70), float(t1), UP) < math.pi
        assert -math.pi < theta4_of_theta1(math.radians(70), float(t1), DOWN) < 0.0


def test_alpha_domain():
    with pytest.raises(DomainError):
        theta4_of_theta1(math.radians(91), 0.0, UP)
    with pytest.raises(DomainError):
        theta4_of_theta1(0.0, 0.0, UP)
    # 90 degrees (flat-foldable limit) stays evaluable.
    assert theta4_of_theta1(math.pi / 2, 0.0, UP) == pytest.approx(math.pi / 2)


def test_central_angles_validation():
    with pytest.raises(DomainError):
        CentralAngles(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        CentralAngles(1.0, 1.0, 1.0, math.pi)
    with pytest.raises(DomainError):
        CentralAngles.self_lock(math.radians(45))
    with pytest.raises(DomainError):
        CentralAngles.self_lock(math.radians(90))
    ang = CentralAngles.self_lock(math.radians(80))
    assert ang.alpha34 == ang.alpha41 == math.pi / 2
    assert ang.deficit > 0.0
    assert ang.deficit == pytest.approx(math.radians(20), abs=1e-12)


def test_closure_residual_frozen():
    ang = CentralAngles.self_lock(math.radians(80))
    assert closure_residual(ang, math.radians(45), 0.0) == pytest.approx(
        -0.2919324529868222, abs=1e-15
    )


def test_closure_residual_vanishes_at_closed_form():
    for a in (61, 70, 80, 85, 89):
        ang = CentralAngles.self_lock(math.radians(a))
        for t1 in np.radians(np.arange(-175, 176, 13)):
            for config in (UP, DOWN):
                t4 = theta4_of_theta1(math.radians(a), float(t1), config)
                assert abs(closure_residual(ang, float(t1), t4)) < 1e-9


def test_closure_residual_array_matches_scalar():
    ang = CentralAngles.self_lock(math.radians(85))
    t4s = np.linspace(-3.0, 3.0, 17)
    arr = closure_residual(ang, 0.9, t4s)
    assert arr.shape == (17,)
    for t4, v in zip(t4s, arr):
        assert closure_residual(ang, 0.9, float(t4)) == pytest.approx(
            float(v), abs=1e-15
        )


def test_oracle_roots_frozen():
    ang89 = CentralAngles.self_lock(math.radians(89))
    roots = oracle_roots(ang89, math.radians(90))
    assert len(roots) == 2
    assert math.degrees(roots[0]) == pytest.approx(-0.9998477260772541, abs=1e-6)
    assert math.degrees(roots[1]) == pytest.approx(0.9998477260772541, abs=1e-6)

    ang80 = CentralAngles.self_lock(math.radians(80))
    roots = oracle_roots(ang80, 0.0)
    assert [round(math.degrees(r), 6) for r in roots] == [-90.0, 90.0]


def test_oracle_roots_generic_quad():
    # A non self-locking vertex: all four central angles at 60 degrees.
    ang = CentralAngles(*[math.radians(60)] * 4)
    roots = oracle_roots(ang, math.radians(40))
    assert len(roots) == 2
    assert math.degrees(roots[1]) == pytest.approx(107.89522253524048, abs=1e-6)
    assert roots[0] == pytest.approx(-roots[1], abs=1e-9)


def test_oracle_roots_across_pi_seam():
    # At 89 degrees and theta1 = -178 degrees the two roots sit at about
    # +/-179.98 degrees, in the cell that closes the circle across +/-pi.
    ang = CentralAngles.self_lock(math.radians(89))
    roots = oracle_roots(ang, math.radians(-178))
    assert len(roots) == 2
    closed = theta4_of_theta1(math.radians(89), math.radians(-178), UP)
    best = min(
        min(abs(closed - r), 2 * math.pi - abs(closed - r)) for r in roots
    )
    assert best < 1e-8


def _bisect_each_bracket(angles, theta1, samples=3600):
    """Reference oracle: scan the circle, then bisect each bracket on its own.

    A scalar loop per bracket, kept independent of oracle_roots: the same
    grid, seam cell, stop rule and collapse on an exact zero.
    """
    grid = [-math.pi + 2.0 * math.pi * k / samples for k in range(1, samples + 1)]
    vals = closure_residual(angles, theta1, np.array(grid)).tolist()
    roots = [g for g, v in zip(grid, vals) if v == 0.0]
    for k in range(samples):
        a, fa, fb = grid[k], vals[k], vals[(k + 1) % samples]
        b = grid[k + 1] if k + 1 < samples else grid[0] + 2.0 * math.pi
        if not fa * fb < 0.0:
            continue
        while b - a > 1e-12:
            mid = 0.5 * (a + b)
            fm = closure_residual(
                angles, theta1, mid - 2.0 * math.pi if mid > math.pi else mid
            )
            if fm == 0.0:
                a = b = mid
            elif fa * fm < 0.0:
                b = mid
            else:
                a, fa = mid, fm
        root = 0.5 * (a + b)
        roots.append(root - 2.0 * math.pi if root > math.pi else root)
    out = []
    for r in sorted(roots):
        if not out or r - out[-1] > 1e-10:
            out.append(r)
    return out


@settings(max_examples=80, deadline=None)
@given(
    a=st.floats(min_value=46.0, max_value=89.5),
    t1=st.one_of(
        st.floats(min_value=-179.0, max_value=179.0),
        st.floats(min_value=177.0, max_value=179.0),
        st.floats(min_value=-179.0, max_value=-177.0),
    ),
    quad=st.booleans(),
)
@example(a=89.0, t1=-178.0, quad=False)
@example(a=89.0, t1=179.0, quad=False)
@example(a=80.0, t1=0.0, quad=False)
@example(a=60.0, t1=40.0, quad=True)
@example(a=89.5, t1=180.0, quad=False)
@example(a=60.0, t1=-180.0, quad=True)
@example(a=46.0, t1=math.degrees(1e-300), quad=False)
def test_oracle_roots_match_per_bracket_bisection(a, t1, quad):
    # quad swaps in the generic all-60-degree vertex; a is then unused.
    if quad:
        ang = CentralAngles(*[math.radians(60)] * 4)
    else:
        ang = CentralAngles.self_lock(math.radians(a))
    roots = oracle_roots(ang, math.radians(t1))
    expect = _bisect_each_bracket(ang, math.radians(t1))
    assert len(roots) == len(expect)
    assert all(type(r) is float for r in roots)
    for r, e in zip(roots, expect):
        assert abs(r - e) <= 1e-12


def _residual_one_pass(angles, theta1, theta4):
    """Reference closure residual: the whole expression in one numpy pass."""
    a12, a23, a34, a41 = angles.alpha12, angles.alpha23, angles.alpha34, angles.alpha41
    t1 = np.asarray(theta1, dtype=float)
    t4 = np.abs(np.asarray(theta4, dtype=float))
    out = (
        np.cos(a41) * np.cos(a23) * np.cos(a12)
        - (
            np.sin(a41) * np.cos(a23) * np.cos(t4)
            + np.cos(a41) * np.sin(a23) * np.cos(t1)
        )
        * np.sin(a12)
        + np.sin(a41)
        * np.sin(a23)
        * (np.sin(t1) * np.sin(t4) - np.cos(t1) * np.cos(t4) * np.cos(a12))
        - np.cos(a34)
    )
    return float(out) if out.ndim == 0 else out


def _bisect_one_level_per_call(angles, theta1, samples=3600):
    """Reference oracle: all brackets halved together, one level per call."""
    grid = -math.pi + 2.0 * math.pi * np.arange(1, samples + 1) / samples
    vals = _residual_one_pass(angles, theta1, grid)
    ends = np.append(grid[1:], grid[0] + 2.0 * math.pi)
    cross = np.flatnonzero(vals * np.roll(vals, -1) < 0.0)
    a, b, fa = grid[cross], ends[cross], vals[cross]
    while True:
        live = np.flatnonzero(b - a > 1e-12)
        if live.size == 0:
            break
        mid = 0.5 * (a[live] + b[live])
        fm = _residual_one_pass(
            angles, theta1, np.where(mid > math.pi, mid - 2.0 * math.pi, mid)
        )
        left = fa[live] * fm < 0.0
        b[live] = np.where(left | (fm == 0.0), mid, b[live])
        a[live] = np.where(left, a[live], mid)
        fa[live] = np.where(left, fa[live], fm)
    found = 0.5 * (a + b)
    found = np.where(found > math.pi, found - 2.0 * math.pi, found)
    out = []
    for r in np.sort(np.concatenate((grid[vals == 0.0], found))).tolist():
        if not out or r - out[-1] > 1e-10:
            out.append(r)
    return out


_ORACLE_DRAWS = dict(
    a=st.floats(min_value=46.0, max_value=89.5),
    t1=st.one_of(
        st.floats(min_value=-179.0, max_value=179.0),
        st.floats(min_value=177.0, max_value=179.0),
        st.floats(min_value=-179.0, max_value=-177.0),
    ),
    quad=st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(**_ORACLE_DRAWS)
@example(a=89.0, t1=-178.0, quad=False)
@example(a=89.0, t1=179.0, quad=False)
@example(a=80.0, t1=0.0, quad=False)
@example(a=60.0, t1=40.0, quad=True)
@example(a=89.5, t1=180.0, quad=False)
@example(a=60.0, t1=-180.0, quad=True)
@example(a=46.0, t1=math.degrees(1e-300), quad=False)
def test_oracle_roots_equal_one_level_bisection(a, t1, quad):
    # Bisecting each bracket on its own must give the roots of halving all
    # brackets together, one level per call, exactly, not just within the
    # 1e-12 stop width.
    if quad:
        ang = CentralAngles(*[math.radians(60)] * 4)
    else:
        ang = CentralAngles.self_lock(math.radians(a))
    assert oracle_roots(ang, math.radians(t1)) == _bisect_one_level_per_call(
        ang, math.radians(t1)
    )


@settings(max_examples=150, deadline=None)
@given(
    **_ORACLE_DRAWS,
    t4=st.floats(min_value=-4.0, max_value=4.0),
    n=st.integers(min_value=1, max_value=40),
)
def test_closure_residual_bit_identical_to_one_pass(a, t1, quad, t4, n):
    if quad:
        ang = CentralAngles(*[math.radians(60)] * 4)
    else:
        ang = CentralAngles.self_lock(math.radians(a))
    t1 = math.radians(t1)
    got = closure_residual(ang, t1, t4)
    assert type(got) is float
    assert got == _residual_one_pass(ang, t1, t4)
    t4s = np.linspace(-t4, t4 + 0.5, n)
    t1s = np.linspace(t1, -t1, n)
    for th1, th4 in ((t1, t4s), (t1s, t4), (t1s, t4s)):
        got = closure_residual(ang, th1, th4)
        assert got.tobytes() == _residual_one_pass(ang, th1, th4).tobytes()
    # A list and a 0-d array are read as arrays at the public call.
    got = closure_residual(ang, t1, t4s.tolist())
    assert got.tobytes() == _residual_one_pass(ang, t1, t4s).tobytes()
    got = closure_residual(ang, t1, np.array(t4))
    assert type(got) is float
    assert got == _residual_one_pass(ang, t1, t4)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(min_value=46.0, max_value=89.5),
    t1=st.floats(min_value=-178.0, max_value=178.0),
)
def test_oracle_confirms_closed_form(a, t1):
    alpha = math.radians(a)
    ang = CentralAngles.self_lock(alpha)
    roots = oracle_roots(ang, math.radians(t1))
    for config in (UP, DOWN):
        closed = theta4_of_theta1(alpha, math.radians(t1), config)
        best = min(
            min(abs(closed - r), 2 * math.pi - abs(closed - r)) for r in roots
        )
        assert best < 1e-8


@settings(max_examples=120, deadline=None)
@given(
    a=st.floats(min_value=46.0, max_value=89.5),
    t4=st.floats(min_value=1e-3, max_value=math.pi - 1e-3),
)
def test_theta1_of_theta4_round_trip(a, t4):
    alpha = math.radians(a)
    t1 = theta1_of_theta4(alpha, t4, UP)
    assert -math.pi < t1 < math.pi
    assert theta4_of_theta1(alpha, t1, UP) == pytest.approx(t4, abs=1e-9)

    t1d = theta1_of_theta4(alpha, -t4, DOWN)
    assert theta4_of_theta1(alpha, t1d, DOWN) == pytest.approx(-t4, abs=1e-9)


def test_theta1_of_theta4_branch_domain():
    alpha = math.radians(80)
    with pytest.raises(DomainError):
        theta1_of_theta4(alpha, -0.5, UP)
    with pytest.raises(DomainError):
        theta1_of_theta4(alpha, 0.0, UP)
    with pytest.raises(DomainError):
        theta1_of_theta4(alpha, math.pi, UP)
    with pytest.raises(DomainError):
        theta1_of_theta4(alpha, 0.5, DOWN)


def test_mpf_frozen_values():
    g = math.radians(36.5)
    assert math.degrees(mpf_theta1(math.radians(89), g)) == pytest.approx(
        2.702206669484808, abs=1e-9
    )
    assert math.degrees(mpf_theta1(math.radians(85), g)) == pytest.approx(
        13.435177025302762, abs=1e-9
    )
    assert math.degrees(mpf_theta1(math.radians(80), g)) == pytest.approx(
        26.413485546235176, abs=1e-9
    )
    # gamma = 90 degrees is the theta1 = 0 state.
    assert mpf_theta1(math.radians(89), math.pi / 2) == pytest.approx(
        0.0, abs=1e-12
    )
    with pytest.raises(DomainError):
        mpf_theta1(math.radians(89), 0.0)
    with pytest.raises(DomainError):
        mpf_theta1(math.radians(89), math.pi / 2 + 0.01)


def test_mpf_state_reaches_gamma():
    for a in (70, 80, 89):
        for g in (20, 36.5, 60):
            t1 = mpf_theta1(math.radians(a), math.radians(g))
            t4 = theta4_of_theta1(math.radians(a), t1, UP)
            assert t4 == pytest.approx(math.radians(g), abs=1e-9)


def test_semi_flat_frozen_values():
    # Exact minimizers, checked against a 40-digit stationary point.
    assert math.degrees(semi_flat_theta1(math.radians(89), UP)) == pytest.approx(
        10.580482529851477, abs=1e-9
    )
    assert math.degrees(semi_flat_theta1(math.radians(85), UP)) == pytest.approx(
        22.559121067332322, abs=1e-9
    )
    assert math.degrees(semi_flat_theta1(math.radians(80), UP)) == pytest.approx(
        29.990117353533132, abs=1e-9
    )


def test_semi_flat_branch_independent():
    for a in (70, 80, 89):
        tu = semi_flat_theta1(math.radians(a), UP)
        td = semi_flat_theta1(math.radians(a), DOWN)
        assert tu == pytest.approx(td, abs=1e-9)


_SCAN = np.radians(np.arange(0.1, 179.95, 0.1))


@settings(max_examples=60, deadline=None)
@given(st.floats(45.0, 90.0, exclude_min=True, exclude_max=True))
def test_semi_flat_is_a_local_minimum(alpha_deg):
    alpha = math.radians(alpha_deg)
    c, s = math.cos(alpha), math.sin(alpha)

    def total(t):
        js = joint_state(alpha, t, UP)
        return abs(js.theta1) + abs(js.theta2) + abs(js.theta3) + abs(js.theta4)

    t0 = semi_flat_theta1(alpha, UP)
    assert 0.0 < t0 < math.pi
    # d(total)/d(theta1) = 1 - c/D + s sin(u)/sqrt(D), u = theta1/2, with
    # D = 1 - s^2 cos(u)^2 written as c^2 + s^2 sin(u)^2, which stays
    # accurate near 90 degrees where D is tiny.
    su = s * math.sin(0.5 * t0)
    d = c * c + su * su
    assert abs(1.0 - c / d + su / math.sqrt(d)) < 1e-12
    assert total(t0) <= min(total(float(t)) for t in _SCAN) + 1e-12


def test_sweep_table():
    theta1 = np.linspace(math.radians(-30), math.radians(30), 7)
    table = sweep(math.radians(85), UP, theta1)
    assert table.shape == (7, 4)
    # Columns theta1, theta2, theta3, theta4; theta2 is theta4.
    assert np.array_equal(table[:, 0], theta1)
    assert np.array_equal(table[:, 1], table[:, 3])
    for row, t in zip(table.tolist(), theta1.tolist()):
        st = joint_state(math.radians(85), t, UP)
        assert row == [st.theta1, st.theta2, st.theta3, st.theta4]
    assert table[3, 0] == 0.0
    assert table[3, 3] == math.pi / 2


def test_sweep_validation():
    for alpha in (0.0, math.pi / 2 + 1e-9, math.nan):
        message = f"alpha = {alpha!r} outside (0, pi/2]"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            sweep(alpha, UP, np.zeros(3))
