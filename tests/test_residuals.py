"""Residuals of the generating ODEs and identities behind the families."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocrpc.duality import dual_curvature_check, dual_law_deviation
from isocrpc.errors import DegenerateInput, InvalidParams
from isocrpc.families import evaluate, family_ids, make_spec
from isocrpc.geometry import crpc_target
from isocrpc.meshing import sample_grid
from isocrpc.residuals import (
    EQUATIONS,
    OdeResidual,
    _tin_normal_form,
    discriminant_identity_check,
    family_ode_residual,
    helical_ode_residual,
    iso_noniso_residual,
    noniso_noniso_residual,
    two_iso_residual,
)


def test_ode_residual_raw_and_normalized():
    r = OdeResidual(lhs=10.0, rhs=4.0)
    assert r.raw == 6.0
    assert r.normalized == pytest.approx(0.6)
    small = OdeResidual(lhs=0.25, rhs=0.15)
    assert small.normalized == pytest.approx(0.1)  # denominator floored at 1


# --- helical profile ODE -------------------------------------------------------

def test_logarithmic_profile_is_a_structured_zero():
    # f = c log u with a = -1: both sides vanish identically, not just
    # their difference
    for c in (0.5, 1.0, 2.0):
        for u in (0.5, 1.0, 1.7):
            r = helical_ode_residual(c / u, -c / (u * u), u, -1.0)
            assert r.lhs == 0.0
            assert r.rhs == 0.0


def test_general_helical_profile_satisfies_the_ode():
    spec = make_spec("helical_general", {"a": 2.0})
    u0, u1, v0, v1 = spec.domain
    for u in np.linspace(u0 + 0.1 * (u1 - u0), u1 - 0.1 * (u1 - u0), 7):
        assert family_ode_residual(spec, float(u), 0.3) <= 1e-8


def test_quadratic_profile_fails_the_ode():
    # f = u^2 is not a helical profile for a = 2
    r = helical_ode_residual(2.0, 2.0, 1.0, 2.0)
    assert r.lhs == pytest.approx(32.0)
    assert r.rhs == pytest.approx(27.0)
    assert abs(r.raw) > 1.0


def test_helical_ode_rejects_zero_ratio():
    with pytest.raises(InvalidParams, match="nonzero ratio"):
        helical_ode_residual(1.0, 1.0, 1.0, 0.0)


# --- translational identities ----------------------------------------------------

def test_two_iso_paraboloid_pair_is_exact():
    r = two_iso_residual(2.0, 4.0, 2.0)
    assert r.raw == 0.0


@settings(max_examples=200, deadline=None)
@given(
    a=st.one_of(st.floats(-3.0, -0.1), st.floats(0.1, 3.0)),
    c=st.floats(0.1, 10.0),
)
def test_two_iso_constant_hessians_always_satisfy(a, c):
    r = two_iso_residual(a, 2.0 * a * c, 2.0 * c)
    assert abs(r.normalized) <= 1e-12


def test_iso_noniso_chart_profile_satisfies():
    for u, v in [(0.1, 0.4), (0.3, 1.0), (-0.2, 2.0)]:
        fp, fpp, gp, gpp = _tin_normal_form(2.0, u, v)
        r = iso_noniso_residual(2.0, fp, fpp, gp, gpp)
        assert abs(r.normalized) <= 1e-8


@pytest.mark.parametrize("a", [-3.0, -1.0, 2.0, 5.0])
def test_normal_form_meets_a_hand_derivation_of_the_generator(a):
    # the non-isotropic generator's height G over v, differentiated by hand:
    # G' = c (1 - b s) / beta, and then over X = v + b cos v, g' = G'/X',
    # g'' = (G'' X' - G' X'') / X'^3; the normal form reads the chart instead
    spec = make_spec("trans_iso_noniso", {"a": a})
    u0, u1, v0, v1 = spec.domain
    rng = np.random.default_rng(34)
    u, v = rng.uniform(u0, u1, 200), rng.uniform(v0, v1, 200)
    b = (a + 1.0) / (a - 1.0)
    B2, s, c = b * b - 1.0, np.sin(v), np.cos(v)
    beta, xp, xpp = b - s, 1.0 - b * s, -b * c
    num, nump = c * xp, -s - b * np.cos(2.0 * v)
    Gp = num / beta
    Gpp = (nump * beta + num * c) / (beta * beta)
    want = (np.exp(u) / B2, np.exp(u) / (B2 * B2), Gp / xp, (Gpp * xp - Gp * xpp) / xp ** 3)
    for got, hand in zip(_tin_normal_form(a, u, v), want):
        np.testing.assert_allclose(got, hand, rtol=1e-12, atol=0.0)


def test_noniso_noniso_log_cos_pair_is_minimal():
    # f = log|cos u|, g = -log|cos v| solve the a = -1 case exactly
    for u, v in [(0.3, 0.5), (0.7, 0.2), (1.0, 1.1)]:
        tu, tv = math.tan(u), math.tan(v)
        r = noniso_noniso_residual(-1.0, -tu, -(1.0 + tu * tu), tv, 1.0 + tv * tv)
        assert abs(r.raw) <= 1e-10


@pytest.mark.parametrize("residual, derivs", [
    (iso_noniso_residual, {"fp": 1.0, "fpp": 1.0, "gp": 0.5, "gpp": 0.0}),
    (noniso_noniso_residual, {"fp": 1.0, "fpp": 0.0, "gp": 0.5, "gpp": 1.0}),
], ids=["iso_noniso", "noniso_noniso"])
def test_flat_generator_leaves_the_ratio_undefined(residual, derivs):
    # a zero second derivative of either generator makes the ratio 0 or
    # infinite, whichever curvature it is taken against
    with pytest.raises(DegenerateInput):
        residual(2.0, **derivs)


def test_translational_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        two_iso_residual(2.0, 0.0, 1.0)
    with pytest.raises(DegenerateInput):
        iso_noniso_residual(2.0, 0.0, 1.0, 0.0, 1.0)
    with pytest.raises(DegenerateInput):
        noniso_noniso_residual(2.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidParams, match="nonzero ratio"):
        two_iso_residual(0.0, 1.0, 1.0)
    with pytest.raises(InvalidParams, match="nonzero ratio"):
        iso_noniso_residual(0.0, 1.0, 1.0, 0.5, 1.0)
    with pytest.raises(InvalidParams, match="nonzero ratio"):
        noniso_noniso_residual(0.0, 1.0, 1.0, 0.5, 1.0)


# --- discriminant identity --------------------------------------------------------

def test_discriminant_hand_point():
    r = discriminant_identity_check(2.0, 0.0, 1.0, 0.0, 1.0)
    assert r.lhs == pytest.approx(-63.0)
    assert r.rhs == pytest.approx(-63.0)
    assert abs(r.raw) <= 1e-12


def test_discriminant_degenerate_linear_slot():
    r = discriminant_identity_check(2.0, 0.7, 0.0, 0.0, 1.3)
    assert r.lhs == 0.0
    assert r.rhs == 0.0
    assert r.raw == 0.0


def test_discriminant_identity_randomized():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(1000):
        a = float(rng.uniform(-3.0, 3.0))
        if abs(a) < 1e-3:
            a = 0.5
        gp = float(rng.uniform(-2.0, 2.0))
        L0 = float(rng.uniform(-2.0, 2.0))
        L1 = float(rng.uniform(-2.0, 2.0))
        Y = float(rng.uniform(-2.0, 2.0))
        worst = max(worst, abs(discriminant_identity_check(a, gp, L0, L1, Y).normalized))
    assert worst <= 1e-9


def test_discriminant_rejects_zero_ratio():
    with pytest.raises(InvalidParams, match="nonzero ratio"):
        discriminant_identity_check(0.0, 1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("helper", [
    lambda a: helical_ode_residual(1.0, 1.0, 1.0, a),
    lambda a: two_iso_residual(a, 1.0, 2.0),
    lambda a: iso_noniso_residual(a, 1.0, 1.0, 0.5, 1.0),
    lambda a: noniso_noniso_residual(a, 1.0, 1.0, 0.5, 1.0),
    lambda a: discriminant_identity_check(a, 1.0, 1.0, 1.0, 1.0),
])
@pytest.mark.parametrize("a", [1e200, 1e-320])
def test_every_helper_refuses_the_ratios_crpc_target_refuses(helper, a):
    # one rule, also for the ratios without a finite target: 1e200 once
    # raised Python's OverflowError from (a + 1)**2
    with pytest.raises(InvalidParams) as refused:
        helper(a)
    with pytest.raises(InvalidParams) as rule:
        crpc_target(a)
    assert str(refused.value) == str(rule.value)


# --- per-family dispatch -----------------------------------------------------------

FAMILY_CASES = [
    ("paraboloid", {"a": 2.0}),
    ("trans_paraboloid", {"a": 2.0}),
    ("rotational_power_1", {"a": -2.0}),
    ("rotational_power_1", {"a": 2.0}),
    ("rotational_power_2", {"a": -2.0}),
    ("rotational_power_2", {"a": 2.0}),
    ("logarithmoid", {}),
    ("helicoid", {}),
    ("helical_log", {"c": 1.0}),
    ("helical_general", {"a": 2.0}),
    ("helical_general", {"a": -2.0}),
    ("trans_iso_noniso", {"a": 2.0}),
    ("trans_noniso_noniso", {}),
    ("dual_trans_iso_noniso", {"a": 2.0}),
    ("dual_trans_minimal", {}),
    ("euclidean_rotational", {"a": 2.0}),
    ("euclidean_rotational", {"a": -0.5}),
    ("euclidean_rotational", {"a": 0.05}),
    ("euclidean_rotational", {"a": 30.0}),
    ("spiral_ruled", {"a": -2.0}),
    ("spiral_ruled", {"a": -1e-3}),
    ("spiral_ruled", {"a": -50.0}),
]


@pytest.mark.parametrize("fid,params", FAMILY_CASES,
                         ids=[f"{f}-{p}" for f, p in FAMILY_CASES])
def test_every_family_satisfies_its_equation(fid, params):
    spec = make_spec(fid, params)
    u0, u1, v0, v1 = spec.domain
    us = np.linspace(u0 + 0.15 * (u1 - u0), u1 - 0.15 * (u1 - u0), 4)
    vs = np.linspace(v0 + 0.15 * (v1 - v0), v1 - 0.15 * (v1 - v0), 4)
    worst = max(family_ode_residual(spec, float(u), float(v))
                for u in us for v in vs)
    assert worst <= 1e-8


@pytest.mark.parametrize("fid,a,read_as", [
    ("spiral_ruled", -2.0, -3.0),
    ("euclidean_rotational", 2.0, 3.0),
    ("euclidean_rotational", -2.0, -3.0),
])
def test_a_chart_read_with_another_ratio_fails_its_equation(fid, a, read_as):
    # the law is live: the chart of one ratio does not meet the law of another
    spec = make_spec(fid, {"a": a})
    u0, u1, v0, v1 = spec.domain
    U, V = np.meshgrid(np.linspace(u0 + 0.15 * (u1 - u0), u1 - 0.15 * (u1 - u0), 4),
                       np.linspace(v0 + 0.15 * (v1 - v0), v1 - 0.15 * (v1 - v0), 4))
    jet = evaluate(spec, U, V, check=False, heights=False)
    assert EQUATIONS[fid](spec, U, V, jet).max() <= 1e-8
    assert EQUATIONS[fid](make_spec(fid, {"a": read_as}), U, V, jet).max() >= 1e-3


# --- elementwise evaluation --------------------------------------------------------

def test_every_family_has_an_equation():
    assert set(EQUATIONS) == set(family_ids())


@pytest.mark.parametrize("fid,params", FAMILY_CASES,
                         ids=[f"{f}-{p}" for f, p in FAMILY_CASES])
def test_array_residual_equals_the_per_node_scalar_calls(fid, params):
    spec = make_spec(fid, params)
    grid = sample_grid(spec, 12, 12)
    ii, jj = np.nonzero(~grid.mask)
    us, vs = grid.us[ii], grid.vs[jj]
    batch = family_ode_residual(spec, us, vs)
    assert batch.shape == us.shape
    nodes = [family_ode_residual(spec, float(u), float(v)) for u, v in zip(us, vs)]
    np.testing.assert_allclose(batch, nodes, rtol=0.0, atol=1e-14)
    grid_shaped = family_ode_residual(spec, us.reshape(-1, 1), vs.reshape(-1, 1))
    np.testing.assert_array_equal(grid_shaped[:, 0], batch)


@pytest.mark.parametrize("res", [(50, 50), (31, 17)])
@pytest.mark.parametrize("fid,params", FAMILY_CASES,
                         ids=[f"{f}-{p}" for f, p in FAMILY_CASES])
def test_dual_law_on_the_grid_curvatures_is_bit_equal_to_the_dual_check(fid, params, res):
    # a verify row feeds the grid's H and K at its sampled nodes to the dual
    # law instead of evaluating the chart there again
    spec = make_spec(fid, params)
    grid = sample_grid(spec, *res)
    ii, jj = np.nonzero(~grid.mask)
    take = np.sort(np.random.default_rng(len(ii)).choice(len(ii), 64, replace=False))
    ii, jj = ii[take], jj[take]
    us, vs = grid.us[ii], grid.vs[jj]
    got = dual_law_deviation(spec, us, vs, grid.H[ii, jj], grid.K[ii, jj])
    want = dual_curvature_check(spec, us, vs)
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_helpers_on_arrays_match_their_scalar_calls():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.2, 2.0, (5, 40))
    a = -2.5

    def same(batch, scalar_calls):
        for got, want in zip(batch, zip(*scalar_calls)):
            np.testing.assert_allclose(got, want, rtol=1e-15)

    r = helical_ode_residual(x[0], x[1], x[2], a)
    same((r.lhs, r.rhs, r.normalized), [
        (q.lhs, q.rhs, q.normalized)
        for q in (helical_ode_residual(*col, a) for col in x[:3].T.tolist())])
    for residual, args in ((two_iso_residual, lambda c: (c[1], c[3])),
                           (iso_noniso_residual, lambda c: (c[0], c[1], -c[2], c[3])),
                           (noniso_noniso_residual, lambda c: (c[0], c[1], -c[2], c[3])),
                           (discriminant_identity_check, lambda c: c[:4])):
        r = residual(a, *args(x))
        same((r.lhs, r.rhs), [
            (q.lhs, q.rhs) for q in (residual(a, *args(c)) for c in x.T.tolist())])
    same(_tin_normal_form(a, x[0], x[1]),
         [_tin_normal_form(a, u, v) for u, v in zip(x[0].tolist(), x[1].tolist())])


def _tin_at_its_pole(us, vs):
    # a = -3 gives b = 1/2: the generator degenerates where sin v = 1/2
    return family_ode_residual(make_spec("trans_iso_noniso", {"a": -3.0}), us, vs)


@pytest.mark.parametrize("call", [
    lambda: two_iso_residual(2.0, np.array([1.0, 0.0]), np.ones(2)),
    lambda: iso_noniso_residual(2.0, np.array([1.0, 0.0]), 1.0, 0.5, np.ones(2)),
    lambda: noniso_noniso_residual(2.0, np.array([0.5, 1.0]), 1.0, 1.0, 1.0),
    lambda: _tin_normal_form(-3.0, np.array([0.1, 0.1]), np.array([0.3, math.pi / 6.0])),
    lambda: _tin_at_its_pole(np.array([0.1, 0.1, 0.1]), np.array([0.3, math.pi / 6.0, 0.5])),
], ids=["two_iso", "iso_noniso", "noniso_noniso", "tin_normal_form", "family_ode_residual"])
def test_one_degenerate_element_raises(call):
    with pytest.raises(DegenerateInput):
        call()
