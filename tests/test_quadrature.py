"""Tests of the closed-form singular integrals and their Newton inverses.

The independent oracles here are the Beta-function value of the full decay
integral and mpmath adaptive quadrature of the raw singular integrands,
written in u = distance to the singular endpoint so that the endpoint
itself is exact, with explicit split points on long intervals.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inflap import quadrature as quad

# pi*sqrt(2)/4 = (1/4) B(1/4, 3/4), frozen closed form
F_FULL_CLOSED = math.pi * math.sqrt(2.0) / 4.0


def mp_decay(q):
    """integral of (1-s^4)^(-1/4) over [q, 1], with u = 1 - s."""
    with mpmath.workdps(30):
        return float(mpmath.quad(
            lambda u: (u * (2 - u) * (1 + (1 - u) ** 2)) ** (-0.25),
            [0, 1 - mpmath.mpf(q)]))


def mp_grow(v):
    """integral of (s^4-1)^(-1/4) over [1, v], with u = s - 1."""
    with mpmath.workdps(30):
        top = mpmath.mpf(v) - 1
        pts = [0] + [p for p in (1, 99, 1e4, 1e6, 1e8, 1e10) if p < top] + [top]
        return float(mpmath.quad(
            lambda u: (u * (u + 2) * (u * u + 2 * u + 2)) ** (-0.25), pts))


def test_cumulative_simpson_matches_antiderivative():
    x = np.linspace(0.0, 2.0, 1001)
    out = quad.cumulative_simpson(np.exp(x), x[1] - x[0])
    assert np.max(np.abs(out - (np.exp(x) - 1.0))) < 1e-11


def test_f_decay_endpoints_and_closed_form():
    assert quad.F_DECAY_FULL == F_FULL_CLOSED
    assert quad.f_decay(1.0) == 0.0
    assert quad.f_decay(0.0) == quad.F_DECAY_FULL
    assert quad.g_grow(1.0) == 0.0
    mid = quad.f_decay(0.5)
    assert 0.0 < mid < quad.f_decay(0.0)
    assert quad.decay_table().inverse(0.0) == 1.0
    assert quad.decay_table().inverse(quad.F_DECAY_FULL) == 0.0
    assert quad.grow_table().inverse(0.0) == 1.0
    assert quad.GROW_SPLIT == quad.g_grow(2.0)


@pytest.mark.parametrize("q", [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99,
                               2.0 ** -0.25, 1.0 - 1e-8])
def test_f_decay_against_mpmath(q):
    # near q = 1 the (A - L)(1/y) branch also keeps F to 5e-12 relative
    ref = mp_decay(q)
    assert abs(quad.f_decay(q) - ref) < 1e-13
    assert abs(quad.f_decay(q) / ref - 1.0) < 5e-12


@pytest.mark.parametrize("v", [1.0, 1.01, 1.5, 2.0, 3.7, 20.0, 4e3, 1e8, 1e12])
def test_g_grow_against_mpmath(v):
    if v == 1.0:
        assert quad.g_grow(v) == 0.0
    else:
        assert abs(quad.g_grow(v) / mp_grow(v) - 1.0) < 1e-12


def test_f_decay_domain_error():
    with pytest.raises(ValueError):
        quad.f_decay(-0.1)
    with pytest.raises(ValueError):
        quad.f_decay(1.1)
    with pytest.raises(ValueError):
        quad.g_grow(0.9)
    # one bad entry rejects the whole array; NaN is outside every domain
    with pytest.raises(ValueError):
        quad.decay_table().value(np.array([0.2, 0.5, 1.0 + 1e-15]))
    with pytest.raises(ValueError):
        quad.decay_table().value(np.array([0.2, -1e-300]))
    with pytest.raises(ValueError):
        quad.grow_table().value(np.array([3.0, 1.0 - 1e-15]))
    for table in (quad.decay_table(), quad.grow_table()):
        with pytest.raises(ValueError):
            table.value(math.nan)


def test_inverse_rejects_targets_outside_the_range():
    dt, gt = quad.decay_table(), quad.grow_table()
    for table in (dt, gt):
        with pytest.raises(quad.QuadratureError):
            table.inverse(-1e-300)
        with pytest.raises(quad.QuadratureError):
            table.inverse(np.array([0.1, math.nan]))
    with pytest.raises(quad.QuadratureError):
        dt.inverse(np.nextafter(quad.F_DECAY_FULL, 2.0))
    # G(largest float) = log(largest float) + 3 log(2)/4 - pi/8 ~ 709.91:
    # up to it v is finite, past it v would overflow
    g_max = math.log(np.finfo(float).max) + 0.75 * math.log(2.0) - math.pi / 8
    assert np.isfinite(gt.inverse(g_max - 1e-9))
    with pytest.raises(quad.QuadratureError):
        gt.inverse(g_max + 1e-9)
    with pytest.raises(quad.QuadratureError):
        gt.inverse(math.inf)


def test_benchmark_setup_constructs_both_kinds():
    # benchmarks/run.py::timed_setup constructs both kinds by these names
    for kind, x in (("decay", 0.5), ("grow", 2.0)):
        table = quad.SingularIntegralTable(kind)
        assert table.kind == kind
        assert abs(table.inverse(table.value(x)) / x - 1.0) < 1e-14
    with pytest.raises(ValueError):
        quad.SingularIntegralTable("table")


def test_f_decay_strict_monotonicity():
    qs = np.linspace(0.0, 1.0, 40)
    vals = [quad.f_decay(q) for q in qs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_tables_match_adaptive_route():
    # the vectorized evaluators against mpmath's adaptive quadrature
    qs = np.linspace(0.0, 1.0, 23)
    ref = [mp_decay(q) for q in qs]
    assert np.max(np.abs(quad.decay_table().value(qs) - ref)) < 1e-13
    vs = np.array([1.3, 2.0, 2.5, 8.0, 300.0, 1e6])
    ref = [mp_grow(v) for v in vs]
    assert np.max(np.abs(quad.grow_table().value(vs) / ref - 1.0)) < 1e-12


def test_table_monotone_in_limits():
    # longer integration interval -> larger value, for both kinds
    dt = quad.decay_table()
    qs = np.linspace(0.0, 1.0, 101)
    vals = dt.value(qs)
    assert np.all(np.diff(vals) < 0)  # decreasing in q = growing interval [q,1]
    gt = quad.grow_table()
    vs = np.geomspace(1.0 + 1e-9, 1e6, 101)
    assert np.all(np.diff(gt.value(vs)) > 0)


def test_table_inversion_roundtrip():
    dt = quad.decay_table()
    qs = np.concatenate([np.linspace(0.0, 1.0, 101), 1.0 - np.logspace(-15, -1, 57)])
    assert np.max(np.abs(dt.inverse(dt.value(qs)) - qs)) < 2e-15
    gt = quad.grow_table()
    vs = np.array([1.0, 1.0 + 1e-12, 1.0001, 1.9, 2.0, 2.1, 77.0, 1e4, 1e10, 1e12])
    assert np.max(np.abs(gt.inverse(gt.value(vs)) / vs - 1.0)) < 2e-14


def test_inverse_of_a_batch_matches_each_element_alone():
    # elements stop one by one, so a batch must give what each gives alone,
    # down to targets too small for the closed form to resolve
    for table, top in ((quad.decay_table(), quad.F_DECAY_FULL),
                       (quad.grow_table(), 700.0)):
        T = np.concatenate([[0.0], np.logspace(-300, 0, 61), np.linspace(0, top, 61)])
        batch = table.inverse(T)
        alone = np.array([table.inverse(T[i:i + 1])[0] for i in range(T.size)])
        assert np.array_equal(batch, alone)
        assert np.all(np.isfinite(batch))
    # below 1e-13 the answers are 1 in double precision, also where the
    # closed form's rounding noise dwarfs F (a Newton step there goes astray)
    tiny = np.logspace(-320, -14, 3000)
    assert np.all(quad.decay_table().inverse(tiny) == 1.0)
    assert np.all(quad.grow_table().inverse(tiny) == 1.0)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(1e-6, 1.0))
def test_decay_value_monotone_and_roundtrip(q, dq):
    dt = quad.decay_table()
    lo = min(q, 1.0 - dq)
    assert dt.value(lo) > dt.value(min(lo + dq, 1.0))
    assert abs(dt.inverse(dt.value(q)) - q) < 2e-15


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 12.0), st.floats(1e-9, 1.0))
def test_grow_value_monotone_and_roundtrip(log10_v, dv):
    gt = quad.grow_table()
    v = 10.0 ** log10_v
    assert gt.value(v) < gt.value(v * (1.0 + dv))
    assert abs(gt.inverse(gt.value(v)) / v - 1.0) < 2e-14


def test_bisect_monotone():
    root = quad.bisect_monotone(lambda x: x ** 3 - 2.0, 0.0, 2.0, xtol=1e-14)
    assert abs(root - 2.0 ** (1.0 / 3.0)) < 1e-13
    with pytest.raises(quad.QuadratureError):
        quad.bisect_monotone(lambda x: x + 10.0, 0.0, 1.0)
