"""Seeded property tests: delta is a pseudometric, perturbation TV is a
probability, and the SBM family keeps the normalized degree profile."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from graphonlab import (
    FamilySpec,
    SBMParams,
    StepGraphon,
    delta_distance,
    family_generate,
    family_validity_range,
    normalized_degree_profile,
    tv_perturbed,
)

SEEDED = settings(derandomize=True, max_examples=150, deadline=None)


@st.composite
def step_graphons(draw, max_blocks=6):
    k = draw(st.integers(1, max_blocks))
    raw = np.array(draw(st.lists(st.floats(0.2, 1.2), min_size=k, max_size=k)))
    upper = draw(
        st.lists(st.floats(0.05, 0.95), min_size=k * (k + 1) // 2, max_size=k * (k + 1) // 2)
    )
    dens = np.zeros((k, k))
    dens[np.triu_indices(k)] = upper
    dens = dens + np.triu(dens, 1).T
    return StepGraphon(raw / raw.sum(), dens)


@SEEDED
@given(step_graphons(), step_graphons(), step_graphons())
def test_delta_symmetric_and_triangle(a, b, c):
    d_ab = delta_distance(a, b)
    assert d_ab >= 0.0
    assert abs(d_ab - delta_distance(b, a)) <= 1e-12
    assert delta_distance(a, c) <= d_ab + delta_distance(b, c) + 1e-12


@st.composite
def perturbed_pairs(draw):
    size = draw(st.integers(1, 20))
    coords = st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size)
    return draw(coords), draw(coords), draw(st.floats(1e-6, 10.0))


@SEEDED
@given(perturbed_pairs())
def test_tv_perturbed_is_a_probability(pair):
    m0, m1, eps = pair
    assert 0.0 <= tv_perturbed(m0, m1, eps).tv <= 1.0


@SEEDED
@given(
    st.floats(0.1, 0.9),
    st.floats(0.05, 0.95),
    st.floats(0.05, 0.95),
    st.floats(0.05, 0.95),
    st.floats(0.05, 0.95),
)
def test_family_point_keeps_degree_profile(k1, p1, p2, q, u):
    base = SBMParams(k1, p1, p2, q)
    lo, hi = family_validity_range(base)
    point = family_generate(FamilySpec(base, tau=lo + u * (hi - lo)))
    w0, w1 = base.to_step_graphon(), point.to_step_graphon()
    assert delta_distance(w0, w1) <= 1e-12
    prof0, prof1 = normalized_degree_profile(w0), normalized_degree_profile(w1)
    assert np.abs(prof0.values - prof1.values).max() <= 1e-12
