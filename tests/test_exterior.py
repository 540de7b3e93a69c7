import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msgrav import catalog, eh, ep
from msgrav.errors import ConfigError
from msgrav.exterior import (VOL_SIGN, VOL_SLOTS, Form, _cofactors,
                             cartan_form, contract_terms)
from msgrav.fieldspace import tangent_lifts

DIMN = 8
# schwarzschild with one torsionful connection component
TORSION = Path(__file__).resolve().parents[1] / "msbench" / "inputs" \
    / "torsion.metric"


def _form(rng, terms=3):
    return Form(rng.normal(size=terms), rng.normal(size=(terms, DIMN)),
                rng.integers(DIMN, size=(terms, 4)))


def _vectors(rng, n=4):
    return [rng.normal(size=DIMN) for _ in range(n)]


def _factors(form):
    """Each term's five factors as dense covectors over the form's width w,
    (T, 5, w)."""
    unit = np.eye(form.dense.shape[-1])
    return np.concatenate([form.dense[:, None], unit[form.coords]], axis=1)


def _laplace_reference(form, vectors):
    """Per term and per output component j, the 5x5 determinant of the
    factor pairings with vectors + [e_j], summed over terms."""
    dim = form.dense.shape[-1]
    vecs = np.asarray(vectors)[:, :dim]
    out = np.zeros(dim)
    for coef, facs in zip(form.coef, _factors(form)):
        pair = np.empty((dim, 5, 5))
        pair[:, :, :4] = facs @ vecs.T
        pair[:, :, 4] = facs.T
        out += coef * np.linalg.det(pair)
    return out


def test_form_term_requires_five_factors():
    # one dense covector wedged with exactly 4 coordinate differentials
    with pytest.raises(ConfigError):
        Form(np.ones(1), np.zeros((1, DIMN)), [[0, 1, 2]])
    with pytest.raises(ConfigError):
        Form(np.ones(2), np.zeros((1, DIMN)), [[0, 1, 2, 3]])
    with pytest.raises(ConfigError):
        Form(np.ones(1), np.zeros((1, DIMN)), [[0, 1, 2, DIMN]])


def test_contraction_is_the_partial_pairing_determinant():
    # pairing the result with a fifth vector must equal the full 5x5
    # determinant of factor/vector pairings
    rng = np.random.default_rng(0)
    for trial in range(5):
        form = _form(rng, terms=1)
        vecs = _vectors(rng)
        w = rng.normal(size=DIMN)
        cov = contract_terms(form, vecs)
        full = _factors(form)[0] @ np.array(vecs + [w]).T
        assert cov @ w == pytest.approx(
            form.coef[0] * np.linalg.det(full), rel=1e-10, abs=1e-10)


def test_contraction_antisymmetry_under_vector_swap():
    rng = np.random.default_rng(1)
    form = _form(rng)
    v = _vectors(rng)
    a = contract_terms(form, v)
    b = contract_terms(form, [v[1], v[0], v[2], v[3]])
    assert np.allclose(a, -b, atol=1e-12)


def test_contraction_multilinearity():
    rng = np.random.default_rng(2)
    form = _form(rng)
    v = _vectors(rng)
    u = rng.normal(size=DIMN)
    lhs = contract_terms(form, [v[0], 2.0 * v[1] + 3.0 * u, v[2], v[3]])
    rhs = (2.0 * contract_terms(form, v)
           + 3.0 * contract_terms(form, [v[0], u, v[2], v[3]]))
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_repeated_vector_annihilates():
    rng = np.random.default_rng(3)
    form = _form(rng)
    v = _vectors(rng)
    out = contract_terms(form, [v[0], v[1], v[0], v[2]])
    assert np.abs(out).max() < 1e-12


def test_volume_contraction_example():
    # dx0^dx1^dx2^dx3^dx4 contracted with e1..e4 leaves dx0
    basis = np.eye(DIMN)
    form = Form(np.ones(1), basis[:1], [[1, 2, 3, 4]])
    out = contract_terms(form, basis[1:5])
    assert np.allclose(out, basis[0])


def test_vector_count_and_dimension_check():
    form = Form(np.ones(1), np.eye(DIMN)[:1], [[1, 2, 3, 4]])
    with pytest.raises(ConfigError):
        contract_terms(form, [np.zeros(3)] * 4)
    with pytest.raises(ConfigError):
        contract_terms(form, [np.zeros(DIMN)] * 3)
    with pytest.raises(ConfigError):
        contract_terms(form, [np.zeros(DIMN - 1)] * 4)
    # wider vectors are read over the form's width only
    wide = np.eye(DIMN + 2)[1:5]
    assert np.array_equal(contract_terms(form, wide),
                          contract_terms(form, wide[:, :DIMN]))
    assert contract_terms(form, wide).shape == (DIMN,)


def test_contract_terms_distributes():
    # a form is the sum of its terms: contracting the concatenation of two
    # forms adds their contractions, and so does contracting term by term
    rng = np.random.default_rng(4)
    a, b = _form(rng), _form(rng, terms=5)
    v = _vectors(rng)
    both = Form(np.concatenate([a.coef, b.coef]),
                np.concatenate([a.dense, b.dense]),
                np.concatenate([a.coords, b.coords]))
    total = contract_terms(both, v)
    assert np.allclose(total, contract_terms(a, v)
                       + contract_terms(b, v), atol=1e-12)
    single = [contract_terms(Form(both.coef[t:t + 1], both.dense[t:t + 1],
                                  both.coords[t:t + 1]), v)
              for t in range(len(both))]
    assert np.allclose(total, sum(single), atol=1e-12)


def test_volume_slot_signs():
    # i(d/dx^mu) dx0^dx1^dx2^dx3 = VOL_SIGN[mu] dx^VOL_SLOTS[mu]: so
    # dx4 ^ d4x on (e_mu, e_VOL_SLOTS[mu]) leaves VOL_SIGN[mu] dx4
    basis = np.eye(DIMN)
    form = Form(np.ones(1), basis[4:5], [[0, 1, 2, 3]])
    for mu in range(4):
        assert list(VOL_SLOTS[mu]) == [i for i in range(4) if i != mu]
        assert VOL_SIGN[mu] == (-1.0) ** mu
        vecs = basis[[mu, *VOL_SLOTS[mu]]]
        assert np.allclose(contract_terms(form, vecs),
                           VOL_SIGN[mu] * basis[4])


def test_cartan_form_layout():
    # one volume term, then row k of the momenta paired with coordinate
    # first + k // 4 and the slots of i(d/dx^(k % 4)) d4x, signed negative
    rng = np.random.default_rng(5)
    dense = rng.normal(size=(9, DIMN))
    form = cartan_form(dense, 2)
    assert len(form) == 9
    assert form.coef[0] == 1.0 and list(form.coords[0]) == [0, 1, 2, 3]
    for k in range(8):
        mu = k % 4
        assert form.coef[k + 1] == -(-1.0) ** mu
        assert list(form.coords[k + 1]) == [2 + k // 4] + [
            i for i in range(4) if i != mu]
    assert np.array_equal(form.dense, dense)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_coordinate_slot_permutation_parity(seed):
    # permuting the four coordinate differentials of every term multiplies
    # the contraction by the permutation's parity
    rng = np.random.default_rng(seed)
    form = _form(rng)
    v = _vectors(rng)
    base = contract_terms(form, v)
    for perm in itertools.permutations(range(4)):
        parity = np.linalg.det(np.eye(4)[list(perm)])
        moved = Form(form.coef, form.dense, form.coords[:, perm])
        assert np.allclose(contract_terms(moved, v), parity * base,
                           atol=1e-9)


@pytest.mark.parametrize("model, metric, x", [
    ("eh", "flrw", (0.7, 0.2, -0.1, 0.3)),
    ("ep", "desitter", (0.4, 0.2, -0.1, 0.3)),
    ("ep", "torsion", (0.1, 5.0, 1.2, 3.0)),
])
def test_cartan_contraction_matches_laplace_reference(model, metric, x):
    # the model forms through the batched contraction against a per-term
    # 5x5 Laplace expansion, on points where the covector is nonzero
    if metric == "torsion":
        spec = catalog.load_metric_file(str(TORSION))
    else:
        spec = catalog.builtin(metric)
    if model == "eh":
        p = catalog.eh_point_at(spec, x)
        form = eh.cartan_form_eh(p, eh.closed_forms(p))
    else:
        p = catalog.ep_point_at(spec, x)
        form = ep.cartan_form_ep(p, ep.closed_forms_ep(p))
    lifts = tangent_lifts(p, form.dense.shape[-1])
    got = contract_terms(form, lifts)
    want = _laplace_reference(form, lifts)
    scale = np.abs(want).max()
    assert scale > 1e-3
    assert np.abs(got - want).max() <= 1e-12 * scale


@pytest.mark.parametrize("model, width", [("eh", 54), ("ep", 78)])
def test_contraction_reads_no_lift_column_past_the_form(model, width):
    # each model's form lives on its dense width, and what the lifts hold
    # past that width never reaches the covector
    spec = catalog.builtin("flrw")
    xs = np.array([(0.7, 0.2, -0.1, 0.3), (1.1, -0.4, 0.5, 0.2)])
    if model == "eh":
        p = catalog.eh_point_at(spec, xs)
        form = eh.cartan_form_eh(p, eh.closed_forms(p))
    else:
        p = catalog.ep_point_at(spec, xs)
        form = ep.cartan_form_ep(p, ep.closed_forms_ep(p))
    assert form.dense.shape[-1] == width
    assert form.coords.min() >= 0 and form.coords.max() < width
    lifts = tangent_lifts(p, width)
    assert lifts.shape == (2, 4, width)
    want = contract_terms(form, lifts)
    assert want.shape == (2, width) and np.abs(want).max() > 1e-3
    rng = np.random.default_rng(9)
    for tail in (np.zeros((2, 4, 300)), rng.normal(size=(2, 4, 300)),
                 np.full((2, 4, 7), np.nan)):
        got = contract_terms(form, np.concatenate([lifts, tail], axis=-1))
        assert np.array_equal(got, want)


def test_cofactors_are_the_signed_minor_determinants():
    # the shared 2x2 minors against np.linalg.det of each 4x4 minor of
    # random 5x4 matrices, stacked on trailing axes
    m = np.random.default_rng(83).normal(size=(5, 4, 3, 7))
    got = _cofactors(m)
    assert got.shape == (5, 3, 7)
    for f in range(5):
        minor = np.moveaxis(np.delete(m, f, axis=0), (0, 1), (-2, -1))
        want = (-1) ** f * np.linalg.det(minor)
        assert np.abs(got[f] - want).max() <= 1e-13 * np.abs(want).max()
