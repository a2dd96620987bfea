import dataclasses

import numpy as np
import pytest

from helmfd.baselines import (input_scale, one_class_run,
                              one_class_train_ensemble, pca_elm_run,
                              pca_elm_train_ensemble, pca_fit)
from helmfd.data import RngStream, apply_normalization, fit_normalization
from helmfd.helm import (Ensemble, HelmConfig, helm_run, run_ensemble,
                         train_ensemble)


def test_rank_one_data_keeps_single_component():
    rng = np.random.default_rng(0)
    X = np.outer(rng.normal(size=200), rng.normal(size=6)) + 5.0
    _, components = pca_fit(X, 5)
    assert components.shape == (6, 1)


def test_isotropic_variance_splits_evenly():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(10000, 5))
    mean, components = pca_fit(X, 5)
    variances = ((X - mean) @ components).var(axis=0, ddof=1)
    ratios = variances / variances.sum()
    assert components.shape[1] == 5
    assert np.all(np.abs(ratios - 0.2) < 0.05)


def test_components_are_orthonormal():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(300, 12)) @ rng.normal(size=(12, 12))
    _, components = pca_fit(X, 6)
    gram = components.T @ components
    assert np.allclose(gram, np.eye(components.shape[1]), atol=1e-10)


def test_explained_variance_descends():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(400, 8)) * np.arange(1.0, 9.0)
    mean, components = pca_fit(X, 8)
    variances = ((X - mean) @ components).var(axis=0, ddof=1)
    assert np.all(variances[:-1] >= variances[1:] - 1e-12)


def test_reconstruction_matches_best_low_rank_approximation():
    # the truncated SVD of the centered data is the optimal rank-L
    # reconstruction; PCA through the covariance eigendecomposition must
    # reach the same error
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 9))
    L = 3
    mean, components = pca_fit(X, L)
    assert components.shape[1] == L
    codes = (X - mean) @ components
    rec = mean + codes @ components.T
    err = np.linalg.norm(X - rec)

    Xc = X - X.mean(axis=0)
    U, S, Vt = np.linalg.svd(Xc, full_matrices=False)
    best = U[:, :L] @ np.diag(S[:L]) @ Vt[:L]
    best_err = np.linalg.norm(Xc - best)
    assert abs(err - best_err) <= 1e-6 * max(1.0, best_err)


def test_replicated_rows_give_zero_codes():
    X = np.tile(np.array([3.0, -1.0, 2.0]), (10, 1))
    mean, components = pca_fit(X, 2)
    assert components.shape[1] == 1
    assert np.allclose((X - mean) @ components, 0.0)


def test_variance_cap_keeps_at_most_requested():
    rng = np.random.default_rng(5)
    # one dominant direction: 99% cap collapses to few components
    X = np.outer(rng.normal(size=500), rng.normal(size=10))
    X = X + 1e-6 * rng.normal(size=X.shape)
    _, components = pca_fit(X, 8)
    assert 1 <= components.shape[1] <= 8


def test_pca_fit_validation():
    with pytest.raises(ValueError):
        pca_fit(np.ones((1, 3)), 2)
    with pytest.raises(ValueError):
        pca_fit(np.ones((5, 3)), 0)


def small_matrix(seed=7, K=400, D=12):
    rng = np.random.default_rng(seed)
    latent = rng.normal(size=(K, 3))
    return latent @ rng.normal(size=(3, D)) + 0.1 * rng.normal(size=(K, D))


class TestOneClassElm:
    def test_output_tracks_constant_target(self):
        X = small_matrix()
        model = one_class_train_ensemble(X, 40, 1e-5, RngStream(1), 1)[0]
        Y = run_ensemble(model, X)
        assert abs(float(Y.mean()) - 1.0) < 0.1

    def test_deterministic_per_stream(self):
        X = small_matrix()
        a = one_class_train_ensemble(X, 30, 1e-5, RngStream(2), 3)
        b = one_class_train_ensemble(X, 30, 1e-5, RngStream(2), 3)
        assert np.array_equal(run_ensemble(a, X), run_ensemble(b, X))

    def test_input_scale_folded_into_normalization(self):
        X = small_matrix()
        model = one_class_train_ensemble(X, 10, 1e-5, RngStream(3), 1)[0]
        raw = fit_normalization(X)
        s = input_scale(X.shape[1])
        assert np.allclose(model.norm.std, raw.std / s)
        assert np.allclose(model.norm.mean, raw.mean)
        assert model.maps == ()


class TestPcaElm:
    def test_codes_rescaled_to_unit_spread(self):
        # the member's one map takes normalized inputs to unit-std features;
        # orthonormality of the basis is pca_fit's, tested above
        X = small_matrix()
        model = pca_elm_train_ensemble(X, 4, 30, 1e-5, RngStream(5), 1)[0]
        (stack,) = model.maps
        (beta,) = stack
        assert beta.shape[1] == X.shape[1] and beta.flags.c_contiguous
        z = apply_normalization(X, model.norm) @ beta.T
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-9)

    def test_output_tracks_constant_target(self):
        X = small_matrix()
        model = pca_elm_train_ensemble(X, 4, 30, 1e-5, RngStream(6), 1)[0]
        Y = run_ensemble(model, X)
        assert abs(float(Y.mean()) - 1.0) < 0.1

    def test_deterministic_per_stream(self):
        X = small_matrix()
        a = pca_elm_train_ensemble(X, 3, 20, 1e-5, RngStream(7), 3)
        b = pca_elm_train_ensemble(X, 3, 20, 1e-5, RngStream(7), 3)
        assert np.array_equal(run_ensemble(a, X), run_ensemble(b, X))


SMALL_HELM = HelmConfig(layer_sizes=(6, 30))

# the trainer of each model family, as (X, stream, size)
TRAINERS = {
    "helm": lambda X, stream, size: train_ensemble(
        X, dataclasses.replace(SMALL_HELM, ensemble_size=size), stream),
    "elm": lambda X, stream, size: one_class_train_ensemble(X, 30, 1e-5,
                                                            stream, size),
    "pca-elm": lambda X, stream, size: pca_elm_train_ensemble(
        X, 4, 30, 1e-5, stream, size),
}


def bitwise_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("family", TRAINERS)
def test_a_member_does_not_depend_on_the_ensemble_size(family):
    train = TRAINERS[family]
    X = small_matrix()
    stream = RngStream(8, (2,))
    members = train(X, stream, 3)
    assert isinstance(members, Ensemble) and len(members) == 3
    for m, got in enumerate(members):
        want = train(X, stream, m + 1)[m]
        assert got.norm is members.norm
        pairs = [(got.norm.mean, want.norm.mean), (got.norm.std, want.norm.std),
                 (got.head.A, want.head.A), (got.head.B, want.head.B),
                 (got.head.beta, want.head.beta)]
        assert len(got.maps) == len(want.maps)
        pairs += list(zip(got.maps, want.maps))
        for a, b in pairs:
            assert bitwise_equal(a, b), m
    # each *_run, which bench/tracing.py times under its own name, is
    # run_ensemble, on a batch and on a lone row
    run = {"helm": helm_run, "elm": one_class_run,
           "pca-elm": pca_elm_run}[family]
    for ens in (members, *members):
        for rows in (X, X[:1]):
            assert bitwise_equal(run(ens, rows), run_ensemble(ens, rows))
