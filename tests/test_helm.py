import dataclasses
import json
import warnings

import numpy as np
import pytest
from scipy.special import expit

from helmfd import helm, synth
from helmfd.baselines import one_class_train, pca_elm_train
from helmfd.data import RngStream, apply_normalization, fit_normalization
from helmfd.detector import DetectorConfig
from helmfd.elm import hidden, random_layer
from helmfd.fista import FistaParams, fista_solve
from helmfd.helm import (FEATURE_SPAN, SCORE_BLOCK_ROWS, Ensemble, HelmConfig,
                         helm_run, helm_train, load_ensemble, run_ensemble,
                         save_ensemble, train_ensemble)


def small_training_matrix(seed=20, K=300, D=16):
    # low-rank structure plus noise, loosely like multi-sensor data
    rng = np.random.default_rng(seed)
    latent = rng.normal(size=(K, 3))
    mix = rng.normal(size=(3, D))
    return latent @ mix + 0.05 * rng.normal(size=(K, D)) + 2.0


SMALL_CFG = HelmConfig(layer_sizes=(6, 24), lam=1e-2, C=1e-5, ensemble_size=3)


def hits_iteration_cap():
    """The warning of a solve that hits FistaParams' default iteration cap,
    as some on small_training_matrix do; the tests that train them declare
    it."""
    return pytest.warns(RuntimeWarning, match="did not converge")


def test_config_validation():
    with pytest.raises(ValueError):
        HelmConfig(layer_sizes=(10,))
    with pytest.raises(ValueError):
        HelmConfig(layer_sizes=(10, 0))
    with pytest.raises(ValueError):
        HelmConfig(layer_sizes=(10, 20), lam=-1.0)
    with pytest.raises(ValueError):
        HelmConfig(layer_sizes=(10, 20), ensemble_size=0)


def test_training_output_tracks_constant_target(helm_ensemble0, dataset0):
    tr = slice(*synth.SEGMENTS["train"])
    Y = run_ensemble(helm_ensemble0, dataset0.X[tr])
    assert abs(float(Y.mean()) - 1.0) < 0.1


def test_training_is_deterministic_per_stream():
    X = small_training_matrix()
    a = helm_train(X, SMALL_CFG, RngStream(3, (1,)))
    b = helm_train(X, SMALL_CFG, RngStream(3, (1,)))
    assert np.array_equal(helm_run(a, X), helm_run(b, X))


def test_ensemble_members_are_distinct():
    X = small_training_matrix()
    with hits_iteration_cap():
        members = train_ensemble(X, SMALL_CFG, RngStream(4, (1,)))
    outputs = [helm_run(m, X) for m in members]
    assert not np.array_equal(outputs[0], outputs[1])
    assert not np.array_equal(outputs[1], outputs[2])


def test_ensemble_replay_matches_member_streams():
    X = small_training_matrix()
    with hits_iteration_cap():
        members = train_ensemble(X, SMALL_CFG, RngStream(5, (1,)))
    assert isinstance(members, Ensemble)
    assert len(members) == SMALL_CFG.ensemble_size
    with hits_iteration_cap():
        by_hand = [helm_train(X, SMALL_CFG, RngStream(5, (1, m)))
                   for m in range(SMALL_CFG.ensemble_size)]
    for a, b in zip(members, by_hand):
        assert np.array_equal(helm_run(a, X), helm_run(b, X))


def test_heavy_l1_penalty_matches_lasso_oracle(dataset0):
    # lam=1 on the benchmark-scale first layer. Frozen facts from a 20000-sweep
    # coordinate-descent run at tol 1e-14 on this exact (H, x): objective
    # 226906.174996, 26 of 4000 weights exactly zero. A tightly-converged
    # solver run must reproduce both; the default iteration cap must land
    # within 0.1% of that objective (and report non-convergence).
    tr = slice(*synth.SEGMENTS["train"])
    norm = fit_normalization(dataset0.X[tr])
    x = apply_normalization(dataset0.X[tr], norm)
    gen = RngStream(9, (1,)).generator()
    layer = random_layer(x.shape[1], 20, gen)
    H = hidden(layer, x)

    tight = fista_solve(H, x, FistaParams(lam=1.0, eps=1e-10, max_iter=50000))
    assert tight.converged
    assert abs(tight.objective - 226906.174996) <= 0.5
    assert int(np.sum(tight.beta == 0.0)) == 26

    capped = fista_solve(H, x, FistaParams(lam=1.0))
    assert not capped.converged
    assert capped.objective <= tight.objective * (1.0 + 1e-3)


def test_shipped_solves_converge_without_warning(dataset0, monkeypatch):
    # every autoencoder solve of the shipped configuration, on the
    # benchmark's substreams, converges from the least-squares warm start
    results = []

    def recording(*args, **kwargs):
        res = fista_solve(*args, **kwargs)
        results.append(res)
        return res

    monkeypatch.setattr(helm, "fista_solve", recording)
    cfg = HelmConfig()
    tr = slice(*synth.SEGMENTS["train"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        train_ensemble(dataset0.X[tr], cfg, RngStream(42, (1, 0)))
    assert len(results) == cfg.ensemble_size * (len(cfg.layer_sizes) - 1)
    assert all(r.converged for r in results)


def test_capped_solve_warns_with_layer_and_iterations(monkeypatch):
    def capped(H, X, params, beta0=None):
        return fista_solve(H, X, dataclasses.replace(params, max_iter=3), beta0)

    monkeypatch.setattr(helm, "fista_solve", capped)
    cfg = HelmConfig(layer_sizes=(6, 4, 24), ensemble_size=1)
    with pytest.warns(RuntimeWarning) as caught:
        helm_train(small_training_matrix(), cfg, RngStream(7, (1,)))
    assert [str(w.message) for w in caught] == [
        f"autoencoder layer {i}: FISTA did not converge in 3 iterations"
        for i in (0, 1)]


def test_overwhelming_l1_penalty_zeroes_every_weight(dataset0):
    # lam above max|2.Hᵀx| makes beta = 0 the exact optimum: the first
    # proximal step lands on zero and stays there. 2*7000*max|x| bounds the
    # gradient entries, so 1e6 clears it with slack on this data.
    tr = slice(*synth.SEGMENTS["train"])
    cfg = HelmConfig(layer_sizes=(20, 100), lam=1e6, C=1e-5, ensemble_size=1)
    model = helm_train(dataset0.X[tr], cfg, RngStream(9, (1,)))
    assert np.all(model.ae_betas[0] == 0.0)


def test_rows_are_scored_independently():
    X = small_training_matrix()
    model = helm_train(X, SMALL_CFG, RngStream(6, (1,)))
    Y = helm_run(model, X)
    perm = np.random.default_rng(0).permutation(X.shape[0])
    assert np.array_equal(helm_run(model, X[perm]), Y[perm])
    dup = helm_run(model, np.repeat(X[10:11], 50, axis=0))
    assert np.ptp(dup) == 0.0
    # batches of different heights may take different BLAS kernels
    # (matrix-vector vs matrix-matrix), so only ulp-level agreement holds
    one = helm_run(model, X[10:11])
    assert np.isclose(one[0], Y[10], rtol=1e-12, atol=0.0)
    assert np.isclose(dup[0], Y[10], rtol=1e-12, atol=0.0)


def test_forward_pass_is_the_stored_linear_maps():
    X = small_training_matrix()
    model = helm_train(X, SMALL_CFG, RngStream(7, (1,)))
    x = apply_normalization(X, model.norm)
    for beta in model.ae_betas:
        x = x @ beta.T
    manual = (hidden(model.top_layer, x) @ model.top_layer.beta).ravel()
    assert np.array_equal(manual, helm_run(model, X))


def test_learned_features_are_span_bounded():
    X = small_training_matrix()
    model = helm_train(X, SMALL_CFG, RngStream(8, (1,)))
    x = apply_normalization(X, model.norm)
    feats = x @ model.ae_betas[0].T
    assert np.abs(feats).max() <= FEATURE_SPAN + 1e-9


def test_ensemble_variance_no_worse_than_median_member(helm_ensemble0, dataset0):
    val = slice(*synth.SEGMENTS["val"])
    member_vars = [np.var(helm_run(m, dataset0.X[val])) for m in helm_ensemble0]
    ens_var = np.var(run_ensemble(helm_ensemble0, dataset0.X[val]))
    assert ens_var <= np.median(member_vars)


def test_fault_two_scores_above_healthy(helm_ensemble0, dataset0):
    Y = run_ensemble(helm_ensemble0, dataset0.X)
    r = np.abs(1.0 - Y)
    fp = slice(*synth.SEGMENTS["fp"])
    f2 = slice(*synth.SEGMENTS["fault2"])
    assert r[f2].mean() > r[fp].mean()


# one member trainer per model family; all three build a HelmModel
TRAINERS = {
    "helm": lambda X, rng: helm_train(X, SMALL_CFG, rng),
    "elm": lambda X, rng: one_class_train(X, 30, 1e-5, rng),
    "pca-elm": lambda X, rng: pca_elm_train(X, 4, 30, 1e-5, rng),
}


def member_loop(members, X):
    """The ensemble output written out member by member: normalize, the
    maps, expit(x @ A + B) @ beta, summed in member order, divided by M."""
    Y = np.zeros(X.shape[0])
    for m in members:
        x = (X - m.norm.mean) / m.norm.std
        for beta in m.ae_betas:
            x = x @ beta.T
        head = m.top_layer
        Y += (expit(x @ head.A + head.B) @ head.beta).ravel()
    return Y / len(members)


def bitwise_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# Row counts around the scoring block and the whole timeline. The member
# loop is one BLAS call per product; with several BLAS threads OpenBLAS
# splits a matrix-vector product at points that depend on the row count, so
# at other counts an unblocked pass may differ from a blocked one by an ulp
# (as it may between thread counts); at one thread every count agrees.
ROW_COUNTS = (1, SCORE_BLOCK_ROWS - 1, SCORE_BLOCK_ROWS, SCORE_BLOCK_ROWS + 1,
              14000)


@pytest.mark.parametrize("family", TRAINERS)
def test_batched_scores_equal_member_loop_bitwise(dataset0, family):
    tr = slice(*synth.SEGMENTS["train"])
    X = dataset0.X
    members = [TRAINERS[family](X[tr], RngStream(13, (1, m))) for m in range(3)]
    ensemble = Ensemble(members)
    for K in ROW_COUNTS:
        want = member_loop(members, X[:K])
        assert bitwise_equal(run_ensemble(ensemble, X[:K]), want), K
        assert bitwise_equal(run_ensemble(members, X[:K]), want), K


@pytest.mark.parametrize("family", TRAINERS)
def test_json_round_trip_is_bitwise(tmp_path, family):
    X = small_training_matrix()
    members = [TRAINERS[family](X, RngStream(11, (1, m))) for m in range(3)]
    before = run_ensemble(members, X)
    path = tmp_path / "model.json"
    cfg = DetectorConfig(gamma=1.5, p=99.5, threshold=0.125)
    save_ensemble(path, members, detector=cfg)
    loaded, det = load_ensemble(path)
    assert det == cfg
    assert isinstance(loaded, Ensemble)
    assert np.array_equal(run_ensemble(loaded, X), before)
    built = Ensemble(members)
    for a, b in zip((*built.maps, built.head.A, built.head.B, built.head.beta),
                    (*loaded.maps, loaded.head.A, loaded.head.B,
                     loaded.head.beta)):
        assert bitwise_equal(a, b)
    assert [m.config for m in loaded] == [m.config for m in members]
    assert loaded[0].config == (SMALL_CFG if family == "helm" else None)


def test_failed_save_leaves_old_model_intact(tmp_path, monkeypatch):
    X = small_training_matrix()
    members = train_ensemble(X, SMALL_CFG, RngStream(11, (1,)))
    path = tmp_path / "model.json"
    save_ensemble(path, members)
    before = path.read_bytes()

    def dump_then_fail(obj, fh):
        fh.write(json.dumps(obj)[:1000])
        raise OSError("disk full")

    monkeypatch.setattr(helm.json, "dump", dump_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_ensemble(path, members,
                      detector=DetectorConfig(gamma=1.5, p=99.5, threshold=0.125))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


@pytest.mark.parametrize("doc", [[], {"format": "other"}])
def test_load_rejects_other_documents(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="helmfd-model-v1"):
        load_ensemble(path)


def test_run_rejects_wrong_width():
    X = small_training_matrix()
    model = helm_train(X, SMALL_CFG, RngStream(12, (1,)))
    with pytest.raises(ValueError, match="dimension"):
        helm_run(model, X[:, :-1])


def test_run_ensemble_rejects_empty():
    with pytest.raises(ValueError):
        run_ensemble([], np.ones((2, 2)))


def test_ensemble_is_a_read_only_sequence():
    X = small_training_matrix()
    with hits_iteration_cap():
        members = [helm_train(X, SMALL_CFG, RngStream(14, (1, m)))
                   for m in range(3)]
    ensemble = Ensemble(members)
    assert len(ensemble) == 3
    assert list(ensemble) == members
    assert ensemble[1] is members[1] and ensemble[-1] is members[2]
    with pytest.raises(TypeError):
        ensemble[0] = members[1]


def test_ensemble_rejects_members_that_do_not_stack():
    X = small_training_matrix()
    a = helm_train(X, SMALL_CFG, RngStream(15, (1, 0)))
    with hits_iteration_cap():
        other_data = helm_train(X[:200], SMALL_CFG, RngStream(15, (1, 1)))
    with pytest.raises(ValueError, match="normalization"):
        Ensemble([a, other_data])
    wider = HelmConfig(layer_sizes=(7, 24), lam=1e-2, C=1e-5, ensemble_size=3)
    with hits_iteration_cap():
        wide = helm_train(X, wider, RngStream(15, (1, 2)))
    with pytest.raises(ValueError, match="layer shape"):
        Ensemble([a, wide])
    with pytest.raises(ValueError, match="widths"):
        Ensemble([a, helm_train(X[:, :-1], SMALL_CFG, RngStream(15, (1, 3)))])
