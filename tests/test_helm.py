import dataclasses
import json
import warnings

import numpy as np
import pytest

from helmfd import helm, synth
from helmfd.baselines import one_class_train_ensemble, pca_elm_train_ensemble
from helmfd.data import (NormalizationStats, RngStream, apply_normalization,
                         fit_normalization)
from helmfd.detector import DetectorConfig
from helmfd.elm import ElmLayer, hidden, random_layer, ridge_solve, sigmoid_inplace
from helmfd.fista import FistaParams, fista_solve
from helmfd.helm import (FEATURE_SPAN, SCORE_BLOCK_ROWS, Ensemble, HelmConfig,
                         helm_train, load_ensemble, run_ensemble, save_ensemble,
                         train_ensemble, train_members)


def small_training_matrix(seed=20, K=300, D=16):
    # low-rank structure plus noise, loosely like multi-sensor data
    rng = np.random.default_rng(seed)
    latent = rng.normal(size=(K, 3))
    mix = rng.normal(size=(3, D))
    return latent @ mix + 0.05 * rng.normal(size=(K, D)) + 2.0


SMALL_CFG = HelmConfig(layer_sizes=(6, 24), C=1e-5, ensemble_size=3)


def test_config_validation():
    with pytest.raises(ValueError):
        HelmConfig(layer_sizes=(10,))
    with pytest.raises(ValueError):
        HelmConfig(layer_sizes=(10, 0))
    with pytest.raises(ValueError):
        HelmConfig(layer_sizes=(10, 20), lam=-1.0)
    for bad in ({"lam": np.nan}, {"lam": np.inf}, {"C": np.nan},
                {"C": np.inf}):
        with pytest.raises(ValueError, match="finite"):
            HelmConfig(layer_sizes=(10, 20), **bad)
    with pytest.raises(ValueError):
        HelmConfig(layer_sizes=(10, 20), ensemble_size=0)
    # a model file's config block comes unconverted: no value is coerced
    for bad in ({"layer_sizes": (20.7, 100)}, {"seed": "x"}, {"seed": 1.0},
                {"ensemble_size": 2.5}, {"ensemble_size": True},
                {"lam": True}, {"C": "1e-5"}):
        with pytest.raises(ValueError, match="integers, and lam and C"):
            HelmConfig(**bad)


def test_training_output_tracks_constant_target(helm_ensemble0, dataset0):
    tr = slice(*synth.SEGMENTS["train"])
    Y = run_ensemble(helm_ensemble0, dataset0.X[tr])
    assert abs(float(Y.mean()) - 1.0) < 0.1


def test_training_is_deterministic_per_stream():
    X = small_training_matrix()
    a = helm_train(X, SMALL_CFG, RngStream(3, (1,)))
    b = helm_train(X, SMALL_CFG, RngStream(3, (1,)))
    assert np.array_equal(run_ensemble(a, X), run_ensemble(b, X))


def test_ensemble_members_are_distinct():
    X = small_training_matrix()
    members = train_ensemble(X, SMALL_CFG, RngStream(4, (1,)))
    outputs = [run_ensemble(m, X) for m in members]
    assert not np.array_equal(outputs[0], outputs[1])
    assert not np.array_equal(outputs[1], outputs[2])


def test_ensemble_replay_matches_member_streams():
    X = small_training_matrix()
    members = train_ensemble(X, SMALL_CFG, RngStream(5, (1,)))
    assert isinstance(members, Ensemble)
    assert len(members) == SMALL_CFG.ensemble_size
    by_hand = [helm_train(X, SMALL_CFG, RngStream(5, (1, m)))
               for m in range(SMALL_CFG.ensemble_size)]
    for a, b in zip(members, by_hand):
        assert np.array_equal(run_ensemble(a, X), run_ensemble(b, X))


def benchmark_first_layer(dataset0, stream):
    """(H, x) of a first autoencoder layer on the benchmark's training rows:
    7000 x 200 normalized inputs x into 20 hidden units drawn from stream."""
    tr = slice(*synth.SEGMENTS["train"])
    norm = fit_normalization(dataset0.X[tr])
    x = apply_normalization(dataset0.X[tr], norm)
    layer = random_layer(x.shape[1], 20, stream.generator())
    return hidden(layer, x), x


def test_heavy_l1_penalty_matches_lasso_oracle(dataset0):
    # lam=1 on the benchmark-scale first layer. Frozen facts from a 20000-sweep
    # coordinate-descent run at tol 1e-14 on this exact (H, x): objective
    # 226906.174996, 26 of 4000 weights exactly zero. A tightly-converged
    # solver run must reproduce both, and a run at the default iteration cap
    # must converge to that objective.
    H, x = benchmark_first_layer(dataset0, RngStream(9, (1,)))

    tight = fista_solve(H, x, FistaParams(lam=1.0, eps=1e-10, max_iter=50000))
    assert tight.converged
    assert abs(tight.objective - 226906.174996) <= 0.5
    assert int(np.sum(tight.beta == 0.0)) == 26

    capped = fista_solve(H, x, FistaParams(lam=1.0))
    assert capped.converged
    assert abs(capped.objective - 226906.174996) <= 0.5


@pytest.mark.parametrize("lam", [0.1, 1.0, 10.0, 100.0])
def test_penalized_solves_converge_under_default_cap(dataset0, lam):
    # without the gradient restart, FISTA stopped at the 500-iteration cap
    # unconverged at each of these penalties on this layer
    H, x = benchmark_first_layer(dataset0, RngStream(42, (1, 0, 0)))
    res = fista_solve(H, x, FistaParams(lam=lam))
    assert res.converged
    tight = fista_solve(H, x, FistaParams(lam=lam, eps=1e-10, max_iter=50000))
    assert tight.converged
    assert res.objective <= tight.objective * (1.0 + 1e-9)


@pytest.mark.parametrize("cfg", [HelmConfig(), HelmConfig(lam=1e-2)],
                         ids=["shipped", "lam=1e-2"])
def test_shipped_solves_converge_without_warning(dataset0, monkeypatch, cfg):
    # every autoencoder solve on the benchmark's substreams converges from
    # its least-squares start; at the shipped lam = 0 that start is the
    # optimum, so FISTA stops after one iteration
    results = []

    def recording(*args, **kwargs):
        res = fista_solve(*args, **kwargs)
        results.append(res)
        return res

    monkeypatch.setattr(helm, "fista_solve", recording)
    tr = slice(*synth.SEGMENTS["train"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        train_ensemble(dataset0.X[tr], cfg, RngStream(42, (1, 0)))
    assert len(results) == cfg.ensemble_size * (len(cfg.layer_sizes) - 1)
    assert all(r.converged for r in results)
    if cfg.lam == 0.0:
        assert all(r.iterations == 1 for r in results)


def test_ridge_solves_only_the_heads(monkeypatch):
    # the autoencoder layers take their least-squares start from FISTA's own
    # Gram, so training makes one ridge solve per member, for its head
    calls = []

    def counting(*args):
        calls.append(args)
        return ridge_solve(*args)

    monkeypatch.setattr(helm, "ridge_solve", counting)
    train_ensemble(small_training_matrix(), SMALL_CFG, RngStream(7, (1,)))
    assert len(calls) == SMALL_CFG.ensemble_size


def test_capped_solve_warns_with_layer_and_iterations(monkeypatch):
    def capped(H, X, params):
        return fista_solve(H, X, dataclasses.replace(params, max_iter=3))

    monkeypatch.setattr(helm, "fista_solve", capped)
    cfg = HelmConfig(layer_sizes=(6, 4, 24), lam=1e-2, ensemble_size=1)
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
    assert np.all(model.maps[0] == 0.0)


def test_training_survives_preactivations_past_exp_overflow(dataset0):
    # one spike row of +-1e6 on every channel normalizes to about
    # +-sqrt(7000) and drives first-layer pre-activations below -709, where
    # exp(-z) overflows; training must neither warn nor yield non-finite
    # weights (Ensemble checks them) or scores
    tr = slice(*synth.SEGMENTS["train"])
    X = dataset0.X[tr].copy()
    D = X.shape[1]
    X[100] = 1e6 * np.where(np.arange(D) % 2, -1.0, 1.0)
    cfg = HelmConfig(ensemble_size=2)
    stream = RngStream(42, (1, 0))
    layer = random_layer(D, cfg.layer_sizes[0], stream.child(0).generator())
    x = apply_normalization(X, fit_normalization(X))
    assert (x @ layer.A + layer.B).min() < -709.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Y = run_ensemble(train_ensemble(X, cfg, stream), X)
    assert np.all(np.isfinite(Y))


def test_rows_are_scored_independently():
    X = small_training_matrix()
    model = helm_train(X, SMALL_CFG, RngStream(6, (1,)))
    Y = run_ensemble(model, X)
    perm = np.random.default_rng(0).permutation(X.shape[0])
    assert np.array_equal(run_ensemble(model, X[perm]), Y[perm])
    dup = run_ensemble(model, np.repeat(X[10:11], 50, axis=0))
    assert bitwise_equal(dup, np.full(50, Y[10]))
    # a lone row is scored on its own, where BLAS takes its vector kernels,
    # so only ulp-level agreement with a batch holds
    one = run_ensemble(model, X[10:11])
    assert np.isclose(one[0], Y[10], rtol=1e-12, atol=0.0)


def test_forward_pass_is_the_stored_linear_maps():
    X = small_training_matrix()
    model = helm_train(X, SMALL_CFG, RngStream(7, (1,)))
    x = apply_normalization(X, model.norm)
    for (beta,) in model.maps:
        x = x @ beta.T
    (A,), (B,), (beta,) = model.head.A, model.head.B, model.head.beta
    manual = (hidden(ElmLayer(A=A, B=B), x) @ beta).ravel()
    assert np.array_equal(manual, run_ensemble(model, X))


def test_learned_features_are_span_bounded():
    X = small_training_matrix()
    model = helm_train(X, SMALL_CFG, RngStream(8, (1,)))
    x = apply_normalization(X, model.norm)
    feats = x @ model.maps[0][0].T
    assert np.abs(feats).max() <= FEATURE_SPAN + 1e-9


def test_ensemble_variance_no_worse_than_median_member(helm_ensemble0, dataset0):
    val = slice(*synth.SEGMENTS["val"])
    member_vars = [np.var(run_ensemble(m, dataset0.X[val])) for m in helm_ensemble0]
    ens_var = np.var(run_ensemble(helm_ensemble0, dataset0.X[val]))
    assert ens_var <= np.median(member_vars)


def test_fault_two_scores_above_healthy(helm_ensemble0, dataset0):
    Y = run_ensemble(helm_ensemble0, dataset0.X)
    r = np.abs(1.0 - Y)
    fp = slice(*synth.SEGMENTS["fp"])
    f2 = slice(*synth.SEGMENTS["fault2"])
    assert r[f2].mean() > r[fp].mean()


# one 3-member ensemble trainer per model family; all three build an Ensemble
TRAINERS = {
    "helm": lambda X, stream: train_ensemble(X, SMALL_CFG, stream),
    "elm": lambda X, stream: one_class_train_ensemble(X, 30, 1e-5, stream, 3),
    "pca-elm": lambda X, stream: pca_elm_train_ensemble(X, 4, 30, 1e-5,
                                                        stream, 3),
}


def member_loop(members, X):
    """The ensemble output written out member by member: normalize, the
    maps, sigmoid(x @ A + B) @ beta, summed in member order, divided by M.
    Like run_ensemble it pads more than one row of X with zero rows to a
    multiple of SCORE_BLOCK_ROWS, but it makes one BLAS call per product
    over all rows."""
    K = X.shape[0]
    if K > 1:
        X = np.vstack((X, np.zeros((-K % SCORE_BLOCK_ROWS, X.shape[1]))))
    Y = np.zeros(X.shape[0])
    for m in members:
        x = (X - m.norm.mean) / m.norm.std
        for (beta,) in m.maps:
            x = x @ beta.T
        (A,), (B,), (beta,) = m.head.A, m.head.B, m.head.beta
        Y += (sigmoid_inplace(x @ A + B) @ beta).ravel()
    return Y[:K] / len(members)


def bitwise_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# Row counts around the scoring block and the whole timeline: a lone row,
# small batches padded to one block, and counts just off a block boundary.
# The member loop is one BLAS call per product over all blocks; with several
# BLAS threads OpenBLAS splits a product at points that depend on the row
# count, so there an unblocked pass may differ from a blocked one by an ulp
# (as it may between thread counts); at one thread every count agrees.
ROW_COUNTS = (1, 2, 3, 5, SCORE_BLOCK_ROWS - 1, SCORE_BLOCK_ROWS,
              SCORE_BLOCK_ROWS + 1, 14000)


@pytest.mark.parametrize("family", TRAINERS)
def test_batched_scores_equal_member_loop_bitwise(dataset0, family):
    tr = slice(*synth.SEGMENTS["train"])
    X = dataset0.X
    ensemble = TRAINERS[family](X[tr], RngStream(13, (1,)))
    for K in ROW_COUNTS:
        assert bitwise_equal(run_ensemble(ensemble, X[:K]),
                             member_loop(ensemble, X[:K])), K
        # a member, [m:m+1] views of the stacks, scores as it would alone
        member = ensemble[1]
        assert bitwise_equal(run_ensemble(member, X[:K]),
                             member_loop(member, X[:K])), K


def test_many_members_sum_in_member_order_bitwise():
    # np.add.reduce sums one row's 8 or more members pairwise, so a single
    # row would round differently from the member loop; run_ensemble's
    # running sum adds them in order at any M and row count
    X = small_training_matrix()
    cfg = dataclasses.replace(SMALL_CFG, ensemble_size=12)
    ensemble = train_ensemble(X, cfg, RngStream(17, (1,)))
    for r in range(40):
        assert bitwise_equal(run_ensemble(ensemble, X[r:r + 1]),
                             member_loop(ensemble, X[r:r + 1])), r
    assert bitwise_equal(run_ensemble(ensemble, X[:7]),
                         member_loop(ensemble, X[:7]))


def test_segment_bounds_are_whole_scoring_blocks():
    # the split files, the benchmark's scored tail and the timeline then
    # fill whole blocks, and no shipped batch scores padding rows
    for seg, bounds in synth.SEGMENTS.items():
        assert all(b % SCORE_BLOCK_ROWS == 0 for b in bounds), seg


@pytest.mark.parametrize("family", TRAINERS)
def test_json_round_trip_is_bitwise(tmp_path, family):
    X = small_training_matrix()
    built = TRAINERS[family](X, RngStream(11, (1,)))
    before = run_ensemble(built, X)
    path = tmp_path / "model.json"
    cfg = DetectorConfig(gamma=1.5, p=99.5, threshold=0.125)
    save_ensemble(path, built, detector=cfg)
    loaded, det = load_ensemble(path)
    assert det == cfg
    assert isinstance(loaded, Ensemble)
    assert np.array_equal(run_ensemble(loaded, X), before)
    for a, b in zip((built.norm.mean, built.norm.std, *built.maps,
                     built.head.A, built.head.B, built.head.beta),
                    (loaded.norm.mean, loaded.norm.std, *loaded.maps,
                     loaded.head.A, loaded.head.B, loaded.head.beta)):
        assert bitwise_equal(a, b)
    assert loaded.config == (SMALL_CFG if family == "helm" else None)
    # the loaded ensemble writes the same file
    again = tmp_path / "again.json"
    save_ensemble(again, loaded, detector=det)
    assert again.read_bytes() == path.read_bytes()


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
        run_ensemble(model, X[:, :-1])


def test_run_ensemble_rejects_empty():
    # run_ensemble takes an Ensemble, and no Ensemble has zero members:
    # neither one built by hand nor one trained on no streams
    norm = NormalizationStats(mean=np.zeros(2), std=np.ones(2))
    with pytest.raises(ValueError, match="empty ensemble"):
        Ensemble(norm, [], ElmLayer(A=np.zeros((0, 2, 3)), B=np.zeros((0, 3)),
                                    beta=np.zeros((0, 3, 1))))
    with pytest.raises(ValueError):
        train_members(norm, np.zeros((4, 2)), [], (3,), 0.0, 1e-5)


def test_ensemble_is_a_read_only_sequence():
    X = small_training_matrix()
    ensemble = train_ensemble(X, SMALL_CFG, RngStream(14, (1,)))
    assert len(ensemble) == 3
    assert [len(m) for m in ensemble] == [1, 1, 1]
    last = ensemble[-1]
    assert last.norm is ensemble.norm and last.config is ensemble.config
    # a member's arrays are [2:3] views of the stacks, not copies
    for a, b in zip((*last.maps, last.head.A, last.head.B, last.head.beta),
                    (*ensemble.maps, ensemble.head.A, ensemble.head.B,
                     ensemble.head.beta)):
        assert np.shares_memory(a, b) and bitwise_equal(a, b[2:3])
    with pytest.raises(IndexError):
        ensemble[3]
    with pytest.raises(TypeError):
        ensemble[0] = ensemble[1]


def test_ensemble_rejects_members_that_do_not_stack(tmp_path):
    # a model file stores each member on its own, so loading is where
    # members that do not form one Ensemble are turned away
    X = small_training_matrix()
    path = tmp_path / "model.json"

    def member(X, cfg):
        save_ensemble(path, train_ensemble(X, cfg, RngStream(15, (1,))))
        return json.loads(path.read_text())["members"][0]

    doc = {"format": "helmfd-model-v1", "kind": "helm-ensemble",
           "members": [member(X, SMALL_CFG), None], "detector": None}
    others = [
        (X[:200], SMALL_CFG, "member 1 has another normalization"),
        (X, dataclasses.replace(SMALL_CFG, layer_sizes=(7, 24)),
         "member 1 has layer shape"),
        # one map more than member 0
        (X, dataclasses.replace(SMALL_CFG, layer_sizes=(6, 6, 24)),
         "member 1 has layer shape"),
        # a member of another input width has another normalization shape
        (X[:, :-1], SMALL_CFG, "member 1 has another normalization"),
        (X, dataclasses.replace(SMALL_CFG, C=1e-3),
         "member 1 has another config"),
    ]
    for X_other, cfg, match in others:
        doc["members"][1] = member(X_other, cfg)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match):
            load_ensemble(path)


def test_load_compares_normalizations_bitwise(tmp_path):
    # -0.0 == 0.0, so a check by value would take these for one normalization
    path = tmp_path / "model.json"
    X = small_training_matrix()
    save_ensemble(path, train_ensemble(X, SMALL_CFG, RngStream(15, (1,))))
    doc = json.loads(path.read_text())
    for m in doc["members"]:
        m["norm"]["mean"][0] = 0.0
    path.write_text(json.dumps(doc))
    assert load_ensemble(path)[0].norm.mean[0] == 0.0
    doc["members"][1]["norm"]["mean"][0] = -0.0
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="member 1 has another normalization"):
        load_ensemble(path)


def test_batches_of_two_or_more_rows_score_as_the_whole_timeline(
        helm_ensemble0, dataset0):
    # what the benchmark's 7000-row tail and detect on any CSV rely on: a
    # batch of two rows or more, of any height and starting anywhere, scores
    # each row bitwise as the whole timeline does
    X = dataset0.X
    whole = run_ensemble(helm_ensemble0, X)
    for start, K in ((5, 2), (13, 5), (100, 7), (3, 60), (777, 499),
                     (1, 500), (1234, 999), (1, 1000), (2, 1023), (3, 1025),
                     (1001, 1000), (7000, 7000), (7001, 2049), (9003, 1000),
                     (12345, 1655)):
        assert bitwise_equal(run_ensemble(helm_ensemble0, X[start:start + K]),
                             whole[start:start + K]), (start, K)
