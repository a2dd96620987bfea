import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit

from helmfd.elm import ElmLayer, hidden, random_layer, ridge_solve
from oracles import sigmoid_inplace


def sigmoid_oracle(z):
    # scalar-by-scalar, independent of the vectorized implementation
    return np.array([[1.0 / (1.0 + math.exp(-v)) for v in row] for row in z])


class TestRandomLayer:
    def test_shapes_and_range(self):
        rng = np.random.default_rng(0)
        layer = random_layer(7, 13, rng)
        assert layer.A.shape == (7, 13)
        assert layer.B.shape == (13,)
        assert np.all(layer.A >= -1.0) and np.all(layer.A <= 1.0)
        assert np.all(layer.B >= -1.0) and np.all(layer.B <= 1.0)

    def test_deterministic_per_seed(self):
        a = random_layer(4, 6, np.random.default_rng(5))
        b = random_layer(4, 6, np.random.default_rng(5))
        assert np.array_equal(a.A, b.A) and np.array_equal(a.B, b.B)

    def test_weights_uniform_on_symmetric_interval(self):
        layer = random_layer(500, 200, np.random.default_rng(6))
        draws = layer.A.ravel()
        assert stats.kstest(draws, "uniform", args=(-1.0, 2.0)).pvalue > 0.01

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            random_layer(0, 5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            random_layer(5, 0, np.random.default_rng(0))

    def test_a_layer_is_read_only_once_built(self):
        # the fields cannot be reassigned and the arrays not written, so the
        # negated bias hidden reads cannot go stale
        drawn = random_layer(3, 4, np.random.default_rng(9))
        layer = ElmLayer(drawn.A, drawn.B, np.ones((4, 1)))
        for name in ("A", "B", "beta"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(layer, name, np.zeros(1))
        for a in (drawn.A, drawn.B, layer.beta, layer.neg_B):
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0.5
            with pytest.raises(ValueError, match="read-only"):
                a += 1.0


class TestHidden:
    def test_matches_hand_computation(self):
        A = np.array([[0.5, -0.25], [1.0, 0.75]])
        B = np.array([0.1, -0.2])
        X = np.array([[1.0, 2.0], [-0.5, 0.25]])
        layer = ElmLayer(A=A, B=B)
        assert np.allclose(hidden(layer, X), sigmoid_oracle(X @ A + B),
                           atol=1e-12)

    def test_zero_preactivation_gives_half(self):
        layer = ElmLayer(A=np.eye(2), B=np.zeros(2))
        assert np.allclose(hidden(layer, np.zeros((3, 2))), 0.5)

    def test_outputs_inside_unit_interval(self):
        # Strict bounds hold while preactivations stay representable; float64
        # sigmoid rounds to exactly 1.0 somewhere past z = 36, so extreme
        # inputs are only required to stay inside the closed interval.
        rng = np.random.default_rng(7)
        layer = random_layer(6, 9, rng)
        H = hidden(layer, rng.normal(size=(40, 6)) * 3)
        assert np.all(H > 0.0) and np.all(H < 1.0)
        H_hot = hidden(layer, rng.normal(size=(40, 6)) * 1e4)
        assert np.all(H_hot >= 0.0) and np.all(H_hot <= 1.0)
        assert np.all(np.isfinite(H_hot))

    def test_negative_tail_matches_expit(self):
        # one unit with A = 1 and B = 0, so the pre-activation is X itself.
        # Down to z = -700 the result stays within 4 ulp of expit, which
        # 0.5·tanh(z/2) + 0.5 misses (1.7e-4 relative at z = -30, and 0
        # below about -37). Below about -709 exp(-z) overflows: the result
        # is then the exact limit 0, with no RuntimeWarning.
        layer = ElmLayer(A=np.ones((1, 1)), B=np.zeros(1))
        z = np.concatenate((np.linspace(-700.0, 36.0, 100001), [-30.0, -100.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            H = hidden(layer, z[:, None])[:, 0]
            far = hidden(layer, np.array([[-710.0], [-800.0], [-1e4]]))
        want = expit(z)
        assert np.all(np.abs(H - want) <= 4 * np.finfo(float).eps * want)
        assert np.all(far == 0.0)

    def test_bitwise_the_sigmoid_of_the_biased_product(self):
        # hidden subtracts from the layer's stored -B; that is -(X·A + B)
        # bit for bit, so it equals negate, exp, + 1, reciprocal on
        # X·A + B, also where X·A + B is an exact zero of either sign, on a
        # plain and on a stacked layer. Biases of +0.0 and -0.0 keep their
        # bits, and their stored negations are -0.0 and +0.0.
        rng = np.random.default_rng(8)
        X = rng.normal(size=(50, 6)) * 4
        X[:3] = [[0.5] * 6, [-0.25] * 6, [0.0] * 6]
        for A, B in ((rng.uniform(-1, 1, (6, 9)), rng.uniform(-1, 1, 9)),
                     (rng.uniform(-1, 1, (3, 6, 9)),
                      rng.uniform(-1, 1, (3, 9)))):
            A[..., 0, :2], A[..., 1:, :2] = 1.0, 0.0
            B[..., :2] = -0.5, 0.25   # column sums to 0 on rows 0 and 1
            B[..., 2:4] = -0.0, 0.0
            B0 = B.copy()
            Z = X @ A + B[..., None, :]
            assert (Z == 0.0).any(axis=-2)[..., :3].all()
            want = sigmoid_inplace(Z)
            layer = ElmLayer(A=A, B=B)
            got = hidden(layer, X)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert layer.B.tobytes() == B0.tobytes()
            assert layer.neg_B.tobytes() == np.negative(
                B0[..., None, :]).tobytes()
        # exp overflows where the pre-activation is below about -709: H
        # reads exactly 0 and the error state in effect is left as it was
        layer = ElmLayer(A=np.ones((1, 2)), B=np.array([0.0, -5.0]))
        for state in ({}, {"all": "raise"}):
            with np.errstate(**state):
                before = np.geterr()
                H = hidden(layer, np.array([[-800.0], [-1e4]]))
                assert np.geterr() == before
            assert np.all(H == 0.0)

    def test_dimension_mismatch_rejected(self):
        layer = ElmLayer(A=np.eye(3), B=np.zeros(3))
        with pytest.raises(ValueError):
            hidden(layer, np.zeros((2, 4)))


class TestRidgeSolve:
    def test_identity_design_no_penalty_returns_target(self):
        T = np.array([[1.0], [2.0], [-3.0]])
        beta = ridge_solve(np.eye(3), T, 0.0)
        assert np.allclose(beta, T, atol=1e-10)

    def test_identity_design_unit_penalty_halves_target(self):
        T = np.array([[1.0], [2.0], [-3.0]])
        beta = ridge_solve(np.eye(3), T, 1.0)
        assert np.allclose(beta, T / 2.0, atol=1e-12)

    @pytest.mark.parametrize("C", [1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0])
    def test_first_order_optimality(self, C):
        rng = np.random.default_rng(int(C * 1e6) + 1)
        H = rng.normal(size=(40, 12))
        T = rng.normal(size=(40, 2))
        beta = ridge_solve(H, T, C)
        grad_residual = H.T @ (H @ beta) + C * beta - H.T @ T
        assert np.linalg.norm(grad_residual) < 1e-8 * np.linalg.norm(H.T @ T)

    def test_norm_monotone_in_penalty(self):
        rng = np.random.default_rng(8)
        H = rng.normal(size=(30, 10))
        T = rng.normal(size=(30, 1))
        norms = [np.linalg.norm(ridge_solve(H, T, C))
                 for C in (0.0, 1e-3, 1e-1, 1.0, 10.0)]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_singular_no_penalty_takes_min_norm_solution(self):
        H = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])  # rank 1
        T = np.array([[2.0], [4.0], [6.0]])
        beta = ridge_solve(H, T, 0.0)
        expect = np.linalg.pinv(H) @ T
        assert np.allclose(beta, expect, atol=1e-10)

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            ridge_solve(np.eye(2), np.ones((2, 1)), -1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ridge_solve(np.eye(3), np.ones((2, 1)), 1.0)
