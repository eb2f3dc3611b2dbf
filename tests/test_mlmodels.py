"""Unit tests for the from-scratch regressors (Section 5.7 machinery)."""
from dataclasses import dataclass

import numpy as np
import pytest

from repro.mlmodels import (
    GBRTRegressor,
    KernelRidgeRegressor,
    KNNRegressor,
    LinearRegressor,
    LogisticRegressor,
)
from repro.mlmodels import gbrt
from repro.mlmodels.gbrt import _Tree

ALL_MODELS = [
    ("GBRT", lambda: GBRTRegressor(n_estimators=80, max_depth=3)),
    ("KRR", lambda: KernelRidgeRegressor(alpha=0.01)),
    ("Linear", lambda: LinearRegressor()),
    ("Logistic", lambda: LogisticRegressor(n_iter=800)),
    ("KNN", lambda: KNNRegressor(k=3)),
]


def _data(n=80, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 4))
    y = 3 * X[:, 0] + np.sin(4 * X[:, 1]) + 0.05 * rng.standard_normal(n)
    return X, y


@pytest.mark.parametrize("name,make", ALL_MODELS)
def test_fits_better_than_mean_predictor(name, make):
    X, y = _data()
    Xte, yte = _data(seed=1)
    model = make().fit(X, y)
    pred = model.predict(Xte)
    assert pred.shape == (len(yte),)
    mse = float(np.mean((pred - yte) ** 2))
    mse_mean = float(np.mean((y.mean() - yte) ** 2))
    assert mse < mse_mean, f"{name}: {mse} vs {mse_mean}"


@pytest.mark.parametrize("name,make", ALL_MODELS)
def test_predict_single_row(name, make):
    X, y = _data(30)
    model = make().fit(X, y)
    out = model.predict(X[0])
    assert out.shape == (1,)
    assert np.isfinite(out[0])


def test_linear_exact_on_linear_data():
    rng = np.random.default_rng(2)
    X = rng.random((50, 3))
    y = 2 * X[:, 0] - X[:, 2] + 5
    model = LinearRegressor().fit(X, y)
    np.testing.assert_allclose(model.predict(X), y, atol=1e-8)


def test_gbrt_feature_importance_finds_driver():
    rng = np.random.default_rng(3)
    X = rng.random((100, 6))
    y = 10 * X[:, 2] + 0.1 * rng.standard_normal(100)
    model = GBRTRegressor(n_estimators=50, max_depth=2).fit(X, y)
    assert model.feature_importances_.argmax() == 2
    assert model.feature_importances_.sum() == pytest.approx(1.0)


def test_gbrt_constant_target():
    X = np.random.default_rng(4).random((20, 3))
    model = GBRTRegressor().fit(X, np.full(20, 3.0))
    np.testing.assert_allclose(model.predict(X), 3.0)


def test_knn_exact_on_training_point_k1():
    X, y = _data(20)
    model = KNNRegressor(k=1).fit(X, y)
    assert model.predict(X[5])[0] == pytest.approx(y[5])


def test_logistic_predictions_within_target_range():
    X, y = _data(40)
    model = LogisticRegressor(n_iter=500).fit(X, y)
    pred = model.predict(X)
    assert pred.min() >= y.min() - 1e-9
    assert pred.max() <= y.max() + 1e-9


def test_krr_interpolates_with_small_alpha():
    X, y = _data(30)
    model = KernelRidgeRegressor(alpha=1e-8).fit(X, y)
    np.testing.assert_allclose(model.predict(X), y, atol=1e-3)


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    value: float = 0.0


class _ScalarTree:
    """A linked tree grown by a scalar scan over every (feature, threshold)
    pair and read one row at a time: the reference the array-based
    ``_Tree`` must reproduce bit for bit."""

    def __init__(self, max_depth, min_leaf):
        self.max_depth = max_depth
        self.min_leaf = min_leaf

    def fit(self, X, y):
        self.importance = np.zeros(X.shape[1])
        self.root = self._build(X, y, 0)
        return self

    def _build(self, X, y, depth):
        node = _Node(value=float(y.mean()))
        if depth >= self.max_depth or len(y) < 2 * self.min_leaf or np.ptp(y) == 0:
            return node
        n, d = X.shape
        base_sse = float(((y - y.mean()) ** 2).sum())
        best_gain, best_j, best_t = 0.0, -1, 0.0
        for j in range(d):
            xs = X[:, j]
            order = np.argsort(xs, kind="stable")
            xs_s, ys_s = xs[order], y[order]
            csum = np.cumsum(ys_s)
            csq = np.cumsum(ys_s**2)
            total, total_sq = csum[-1], csq[-1]
            for i in range(self.min_leaf, n - self.min_leaf + 1):
                if i < n and xs_s[i - 1] == xs_s[i]:
                    continue
                if i >= n:
                    break
                left_sse = csq[i - 1] - csum[i - 1] ** 2 / i
                rn = n - i
                right_sse = (total_sq - csq[i - 1]) - (total - csum[i - 1]) ** 2 / rn
                gain = base_sse - left_sse - right_sse
                if gain > best_gain:
                    best_gain, best_j = gain, j
                    best_t = 0.5 * (xs_s[i - 1] + xs_s[i])
        if best_j < 0:
            return node
        self.importance[best_j] += best_gain
        mask = X[:, best_j] <= best_t
        node.feature, node.threshold = best_j, best_t
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def predict(self, X):
        out = np.empty(len(X))
        for i, x in enumerate(X):
            node = self.root
            while node.feature >= 0:
                node = node.left if x[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out

    def nodes(self, node=None):
        """(feature, threshold, value) of every node, in pre-order."""
        node = node or self.root
        out = [(node.feature, node.threshold, node.value)]
        if node.feature >= 0:
            out += self.nodes(node.left) + self.nodes(node.right)
        return out


def _nodes(tree: _Tree):
    """(feature, threshold, value) of every node of an array tree, in pre-order."""
    return list(zip(tree.feature.tolist(), tree.threshold.tolist(), tree.value.tolist()))


class TestSplitSearchReference:
    """The vectorized split search and prediction equal the scalar scan
    under ``np.array_equal``: same tree, same importances, same output."""

    @staticmethod
    def _case(n, d, seed=0):
        rng = np.random.default_rng(seed + 31 * n + d)
        X = rng.random((n, d))
        X[:, 0] = rng.integers(0, 3, n)  # ties: splits between equal values are skipped
        if d > 1:
            X[:, 1] = X[:, 0]  # a duplicate column: equal gains, the first one wins
            X[:, -1] = 0.5  # constant: never splittable
        y = 300.0 * X[:, -2 if d > 2 else 0] + rng.lognormal(3.0, 1.0, n)
        return X, y

    @pytest.mark.parametrize("min_leaf", [1, 2, 5])
    @pytest.mark.parametrize("d", [1, 39])
    @pytest.mark.parametrize("n", [2, 3, 5, 13, 342])
    def test_tree_matches_scalar_scan(self, n, d, min_leaf):
        X, y = self._case(n, d)
        depth = 2 + (n + min_leaf) % 3
        fast = _Tree(depth, min_leaf).fit(X, y)
        ref = _ScalarTree(depth, min_leaf).fit(X, y)
        assert _nodes(fast) == ref.nodes()
        assert np.array_equal(fast.importance, ref.importance)
        Xq = np.vstack([X, self._case(n, d, seed=1)[0]])
        assert np.array_equal(fast.predict(Xq), ref.predict(Xq))

    @pytest.mark.parametrize("min_leaf", [1, 2, 5])
    @pytest.mark.parametrize("d", [1, 39])
    @pytest.mark.parametrize("n", [2, 3, 5, 13, 342])
    def test_gbrt_matches_scalar_scan(self, n, d, min_leaf, monkeypatch):
        X, y = self._case(n, d)
        kw = dict(n_estimators=4 if n > 100 else 20, max_depth=2 + (n + min_leaf + 1) % 3, min_leaf=min_leaf)
        fast = GBRTRegressor(**kw).fit(X, y)
        monkeypatch.setattr(gbrt, "_Tree", _ScalarTree)
        ref = GBRTRegressor(**kw).fit(X, y)
        assert len(fast._trees) == len(ref._trees)
        assert np.array_equal(fast.feature_importances_, ref.feature_importances_)
        Xq = np.vstack([X, self._case(n, d, seed=1)[0]])
        assert np.array_equal(fast.predict(Xq), ref.predict(Xq))

    def test_zero_gain_is_no_split(self):
        # y alternates within both halves, so the one split reduces nothing
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([1.0, 2.0, 1.0, 2.0])
        fast, ref = _Tree(3, 1).fit(X, y), _ScalarTree(3, 1).fit(X, y)
        assert _nodes(fast) == ref.nodes() == [(-1, 0.0, 1.5)]

    @pytest.mark.parametrize("seed", [57, 76])
    def test_gain_squares_like_scalar_pow(self, seed):
        # The scalar scan squared np.float64 sums with ``** 2`` (C pow), which
        # differs from x*x and np.square in the last bit for about 0.1% of
        # inputs. Seed 76 is a tree (found by search) where that difference
        # in the left sum moves an importance, seed 57 one in the right sum.
        X, _ = self._case(13, 39, seed)
        y = np.random.default_rng(seed).lognormal(3.0, 1.0, 13)
        fast, ref = _Tree(4, 1).fit(X, y), _ScalarTree(4, 1).fit(X, y)
        assert np.array_equal(fast.importance, ref.importance)
