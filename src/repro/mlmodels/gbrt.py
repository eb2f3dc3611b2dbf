"""Gradient-Boosted Regression Trees, from scratch on numpy.

Used twice in the reproduction: as DAC's performance-model surrogate
(Yu et al. build regression-tree ensembles over configuration samples)
and as the strongest ML competitor to IICP in the paper's Section 5.7
(Figures 16/17), where parameter importance is the total squared-error
reduction attributed to each feature across all splits.
"""
from __future__ import annotations

import numpy as np

__all__ = ["GBRTRegressor"]


class _Tree:
    """CART regression tree with exhaustive threshold search.

    Nodes are numbered in pre-order and stored as parallel arrays
    ``feature``, ``threshold``, ``left``, ``right`` and ``value`` (the mean
    target of the node's rows); a leaf has feature -1 and is its own
    child, so routing a row past it leaves the row there.
    """

    def __init__(self, max_depth: int, min_leaf: int):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.importance: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "_Tree":
        self.importance = np.zeros(X.shape[1])
        nodes: list[list] = []
        self._build(X, y, 0, nodes)
        self.feature, self.threshold, self.left, self.right, self.value = map(np.array, zip(*nodes))
        return self

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int, nodes: list[list]) -> int:
        """Append the subtree of rows ``X``, ``y`` to ``nodes``; return its root's number."""
        k = len(nodes)
        node = [-1, 0.0, k, k, float(y.mean())]
        nodes.append(node)
        if depth >= self.max_depth or len(y) < 2 * self.min_leaf or np.ptp(y) == 0:
            return k
        split = self._best_split(X, y)  # its (d, n) work arrays die before the recursion
        if split is None:
            return k
        j, t, gain = split
        self.importance[j] += gain
        mask = X[:, j] <= t
        node[0], node[1] = j, t
        node[2] = self._build(X[mask], y[mask], depth + 1, nodes)
        node[3] = self._build(X[~mask], y[~mask], depth + 1, nodes)
        return k

    def _best_split(self, X: np.ndarray, y: np.ndarray) -> tuple[int, float, float] | None:
        """Feature, threshold and SSE reduction of the best split with at
        least ``min_leaf`` rows a side, or None if no split reduces the SSE.

        Scores every (feature, threshold) pair at once. The gains, and so
        the chosen split, are bit-identical to a scalar scan in feature
        then threshold order that keeps the first strict maximum.
        """
        n = len(y)
        lo, hi = self.min_leaf, n - self.min_leaf + 1  # left sizes i in [lo, hi)
        base_sse = float(((y - y.mean()) ** 2).sum())
        # One row per feature: X sorted along each row, y in the same order.
        order = np.argsort(X.T, axis=1, kind="stable")
        xs = np.take_along_axis(X.T, order, axis=1)
        ys = y[order]
        csum = np.cumsum(ys, axis=1)
        csq = np.cumsum(np.square(ys, out=ys), axis=1, out=ys)
        # float_power squares as the scalar ``** 2`` (C pow) does; x*x and
        # np.square differ from it in the last bit for ~0.1% of inputs.
        i = np.arange(lo, hi, dtype=float)
        cl, ql = csum[:, lo - 1 : hi - 1], csq[:, lo - 1 : hi - 1]
        gain = np.float_power(cl, 2)
        gain /= i
        np.subtract(ql, gain, out=gain)  # left SSE
        np.subtract(base_sse, gain, out=gain)
        right = np.subtract(csum[:, -1:], cl)
        np.float_power(right, 2, out=right)
        right /= n - i
        right_sse = np.subtract(csq[:, -1:], ql, out=ql)
        right_sse -= right
        gain -= right_sse
        gain[xs[:, lo - 1 : hi - 1] == xs[:, lo:hi]] = -np.inf  # equal x: no split
        j, pos = divmod(int(gain.argmax()), hi - lo)  # first maximum in row-major order
        if not gain[j, pos] > 0.0:
            return None
        k = lo - 1 + pos
        return j, 0.5 * (xs[j, k] + xs[j, k + 1]), gain[j, pos]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Route all rows down the tree together, one level at a time."""
        rows = np.arange(len(X))
        k = np.zeros(len(X), dtype=np.intp)
        for _ in range(self.max_depth):
            k = np.where(X[rows, self.feature[k]] <= self.threshold[k], self.left[k], self.right[k])
        return self.value[k]


class GBRTRegressor:
    """Least-squares gradient boosting over shallow CART trees."""

    def __init__(self, n_estimators: int = 80, learning_rate: float = 0.1, max_depth: int = 3, min_leaf: int = 2):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_leaf = min_leaf

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GBRTRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self._base = float(y.mean())
        self._trees: list[_Tree] = []
        resid = y - self._base
        for _ in range(self.n_estimators):
            t = _Tree(self.max_depth, self.min_leaf).fit(X, resid)
            pred = t.predict(X)
            if np.allclose(pred, 0.0):
                break
            self._trees.append(t)
            resid = resid - self.learning_rate * pred
        d = X.shape[1]
        imp = np.zeros(d)
        for t in self._trees:
            imp += t.importance
        s = imp.sum()
        self.feature_importances_ = imp / s if s > 0 else imp
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.full(len(X), self._base)
        for t in self._trees:
            out += self.learning_rate * t.predict(X)
        return out
