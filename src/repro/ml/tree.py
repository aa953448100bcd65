"""CART decision trees (classifier and regressor) on numpy.

The split search is vectorized per node: sort the node's values for each
candidate feature once, build prefix sums of (weighted) class counts or
targets, and evaluate every threshold in one shot.  Trees are stored as
flat arrays so prediction is a vectorized level-by-level descent rather
than per-sample Python recursion.

These trees power the random forest (the paper's chosen model), extra
trees, AdaBoost and gradient boosting.
"""

from __future__ import annotations

import numpy as np

from .base import (
    BaseEstimator,
    balanced_weights,
    check_X,
    check_X_y,
    encode_labels,
)

_LEAF = -1


def _binary_entropy_sum(count1, total):
    """Weighted binary entropy ``total * H(count1/total)`` elementwise."""
    eps = 1e-12
    p1 = count1 / np.maximum(total, eps)
    p0 = 1.0 - p1

    def xlogx(p):
        return np.where(p > 0, p * np.log2(np.maximum(p, eps)), 0.0)

    return -total * (xlogx(p0) + xlogx(p1))


def resolve_max_features(max_features, n_features: int) -> int:
    """Interpret the ``max_features`` hyperparameter like scikit-learn.

    Accepts an int (count), a float in (0, 1] (fraction), "sqrt", "log2"
    or None (all features).
    """
    if max_features is None:
        return n_features
    if isinstance(max_features, str):
        if max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if max_features == "log2":
            return max(1, int(np.log2(n_features)))
        raise ValueError(f"unknown max_features {max_features!r}")
    if isinstance(max_features, float):
        if not 0.0 < max_features <= 1.0:
            raise ValueError(
                f"float max_features must be in (0, 1], got {max_features}")
        return max(1, int(round(max_features * n_features)))
    value = int(max_features)
    if value < 1:
        raise ValueError(f"max_features must be >= 1, got {max_features}")
    return min(value, n_features)


class _Tree:
    """Flat-array tree storage shared by classifier and regressor."""

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[np.ndarray] = []

    def add_node(self, value: np.ndarray) -> int:
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(value)
        return len(self.feature) - 1

    def make_split(self, node: int, feature: int, threshold: float,
                   left: int, right: int) -> None:
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.left[node] = left
        self.right[node] = right

    def finalize(self) -> None:
        self.feature = np.asarray(self.feature, dtype=np.int64)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.left = np.asarray(self.left, dtype=np.int64)
        self.right = np.asarray(self.right, dtype=np.int64)
        self.value = np.asarray(self.value, dtype=np.float64)

    @property
    def n_leaves(self) -> int:
        feature = np.asarray(self.feature)
        return int((feature == _LEAF).sum())

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index for every row, by vectorized descent."""
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            feat = self.feature[node]
            active = feat != _LEAF
            if not active.any():
                return node
            idx = np.flatnonzero(active)
            feats = feat[idx]
            go_left = X[idx, feats] <= self.threshold[node[idx]]
            node[idx] = np.where(go_left, self.left[node[idx]],
                                 self.right[node[idx]])


class _TreeBuilder:
    """Depth-first CART growth with vectorized split search.

    ``mode`` is "gini", "entropy" (classification; value = weighted class
    distribution) or "mse" (regression; value = weighted mean).
    """

    def __init__(self, mode: str, n_classes: int, max_depth, min_samples_split,
                 min_samples_leaf, max_features, max_leaf_nodes,
                 min_impurity_decrease, splitter: str, rng: np.random.Generator):
        self.mode = mode
        self.n_classes = n_classes
        self.max_depth = np.inf if max_depth is None else max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_leaf_nodes = (np.inf if max_leaf_nodes is None
                               else max_leaf_nodes)
        self.min_impurity_decrease = min_impurity_decrease
        self.splitter = splitter  # "best" | "random" (extra-trees style)
        self.rng = rng

    def build(self, X: np.ndarray, y: np.ndarray,
              sample_weight: np.ndarray) -> _Tree:
        tree = _Tree()
        n_features = X.shape[1]
        k_features = resolve_max_features(self.max_features, n_features)
        root_idx = np.arange(X.shape[0])
        root = tree.add_node(self._node_value(y, sample_weight, root_idx))
        # Stack of (node_id, sample_indices, depth).
        stack = [(root, root_idx, 0)]
        while stack:
            node, idx, depth = stack.pop()
            if (depth >= self.max_depth
                    or len(idx) < self.min_samples_split
                    or tree.n_leaves + len(stack) >= self.max_leaf_nodes):
                continue
            impurity = self._impurity(y, sample_weight, idx)
            if impurity <= 1e-12:
                continue
            split = self._best_split(X, y, sample_weight, idx, k_features,
                                     impurity)
            if split is None:
                continue
            feature, threshold, gain = split
            if gain < self.min_impurity_decrease:
                continue
            mask = X[idx, feature] <= threshold
            left_idx, right_idx = idx[mask], idx[~mask]
            if len(left_idx) == 0 or len(right_idx) == 0:
                # Degenerate threshold (adjacent floats whose midpoint
                # rounds onto one of them): splitting makes no progress.
                continue
            left = tree.add_node(self._node_value(y, sample_weight, left_idx))
            right = tree.add_node(self._node_value(y, sample_weight, right_idx))
            tree.make_split(node, feature, threshold, left, right)
            stack.append((left, left_idx, depth + 1))
            stack.append((right, right_idx, depth + 1))
        tree.finalize()
        return tree

    # -- node statistics ---------------------------------------------------

    def _node_value(self, y, w, idx) -> np.ndarray:
        if self.mode == "mse":
            total = w[idx].sum()
            mean = float((w[idx] * y[idx]).sum() / total) if total > 0 else 0.0
            return np.asarray([mean])
        counts = np.bincount(y[idx], weights=w[idx],
                             minlength=self.n_classes)
        total = counts.sum()
        if total > 0:
            counts = counts / total
        return counts

    def _impurity(self, y, w, idx) -> float:
        if self.mode == "mse":
            weights = w[idx]
            total = weights.sum()
            if total <= 0:
                return 0.0
            mean = (weights * y[idx]).sum() / total
            return float((weights * (y[idx] - mean) ** 2).sum() / total)
        probs = self._node_value(y, w, idx)
        if self.mode == "entropy":
            nonzero = probs[probs > 0]
            return float(-(nonzero * np.log2(nonzero)).sum())
        return float(1.0 - (probs ** 2).sum())

    # -- split search ------------------------------------------------------

    def _best_split(self, X, y, w, idx, k_features, parent_impurity):
        n_features = X.shape[1]
        if self.splitter == "random":
            features = self.rng.choice(n_features, size=k_features,
                                       replace=False)
            return self._random_split(X, y, w, idx, features,
                                      parent_impurity)
        order = self.rng.permutation(n_features)
        subset, rest = order[:k_features], order[k_features:]
        fast = self.mode == "mse" or self.n_classes == 2
        best = (self._vector_split(X, y, w, idx, subset) if fast
                else self._loop_split(X, y, w, idx, subset))
        if best is None and rest.size:
            # Like scikit-learn, keep drawing features past max_features
            # until a valid split is found (or all are exhausted).
            best = (self._vector_split(X, y, w, idx, rest) if fast
                    else self._loop_split(X, y, w, idx, rest))
        if best is None:
            return None
        feature, threshold, score = best
        total_w = w[idx].sum()
        gain = parent_impurity - score / total_w
        return feature, threshold, gain

    def _loop_split(self, X, y, w, idx, features):
        """Per-feature split search (multiclass fallback)."""
        best = None
        best_score = np.inf
        for feature in features:
            result = self._best_split_on_feature(X, y, w, idx, int(feature))
            if result is not None and result[0] < best_score:
                best_score, threshold = result
                best = (int(feature), threshold, best_score)
        return best

    def _vector_split(self, X, y, w, idx, features):
        """Split search vectorized across all candidate features at once.

        Handles binary classification (gini/entropy) and MSE regression —
        the hot paths for EM.  Returns ``(feature, threshold,
        weighted_child_impurity_sum)`` or ``None``.
        """
        m = len(idx)
        cols = X[np.ix_(idx, features)]                   # (m, k)
        order = np.argsort(cols, axis=0, kind="stable")
        xs = np.take_along_axis(cols, order, axis=0)
        ys = y[idx][order]                                # (m, k)
        ws = w[idx][order]
        valid = xs[:-1] < xs[1:]                          # (m-1, k)
        left_n = np.arange(1, m)[:, None]
        leaf = self.min_samples_leaf
        valid &= (left_n >= leaf) & (m - left_n >= leaf)
        if not valid.any():
            return None
        cw = np.cumsum(ws, axis=0)
        total_w = cw[-1]
        lw = cw[:-1]
        rw = total_w - lw
        eps = 1e-12
        if self.mode == "mse":
            cwy = np.cumsum(ws * ys, axis=0)
            cwy2 = np.cumsum(ws * ys * ys, axis=0)
            l_sse = cwy2[:-1] - cwy[:-1] ** 2 / np.maximum(lw, eps)
            r_wy = cwy[-1] - cwy[:-1]
            r_sse = (cwy2[-1] - cwy2[:-1]
                     - r_wy ** 2 / np.maximum(rw, eps))
            scores = l_sse + r_sse
        else:
            cw1 = np.cumsum(ws * ys, axis=0)              # weight of class 1
            l1 = cw1[:-1]
            r1 = cw1[-1] - l1
            if self.mode == "entropy":
                scores = (_binary_entropy_sum(l1, lw)
                          + _binary_entropy_sum(r1, rw))
            else:
                scores = (2.0 * l1 * (lw - l1) / np.maximum(lw, eps)
                          + 2.0 * r1 * (rw - r1) / np.maximum(rw, eps))
        scores = np.where(valid, scores, np.inf)
        flat = int(np.argmin(scores))
        pos, col = np.unravel_index(flat, scores.shape)
        if not np.isfinite(scores[pos, col]):
            return None
        threshold = float((xs[pos, col] + xs[pos + 1, col]) / 2.0)
        return int(features[col]), threshold, float(scores[pos, col])

    def _best_split_on_feature(self, X, y, w, idx, feature):
        """Return (weighted_child_impurity_sum, threshold) or None."""
        values = X[idx, feature]
        order = np.argsort(values, kind="stable")
        xs = values[order]
        if xs[0] == xs[-1]:
            return None
        ys = y[idx][order]
        ws = w[idx][order]
        n = len(idx)
        # Candidate split after position i (left = [0..i]); valid where the
        # value changes and both children satisfy min_samples_leaf.
        distinct = xs[:-1] < xs[1:]
        positions = np.flatnonzero(distinct)
        leaf = self.min_samples_leaf
        positions = positions[(positions + 1 >= leaf)
                              & (n - positions - 1 >= leaf)]
        if positions.size == 0:
            return None
        if self.mode == "mse":
            wy = np.cumsum(ws * ys)
            wy2 = np.cumsum(ws * ys * ys)
            wsum = np.cumsum(ws)
            total_wy, total_wy2, total_w = wy[-1], wy2[-1], wsum[-1]
            lw = wsum[positions]
            rw = total_w - lw
            l_sse = wy2[positions] - wy[positions] ** 2 / np.maximum(lw, 1e-12)
            r_wy = total_wy - wy[positions]
            r_sse = (total_wy2 - wy2[positions]
                     - r_wy ** 2 / np.maximum(rw, 1e-12))
            scores = l_sse + r_sse
        else:
            onehot = np.zeros((n, self.n_classes))
            onehot[np.arange(n), ys] = ws
            prefix = np.cumsum(onehot, axis=0)
            total = prefix[-1]
            left_counts = prefix[positions]
            right_counts = total - left_counts
            lw = left_counts.sum(axis=1)
            rw = right_counts.sum(axis=1)
            scores = (self._child_impurity(left_counts, lw) * lw
                      + self._child_impurity(right_counts, rw) * rw)
        best_pos = int(np.argmin(scores))
        pos = positions[best_pos]
        threshold = (xs[pos] + xs[pos + 1]) / 2.0
        return float(scores[best_pos]), float(threshold)

    def _child_impurity(self, counts, totals):
        probs = counts / np.maximum(totals, 1e-12)[:, None]
        if self.mode == "entropy":
            logs = np.where(probs > 0, np.log2(np.maximum(probs, 1e-300)), 0.0)
            return -(probs * logs).sum(axis=1)
        return 1.0 - (probs ** 2).sum(axis=1)

    def _random_split(self, X, y, w, idx, features, parent_impurity):
        """Extra-trees splitter: one uniform-random threshold per feature.

        Vectorized across the candidate features: draw all thresholds,
        form the (m, k) left-mask matrix and score every candidate with
        matrix products.  Binary classification and MSE take the fast
        path; multiclass falls back to a per-feature loop.
        """
        total_w = w[idx].sum()
        if self.mode != "mse" and self.n_classes != 2:
            return self._random_split_loop(X, y, w, idx, features,
                                           parent_impurity)
        cols = X[np.ix_(idx, features)]                    # (m, k)
        lo, hi = cols.min(axis=0), cols.max(axis=0)
        usable = hi > lo
        if not usable.any():
            return None
        thresholds = self.rng.uniform(lo, np.where(usable, hi, lo + 1.0))
        mask = cols <= thresholds                          # (m, k)
        n_left = mask.sum(axis=0)
        m = len(idx)
        leaf_ok = (n_left >= self.min_samples_leaf) \
            & (m - n_left >= self.min_samples_leaf) & usable
        if not leaf_ok.any():
            return None
        ws = w[idx]
        lw = ws @ mask
        rw = total_w - lw
        eps = 1e-12
        if self.mode == "mse":
            ys = y[idx]
            wy = (ws * ys) @ mask
            wy2 = (ws * ys * ys) @ mask
            total_wy = (ws * ys).sum()
            total_wy2 = (ws * ys * ys).sum()
            l_sse = wy2 - wy ** 2 / np.maximum(lw, eps)
            r_wy = total_wy - wy
            r_sse = total_wy2 - wy2 - r_wy ** 2 / np.maximum(rw, eps)
            scores = l_sse + r_sse
        else:
            w1 = ws * y[idx]
            l1 = w1 @ mask
            r1 = w1.sum() - l1
            if self.mode == "entropy":
                scores = (_binary_entropy_sum(l1, lw)
                          + _binary_entropy_sum(r1, rw))
            else:
                scores = (2.0 * l1 * (lw - l1) / np.maximum(lw, eps)
                          + 2.0 * r1 * (rw - r1) / np.maximum(rw, eps))
        scores = np.where(leaf_ok, scores, np.inf)
        col = int(np.argmin(scores))
        if not np.isfinite(scores[col]):
            return None
        gain = parent_impurity - scores[col] / total_w
        return int(features[col]), float(thresholds[col]), float(gain)

    def _random_split_loop(self, X, y, w, idx, features, parent_impurity):
        """Multiclass fallback for the extra-trees splitter."""
        best = None
        best_score = np.inf
        total_w = w[idx].sum()
        for feature in features:
            values = X[idx, feature]
            lo, hi = values.min(), values.max()
            if lo == hi:
                continue
            threshold = float(self.rng.uniform(lo, hi))
            mask = values <= threshold
            n_left = int(mask.sum())
            if n_left < self.min_samples_leaf \
                    or len(idx) - n_left < self.min_samples_leaf:
                continue
            left_idx, right_idx = idx[mask], idx[~mask]
            lw, rw = w[left_idx].sum(), w[right_idx].sum()
            score = (self._impurity(y, w, left_idx) * lw
                     + self._impurity(y, w, right_idx) * rw)
            if score < best_score:
                best_score = score
                best = (int(feature), threshold)
        if best is None:
            return None
        gain = parent_impurity - best_score / total_w
        return best[0], best[1], gain


class DecisionTreeClassifier(BaseEstimator):
    """CART classification tree.

    Parameters mirror scikit-learn's: ``criterion`` ("gini"/"entropy"),
    ``max_depth``, ``min_samples_split``, ``min_samples_leaf``,
    ``max_features``, ``max_leaf_nodes``, ``min_impurity_decrease``,
    ``class_weight`` (None or "balanced"), ``splitter`` ("best" or the
    extra-trees "random"), ``random_state``.
    """

    def __init__(self, criterion: str = "gini", max_depth=None,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features=None, max_leaf_nodes=None,
                 min_impurity_decrease: float = 0.0, class_weight=None,
                 splitter: str = "best", random_state: int = 0):
        if criterion not in ("gini", "entropy"):
            raise ValueError(f"criterion must be gini/entropy, got {criterion}")
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_leaf_nodes = max_leaf_nodes
        self.min_impurity_decrease = min_impurity_decrease
        self.class_weight = class_weight
        self.splitter = splitter
        self.random_state = random_state

    def fit(self, X, y, sample_weight=None) -> "DecisionTreeClassifier":
        X, y = check_X_y(X, y)
        self.classes_, encoded = encode_labels(y)
        if sample_weight is None:
            sample_weight = np.ones(len(y))
        else:
            sample_weight = np.asarray(sample_weight, dtype=np.float64)
        if self.class_weight == "balanced":
            sample_weight = sample_weight * balanced_weights(
                encoded, len(self.classes_))
        builder = _TreeBuilder(
            self.criterion, len(self.classes_), self.max_depth,
            self.min_samples_split, self.min_samples_leaf, self.max_features,
            self.max_leaf_nodes, self.min_impurity_decrease, self.splitter,
            np.random.default_rng(self.random_state))
        self.tree_ = builder.build(X, encoded, sample_weight)
        self.n_features_in_ = X.shape[1]
        return self

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted("tree_")
        X = check_X(X)
        return self.tree_.value[self.tree_.apply(X)]

    def predict(self, X) -> np.ndarray:
        scores = self.predict_proba(X)
        return self.classes_[np.argmax(scores, axis=1)]


class DecisionTreeRegressor(BaseEstimator):
    """CART regression tree (MSE criterion); used by gradient boosting."""

    def __init__(self, max_depth=None, min_samples_split: int = 2,
                 min_samples_leaf: int = 1, max_features=None,
                 max_leaf_nodes=None, min_impurity_decrease: float = 0.0,
                 splitter: str = "best", random_state: int = 0):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_leaf_nodes = max_leaf_nodes
        self.min_impurity_decrease = min_impurity_decrease
        self.splitter = splitter
        self.random_state = random_state

    def fit(self, X, y, sample_weight=None) -> "DecisionTreeRegressor":
        X = check_X(X)
        y = np.asarray(y, dtype=np.float64)
        if sample_weight is None:
            sample_weight = np.ones(len(y))
        else:
            sample_weight = np.asarray(sample_weight, dtype=np.float64)
        builder = _TreeBuilder(
            "mse", 0, self.max_depth, self.min_samples_split,
            self.min_samples_leaf, self.max_features, self.max_leaf_nodes,
            self.min_impurity_decrease, self.splitter,
            np.random.default_rng(self.random_state))
        self.tree_ = builder.build(X, y, sample_weight)
        self.n_features_in_ = X.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        self._check_fitted("tree_")
        X = check_X(X)
        return self.tree_.value[self.tree_.apply(X)][:, 0]
