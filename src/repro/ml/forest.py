"""CART decision trees and a bagged random forest, vectorised in NumPy.

The paper's downstream task model is a Random Forest service classifier
trained either on raw nprint bits or on NetFlow aggregates.  scikit-learn
is not available offline, so this is a from-scratch implementation tuned
for the workloads here, built around a *pre-binned* design:

* **Bin once, split many.**  ``X`` is quantised once per fit into compact
  ``uint8`` bin codes (the ternary nprint space needs at most two
  thresholds per column; continuous NetFlow columns get quantile bins).
  Split search is then a weighted ``np.bincount`` histogram over
  (feature, bin, class) followed by a cumulative sum — no per-node sort,
  no boolean threshold matrix.
* **Sample weights instead of bootstrap copies.**  The forest expresses
  bootstrap resampling as per-row multiplicities
  (``np.bincount`` of the drawn indices), so every tree trains against
  the *same* read-only binned matrix instead of materialising an
  ``X[idx]`` copy per tree.  With ``uint8`` codes that is a ~4x memory
  cut over the old per-tree ``float32`` copies.
* **Flattened inference.**  Fitted trees are compiled into a
  struct-of-arrays representation (``feature[]``, ``threshold[]``,
  ``left[]``, ``right[]``, ``proba[]``) and ensemble
  :meth:`RandomForest.predict_proba` is a vectorised level-by-level
  traversal over all trees at once with a fixed ``n_classes`` axis
  (``n_classes`` is threaded from the forest into every tree, so a
  bootstrap that misses the rarest class can no longer produce a
  narrower probability matrix).

Training and prediction are instrumented through :mod:`repro.perf`
(``forest.fit_seconds`` / ``forest.predict_seconds`` timers, the
``forest.splits_evaluated`` counter); see ``docs/performance.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import perf

#: a split must beat the parent impurity by more than this to be taken
_GAIN_EPS = 1e-12

#: alphabets at most this large take the shared-cuts fast path in _Binner
_SMALL_ALPHABET = 16


@dataclass
class _Node:
    """One tree node; leaves carry a class distribution."""

    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    distribution: np.ndarray | None = None  # class probabilities at a leaf

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class _Binner:
    """Per-column candidate thresholds, shared by every tree of a forest.

    ``cuts[j]`` holds the candidate thresholds of column ``j`` in
    increasing order, and the bin code of a value ``v`` is the number of
    cuts strictly below it — so ``v <= cuts[j][t]``  iff  ``code <= t``,
    and a histogram over codes gives every threshold's class counts via
    one cumulative sum.

    Ternary nprint columns resolve to at most two cuts; continuous
    columns get up to ``max_thresholds`` quantile-spaced cuts (the same
    unique-midpoint + linspace subsample rule the legacy per-node scan
    used, applied once to the full column).
    """

    def __init__(self, max_thresholds: int = 63):
        # uint8 codes cap the number of cuts per column at 255.
        self.max_thresholds = min(int(max_thresholds), 255)
        self.cuts: list[np.ndarray] = []
        self.n_cuts: np.ndarray | None = None
        self._shared_cuts: np.ndarray | None = None

    # -- fitting ------------------------------------------------------------
    def fit(self, X: np.ndarray) -> "_Binner":
        n, d = X.shape
        values = self._small_alphabet(X)
        if values is not None:
            mids = self._subsample((values[:-1] + values[1:]) / 2.0)
            self._shared_cuts = mids
            self.cuts = [mids] * d
        else:
            self.cuts = [
                self._subsample(self._column_mids(X[:, j])) for j in range(d)
            ]
        self.n_cuts = np.array([c.size for c in self.cuts], dtype=np.int64)
        return self

    def _small_alphabet(self, X: np.ndarray) -> np.ndarray | None:
        """The global value set, if it is small enough to share cuts.

        Sharing one global cut list across all columns only *adds*
        candidate splits relative to per-column cut lists (splits with an
        empty side are rejected by the leaf-size check), so it is safe
        for any column mix — it is just pointless for wide alphabets.
        """
        sample = np.unique(X[: min(len(X), 64)])
        if sample.size <= _SMALL_ALPHABET and np.isin(X, sample).all():
            return sample
        return None

    def _column_mids(self, column: np.ndarray) -> np.ndarray:
        values = np.unique(column)
        if values.size <= 1:
            return np.empty(0, dtype=column.dtype)
        return (values[:-1] + values[1:]) / 2.0

    def _subsample(self, mids: np.ndarray) -> np.ndarray:
        if mids.size > self.max_thresholds:
            idx = np.linspace(0, mids.size - 1, self.max_thresholds).astype(int)
            mids = mids[np.unique(idx)]
        return mids

    # -- transform ----------------------------------------------------------
    @property
    def max_bins(self) -> int:
        """Histogram width: the widest column's cut count plus one."""
        return int(self.n_cuts.max()) + 1 if self.n_cuts.size else 1

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Quantise ``X`` to per-column bin codes (``uint8``)."""
        n, d = X.shape
        codes = np.empty((n, d), dtype=np.uint8)
        if self._shared_cuts is not None:
            cuts = self._shared_cuts
            if cuts.size <= 8:
                # A couple of vectorised compares beats searchsorted here.
                acc = np.zeros((n, d), dtype=np.uint8)
                for cut in cuts:
                    acc += X > cut
                codes = acc
            else:
                codes = np.searchsorted(
                    cuts, X.ravel(), side="left"
                ).reshape(n, d).astype(np.uint8)
        else:
            for j in range(d):
                codes[:, j] = np.searchsorted(
                    self.cuts[j], X[:, j], side="left"
                ).astype(np.uint8)
        return codes

    def threshold_value(self, feature: int, t: int) -> float:
        return float(self.cuts[feature][t])


class _CompiledForest:
    """Flattened struct-of-arrays trees for vectorised ensemble inference.

    ``feature[i] == -1`` marks node ``i`` as a leaf; leaves carry their
    class distribution in ``proba[i]``.  Prediction routes every
    (tree, sample) pair level by level: one fancy-indexed compare per
    tree depth instead of one Python node visit per sample per node.
    """

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        proba: np.ndarray,
        roots: np.ndarray,
        n_classes: int,
    ):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.proba = proba
        self.roots = roots
        self.n_classes = n_classes

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict_proba(self, X: np.ndarray, chunk: int = 4096) -> np.ndarray:
        n = len(X)
        n_trees = len(self.roots)
        out = np.empty((n, self.n_classes), dtype=np.float64)
        for start in range(0, n, chunk):
            Xb = X[start : start + chunk]
            m = len(Xb)
            rows = np.arange(m)
            state = np.repeat(self.roots[:, None], m, axis=1)  # (T, m)
            feat = self.feature[state]
            active = feat >= 0
            while active.any():
                values = Xb[rows[None, :], np.where(active, feat, 0)]
                go_left = values <= self.threshold[state]
                step = np.where(go_left, self.left[state], self.right[state])
                state = np.where(active, step, state)
                feat = self.feature[state]
                active = feat >= 0
            out[start : start + m] = self.proba[state].sum(axis=0)
        out /= n_trees
        return out


def _compile_trees(roots: list[_Node], n_classes: int) -> _CompiledForest:
    """Flatten node trees into one struct-of-arrays ensemble."""
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    proba: list[np.ndarray] = []
    zero = np.zeros(n_classes, dtype=np.float64)

    def add(node: _Node) -> int:
        i = len(feature)
        feature.append(node.feature if not node.is_leaf else -1)
        threshold.append(node.threshold)
        left.append(-1)
        right.append(-1)
        proba.append(node.distribution if node.is_leaf else zero)
        if not node.is_leaf:
            left[i] = add(node.left)
            right[i] = add(node.right)
        return i

    root_ids = np.array([add(root) for root in roots], dtype=np.int32)
    return _CompiledForest(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float32),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        proba=np.vstack(proba) if proba else np.zeros((0, n_classes)),
        roots=root_ids,
        n_classes=n_classes,
    )


class DecisionTree:
    """A CART classifier with Gini impurity and random feature subsets.

    ``max_features`` candidate features are drawn at every split (the
    random-forest trick); pass ``None`` to consider all features (a plain
    CART tree).  ``max_thresholds`` caps the candidate thresholds (bin
    boundaries) per column, computed once per fit from the full column.
    """

    def __init__(
        self,
        max_depth: int = 18,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        max_thresholds: int = 63,
        rng: np.random.Generator | None = None,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_thresholds = max_thresholds
        self.rng = rng or np.random.default_rng()
        self._root: _Node | None = None
        self._compiled: _CompiledForest | None = None
        self.n_classes = 0

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        n_classes: int | None = None,
        sample_weight: np.ndarray | None = None,
    ) -> "DecisionTree":
        X = np.asarray(X, dtype=np.float32)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        if n_classes is None:
            n_classes = int(y.max()) + 1
        elif int(y.max()) >= n_classes:
            raise ValueError(
                f"y contains label {int(y.max())} >= n_classes={n_classes}"
            )
        if sample_weight is None:
            weight = np.ones(len(y), dtype=np.float64)
        else:
            weight = np.asarray(sample_weight, dtype=np.float64)
            if weight.shape != y.shape:
                raise ValueError("sample_weight and y length mismatch")
            if (weight < 0).any():
                raise ValueError("sample_weight must be non-negative")
        binner = _Binner(self.max_thresholds).fit(X)
        codes = binner.transform(X)
        return self._fit_binned(binner, codes, y, weight, n_classes)

    # -- training ----------------------------------------------------------
    def _fit_binned(
        self,
        binner: _Binner,
        codes: np.ndarray,
        y: np.ndarray,
        weight: np.ndarray,
        n_classes: int,
    ) -> "DecisionTree":
        """Grow against a pre-binned matrix (shared across forest trees)."""
        self.n_classes = n_classes
        idx = np.flatnonzero(weight > 0)
        if idx.size == 0:
            raise ValueError("sample_weight has no positive entries")
        self._root = self._grow(binner, codes, y, weight, idx, depth=0)
        self._compiled = _compile_trees([self._root], n_classes)
        return self

    def _leaf(self, class_weight: np.ndarray) -> _Node:
        return _Node(distribution=class_weight / class_weight.sum())

    def _grow(
        self,
        binner: _Binner,
        codes: np.ndarray,
        y: np.ndarray,
        weight: np.ndarray,
        idx: np.ndarray,
        depth: int,
    ) -> _Node:
        class_weight = np.bincount(
            y[idx], weights=weight[idx], minlength=self.n_classes
        )
        n_eff = class_weight.sum()
        if (
            depth >= self.max_depth
            or n_eff < self.min_samples_split
            or (class_weight > 0).sum() == 1
        ):
            return self._leaf(class_weight)
        split = self._best_split(binner, codes, y, weight, idx, class_weight)
        if split is None:
            return self._leaf(class_weight)
        feature, t, threshold = split
        go_left = codes[idx, feature] <= t
        node = _Node(feature=feature, threshold=threshold)
        node.left = self._grow(binner, codes, y, weight, idx[go_left], depth + 1)
        node.right = self._grow(
            binner, codes, y, weight, idx[~go_left], depth + 1
        )
        return node

    def _candidate_features(self, n_features: int) -> np.ndarray:
        if self.max_features is None or self.max_features >= n_features:
            return np.arange(n_features)
        return self.rng.choice(n_features, size=self.max_features, replace=False)

    def _best_split(
        self,
        binner: _Binner,
        codes: np.ndarray,
        y: np.ndarray,
        weight: np.ndarray,
        idx: np.ndarray,
        class_weight: np.ndarray,
    ) -> tuple[int, int, float] | None:
        """Histogram Gini split search over a random feature subset.

        One weighted ``bincount`` over (feature, bin, class) plus a
        cumulative sum yields every candidate threshold's left/right
        class counts at once.
        """
        n_features = codes.shape[1]
        features = self._candidate_features(n_features)
        n_cuts = binner.n_cuts[features]
        if not n_cuts.any():
            return None
        n_bins = binner.max_bins
        n_thresholds = n_bins - 1
        n_candidates = len(features)
        n_classes = self.n_classes
        n_eff = class_weight.sum()

        sub = codes[np.ix_(idx, features)].astype(np.int64)  # (m, F)
        flat = (
            sub + (np.arange(n_candidates, dtype=np.int64) * n_bins)[None, :]
        ) * n_classes + y[idx][:, None]
        hist = np.bincount(
            flat.ravel(),
            weights=np.repeat(weight[idx], n_candidates),
            minlength=n_candidates * n_bins * n_classes,
        ).reshape(n_candidates, n_bins, n_classes)

        # left_counts[f, t, c] = weight of class c with code <= t under f.
        left_counts = np.cumsum(hist, axis=1)[:, :n_thresholds, :]
        left_n = left_counts.sum(axis=2)
        right_counts = class_weight[None, None, :] - left_counts
        right_n = n_eff - left_n
        valid = (
            (np.arange(n_thresholds)[None, :] < n_cuts[:, None])
            & (left_n >= self.min_samples_leaf)
            & (right_n >= self.min_samples_leaf)
        )
        perf.incr("forest.splits_evaluated", int(valid.sum()))
        if not valid.any():
            return None
        with np.errstate(divide="ignore", invalid="ignore"):
            gini_l = 1.0 - (
                (left_counts / left_n[:, :, None]) ** 2
            ).sum(axis=2)
            gini_r = 1.0 - (
                (right_counts / right_n[:, :, None]) ** 2
            ).sum(axis=2)
        weighted = (left_n * gini_l + right_n * gini_r) / n_eff
        weighted[~valid] = np.inf

        best_t = np.argmin(weighted, axis=1)  # first minimum per feature
        parent_gini = 1.0 - ((class_weight / n_eff) ** 2).sum()
        gains = parent_gini - weighted[np.arange(n_candidates), best_t]
        best_f = int(np.argmax(gains))  # first maximum across the draw order
        if not np.isfinite(gains[best_f]) or gains[best_f] <= _GAIN_EPS:
            return None
        feature = int(features[best_f])
        t = int(best_t[best_f])
        return feature, t, binner.threshold_value(feature, t)

    # -- inference -----------------------------------------------------------
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self._compiled is None:
            raise RuntimeError("predict before fit")
        X = np.asarray(X, dtype=np.float32)
        return self._compiled.predict_proba(X)

    def _predict_proba_walk(self, X: np.ndarray) -> np.ndarray:
        """Node-walk inference over the ``_Node`` tree (test reference)."""
        if self._root is None:
            raise RuntimeError("predict before fit")
        X = np.asarray(X, dtype=np.float32)
        out = np.empty((len(X), self.n_classes))
        stack = [(self._root, np.arange(len(X)))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if node.is_leaf:
                out[idx] = node.distribution
                continue
            mask = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)


class RandomForest:
    """Bagged CART ensemble with per-split feature subsampling.

    All trees share one read-only binned matrix; the bootstrap is a
    per-row multiplicity vector (``np.bincount`` of drawn indices), and
    the fitted ensemble is compiled into flat arrays for vectorised
    inference (:class:`_CompiledForest`).
    """

    def __init__(
        self,
        n_trees: int = 30,
        max_depth: int = 18,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        max_thresholds: int = 63,
        seed: int = 0,
    ):
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_thresholds = max_thresholds
        self.seed = seed
        self.trees: list[DecisionTree] = []
        self.n_classes = 0
        self.n_features_ = 0
        self._compiled: _CompiledForest | None = None

    def get_params(self) -> dict:
        """Hyperparameters as a plain dict (the classifier-cache key)."""
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
            "max_thresholds": self.max_thresholds,
            "seed": self.seed,
        }

    def _resolve_max_features(self, n_features: int) -> int | None:
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if self.max_features == "log2":
            return max(1, int(np.log2(n_features)))
        return self.max_features

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        with perf.timer("forest.fit_seconds"):
            return self._fit(X, y)

    def _fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X = np.asarray(X, dtype=np.float32)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.n_classes = int(y.max()) + 1
        n, n_features = X.shape
        self.n_features_ = n_features
        max_features = self._resolve_max_features(n_features)
        with perf.timer("forest.bin"):
            binner = _Binner(self.max_thresholds).fit(X)
            codes = binner.transform(X)
        rng = np.random.default_rng(self.seed)
        self.trees = []
        for _ in range(self.n_trees):
            idx = rng.integers(0, n, size=n)  # bootstrap draw
            weight = np.bincount(idx, minlength=n).astype(np.float64)
            tree = DecisionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                max_thresholds=self.max_thresholds,
                rng=np.random.default_rng(rng.integers(0, 2**63)),
            )
            # n_classes is threaded from the forest so a bootstrap that
            # misses the highest label still yields a full-width tree.
            tree._fit_binned(binner, codes, y, weight, self.n_classes)
            perf.incr("forest.trees_fit")
            self.trees.append(tree)
        self._compiled = _compile_trees(
            [tree._root for tree in self.trees], self.n_classes
        )
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self._compiled is None:
            raise RuntimeError("predict before fit")
        X = np.asarray(X, dtype=np.float32)
        with perf.timer("forest.predict_seconds"):
            return self._compiled.predict_proba(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean(self.predict(X) == np.asarray(y)))
