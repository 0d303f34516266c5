"""Compiled scoring of stump ensembles.

The deployment in Fig. 3 of the paper scores *millions* of lines every
Saturday with an 800-round BStump.  The naive scorer walks the ensemble
round by round -- ``margin += stump_t.predict(X)`` -- which touches every
row T times and rebuilds per-row masks T times.  But a stump ensemble is
just a sum of one-dimensional step functions, so it can be *compiled* by
feature:

* group the fitted stumps by the feature they test;
* for a **continuous** feature with stump thresholds ``d_1 <= ... <= d_T``,
  a present value ``v`` falls into one of ``T + 1`` buckets (how many
  thresholds are ``<= v``), and every value in a bucket receives the same
  total score from that feature's stumps -- precompute the ``T + 1``
  bucket totals once and scoring becomes one ``np.searchsorted`` plus one
  table gather per feature;
* for a **categorical** feature, a value either equals one of the tested
  category codes (one precomputed total per distinct code) or none of
  them (a single "no match" total);
* a missing (NaN) value receives the feature's precomputed total of
  ``s_miss`` scores.

Scoring therefore costs ``O(n log T_j)`` per *used feature* instead of
``O(n)`` per *round*, a ~``T / F_used`` speedup for deep ensembles, and
never materialises per-round intermediates.

Exactness: the bucket tables are accumulated stump-by-stump **in round
order within each feature**, and the final margin folds the per-feature
totals in ascending feature order.  Both are plain IEEE-754 double
additions, so the compiled margin is *bit-identical* to a naive scorer
that sums ``Stump.predict`` outputs grouped the same way (see
``naive_grouped_margin``).  Against the historical round-interleaved sum
the result agrees to within a few ULPs (float addition is not
associative); ranking consumers are unaffected.

Small batches -- one technician's ``/locate`` or ``/explain`` -- take a
second route to the same doubles (:class:`_SlotGrid`): per-group NumPy
calls cost microseconds of interpreter overhead each, so the grid
buckets every group in one comparison over a padded (groups x keys)
key grid and gathers every (group, head) vote in one indexing step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "CompiledEnsemble",
    "MultiHeadEnsemble",
    "compile_stumps",
    "compile_multihead",
    "naive_grouped_margin",
]

#: Row count up to which :meth:`MultiHeadEnsemble.decision_matrix` scores
#: on the slot grid instead of the per-group loop.  The loop pays a fixed
#: cost of one NumPy call per (group, head) pair, the grid a cost that
#: grows with rows x groups x padded keys.  Measured on the trained serve
#: locator's 52-way scorer (78 groups, 682 pairs; one run on a shared
#: 2-vCPU x86 host): 1 row 2.5 ms loop vs 53 us grid, 64 rows 2.0 vs
#: 0.69 ms, 150 rows 2.7 vs 1.7 ms, crossover between 150 and 200 rows,
#: 2000 rows 9.9 vs 41 ms.  The cutoff sits well under the crossover, so
#: large batches (locator fitting, batch scoring) stay on the loop.
SMALL_BATCH_ROWS = 64


@dataclass(frozen=True)
class _FeatureGroup:
    """All stumps of one (feature, kind) compiled into lookup tables.

    For a continuous group, ``keys`` holds the sorted stump thresholds and
    ``table`` the ``len(keys) + 1`` bucket totals: bucket ``k`` is the
    total score for a value with exactly ``k`` thresholds ``<= v``.

    For a categorical group, ``keys`` holds the distinct tested category
    codes, ``table`` the per-code totals when the value matches that code,
    and ``no_match`` the total when it matches none of them.

    ``miss`` is the total of the group's ``s_miss`` scores, emitted for
    NaN values regardless of kind.
    """

    feature: int
    categorical: bool
    keys: np.ndarray
    table: np.ndarray
    no_match: float
    miss: float


def _compile_continuous(stumps: list) -> tuple[np.ndarray, np.ndarray]:
    """Sorted thresholds and the T+1 bucket-total table for one feature.

    The table is accumulated one stump at a time in the order given (round
    order), so each entry is the exact left-fold of that bucket's branch
    scores -- the property the bit-identity tests rely on.
    """
    thresholds = np.array([s.threshold for s in stumps], dtype=float)
    order = np.argsort(thresholds, kind="stable")
    # rank[i] = position of stump i's threshold in the sorted array.
    rank = np.empty(len(stumps), dtype=np.intp)
    rank[order] = np.arange(len(stumps))
    buckets = np.arange(len(stumps) + 1)
    table = np.zeros(len(stumps) + 1)
    for i, stump in enumerate(stumps):
        # Bucket k counts thresholds <= v; stump i fires "high" iff its
        # threshold is among them, i.e. iff its sorted rank is < k.
        table += np.where(buckets > rank[i], stump.s_hi, stump.s_lo)
    return thresholds[order], table


def _compile_categorical(stumps: list) -> tuple[np.ndarray, np.ndarray, float]:
    """Distinct codes, per-code totals, and the no-match total."""
    values = np.unique(np.array([s.threshold for s in stumps], dtype=float))
    table = np.zeros(values.size)
    no_match = 0.0
    for stump in stumps:
        table += np.where(values == stump.threshold, stump.s_hi, stump.s_lo)
        no_match += stump.s_lo
    return values, table, no_match


def compile_stumps(stumps: list, n_features: int) -> "CompiledEnsemble":
    """Compile a list of fitted :class:`~repro.ml.stumps.Stump` learners.

    Args:
        stumps: the ensemble's stumps in round order.
        n_features: width of the feature matrices the ensemble scores.

    Returns:
        A :class:`CompiledEnsemble` ready to score.
    """
    if n_features <= 0:
        raise ValueError("n_features must be positive")
    by_group: dict[tuple[int, bool], list] = {}
    for stump in stumps:
        if not 0 <= stump.feature < n_features:
            raise ValueError(
                f"stump feature {stump.feature} out of range for "
                f"{n_features}-column input"
            )
        by_group.setdefault((stump.feature, bool(stump.categorical)), []).append(stump)

    groups: list[_FeatureGroup] = []
    for (feature, categorical) in sorted(by_group):
        members = by_group[(feature, categorical)]
        miss = 0.0
        for stump in members:
            miss += stump.s_miss
        if categorical:
            keys, table, no_match = _compile_categorical(members)
        else:
            keys, table = _compile_continuous(members)
            no_match = 0.0
        groups.append(
            _FeatureGroup(
                feature=feature,
                categorical=categorical,
                keys=keys,
                table=table,
                no_match=no_match,
                miss=miss,
            )
        )
    return CompiledEnsemble(n_features=n_features, groups=tuple(groups))


def _slot_table(group: _FeatureGroup) -> np.ndarray:
    """A group's totals laid out by slot, as in :class:`_MergedGroup`.

    Continuous: the ``len(keys) + 1`` buckets; categorical: one entry per
    code, then the no-match total; both end with the missing-value total.
    """
    if group.categorical:
        return np.concatenate([group.table, [group.no_match, group.miss]])
    return np.append(group.table, group.miss)


@dataclass(frozen=True)
class _SlotGrid:
    """Every group's keys on one NaN-padded (groups x keys) grid.

    A row's *slot* in a group indexes that group's slot tables: the
    bucket (count of thresholds ``<= v``) for a continuous group, the
    matched code's position or ``size`` (no match) for a categorical
    one, and ``size + 1`` for a missing value.  Counting ``keys <= v``
    over sorted keys is what ``searchsorted(side="right")`` computes, so
    a +inf value lands in bucket ``size``; the NaN padding never compares
    true, so it neither counts nor matches.  The slot tables of every
    (group, head) pair, in fold order, sit end to end in ``tables``.
    """

    features: np.ndarray          # (G,) column each group reads
    sizes: np.ndarray             # (G,) keys per group
    keys: np.ndarray              # (G, K) keys, NaN-padded
    continuous: np.ndarray        # indices of continuous groups
    categorical: np.ndarray       # indices of categorical groups
    continuous_keys: np.ndarray   # keys[continuous], trimmed
    categorical_keys: np.ndarray  # keys[categorical], trimmed
    pair_groups: np.ndarray       # (P,) group of each pair
    pair_heads: np.ndarray        # (P,) head position of each pair
    pair_offsets: np.ndarray      # (P,) start of its slot table
    tables: np.ndarray            # every pair's slot table, flattened

    @classmethod
    def build(cls, groups, pairs) -> "_SlotGrid":
        """Args: the scorer's groups, and ``(group index, head position,
        slot table)`` for every pair in fold order."""
        sizes = np.array([g.keys.size for g in groups], dtype=np.intp)
        keys = np.full((len(groups), int(sizes.max(initial=0))), np.nan)
        for i, group in enumerate(groups):
            keys[i, : group.keys.size] = group.keys
        kinds = np.array([g.categorical for g in groups], dtype=bool)
        continuous = np.flatnonzero(~kinds)
        categorical = np.flatnonzero(kinds)
        lengths = np.array([t.size for _, _, t in pairs], dtype=np.intp)
        return cls(
            features=np.array([g.feature for g in groups], dtype=np.intp),
            sizes=sizes,
            keys=keys,
            continuous=continuous,
            categorical=categorical,
            continuous_keys=keys[continuous, : sizes[continuous].max(initial=0)],
            categorical_keys=keys[categorical, : sizes[categorical].max(initial=0)],
            pair_groups=np.array([g for g, _, _ in pairs], dtype=np.intp),
            pair_heads=np.array([h for _, h, _ in pairs], dtype=np.intp),
            pair_offsets=np.cumsum(lengths) - lengths,
            tables=np.concatenate([np.empty(0)] + [t for _, _, t in pairs]),
        )

    def slots(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(slots, values), both (n, G), for the rows of ``X``."""
        values = X[:, self.features]
        slot = np.empty(values.shape, dtype=np.intp)
        if self.continuous.size:
            below = self.continuous_keys <= values[:, self.continuous, None]
            slot[:, self.continuous] = np.count_nonzero(below, axis=2)
        if self.categorical.size:
            hit = self.categorical_keys == values[:, self.categorical, None]
            slot[:, self.categorical] = np.where(
                hit.any(axis=2), hit.argmax(axis=2), self.sizes[self.categorical]
            )
        return np.where(np.isnan(values), self.sizes + 1, slot), values

    def votes(self, slot: np.ndarray) -> np.ndarray:
        """(n, P) vote of every pair: one gather from the slot tables."""
        return self.tables[self.pair_offsets + slot[:, self.pair_groups]]

    def head_sums(self, votes: np.ndarray, n_heads: int) -> np.ndarray:
        """(n, n_heads) per-head vote sums, added in fold order.

        A weighted ``np.bincount`` adds its weights into a zeroed output
        one at a time, in input order -- like an unbuffered ``np.add.at``
        but ~4x faster -- so each head accumulates its votes in the same
        sequence as the per-group loop, starting from the same zero.
        """
        n = votes.shape[0]
        cells = (np.arange(n)[:, None] * n_heads + self.pair_heads).ravel()
        sums = np.bincount(cells, weights=votes.ravel(), minlength=n * n_heads)
        return sums.reshape(n, n_heads)


@dataclass(frozen=True)
class CompiledEnsemble:
    """A stump ensemble compiled to per-feature threshold/score tables.

    Build with :func:`compile_stumps` (or ``BStump.compiled()``).  Scoring
    runs one ``searchsorted`` + table gather per used feature and is
    independent of the number of boosting rounds.
    """

    n_features: int
    groups: tuple[_FeatureGroup, ...]

    @property
    def n_used_features(self) -> int:
        """How many distinct feature columns the ensemble actually reads."""
        return len({g.feature for g in self.groups})

    @property
    def used_features(self) -> np.ndarray:
        """Sorted distinct feature columns the ensemble actually reads."""
        return np.array(sorted({g.feature for g in self.groups}), dtype=np.intp)

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Additive margin ``f(x) = sum_t h_t(x)`` for each row of ``X``."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"X must be 2-D with {self.n_features} columns, got {X.shape}"
            )
        margin = np.zeros(X.shape[0])
        for group in self.groups:
            margin += self._group_contribution(group, X[:, group.feature])
        return margin

    def decision_function_columns(self, column, n_rows: int) -> np.ndarray:
        """Additive margin from a columnar feature source.

        ``column(j)`` must return the length-``n_rows`` values of feature
        column ``j``.  Only the ensemble's *used* features are requested,
        so a columnar store (or a lazy derived-feature provider) never
        materialises columns the model does not read.  The per-group fold
        order matches :meth:`decision_function`, so the margins are
        bit-identical to scoring the fully assembled row matrix.

        Args:
            column: callable mapping a feature index to its column.
            n_rows: number of rows being scored.

        Returns:
            The (n_rows,) margin vector.
        """
        if n_rows < 0:
            raise ValueError(f"n_rows must be >= 0, got {n_rows}")
        margin = np.zeros(n_rows)
        for group in self.groups:
            col = np.asarray(column(group.feature), dtype=float)
            if col.shape != (n_rows,):
                raise ValueError(
                    f"column {group.feature} must have shape ({n_rows},), "
                    f"got {col.shape}"
                )
            margin += self._group_contribution(group, col)
        return margin

    @cached_property
    def grid(self) -> _SlotGrid:
        """The slot grid of this ensemble (one head, one pair per group)."""
        return _SlotGrid.build(
            self.groups,
            [(i, 0, _slot_table(g)) for i, g in enumerate(self.groups)],
        )

    @staticmethod
    def _group_contribution(group: _FeatureGroup, col: np.ndarray) -> np.ndarray:
        missing = np.isnan(col)
        if group.categorical:
            # NaN queries sort past every key; the clip makes the gather
            # safe and the equality check then fails, which is correct.
            idx = np.searchsorted(group.keys, col)
            np.minimum(idx, group.keys.size - 1, out=idx)
            contrib = np.where(
                group.keys[idx] == col, group.table[idx], group.no_match
            )
        else:
            # Bucket k = number of thresholds <= v, so side="right"; NaN
            # lands in the last bucket and is overwritten below.
            idx = np.searchsorted(group.keys, col, side="right")
            contrib = group.table[idx]
        return np.where(missing, group.miss, contrib)


# ----- stacked multi-head scoring -----------------------------------------


@dataclass(frozen=True)
class _MergedGroup:
    """One (feature, kind) column shared by several compiled heads.

    ``keys`` is the union of the participating heads' keys (sorted
    thresholds for a continuous column, distinct category codes for a
    categorical one).  Each head's bucket table is *expanded* onto the
    merged key grid so one ``searchsorted`` over the column serves every
    head; ``tables[h]`` has ``len(keys) + 2`` entries -- the merged
    buckets (continuous) or merged codes plus a no-match slot
    (categorical), followed by a trailing missing-value slot.  The
    expansion is a pure gather of each head's own bucket totals, so the
    per-head contributions are the exact doubles
    :meth:`CompiledEnsemble._group_contribution` produces.
    """

    feature: int
    categorical: bool
    keys: np.ndarray
    head_positions: np.ndarray
    tables: np.ndarray


def _expand_continuous(group: _FeatureGroup, merged: np.ndarray) -> np.ndarray:
    """One head's T+1 bucket table re-indexed by merged-grid bucket."""
    # Merged bucket i >= 1 means the largest merged key <= v is
    # merged[i - 1]; the head's bucket is then the number of *its*
    # thresholds <= merged[i - 1] (its keys are a subset of the merged
    # grid, so none lie strictly between merged[i - 1] and v).
    own = np.searchsorted(group.keys, merged, side="right")
    table = np.empty(merged.size + 2)
    table[0] = group.table[0]
    table[1 : merged.size + 1] = group.table[own]
    table[merged.size + 1] = group.miss
    return table


def _expand_categorical(group: _FeatureGroup, merged: np.ndarray) -> np.ndarray:
    """One head's per-code totals re-indexed by merged category code."""
    pos = np.searchsorted(group.keys, merged)
    np.minimum(pos, group.keys.size - 1, out=pos)
    table = np.empty(merged.size + 2)
    table[: merged.size] = np.where(
        group.keys[pos] == merged, group.table[pos], group.no_match
    )
    table[merged.size] = group.no_match
    table[merged.size + 1] = group.miss
    return table


def compile_multihead(
    heads: dict[int, CompiledEnsemble], n_heads: int, n_features: int
) -> "MultiHeadEnsemble":
    """Stack several compiled heads into one multi-head scorer.

    Args:
        heads: mapping from output column (0..n_heads-1) to that head's
            compiled ensemble; all heads must score the same feature
            width.
        n_heads: width of the stacked margin matrix.
        n_features: width of the feature matrices being scored.

    Returns:
        A :class:`MultiHeadEnsemble` whose per-head margins are
        bit-identical to each head's own ``decision_function``.
    """
    if n_heads <= 0:
        raise ValueError("n_heads must be positive")
    if n_features <= 0:
        raise ValueError("n_features must be positive")
    columns = np.array(sorted(heads), dtype=np.intp)
    if columns.size and (columns[0] < 0 or columns[-1] >= n_heads):
        raise ValueError("head column out of range")
    position = {int(col): pos for pos, col in enumerate(columns)}

    by_key: dict[tuple[int, bool], list[tuple[int, _FeatureGroup]]] = {}
    for col in columns:
        head = heads[int(col)]
        if head.n_features != n_features:
            raise ValueError(
                f"head {int(col)} scores {head.n_features} features, "
                f"expected {n_features}"
            )
        for group in head.groups:
            by_key.setdefault((group.feature, group.categorical), []).append(
                (position[int(col)], group)
            )

    merged_groups: list[_MergedGroup] = []
    for (feature, categorical) in sorted(by_key):
        members = by_key[(feature, categorical)]
        merged = np.unique(np.concatenate([g.keys for _, g in members]))
        expand = _expand_categorical if categorical else _expand_continuous
        merged_groups.append(
            _MergedGroup(
                feature=feature,
                categorical=categorical,
                keys=merged,
                head_positions=np.array([p for p, _ in members], dtype=np.intp),
                tables=np.stack([expand(g, merged) for _, g in members]),
            )
        )
    return MultiHeadEnsemble(
        n_features=n_features,
        n_heads=n_heads,
        head_columns=columns,
        groups=tuple(merged_groups),
    )


@dataclass(frozen=True)
class MultiHeadEnsemble:
    """Many compiled stump ensembles scored in one pass over the columns.

    Build with :func:`compile_multihead`.  Where the naive path walks
    each head separately -- 52 ``decision_function`` calls for the
    trouble locator, each re-reading its feature columns -- this scorer
    visits every *merged* (feature, kind) column once: one
    ``searchsorted`` (or category match) per column, then one table
    gather per participating head.  Heads usually share their most
    informative features, so the per-column bucketing cost is paid once
    instead of per head.

    Exactness: each head's expanded tables hold the same bucket-total
    doubles as its own :class:`CompiledEnsemble`, and a head's groups
    are accumulated in the same ascending (feature, kind) order, so
    every margin column is *bit-identical* to that head's
    ``decision_function``.
    """

    n_features: int
    n_heads: int
    head_columns: np.ndarray
    groups: tuple[_MergedGroup, ...]

    @cached_property
    def grid(self) -> _SlotGrid:
        """The slot grid: every (group, head) pair in fold order."""
        return _SlotGrid.build(
            self.groups,
            [
                (i, int(pos), table)
                for i, group in enumerate(self.groups)
                for pos, table in zip(group.head_positions, group.tables)
            ],
        )

    def decision_matrix(
        self, X: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """The stacked (n, n_heads) margin matrix.

        Args:
            X: (n, n_features) rows to score.
            out: optional (n, n_heads) matrix to write into; columns
                without a head are left untouched (callers pre-fill
                prior log-odds there), head columns are overwritten.

        Returns:
            ``out`` (or a fresh zero-initialised matrix).

        Up to :data:`SMALL_BATCH_ROWS` rows are scored on the slot grid,
        larger batches by the per-group loop; both produce the same
        doubles.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"X must be 2-D with {self.n_features} columns, got {X.shape}"
            )
        n = X.shape[0]
        if out is None:
            out = np.zeros((n, self.n_heads))
        elif out.shape != (n, self.n_heads):
            raise ValueError(
                f"out must have shape ({n}, {self.n_heads}), got {out.shape}"
            )
        if not self.head_columns.size:
            return out
        if n <= SMALL_BATCH_ROWS:
            grid = self.grid
            slot, _ = grid.slots(X)
            out[:, self.head_columns] = grid.head_sums(
                grid.votes(slot), self.head_columns.size
            )
            return out
        acc = np.zeros((n, self.head_columns.size))
        for group in self.groups:
            col = X[:, group.feature]
            missing = np.isnan(col)
            size = group.keys.size
            if group.categorical:
                idx = np.searchsorted(group.keys, col)
                np.minimum(idx, size - 1, out=idx)
                slot = np.where(group.keys[idx] == col, idx, size)
            else:
                slot = np.searchsorted(group.keys, col, side="right")
            slot = np.where(missing, size + 1, slot)
            for pos, table in zip(group.head_positions, group.tables):
                acc[:, pos] += table[slot]
        out[:, self.head_columns] = acc
        return out


def naive_grouped_margin(stumps: list, X: np.ndarray, n_features: int) -> np.ndarray:
    """Reference scorer: per-stump ``predict`` summed in compiled order.

    Sums each (feature, kind) group's ``Stump.predict`` outputs in round
    order, then folds the group subtotals in ascending (feature, kind)
    order -- the exact addition sequence :class:`CompiledEnsemble` encodes
    in its tables.  Used by the equivalence tests to assert bit-identity;
    O(rounds) per row, so keep it out of hot paths.
    """
    X = np.asarray(X, dtype=float)
    by_group: dict[tuple[int, bool], list] = {}
    for stump in stumps:
        by_group.setdefault((stump.feature, bool(stump.categorical)), []).append(stump)
    del n_features  # shape is taken from X; kept for signature symmetry
    margin = np.zeros(X.shape[0])
    for key in sorted(by_group):
        subtotal = np.zeros(X.shape[0])
        for stump in by_group[key]:
            subtotal += stump.predict(X)
        margin += subtotal
    return margin
