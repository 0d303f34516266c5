"""Exact per-feature attribution of compiled stump-ensemble margins.

A stump ensemble is additive over (feature, kind) groups: the compiled
scorer (:mod:`repro.ml.ensemble_scoring`) folds one bucket-table gather
per group into the margin, in ascending ``(feature, categorical)`` order.
That makes the margin *exactly* decomposable -- each group's gathered
table entry IS that feature's total vote, and re-summing the votes in the
same left-fold order reproduces ``decision_function`` bit-identically
(every addition is the same IEEE-754 double addition the scorer performs).
No sampling, no surrogate model, no approximation tolerance.

Two entry points:

* :func:`attribute_ensemble` -- one :class:`CompiledEnsemble` (the ticket
  predictor's margin);
* :func:`attribute_head` -- one head of a :class:`MultiHeadEnsemble` (a
  locator disposition/location head), whose expanded per-head tables hold
  the exact doubles of that head's own compiled ensemble.

Each :class:`FeatureContribution` also carries the evidence a technician
needs: the raw measured value, how many of the ensemble's thresholds it
crossed (and which one it crossed last), the sign and magnitude of the
vote, and -- after :meth:`MarginAttribution.ranked` -- its rank among the
contributors.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace

import numpy as np

from repro.ml.ensemble_scoring import CompiledEnsemble, MultiHeadEnsemble

__all__ = [
    "FeatureContribution",
    "MarginAttribution",
    "attribute_ensemble",
    "attribute_head",
    "assemble_model_row",
]


@dataclass(frozen=True)
class FeatureContribution:
    """One feature group's exact vote on one row.

    Attributes:
        feature: model-input column index the group reads.
        name: column name when the caller supplied one, else ``None``.
        categorical: stump kind of the group.
        value: the raw measured value fed to the group (NaN if missing).
        missing: whether the value was missing (the vote is then the
            group's accumulated ``s_miss`` total).
        contribution: the exact double the scorer adds for this group.
        thresholds_crossed: continuous -- how many of the group's stump
            thresholds are ``<= value``; categorical -- 1 if the value
            matched a tested category code, else 0.
        n_thresholds: size of the group's threshold/code table.
        threshold: the last threshold crossed (continuous) or the matched
            category code; NaN when none was crossed/matched.
        rank: 1-based rank by |contribution| (0 until ranked).
    """

    feature: int
    name: str | None
    categorical: bool
    value: float
    missing: bool
    contribution: float
    thresholds_crossed: int
    n_thresholds: int
    threshold: float
    rank: int = 0

    @property
    def evidence(self) -> str:
        """One-line human-readable account of why this vote fired."""
        if self.missing:
            return "value missing -- the ensemble's missing-value vote applies"
        if self.categorical:
            if self.thresholds_crossed:
                return f"matched tested category {self.value:g}"
            return (
                f"value {self.value:g} matches none of the "
                f"{self.n_thresholds} tested categories"
            )
        if self.thresholds_crossed == 0:
            return f"below all {self.n_thresholds} learned thresholds"
        return (
            f"crossed {self.thresholds_crossed}/{self.n_thresholds} "
            f"learned thresholds (last: {self.threshold:g})"
        )

    def to_dict(self) -> dict:
        """A JSON-ready representation."""
        return {
            "rank": int(self.rank),
            "feature": int(self.feature),
            "name": self.name,
            "categorical": bool(self.categorical),
            "value": None if self.missing else float(self.value),
            "missing": bool(self.missing),
            "contribution": float(self.contribution),
            "thresholds_crossed": int(self.thresholds_crossed),
            "n_thresholds": int(self.n_thresholds),
            "threshold": (
                None if np.isnan(self.threshold) else float(self.threshold)
            ),
            "evidence": self.evidence,
        }


@dataclass(frozen=True)
class MarginAttribution:
    """A margin decomposed into its exact per-feature votes.

    ``contributions`` is kept in the scorer's fold order (ascending
    ``(feature, categorical)``), so :meth:`reconstructed` -- a plain
    left-fold -- repeats the scorer's addition sequence and equals
    ``margin`` bit-for-bit.
    """

    margin: float
    contributions: tuple[FeatureContribution, ...]

    def reconstructed(self) -> float:
        """Left-fold of the votes; bit-identical to ``margin``."""
        total = 0.0
        for c in self.contributions:
            total += c.contribution
        return total

    def ranked(self) -> list[FeatureContribution]:
        """Votes ordered by |contribution| descending, ranks filled in.

        Ties keep fold order (stable sort), so equal-magnitude votes rank
        deterministically.
        """
        return self._largest(len(self.contributions))

    def top(self, k: int) -> list[FeatureContribution]:
        """The ``k`` largest-magnitude votes, ranks filled in.

        Equal to ``ranked()[:k]``, but copies only the ``k`` votes it
        returns.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return self._largest(k)

    def _largest(self, k: int) -> list[FeatureContribution]:
        # heapq.nsmallest equals sorted(...)[:k], ties in input order.
        order = heapq.nsmallest(
            k,
            range(len(self.contributions)),
            key=lambda i: -abs(self.contributions[i].contribution),
        )
        return [
            replace(self.contributions[i], rank=rank + 1)
            for rank, i in enumerate(order)
        ]


def _name_of(names, feature: int) -> str | None:
    # Tolerate absent or short name lists (e.g. synthetic bench bundles
    # never name their columns): the name is cosmetic, never load-bearing.
    if names is None or feature >= len(names):
        return None
    return names[feature]


def attribute_ensemble(
    compiled: CompiledEnsemble,
    row: np.ndarray,
    names: list[str] | None = None,
) -> MarginAttribution:
    """Decompose one row's margin into exact per-feature votes.

    The votes are the scorer's own table entries, gathered for every
    group at once on the ensemble's slot grid
    (:attr:`~repro.ml.ensemble_scoring.CompiledEnsemble.grid`).

    Args:
        compiled: the compiled ensemble that scored the row.
        row: the (n_features,) model-input row it scored.
        names: optional per-column names (e.g.
            ``TicketPredictor.feature_names``) copied onto the votes.

    Returns:
        A :class:`MarginAttribution` whose vote fold reproduces
        ``compiled.decision_function(row[None])[0]`` bit-identically.
    """
    row = np.asarray(row, dtype=float)
    if row.shape != (compiled.n_features,):
        raise ValueError(
            f"row must have shape ({compiled.n_features},), got {row.shape}"
        )
    grid = compiled.grid
    slot, values = grid.slots(row[None])
    return _attribution(
        compiled.groups, grid, grid.pair_groups, slot[0], values[0],
        grid.votes(slot)[0], names,
    )


def attribute_head(
    multi: MultiHeadEnsemble,
    row: np.ndarray,
    head: int,
    names: list[str] | None = None,
) -> MarginAttribution:
    """Decompose one head's margin of a stacked multi-head ensemble.

    The merged groups store each head's bucket totals *expanded* onto the
    merged key grid -- the exact doubles of that head's own compiled
    ensemble -- and a head's groups appear in the same ascending
    ``(feature, kind)`` order as in its solo compilation, so the vote
    fold equals both ``decision_matrix(row[None])[0, head]`` and the solo
    head's ``decision_function`` bit-identically.  The head's votes are
    gathered on the stacked scorer's slot grid, as ``decision_matrix``
    does for small batches.

    Args:
        multi: the stacked ensemble.
        row: the (n_features,) row it scored.
        head: the output column to attribute (must have a head).
        names: optional per-column feature names.
    """
    row = np.asarray(row, dtype=float)
    if row.shape != (multi.n_features,):
        raise ValueError(
            f"row must have shape ({multi.n_features},), got {row.shape}"
        )
    matches = np.flatnonzero(multi.head_columns == head)
    if not matches.size:
        raise KeyError(f"no head at output column {head}")
    grid = multi.grid
    pairs = np.flatnonzero(grid.pair_heads == matches[0])
    group_ids = grid.pair_groups[pairs]
    slot, values = grid.slots(row[None])
    votes = grid.tables[grid.pair_offsets[pairs] + slot[0, group_ids]]
    return _attribution(
        multi.groups, grid, group_ids, slot[0], values[0], votes, names
    )


def _attribution(
    groups, grid, group_ids, slot, values, votes, names
) -> MarginAttribution:
    """Fold ``votes`` (one per group in ``group_ids``, fold order) into a
    :class:`MarginAttribution` with each vote's evidence.

    ``slot`` and ``values`` are the row's per-group slots and values on
    ``grid``; a continuous group's slot is its thresholds-crossed count,
    a categorical group's is below its size only on a match.
    """
    # The last threshold crossed (read only for a present continuous
    # value with s > 0); the clip keeps missing-value slots in bounds.
    last_key = grid.keys[
        group_ids, np.clip(slot[group_ids] - 1, 0, grid.keys.shape[1] - 1)
    ]
    margin = 0.0
    contributions: list[FeatureContribution] = []
    for g, size, s, value, vote, last in zip(
        group_ids.tolist(), grid.sizes[group_ids].tolist(),
        slot[group_ids].tolist(), values[group_ids].tolist(),
        votes.tolist(), last_key.tolist(),
    ):
        group = groups[g]
        missing = s == size + 1
        if missing:
            crossed, threshold = 0, float("nan")
        elif group.categorical:
            crossed = int(s < size)
            threshold = value if crossed else float("nan")
        else:
            crossed, threshold = s, last if s else float("nan")
        margin += vote
        contributions.append(
            FeatureContribution(
                feature=group.feature,
                name=_name_of(names, group.feature),
                categorical=group.categorical,
                value=value,
                missing=missing,
                contribution=vote,
                thresholds_crossed=crossed,
                n_thresholds=size,
                threshold=threshold,
            )
        )
    return MarginAttribution(margin=margin, contributions=tuple(contributions))


def assemble_model_row(base_row: np.ndarray, recipes) -> np.ndarray:
    """One line's model-input row from its base-feature row.

    Applies the predictor's derived-column recipes exactly like the
    serving path's lazy column provider (base value, base value squared,
    pairwise product), so the assembled doubles -- and therefore the
    attribution margin -- match the served scoring run bit-for-bit.
    """
    base_row = np.asarray(base_row, dtype=float)
    parts = [base_row[np.asarray(recipes.base_indices, dtype=np.intp)]]
    if recipes.quad_indices:
        parts.append(base_row[np.asarray(recipes.quad_indices, dtype=np.intp)] ** 2)
    if recipes.product_pairs:
        parts.append(
            np.array(
                [base_row[i] * base_row[j] for i, j in recipes.product_pairs]
            )
        )
    return np.concatenate(parts)
