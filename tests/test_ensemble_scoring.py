"""Equivalence tests for the compiled ensemble scorer.

The contract: ``CompiledEnsemble.decision_function`` is *bit-identical*
(``np.array_equal``, no tolerance) to summing ``Stump.predict`` outputs
grouped by (feature, kind) in the compiled fold order
(:func:`naive_grouped_margin`), and agrees with the historical
round-interleaved sum (``BStump.decision_function_naive``) to within
float-addition reordering.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.explain.attribution import (
    FeatureContribution,
    MarginAttribution,
    attribute_ensemble,
    attribute_head,
)
from repro.ml.boostexter import BStump, BStumpConfig
from repro.ml.ensemble_scoring import (
    SMALL_BATCH_ROWS,
    CompiledEnsemble,
    compile_multihead,
    compile_stumps,
    naive_grouped_margin,
)
from repro.ml.serialize import bstump_from_dict, bstump_to_dict
from repro.ml.stumps import Stump


def _random_stumps(rng, n_stumps, n_features, categorical_frac=0.3):
    stumps = []
    for _ in range(n_stumps):
        feature = int(rng.integers(n_features))
        if rng.random() < categorical_frac:
            stumps.append(
                Stump(
                    feature=feature,
                    threshold=float(rng.integers(0, 5)),
                    s_lo=float(rng.normal()),
                    s_hi=float(rng.normal()),
                    s_miss=float(rng.normal()),
                    categorical=True,
                    z=1.0,
                )
            )
        else:
            threshold = float(rng.normal())
            if rng.random() < 0.05:
                threshold = float(rng.choice([-np.inf, np.inf]))
            stumps.append(
                Stump(
                    feature=feature,
                    threshold=threshold,
                    s_lo=float(rng.normal()),
                    s_hi=float(rng.normal()),
                    s_miss=float(rng.normal()),
                    categorical=False,
                    z=1.0,
                )
            )
    return stumps


def _random_matrix(rng, n, n_features, nan_frac):
    X = rng.normal(size=(n, n_features))
    X[rng.random((n, n_features)) < nan_frac] = np.nan
    # Sprinkle categorical-looking codes so equality matches happen.
    codes = rng.integers(0, 5, size=(n, n_features)).astype(float)
    use_codes = rng.random((n, n_features)) < 0.5
    X[use_codes] = codes[use_codes]
    return X


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("nan_frac", [0.0, 0.3, 0.8])
def test_compiled_bit_identical_to_grouped_naive(seed, nan_frac):
    rng = np.random.default_rng(seed)
    n_features = 7
    stumps = _random_stumps(rng, 40, n_features)
    X = _random_matrix(rng, 300, n_features, nan_frac)
    compiled = compile_stumps(stumps, n_features)
    expected = naive_grouped_margin(stumps, X, n_features)
    got = compiled.decision_function(X)
    assert np.array_equal(got, expected)


def test_compiled_matches_round_order_within_ulps():
    rng = np.random.default_rng(11)
    n_features = 6
    stumps = _random_stumps(rng, 60, n_features)
    X = _random_matrix(rng, 500, n_features, 0.25)
    compiled = compile_stumps(stumps, n_features)
    naive = np.zeros(X.shape[0])
    for stump in stumps:
        naive += stump.predict(X)
    got = compiled.decision_function(X)
    np.testing.assert_allclose(got, naive, rtol=1e-12, atol=1e-12)


def test_infinite_thresholds_and_all_nan_rows():
    stumps = [
        Stump(feature=0, threshold=-np.inf, s_lo=1.0, s_hi=2.0, s_miss=-3.0,
              categorical=False, z=1.0),
        Stump(feature=0, threshold=np.inf, s_lo=5.0, s_hi=7.0, s_miss=0.5,
              categorical=False, z=1.0),
    ]
    compiled = compile_stumps(stumps, 1)
    X = np.array([[-1e300], [0.0], [1e300], [np.inf], [-np.inf], [np.nan]])
    got = compiled.decision_function(X)
    # Finite values: >= -inf fires high (2), < inf fires low (5).
    assert got[0] == got[1] == got[2] == 2.0 + 5.0
    # v = inf fires both high; v = -inf fires high on the -inf stump only.
    assert got[3] == 2.0 + 7.0
    assert got[4] == 2.0 + 5.0
    assert got[5] == -3.0 + 0.5


def test_abstain_policy_missing_contribution_is_zero():
    rng = np.random.default_rng(3)
    X = _random_matrix(rng, 200, 4, 0.5)
    y = (np.nansum(X, axis=1) > 0).astype(float)
    model = BStump(
        BStumpConfig(n_rounds=25, calibrate=False, missing_policy="abstain")
    ).fit(X, y)
    assert all(learner.stump.s_miss == 0.0 for learner in model.learners)
    expected = naive_grouped_margin(
        [learner.stump for learner in model.learners], X, 4
    )
    assert np.array_equal(model.decision_function(X), expected)
    all_nan = np.full((3, 4), np.nan)
    assert np.array_equal(model.decision_function(all_nan), np.zeros(3))


def test_fitted_model_routes_through_compiled_scorer():
    rng = np.random.default_rng(5)
    X = _random_matrix(rng, 400, 8, 0.2)
    y = (np.nansum(X, axis=1) > 0).astype(float)
    cat = np.zeros(8, dtype=bool)
    cat[2] = True
    model = BStump(BStumpConfig(n_rounds=60)).fit(X, y, categorical=cat)
    compiled = model.compiled()
    assert isinstance(compiled, CompiledEnsemble)
    assert model.compiled() is compiled  # cached
    assert compiled.n_used_features <= 8
    X_test = _random_matrix(rng, 150, 8, 0.4)
    stumps = [learner.stump for learner in model.learners]
    assert np.array_equal(
        model.decision_function(X_test), naive_grouped_margin(stumps, X_test, 8)
    )
    np.testing.assert_allclose(
        model.decision_function(X_test),
        model.decision_function_naive(X_test),
        rtol=1e-12,
        atol=1e-12,
    )
    # predict_proba rides the same margin.
    probs = model.predict_proba(X_test)
    assert probs.shape == (150,)
    assert np.all((probs >= 0) & (probs <= 1))


def test_single_feature_model_bit_identical_to_round_order():
    # With one used feature there is a single group, so the compiled fold
    # order equals round order and even the historical scorer matches
    # bit for bit.  This is what selection relies on.
    rng = np.random.default_rng(7)
    X = rng.normal(size=(300, 1))
    X[rng.random(300) < 0.3, 0] = np.nan
    y = (np.where(np.isnan(X[:, 0]), 0.0, X[:, 0]) > 0).astype(float)
    model = BStump(BStumpConfig(n_rounds=6, calibrate=False)).fit(X, y)
    assert np.array_equal(
        model.decision_function(X), model.decision_function_naive(X)
    )


def test_serialized_roundtrip_scores_identically(tmp_path):
    rng = np.random.default_rng(9)
    X = _random_matrix(rng, 300, 5, 0.2)
    y = (np.nansum(X, axis=1) > 0).astype(float)
    model = BStump(BStumpConfig(n_rounds=30)).fit(X, y)
    clone = bstump_from_dict(bstump_to_dict(model))
    X_test = _random_matrix(rng, 100, 5, 0.3)
    assert np.array_equal(
        clone.decision_function(X_test), model.decision_function(X_test)
    )


def test_compile_rejects_bad_inputs():
    with pytest.raises(ValueError):
        compile_stumps([], 0)
    stump = Stump(feature=3, threshold=0.0, s_lo=0.0, s_hi=1.0, s_miss=0.0,
                  categorical=False, z=1.0)
    with pytest.raises(ValueError):
        compile_stumps([stump], 2)
    compiled = compile_stumps([stump], 4)
    with pytest.raises(ValueError):
        compiled.decision_function(np.zeros((5, 3)))


def test_empty_ensemble_scores_zero():
    compiled = compile_stumps([], 3)
    assert compiled.n_used_features == 0
    assert np.array_equal(
        compiled.decision_function(np.full((4, 3), np.nan)), np.zeros(4)
    )


def test_duplicate_thresholds_fold_in_round_order():
    # Two stumps sharing a threshold on the same feature: the stable sort
    # must preserve round order inside the tied bucket totals.
    stumps = [
        Stump(feature=1, threshold=0.5, s_lo=0.1, s_hi=-0.2, s_miss=0.0,
              categorical=False, z=1.0),
        Stump(feature=1, threshold=0.5, s_lo=-0.3, s_hi=0.4, s_miss=0.0,
              categorical=False, z=1.0),
        Stump(feature=1, threshold=-0.5, s_lo=0.7, s_hi=0.2, s_miss=1.0,
              categorical=False, z=1.0),
    ]
    X = np.array([[0.0, v] for v in (-1.0, -0.5, 0.0, 0.5, 1.0, np.nan)])
    compiled = compile_stumps(stumps, 2)
    assert np.array_equal(
        compiled.decision_function(X), naive_grouped_margin(stumps, X, 2)
    )


# ----- small-batch slot grid vs the per-group loop -------------------------


def _bits(a) -> np.ndarray:
    """The raw IEEE-754 bit patterns, so -0.0 != 0.0 and NaN == NaN."""
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _edge_heads(rng, n_features=5, n_heads=6):
    """Heads over shared columns, with gaps; feature 1 is categorical.

    Continuous thresholds are drawn from a small set (plus +-inf) so the
    edge rows can sit exactly on them, and the heads' key counts differ,
    so the merged grid is padded for most groups.
    """
    heads = {}
    for col in range(0, n_heads, 2):
        stumps = []
        for _ in range(int(rng.integers(4, 14))):
            feature = int(rng.integers(n_features))
            categorical = feature == 1
            if categorical:
                threshold = float(rng.integers(0, 4))
            else:
                threshold = float(rng.choice(
                    [-1.0, -0.25, 0.0, 0.5, 2.0, -np.inf, np.inf]
                ))
            stumps.append(Stump(
                feature=feature, threshold=threshold, categorical=categorical,
                s_lo=float(rng.normal()), s_hi=float(rng.normal()),
                s_miss=float(rng.normal()), z=1.0,
            ))
        heads[col] = compile_stumps(stumps, n_features)
    return heads


def _edge_rows(rng, n, n_features=5):
    """Rows mixing NaN, +-inf, -0.0, on-threshold values and category
    codes that match (0..3), miss (7, -1) or are +inf."""
    pool = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, -1.0, -0.25, 0.5,
                     2.0, 0.3, -5.0, 9.0])
    X = rng.choice(pool, size=(n, n_features))
    X[:, 1] = rng.choice(
        np.array([0.0, 1.0, 2.0, 3.0, 7.0, -1.0, np.inf, -np.inf, np.nan]),
        size=n,
    )
    return X


@pytest.fixture(scope="module")
def edge_case():
    rng = np.random.default_rng(20100808)
    heads = _edge_heads(rng)
    multi = compile_multihead(heads, n_heads=6, n_features=5)
    return heads, multi, _edge_rows(rng, 4 * SMALL_BATCH_ROWS)


def test_grid_matrix_bit_identical_to_loop_at_every_small_n(edge_case):
    heads, multi, X = edge_case
    filler = X[: SMALL_BATCH_ROWS + 1]
    for n in range(1, SMALL_BATCH_ROWS + 2):
        small = multi.decision_matrix(X[:n])
        # Stacked past the cutoff, the same rows take the per-group loop.
        looped = multi.decision_matrix(np.vstack([X[:n], filler]))[:n]
        assert np.array_equal(_bits(small), _bits(looped)), n
        for col, head in heads.items():
            assert np.array_equal(
                _bits(small[:, col]), _bits(head.decision_function(X[:n]))
            ), (n, col)


def test_grid_matrix_respects_out_columns(edge_case):
    _, multi, X = edge_case
    out = np.full((3, 6), 7.5)
    assert multi.decision_matrix(X[:3], out=out) is out
    assert np.all(out[:, 1::2] == 7.5)


def test_grid_slots_stay_in_range(edge_case):
    _, multi, X = edge_case
    grid = multi.grid
    slot, values = grid.slots(X)
    missing = np.isnan(values)
    assert np.array_equal(slot[missing], np.broadcast_to(
        grid.sizes + 1, slot.shape)[missing])
    assert np.all(slot[~missing] <= np.broadcast_to(
        grid.sizes, slot.shape)[~missing])
    # +inf sits past every finite key -- bucket ``size``, never beyond --
    # and matches no category code: the NaN padding never compares true.
    inf = np.full((1, 5), np.inf)
    slot, _ = grid.slots(inf)
    assert np.array_equal(slot[0], grid.sizes)


def test_attribution_folds_match_both_paths(edge_case):
    heads, multi, X = edge_case
    n = SMALL_BATCH_ROWS + 1
    looped = multi.decision_matrix(X[:n])
    for i in range(n):
        row = X[i]
        single = multi.decision_matrix(row[None])[0]
        for col, head in heads.items():
            solo = attribute_ensemble(head, row)
            assert _bits(solo.margin) == _bits(head.decision_function(row[None])[0])
            assert _bits(solo.reconstructed()) == _bits(solo.margin)
            stacked = attribute_head(multi, row, col)
            assert _bits(stacked.margin) == _bits(single[col])
            assert _bits(stacked.margin) == _bits(looped[i, col])
            assert [c.contribution for c in stacked.contributions] == [
                c.contribution for c in solo.contributions
            ]


def test_attribution_evidence_on_edge_values():
    stumps = [
        Stump(feature=0, threshold=0.5, s_lo=1.0, s_hi=2.0, s_miss=-3.0,
              categorical=False, z=1.0),
        Stump(feature=0, threshold=2.0, s_lo=0.25, s_hi=0.5, s_miss=0.0,
              categorical=False, z=1.0),
        Stump(feature=1, threshold=3.0, s_lo=-1.0, s_hi=4.0, s_miss=0.5,
              categorical=True, z=1.0),
    ]
    compiled = compile_stumps(stumps, 2)
    on = attribute_ensemble(compiled, np.array([2.0, 3.0])).contributions
    assert (on[0].thresholds_crossed, on[0].threshold) == (2, 2.0)
    assert (on[1].thresholds_crossed, on[1].threshold) == (1, 3.0)
    inf = attribute_ensemble(compiled, np.array([np.inf, np.inf])).contributions
    assert inf[0].thresholds_crossed == 2 and inf[1].thresholds_crossed == 0
    assert np.isnan(inf[1].threshold)
    nan = attribute_ensemble(compiled, np.array([np.nan, np.nan])).contributions
    assert all(c.missing and c.thresholds_crossed == 0 for c in nan)
    assert [c.contribution for c in nan] == [-3.0, 0.5]
    empty = attribute_ensemble(compile_stumps([], 2), np.zeros(2))
    assert empty.margin == 0.0 and empty.contributions == ()


def test_top_k_equals_ranked_prefix_with_ties():
    votes = [0.5, -2.0, 2.0, 0.0, -0.5, 1.0, 2.0]
    attribution = MarginAttribution(
        margin=sum(votes),
        contributions=tuple(
            FeatureContribution(
                feature=i, name=None, categorical=False, value=0.0,
                missing=False, contribution=v, thresholds_crossed=0,
                n_thresholds=1, threshold=float("nan"),
            )
            for i, v in enumerate(votes)
        ),
    )
    ranked = attribution.ranked()
    for k in range(1, len(votes) + 2):
        assert attribution.top(k) == ranked[:k]
    assert [c.feature for c in attribution.top(3)] == [1, 2, 6]
    with pytest.raises(ValueError):
        attribution.top(0)


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the dev deps
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_stumps=st.integers(1, 50),
        n_features=st.integers(1, 6),
        nan_frac=st.floats(0.0, 0.9),
    )
    def test_property_compiled_equals_grouped_naive(
        seed, n_stumps, n_features, nan_frac
    ):
        rng = np.random.default_rng(seed)
        stumps = _random_stumps(rng, n_stumps, n_features)
        X = _random_matrix(rng, 64, n_features, nan_frac)
        compiled = compile_stumps(stumps, n_features)
        assert np.array_equal(
            compiled.decision_function(X),
            naive_grouped_margin(stumps, X, n_features),
        )
