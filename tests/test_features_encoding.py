"""Unit tests for the Table-3 feature encoding (repro.features.encoding)."""

import warnings

import numpy as np
import pytest

from repro.features.encoding import (
    EncoderConfig,
    FeatureSet,
    LineFeatureEncoder,
    _nan_moments,
)
from repro.measurement.records import FEATURE_NAMES, MeasurementStore, feature_index
from repro.netsim.population import PopulationConfig, build_population


@pytest.fixture(scope="module")
def encoded(small_result_module):
    encoder = LineFeatureEncoder()
    week = 12
    return encoder.encode(
        small_result_module.measurements, week, small_result_module.population,
        small_result_module.ticket_log,
    )


@pytest.fixture(scope="module")
def small_result_module(request):
    return request.getfixturevalue("small_result")


class TestBaseEncoding:
    def test_family_layout(self, encoded):
        groups = encoded.groups
        assert groups.count("basic") == 25
        assert groups.count("delta") == 25
        assert groups.count("timeseries") == 25
        assert groups.count("profile") == 6
        assert groups.count("ticket") == 1
        assert groups.count("modem") == 1
        assert encoded.n_features == 83

    def test_base_count_helper(self):
        assert LineFeatureEncoder().base_feature_count() == 83

    def test_basic_block_matches_store(self, encoded, small_result_module):
        week_matrix = small_result_module.measurements.week_matrix(12)
        basic = encoded.matrix[:, :25]
        assert np.allclose(basic, week_matrix, equal_nan=True, atol=1e-5)

    def test_delta_block_is_difference(self, encoded, small_result_module):
        store = small_result_module.measurements
        expected = np.asarray(store.week_matrix(12), float) - np.asarray(
            store.week_matrix(11), float
        )
        delta = encoded.matrix[:, 25:50]
        assert np.allclose(delta, expected, equal_nan=True, atol=1e-4)

    def test_timeseries_standardised(self, encoded):
        ts = encoded.matrix[:, 50:75]
        finite = ts[np.isfinite(ts)]
        # Standardised deviations concentrate near zero.
        assert np.abs(np.median(finite)) < 1.0
        assert np.percentile(np.abs(finite), 90) < 6.0

    def test_profile_features_near_one_for_healthy(self, encoded):
        names = encoded.names
        col = encoded.matrix[:, names.index("profile:dnbr")]
        finite = col[np.isfinite(col)]
        # Most lines sync at their profile rate => ratio ~1.
        assert 0.7 < np.median(finite) <= 1.05

    def test_ticket_feature_capped(self, encoded):
        col = encoded.column("ticket:days_since_last")
        assert np.all(col > 0)
        assert np.max(col) == 365.0

    def test_modem_feature_fraction(self, encoded):
        col = encoded.column("modem:off_fraction")
        assert np.all((col >= 0) & (col <= 1))

    def test_categorical_mask(self, encoded):
        for name, flag in zip(encoded.names, encoded.categorical):
            if flag:
                assert name in ("basic:state", "basic:bt", "basic:crosstalk")


class TestDerived:
    def test_quadratic_columns(self, small_result_module):
        encoder = LineFeatureEncoder(EncoderConfig(include_quadratic=True))
        fs = encoder.encode(
            small_result_module.measurements, 12,
            small_result_module.population, small_result_module.ticket_log,
        )
        assert fs.groups.count("quadratic") == 83
        quad = fs.matrix[:, 83:166]
        base = fs.matrix[:, :83]
        assert np.allclose(quad, base**2, equal_nan=True)

    def test_product_pairs(self, small_result_module):
        encoder = LineFeatureEncoder(EncoderConfig(include_products=True))
        pairs = [(0, 1), (5, 7)]
        fs = encoder.encode(
            small_result_module.measurements, 12,
            small_result_module.population, small_result_module.ticket_log,
            product_pairs=pairs,
        )
        assert fs.groups.count("product") == 2
        prod = fs.matrix[:, -2:]
        base = fs.matrix[:, :83]
        assert np.allclose(prod[:, 0], base[:, 0] * base[:, 1], equal_nan=True)
        assert np.allclose(prod[:, 1], base[:, 5] * base[:, 7], equal_nan=True)

    def test_bad_product_pair_rejected(self, small_result_module):
        encoder = LineFeatureEncoder(EncoderConfig(include_products=True))
        with pytest.raises(IndexError):
            encoder.encode(
                small_result_module.measurements, 12,
                small_result_module.population, small_result_module.ticket_log,
                product_pairs=[(0, 999)],
            )


class TestEdgeCases:
    def test_unrecorded_week_rejected(self, small_result_module):
        encoder = LineFeatureEncoder()
        with pytest.raises(ValueError):
            encoder.encode(
                small_result_module.measurements, 999,
                small_result_module.population,
            )

    def test_week_zero_has_nan_delta(self, small_result_module):
        encoder = LineFeatureEncoder()
        fs = encoder.encode(
            small_result_module.measurements, 0,
            small_result_module.population,
        )
        delta = fs.matrix[:, 25:50]
        assert np.all(np.isnan(delta))

    def test_no_ticket_log_defaults(self, small_result_module):
        encoder = LineFeatureEncoder()
        fs = encoder.encode(
            small_result_module.measurements, 12,
            small_result_module.population, ticket_log=None,
        )
        assert np.all(fs.column("ticket:days_since_last") == 365.0)

    def test_min_history_records_gate(self, small_result_module):
        encoder = LineFeatureEncoder(EncoderConfig(min_history_records=999))
        fs = encoder.encode(
            small_result_module.measurements, 12,
            small_result_module.population,
        )
        assert np.all(np.isnan(fs.matrix[:, 50:75]))


def _reference_timeseries(store, week, current, cfg):
    """The time-series block from ``np.nanmean`` / ``np.nanstd``."""
    history = store.filled_weeks
    history = history[(history < week) & (history >= week - cfg.history_weeks)]
    series = np.asarray(store.data[:, history, :], dtype=float)
    counts = np.sum(~np.isnan(series), axis=1)
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", category=RuntimeWarning)
        mean = np.nanmean(series, axis=1)
        std = np.nanstd(series, axis=1)
        std = np.where(std > 1e-9, std, np.nan)
        deviation = (current - mean) / std
    deviation[~(counts >= cfg.min_history_records)] = np.nan
    return deviation


def _awkward_store(n_lines=40, n_weeks=8, seed=0):
    """Weeks 0..7 with every corner the time-series statistics meet."""
    rng = np.random.default_rng(seed)
    store = MeasurementStore(n_lines=n_lines, n_weeks=n_weeks)
    data = rng.normal(50.0, 20.0, size=(n_lines, n_weeks, len(FEATURE_NAMES)))
    data[rng.random(data.shape) < 0.2] = np.nan    # scattered modem-off
    data[5, :-1, :] = np.nan                       # no history at all
    data[6, :-1, :] = np.nan                       # a single record ...
    data[6, 3, :] = 7.0
    data[7, :-1, :] = np.nan                       # ... and two
    data[7, 1:3, :] = rng.normal(size=(2, len(FEATURE_NAMES)))
    data[8, :, :] = 12.5                           # zero variance
    data[9, 2, :] = np.inf
    data[10, 4, :] = -np.inf
    data[11, 1, :], data[11, 5, :] = np.inf, -np.inf
    data[12, -1, :] = np.inf                       # inf in the current week
    data[:, :, 4] = np.nan                         # an all-missing column
    for week in range(n_weeks):
        store.add_week(week, 7 * week + 5, data[:, week, :])
    return store


class TestTimeseriesParity:
    """The one-pass statistics against ``np.nanmean`` / ``np.nanstd``."""

    @pytest.mark.parametrize("cfg", [
        EncoderConfig(),
        EncoderConfig(min_history_records=0),
        EncoderConfig(min_history_records=1),
        EncoderConfig(history_weeks=3),
        EncoderConfig(history_weeks=1, min_history_records=1),
    ])
    @pytest.mark.parametrize("week", [1, 4, 7])
    def test_bit_identical_to_nan_functions(self, cfg, week):
        store = _awkward_store()
        before = store.data.copy()
        population = build_population(PopulationConfig(n_lines=store.n_lines))
        fs = LineFeatureEncoder(cfg).encode(store, week, population)
        current = np.asarray(store.week_matrix(week), dtype=float)
        expected = _reference_timeseries(store, week, current, cfg)
        got = np.ascontiguousarray(fs.matrix[:, 50:75])
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        # The block works on a private copy: the store is never written.
        assert np.array_equal(store.data.view(np.uint32), before.view(np.uint32))

    def test_moments_match_numpy_bit_for_bit(self):
        store = _awkward_store()
        series = np.asarray(store.data[:, :7, :], dtype=float)
        with np.errstate(invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", category=RuntimeWarning)
            mean = np.nanmean(series, axis=1)
            std = np.nanstd(series, axis=1)
        got_mean, got_std, counts = _nan_moments(series.copy())
        assert np.array_equal(counts, np.sum(~np.isnan(series), axis=1))
        for got, want in ((got_mean, mean), (got_std, std)):
            got = np.ascontiguousarray(got)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_corners_are_reached(self):
        store = _awkward_store()
        current = np.asarray(store.week_matrix(7), dtype=float)
        dev = _reference_timeseries(store, 7, current, EncoderConfig(min_history_records=1))
        assert np.isnan(dev[5]).all() and np.isnan(dev[8]).all()
        assert np.isfinite(dev[6]).sum() == 0     # single record: zero spread
        assert np.isnan(dev[:, 4]).all()
        assert np.isfinite(dev).any()

    def test_lines_without_history_raise_no_warning(self):
        store = MeasurementStore(n_lines=30, n_weeks=4)
        rows = np.full((30, len(FEATURE_NAMES)), np.nan)
        for week in range(3):
            store.add_week(week, 7 * week + 5, rows)   # modem off throughout
        store.add_week(3, 26, np.ones((30, len(FEATURE_NAMES))))
        population = build_population(PopulationConfig(n_lines=30))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fs = LineFeatureEncoder(EncoderConfig(min_history_records=0)).encode(
                store, 3, population
            )
        assert np.isnan(fs.matrix[:, 50:75]).all()


class TestFeatureSet:
    def make(self):
        return FeatureSet(
            matrix=np.arange(12, dtype=float).reshape(3, 4),
            names=["a", "b", "c", "d"],
            groups=["basic"] * 4,
            categorical=np.array([False, True, False, False]),
        )

    def test_column_lookup(self):
        fs = self.make()
        assert np.array_equal(fs.column("b"), np.array([1.0, 5.0, 9.0]))
        with pytest.raises(KeyError):
            fs.column("zzz")

    def test_subset(self):
        fs = self.make().subset([1, 3])
        assert fs.names == ["b", "d"]
        assert fs.matrix.shape == (3, 2)
        assert fs.categorical[0]

    def test_hstack(self):
        fs = self.make()
        combined = fs.hstack(fs)
        assert combined.n_features == 8

    def test_hstack_rejects_mismatched_rows(self):
        fs = self.make()
        other = FeatureSet(
            matrix=np.zeros((2, 1)), names=["x"], groups=["basic"],
            categorical=np.array([False]),
        )
        with pytest.raises(ValueError):
            fs.hstack(other)
