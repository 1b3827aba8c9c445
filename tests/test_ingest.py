import hashlib
import re
import time
from bisect import bisect_left, insort
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockhawkes import (
    JumpConfig,
    build_trivariate,
    clean_blocks,
    extract_jumps,
    log_returns,
    read_events_csv,
)
from blockhawkes.errors import ConfigError, InvalidInputError, ParseError
from blockhawkes import events, ingest
from blockhawkes.events import EPOCH, EVENTS_CSV_DTYPE, read_csv
from blockhawkes.events import _table as table_of_rows
from blockhawkes.ingest import (
    BLOCKS_CSV_DTYPE,
    PRICE_CSV_DTYPE,
    RETURNS_DTYPE,
    _weibull_rows,
    read_blocks_csv,
    read_price_csv,
    timestamp_us,
    write_blocks_csv,
)

import row_reader_oracle
from conftest import messy_block_fixture, table

UTC = timezone.utc
T0 = datetime(2022, 2, 1, 0, 0, 0, tzinfo=UTC)
US = timedelta(microseconds=1)


def us(*times):
    """UTC microseconds of datetimes, the ingest arrays' time unit."""
    return [(t - EPOCH) // US for t in times]


def bars_from_prices(prices, step_minutes=5, start=T0):
    return table(PRICE_CSV_DTYPE, [
        (start + timedelta(minutes=step_minutes * k), float(p))
        for k, p in enumerate(prices)
    ])


class TestTimestampParsing:
    def test_iso_and_unix_agree(self):
        iso = timestamp_us("2022-01-20 09:26:01")
        unix = timestamp_us(str(iso // 1_000_000))
        assert iso == unix
        assert iso == us(datetime(2022, 1, 20, 9, 26, 1, tzinfo=UTC))[0]

    def test_z_suffix(self):
        assert timestamp_us("2022-01-20T09:26:01Z") == timestamp_us("2022-01-20 09:26:01")

    def test_garbage_rejected(self):
        with pytest.raises(InvalidInputError):
            timestamp_us("yesterday")

    @pytest.mark.parametrize("text", ["2022-01-01T00:10:00Z\0+05:00", "2022-01-01T00:10:00Z\0",
                                      "2022-01-01T00:10:00\0", "1640995800\0"])
    def test_nul_rejected(self, text):
        # fromisoformat stops at a NUL, which would drop the offset after it.
        with pytest.raises(InvalidInputError, match="^unparseable timestamp"):
            timestamp_us(text)

    def test_out_of_range_unix_seconds_rejected(self):
        with pytest.raises(InvalidInputError):
            timestamp_us("99999999999999999999")

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1642670761", datetime(2022, 1, 20, 9, 26, 1, tzinfo=UTC)),
            (" 1642670761 ", datetime(2022, 1, 20, 9, 26, 1, tzinfo=UTC)),
            ("-60", datetime(1969, 12, 31, 23, 59, tzinfo=UTC)),
            # Eight digits are Unix seconds, never a basic-format date.
            ("20220101", datetime(1970, 8, 23, 0, 41, 41, tzinfo=UTC)),
            ("2022-01-20T09:26:01Z", datetime(2022, 1, 20, 9, 26, 1, tzinfo=UTC)),
            ("2022-01-20T11:26:01+02:00", datetime(2022, 1, 20, 9, 26, 1, tzinfo=UTC)),
            ("2022-01-20 04:26:01-05:00", datetime(2022, 1, 20, 9, 26, 1, tzinfo=UTC)),
            ("2022-01-20 09:26:01", datetime(2022, 1, 20, 9, 26, 1, tzinfo=UTC)),
            ("2022-01-20T09:26:01.250000", datetime(2022, 1, 20, 9, 26, 1, 250000, tzinfo=UTC)),
            ("20220120T092601", datetime(2022, 1, 20, 9, 26, 1, tzinfo=UTC)),
            ("2022-01-20", datetime(2022, 1, 20, tzinfo=UTC)),
        ],
    )
    def test_formats(self, text, expected):
        parsed = timestamp_us(text)
        assert parsed == (expected - EPOCH) // US
        assert type(parsed) is int


def clean_blocks_loop_oracle(blocks):
    """The reference cleaning: the per-record loop over timestamp groups.

    Returns the surviving (height, timestamp, tx_count) rows in time order
    and the report as a dict.
    """
    records = blocks.tolist()

    def stamp(us):
        return (EPOCH + us * US).strftime("%Y-%m-%dT%H:%M:%SZ")

    report = {"duplicates_dropped": [], "reordered": [], "ties": []}
    groups = {}
    for k, (_, t, _) in enumerate(records):
        groups.setdefault(t, []).append(k)
    survivors = []
    for group in groups.values():
        best = group[0] if len(group) == 1 else min(
            group, key=lambda k: (-records[k][2], records[k][0]))
        survivors.append(best)
        kept = records[best]
        for height, t, txs in (records[k] for k in group if k != best):
            report["duplicates_dropped"].append({"height": height, "timestamp": stamp(t),
                                                 "tx_count": txs, "kept_height": kept[0]})
            if txs == kept[2]:
                report["ties"].append({"timestamp": stamp(t), "kept_height": kept[0],
                                       "dropped_height": height})
    survivors.sort()
    order = sorted(survivors, key=lambda k: records[k][1])
    new_rank = {k: rank for rank, k in enumerate(order)}
    for old_rank, k in enumerate(survivors):
        if new_rank[k] != old_rank:
            report["reordered"].append({"height": records[k][0],
                                        "timestamp": stamp(records[k][1]),
                                        "from_rank": old_rank, "to_rank": new_rank[k]})
    return [records[k] for k in order], report


# Few stamps and tx counts: repeated timestamps, tied counts and out-of-order
# rows in most draws; heights repeat and run in any order.
block_rows = st.lists(st.tuples(st.integers(0, 50), st.integers(0, 30), st.integers(0, 5)),
                      min_size=1, max_size=60)


class TestCleanBlocks:
    def test_duplicate_keeps_larger_tx_count(self):
        ts = datetime(2022, 1, 20, 9, 26, 1, tzinfo=UTC)
        records = table(BLOCKS_CSV_DTYPE, [
            (719598, ts - timedelta(minutes=9), 1500),
            (719599, ts, 2000),
            (719601, ts, 1200),
        ])
        cleaned, report = clean_blocks(records)
        assert cleaned["height"].tolist() == [719598, 719599]
        assert report.counts()["duplicates_dropped"] == 1
        assert report.duplicates_dropped[0]["height"] == 719601

    def test_tie_keeps_lower_height_and_logs(self):
        ts = datetime(2022, 1, 20, 9, 26, 1, tzinfo=UTC)
        records = table(BLOCKS_CSV_DTYPE, [(10, ts, 500), (9, ts, 500)])
        cleaned, report = clean_blocks(records)
        assert cleaned["height"].tolist() == [9]
        assert report.counts()["ties"] == 1
        assert report.ties[0]["kept_height"] == 9

    def test_clean_input_is_identity(self):
        records = table(BLOCKS_CSV_DTYPE, [
            (k, T0 + timedelta(minutes=k), 100 + k) for k in range(10)
        ])
        cleaned, report = clean_blocks(records)
        assert np.array_equal(cleaned, records)
        assert report.counts() == {"duplicates_dropped": 0, "reordered": 0, "ties": 0}

    def test_messy_fixture_counts(self):
        cleaned, report = clean_blocks(messy_block_fixture())
        assert report.counts()["duplicates_dropped"] == 2
        assert report.counts()["reordered"] == 14
        assert np.all(np.diff(cleaned["timestamp"]) > 0)
        assert len(cleaned) + report.counts()["duplicates_dropped"] == len(messy_block_fixture())

    def test_messy_fixture_report_pinned(self):
        # The exact report, entry order included: drops by group in order of
        # first appearance, reorders in input order.
        _, report = clean_blocks(messy_block_fixture())
        swaps = [(8, 9), (11, 12), (14, 15), (25, 26), (28, 29), (31, 32), (34, 35)]
        assert report.to_dict() == {
            "duplicates_dropped": [
                {"height": 719601, "timestamp": "2022-01-20T09:05:00Z", "tx_count": 985,
                 "kept_height": 719505},
                {"height": 719701, "timestamp": "2022-01-20T09:20:00Z", "tx_count": 1130,
                 "kept_height": 719520},
            ],
            "reordered": [
                {"height": 719500 + b, "timestamp": f"2022-01-20T09:{b:02d}:00Z",
                 "from_rank": a, "to_rank": b}
                for a, b in swaps for a, b in ((a, b), (b, a))
            ],
            "ties": [],
        }

    def test_record_passed_twice_dropped_once(self):
        # One row twice (a tie with itself), and an earlier-stamped tie
        # group that first appears later in the input.
        ts = datetime(2022, 1, 20, 9, 26, 1, tzinfo=UTC)
        same = (7, ts, 500)
        records = table(BLOCKS_CSV_DTYPE, [same, (5, ts - timedelta(minutes=1), 300), same,
                                           (4, ts - timedelta(minutes=1), 300)])
        cleaned, report = clean_blocks(records)
        assert np.array_equal(cleaned, records[[3, 0]])
        stamp, earlier = "2022-01-20T09:26:01Z", "2022-01-20T09:25:01Z"
        assert report.to_dict() == {
            "duplicates_dropped": [
                {"height": 7, "timestamp": stamp, "tx_count": 500, "kept_height": 7},
                {"height": 5, "timestamp": earlier, "tx_count": 300, "kept_height": 4},
            ],
            "reordered": [
                {"height": 7, "timestamp": stamp, "from_rank": 0, "to_rank": 1},
                {"height": 4, "timestamp": earlier, "from_rank": 1, "to_rank": 0},
            ],
            "ties": [
                {"timestamp": stamp, "kept_height": 7, "dropped_height": 7},
                {"timestamp": earlier, "kept_height": 4, "dropped_height": 5},
            ],
        }
        assert report.counts() == {"duplicates_dropped": 2, "reordered": 2, "ties": 2}

    def test_idempotent(self):
        cleaned, _ = clean_blocks(messy_block_fixture())
        again, report = clean_blocks(cleaned)
        assert np.array_equal(again, cleaned)
        assert report.counts() == {"duplicates_dropped": 0, "reordered": 0, "ties": 0}

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidInputError):
            clean_blocks(table(BLOCKS_CSV_DTYPE, []))

    @settings(max_examples=200, deadline=None)
    @given(block_rows)
    def test_random_inputs_clean_to_fixed_point(self, raw):
        records = table(BLOCKS_CSV_DTYPE, [
            (height, T0 + timedelta(seconds=offset), txs) for height, offset, txs in raw
        ])
        cleaned, report = clean_blocks(records)
        assert np.all(np.diff(cleaned["timestamp"]) > 0)
        assert len(cleaned) + len(report.duplicates_dropped) == len(records)
        again, empty_report = clean_blocks(cleaned)
        assert np.array_equal(again, cleaned)
        assert empty_report.counts() == {"duplicates_dropped": 0, "reordered": 0, "ties": 0}

    @settings(max_examples=200, deadline=None)
    @given(block_rows)
    def test_matches_record_loop(self, raw):
        records = table(BLOCKS_CSV_DTYPE, [
            (height, T0 + timedelta(seconds=offset), txs) for height, offset, txs in raw
        ])
        cleaned, report = clean_blocks(records)
        rows, expected = clean_blocks_loop_oracle(records)
        assert cleaned.tolist() == rows
        assert report.to_dict() == expected


class TestLogReturns:
    def test_constant_prices_give_zero(self):
        returns, gaps = log_returns(bars_from_prices([100.0] * 6))
        assert np.all(returns["log_return"] == 0.0)
        assert gaps == []

    def test_exact_log_ratio(self):
        returns, _ = log_returns(bars_from_prices([100.0, 100.0 * np.e]))
        np.testing.assert_allclose(returns["log_return"][0], 1.0, rtol=1e-15)

    def test_gap_flagged_once(self):
        bars = bars_from_prices([100, 101, 102, 103, 104, 105])
        bars = np.delete(bars, 3)  # hole in the grid
        returns, gaps = log_returns(bars)
        assert len(returns) == 4  # 6 grid slots -> 4 returns with one missing bar
        assert len(gaps) == 1
        assert gaps[0]["missing_bars"] == 1

    def test_needs_two_bars(self):
        with pytest.raises(InvalidInputError):
            log_returns(bars_from_prices([100.0]))

    def test_positive_vwap_enforced_at_construction(self):
        with pytest.raises(InvalidInputError):
            log_returns(bars_from_prices([100.0, 0.0]))

    @pytest.mark.parametrize("vwap", [float("nan"), float("inf")])
    def test_non_finite_vwap_rejected_at_construction(self, vwap):
        with pytest.raises(InvalidInputError):
            log_returns(bars_from_prices([100.0, vwap]))

    @settings(max_examples=40, deadline=None)
    @given(
        scale=st.floats(min_value=1e-3, max_value=1e3),
        seed=st.integers(0, 2**31),
    )
    def test_scale_invariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 8)))
        base, _ = log_returns(bars_from_prices(prices))
        scaled, _ = log_returns(bars_from_prices(prices * scale))
        np.testing.assert_allclose(
            scaled["log_return"], base["log_return"], rtol=0, atol=1e-10
        )


def quantile_loop_oracle(returns, config):
    """The reference extraction: a fresh ``np.quantile`` of the sliced history per return."""
    stamps = returns["timestamp"].tolist()
    dates = [EPOCH + t * US for t in stamps]
    seconds = np.array([(t - dates[0]).total_seconds() for t in dates])
    values = returns["log_return"]
    window = config.window_hours * 3600.0
    up, down = [], []
    start = 0
    for k in range(len(returns)):
        while seconds[start] < seconds[k] - window:
            start += 1
        history = values[start:k]
        if history.size < config.min_history:
            continue
        lo, hi = np.quantile(history, [config.q_low, config.q_high], method="weibull")
        if values[k] > hi:
            up.append(stamps[k])
        elif values[k] < lo:
            down.append(stamps[k])
    return np.array(up, dtype=np.int64), np.array(down, dtype=np.int64)


def sorted_window_oracle(returns, config):
    """The former extraction: one sorted history list that slides with the returns.

    Values leaving the window are bisect-deleted and the current return is
    insorted after it is judged; the quantiles are read from the list with
    the scalar form of the Weibull arithmetic.
    """
    def weibull(ordered, q):
        n = len(ordered)
        virtual = n * q + q - 1
        if virtual < 0:
            return ordered[0]
        if virtual >= n - 1:
            return ordered[-1]
        below = int(virtual)
        g = virtual - below
        a, b = ordered[below], ordered[below + 1]
        d = b - a
        return a + d * g if g < 0.5 else b - d * (1 - g)

    stamps = returns["timestamp"]
    values = returns["log_return"].tolist()
    seconds = ((stamps - stamps[:1]) / 1e6).tolist()
    window = config.window_hours * 3600.0
    up, down = [], []
    history = []
    start = 0
    for k, value in enumerate(values):
        while seconds[start] < seconds[k] - window:
            del history[bisect_left(history, values[start])]
            start += 1
        if len(history) >= config.min_history:
            if value > weibull(history, config.q_high):
                up.append(k)
            elif value < weibull(history, config.q_low):
                down.append(k)
        insort(history, value)
    return stamps[np.array(up, dtype=np.intp)], stamps[np.array(down, dtype=np.intp)]


def assert_same_jumps(found, expected):
    assert [times.tolist() for times in found] == [times.tolist() for times in expected]


def pinned_returns():
    """17,279 returns of a fixed-seed 17,280-bar series: 200 grid slots
    missing, volatility regimes, values rounded to 1e-5 so ties occur."""
    rng = np.random.default_rng(17280)
    n_bars = 17_280
    slots = np.sort(rng.choice(n_bars + 200, n_bars, replace=False))
    regime = np.repeat(rng.choice([0.5, 1.0, 3.0], n_bars // 96 + 1), 96)[: n_bars - 1]
    values = np.round(regime * rng.normal(0.0, 1e-3, n_bars - 1), 5)
    return table(RETURNS_DTYPE, [(T0 + timedelta(minutes=5 * int(s)), float(v))
                                 for s, v in zip(slots[1:], values)])


def jumps_digest(up, down):
    up, down = ([(EPOCH + t * US).isoformat() for t in times.tolist()] for times in (up, down))
    text = "\n".join(up) + "\n--\n" + "\n".join(down)
    return hashlib.sha256(text.encode()).hexdigest()


quantile_levels = st.one_of(st.sampled_from([0.0, 0.1, 0.9, 1.0]), st.floats(0.0, 1.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestWeibullQuantile:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3)),
            min_size=1,
            max_size=60,
        ),
        quantile_levels,
    )
    # Weight exactly 1/2: numpy takes the upper form, 0.39999999999999997
    # here, where the lower one gives 0.4.
    @example([0.1, 0.7], 0.5)
    def test_matches_numpy_bit_for_bit(self, sample, q):
        # Two rows of the same length, so each row is read on its own.
        rows = np.sort([sample, [-v for v in sample]], axis=1)
        expected = np.quantile(rows, q, axis=1, method="weibull")
        assert _weibull_rows(rows, q).tolist() == expected.tolist()


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestExtractJumps:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.one_of(st.sampled_from([300, 600]), st.integers(1, 1800)),
                st.one_of(st.integers(-2, 2).map(lambda i: i * 1e-3), st.floats(-1e-2, 1e-2)),
            ),
            min_size=1,
            max_size=150,
        ),
        window_hours=st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.5, 4.0)),
        qs=st.tuples(quantile_levels, quantile_levels).filter(lambda q: q[0] != q[1]),
        min_history=st.integers(1, 50),
    )
    def test_matches_quantile_loop(self, data, window_hours, qs, min_history):
        # Random gaps make the window hold a varying number of returns; grid
        # gaps and whole-hour windows put history points on the window edge.
        offsets = np.cumsum([gap for gap, _ in data])
        returns = table(RETURNS_DTYPE, [(T0 + timedelta(seconds=int(s)), v)
                                        for s, (_, v) in zip(offsets, data)])
        config = JumpConfig(window_hours, min(qs), max(qs), min_history)
        found = extract_jumps(returns, config)
        assert_same_jumps(found, quantile_loop_oracle(returns, config))
        assert_same_jumps(found, sorted_window_oracle(returns, config))

    def test_window_closed_at_its_start(self):
        # The history of t is [t - 1 h, t): the 1.0 at exactly t - 1 h still
        # caps the 0.5 at t = 60 min; five minutes later it has left.
        values = [1.0] + [0.0] * 11 + [0.5, 0.75]
        returns = table(RETURNS_DTYPE, [(T0 + timedelta(minutes=5 * k), v)
                                        for k, v in enumerate(values)])
        up, down = extract_jumps(returns, JumpConfig(1.0, 0.0, 1.0, 1))
        assert up.tolist() == [returns["timestamp"][13]]

    def test_pinned_series_digest(self):
        returns = pinned_returns()
        up, down = extract_jumps(returns, JumpConfig())
        assert (len(up), len(down)) == (1789, 1779)
        assert jumps_digest(up, down) == (
            "67e1bca9c6160cd800ce1db25a0b5beeb593822ed2fbc940becde0f340b47342"
        )

    @pytest.mark.parametrize(
        "config",
        [JumpConfig(1.0, 0.0, 1.0, 1), JumpConfig(24.0, 0.05, 0.97)],
        ids=["1h-minmax", "24h-asymmetric"],
    )
    def test_pinned_series_matches_quantile_loop(self, config):
        returns = pinned_returns()[:4000]
        assert_same_jumps(extract_jumps(returns, config), quantile_loop_oracle(returns, config))

    @pytest.mark.parametrize("chunk", [1, 100, 1000])
    def test_length_group_split_over_chunks(self, chunk, monkeypatch):
        # Every full 3 h window holds 36 returns, so one history length owns
        # most rows; it is judged 1, 2 or 27 rows at a time.
        returns = pinned_returns()[:3000]
        expected = sorted_window_oracle(returns, JumpConfig())
        monkeypatch.setattr(ingest, "JUMP_CHUNK", chunk)
        assert_same_jumps(extract_jumps(returns, JumpConfig()), expected)

    def test_min_history_above_every_history_flags_nothing(self):
        # A 3 h window of 5-minute returns holds at most 36 of them.
        returns = pinned_returns()[:500]
        up, down = extract_jumps(returns, JumpConfig(min_history=37))
        assert up.size == 0 and down.size == 0
        up, down = extract_jumps(returns, JumpConfig(min_history=36))
        assert up.size > 0 and down.size > 0

    def test_empty_returns_flag_nothing(self):
        up, down = extract_jumps(table(RETURNS_DTYPE, []))
        assert up.dtype == down.dtype == np.int64 and up.size == down.size == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_return_rejected(self, bad):
        returns = table(RETURNS_DTYPE, [(T0 + timedelta(minutes=5 * k), 1e-3 * (k % 7 - 3))
                                        for k in range(40)])
        returns["log_return"][20] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):
            extract_jumps(returns, JumpConfig())

    def test_constant_returns_flag_nothing(self):
        returns = table(RETURNS_DTYPE, [(T0 + timedelta(minutes=5 * k), 0.001) for k in range(100)])
        up, down = extract_jumps(returns, JumpConfig())
        assert up.size == 0 and down.size == 0

    def test_single_spike_flagged_once(self):
        # Background pattern puts >= 10% mass on each extreme, so the rolling
        # 10%/90% quantiles coincide with the extremes and strict inequality
        # keeps ordinary values unflagged; only the inserted outlier trips.
        amp = 1e-3
        pattern = [0.0, amp, -amp, 0.0, amp, -amp, 0.0, 0.0]
        values = np.array(pattern * 25)
        spike_idx = 150
        values[spike_idx] = 10 * amp
        returns = table(RETURNS_DTYPE, [(T0 + timedelta(minutes=5 * k), float(v))
                                        for k, v in enumerate(values)])
        up, down = extract_jumps(returns, JumpConfig())
        assert up.tolist() == [returns["timestamp"][spike_idx]]
        assert down.size == 0

    def test_extreme_quantiles_flag_nothing_when_extremes_recur(self):
        # min/max thresholds plus strict inequality: values equal to the
        # extremes are never flagged as long as every window holds them.
        pattern = [0.0, 0.5, -0.5, 0.2, -0.2, 0.5, -0.5, 0.1]
        values = pattern * 30
        returns = table(RETURNS_DTYPE, [(T0 + timedelta(minutes=5 * k), v)
                                        for k, v in enumerate(values)])
        up, down = extract_jumps(returns, JumpConfig(q_low=0.0, q_high=1.0))
        assert up.size == 0 and down.size == 0

    def test_min_history_skips_early_points(self):
        rows = [(T0 + timedelta(minutes=5 * k), 0.0) for k in range(11)]
        rows.append((T0 + timedelta(minutes=55), 5.0))  # huge but history < 12
        up, down = extract_jumps(table(RETURNS_DTYPE, rows), JumpConfig())
        assert up.size == 0

    @pytest.mark.parametrize("minutes", [(0, 10, 5), (0, 5, 5)], ids=["reversed", "repeated"])
    def test_unordered_returns_rejected(self, minutes):
        rows = [(T0 + timedelta(minutes=k), 0.0) for k in minutes]
        with pytest.raises(InvalidInputError, match="^returns must be strictly increasing in time$"):
            extract_jumps(table(RETURNS_DTYPE, rows))

    def test_window_shorter_than_grid_rejected(self):
        returns = table(RETURNS_DTYPE, [(T0 + timedelta(hours=k), 0.1 * k) for k in range(30)])
        with pytest.raises(ConfigError):
            extract_jumps(returns, JumpConfig(window_hours=0.5))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            JumpConfig(q_low=0.9, q_high=0.1)
        for window in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="window_hours"):
                JumpConfig(window_hours=window)
        with pytest.raises(ConfigError, match="^min_history must be >= 1$"):
            JumpConfig(min_history=0)


class TestBuildTrivariate:
    def test_empty_inputs(self):
        seq, dropped = build_trivariate([], [], [], us(T0, T0 + timedelta(hours=6)))
        assert len(seq) == 0
        assert seq.horizon == 6.0
        assert dropped == 0

    def test_unit_conversion(self):
        blocks = us(T0 + timedelta(minutes=30))
        seq, _ = build_trivariate(blocks, [], [], us(T0, T0 + timedelta(hours=2)))
        np.testing.assert_allclose(seq.times, [0.5])
        assert seq.marks[0] == 1

    def test_shared_timestamp_kept_ordered_by_mark(self):
        ts = T0 + timedelta(hours=1)
        seq, _ = build_trivariate(us(ts), us(ts), [], us(T0, T0 + timedelta(hours=2)))
        np.testing.assert_array_equal(seq.marks, [1, 2])
        assert seq.times[0] == seq.times[1] == 1.0

    def test_out_of_window_dropped_with_count(self):
        blocks = us(T0 + timedelta(hours=1), T0 + timedelta(hours=5))
        seq, dropped = build_trivariate(
            blocks, us(T0 - timedelta(hours=1)), [], us(T0, T0 + timedelta(hours=2))
        )
        assert len(seq) == 1
        assert dropped == 2

    def test_per_stream_counts_preserved(self):
        blocks = us(*(T0 + timedelta(minutes=10 * k + 1) for k in range(6)))
        ups = us(T0 + timedelta(minutes=7))
        downs = us(T0 + timedelta(minutes=13), T0 + timedelta(minutes=44))
        seq, _ = build_trivariate(blocks, ups, downs, us(T0, T0 + timedelta(hours=2)))
        assert list(seq.counts()) == [6, 1, 2]

    def test_empty_window_rejected(self):
        with pytest.raises(ConfigError):
            build_trivariate([], [], [], us(T0, T0))


class TestCsvIo:
    def test_blocks_round_trip(self, tmp_path):
        records = messy_block_fixture()
        path = tmp_path / "blocks.csv"
        write_blocks_csv(records, path)
        back = read_blocks_csv(path)
        assert np.array_equal(back, records)

    def test_unix_second_timestamps(self, tmp_path):
        path = tmp_path / "blocks.csv"
        path.write_text("height,timestamp,tx_count\n1,1642670761,900\n")
        records = read_blocks_csv(path)
        assert records["timestamp"].tolist() == us(datetime(2022, 1, 20, 9, 26, 1, tzinfo=UTC))

    def test_malformed_rows_reported_with_line_numbers(self, tmp_path):
        path = tmp_path / "blocks.csv"
        path.write_text("height,timestamp,tx_count\n1,2022-01-01 00:00:00,5\nx,y,z\n")
        with pytest.raises(ParseError) as err:
            read_blocks_csv(path)
        assert err.value.bad_lines == [(3, "x,y,z")]

    def test_duplicate_heights_rejected(self, tmp_path):
        path = tmp_path / "blocks.csv"
        path.write_text(
            "height,timestamp,tx_count\n1,2022-01-01 00:00:00,5\n1,2022-01-01 00:01:00,6\n"
        )
        with pytest.raises(ParseError, match="duplicate heights"):
            read_blocks_csv(path)

    def test_price_csv_rejects_nonpositive_vwap(self, tmp_path):
        path = tmp_path / "price.csv"
        path.write_text("timestamp,vwap\n2022-01-01 00:00:00,100.0\n2022-01-01 00:05:00,-3\n")
        with pytest.raises(ParseError) as err:
            read_price_csv(path)
        assert err.value.bad_lines[0][0] == 3

    def test_header_only_price_csv(self, tmp_path):
        path = tmp_path / "price.csv"
        path.write_text("timestamp,vwap\n")
        with pytest.raises(ParseError, match="no price bars"):
            read_price_csv(path)

    def test_duplicate_height_check_is_linear(self, tmp_path):
        # 40,000 rows, one height repeated; a per-height count made this quadratic.
        path = tmp_path / "blocks.csv"
        rows = [f"{k},{1642670761 + 60 * k},900" for k in range(40_000)]
        rows[-1] = "7,1645070761,900"
        path.write_text("height,timestamp,tx_count\n" + "\n".join(rows) + "\n")
        start = time.perf_counter()
        with pytest.raises(ParseError, match=re.escape("duplicate heights [7]")):
            read_blocks_csv(path)
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize(
        "reader, header, good",
        [
            (read_events_csv, "time_hours,mark", "0.5,1"),
            (read_blocks_csv, "height,timestamp,tx_count", "1,2022-01-01 00:00:00,5"),
            (read_price_csv, "timestamp,vwap", "2022-01-01 00:00:00,100.0"),
        ],
        ids=["events", "blocks", "price"],
    )
    def test_one_blank_row_rule(self, tmp_path, reader, header, good):
        # Rows whose cells are all whitespace are skipped by every reader;
        # any other unparseable row is reported with its 1-based line number.
        path = tmp_path / "in.csv"
        blanks = ["", " ", ",,", " ,\t"]
        path.write_text("\n".join([header, good, *blanks, good.replace("1", "2", 1)]) + "\n")
        assert len(reader(path)) == 2
        path.write_text("\n".join([header, good, *blanks, "x,y,z"]) + "\n")
        with pytest.raises(ParseError) as err:
            reader(path)
        assert err.value.bad_lines == [(7, "x,y,z")]

    @pytest.mark.parametrize(
        "reader, header, quoted, bad",
        [
            (read_events_csv, "time_hours,mark", '"0.5\n",1', "0.75,x"),
            (read_blocks_csv, "height,timestamp,tx_count", '1,"2022-01-01\n00:00:00",5',
             "2,2022-01-01 00:05:00,abc"),
            (read_price_csv, "timestamp,vwap", '"2022-01-01\n00:00:00",100.0',
             "2022-01-01 00:05:00,abc"),
        ],
        ids=["events", "blocks", "price"],
    )
    def test_bad_line_is_the_physical_line(self, tmp_path, reader, header, quoted, bad):
        # The first record's quoted cell spans lines 2 and 3, so the bad
        # record starts on line 4; a blank line 5 moves nothing.
        path = tmp_path / "in.csv"
        path.write_text("\n".join([header, quoted, bad, "", bad]) + "\n")
        with pytest.raises(ParseError) as err:
            reader(path)
        assert err.value.bad_lines == [(4, bad), (6, bad)]

    def test_bad_record_text_is_as_written(self, tmp_path):
        # Quotes and line breaks inside a record are kept; only its last
        # line break goes.
        path = tmp_path / "blocks.csv"
        path.write_bytes(b'height,timestamp,tx_count\r\n1,"2022-01-01, 00:00:00",5\r\n'
                         b'2,"2022-01-01\r\nnoon",6\r\n')
        with pytest.raises(ParseError) as err:
            read_blocks_csv(path)
        assert err.value.bad_lines == [(2, '1,"2022-01-01, 00:00:00",5'),
                                       (3, '2,"2022-01-01\r\nnoon",6')]

    @pytest.mark.parametrize(
        "reader, header",
        [
            (read_events_csv, "time_hours,mark"),
            (read_blocks_csv, "height,timestamp,tx_count"),
            (read_price_csv, "timestamp,vwap"),
        ],
        ids=["events", "blocks", "price"],
    )
    def test_undecodable_file_is_a_parse_error(self, tmp_path, reader, header):
        path = tmp_path / "in.csv"
        path.write_bytes(header.encode() + b"\n1,\xff\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}: not valid text")):
            reader(path)


def mostly(valid, bad):
    """Cells from ``valid`` nine times in ten, else from ``bad``."""
    return st.integers(0, 9).flatmap(lambda k: bad if k == 0 else valid)


moments = st.datetimes(min_value=datetime(1990, 1, 1), max_value=datetime(2040, 1, 1))
offsets = st.sampled_from(
    [UTC, timezone(timedelta(hours=2)), timezone(-timedelta(hours=5, minutes=30))])
stamp_cells = mostly(
    st.one_of(
        moments.map(lambda t: t.strftime("%Y-%m-%dT%H:%M:%SZ")),
        moments.map(lambda t: str((t.replace(tzinfo=UTC) - EPOCH) // timedelta(seconds=1))),
        st.builds(lambda t, tz, spec: t.replace(tzinfo=tz).isoformat(timespec=spec), moments,
                  offsets, st.sampled_from(["auto", "milliseconds", "seconds"])),
        moments.map(lambda t: f" {t.isoformat(sep=' ')} "),
        # A quoted stamp whose separator is a newline: the record spans two lines.
        moments.map(lambda t: '"' + t.strftime("%Y-%m-%d\n%H:%M:%S") + '"'),
    ),
    st.sampled_from(["x", "", "2022-13-01", "99999999999999999999", "-99999999999"]),
)
int_cells = mostly(st.integers(0, 10**6).map(str),
                   st.sampled_from(["-3", "x", "", "1.5", "99999999999999999999", " 7 "]))
float_cells = mostly(st.floats(1e-3, 1e6).map(repr),
                     st.sampled_from(["0", "-3", "nan", "inf", "-inf", "abc", "", " 2.5 "]))


def csv_rows(*cells):
    """Rows of ``cells``, with now and then a blank, short or long row."""
    full = st.tuples(*cells).map(list)
    return st.lists(mostly(full, st.one_of(
        st.sampled_from([[""], [" "], ["", "", ""], [" ", "\t"]]),
        full.map(lambda row: row[:-1]),
        full.map(lambda row: row + ["9"]),
    )), max_size=25)


COLUMN_READERS = {
    "blocks": (BLOCKS_CSV_DTYPE.names, (int_cells, stamp_cells, int_cells),
               read_blocks_csv, row_reader_oracle.read_blocks),
    "price": (PRICE_CSV_DTYPE.names, (stamp_cells, float_cells),
              read_price_csv, row_reader_oracle.read_prices),
    "events": (EVENTS_CSV_DTYPE.names, (float_cells, int_cells),
               lambda path: read_csv(path, EVENTS_CSV_DTYPE, (float, int)),
               row_reader_oracle.read_events),
}


def outcome(read, path):
    try:
        return read(path)
    except ParseError as err:
        return str(err), err.bad_lines


def assert_column_path_outcome(got, kind, path):
    """``got`` is what the Python column path alone reads from ``path``."""
    read = COLUMN_READERS[kind][2]
    with mock.patch.object(events, "_loaded", lambda *args: None):
        expected = outcome(read, path)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert not isinstance(got, tuple), got
        assert got.tobytes() == expected.tobytes()


def assert_same_outcome(got, expected, header):
    """The same ParseError text and bad lines, or bit-identical columns."""
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert not isinstance(got, tuple), got
        for name, column in zip(header, expected):
            assert got[name].tobytes() == np.array(column, dtype=got[name].dtype).tobytes(), name


# Whole files the C path should take: canonical stamps, repr floats and plain ints.
canonical_stamps = st.datetimes(min_value=datetime(1, 1, 1)).map(
    lambda t: t.isoformat(timespec="seconds") + "Z")
plain_ints = st.integers(0, 2**63 - 1).map(str)
CANONICAL_CELLS = {
    "blocks": (plain_ints, canonical_stamps, plain_ints),
    "price": (canonical_stamps, st.floats(0.0, exclude_min=True, allow_infinity=False).map(repr)),
    "events": (st.floats().map(repr), plain_ints),
}
NON_ASCII = ["\u0661", "\uff15", "\u01fe", "\u0906"]  # numpy reads the last two as digits
# Traps planted in one cell: each turns the cell into something the C path
# must refuse or read exactly as int, float and timestamp_us do.
CELL_TRAPS = {
    "year 0000": lambda cell: "0000" + cell[4:] if cell.endswith("Z") else cell,
    "year 9999": lambda cell: "9999-12-31T23:59:59Z" if cell.endswith("Z") else cell,
    "signed year": lambda cell: "+022" + cell[4:] if cell.endswith("Z") else cell,
    "underscore": lambda cell: cell[0] + "_" + cell[1:],
    **{f"non-ASCII {c!r}": (lambda c: lambda cell: re.sub(r"\d(?=\D*$)", c, cell))(c)
       for c in NON_ASCII},
    "quoted": lambda cell: f'"{cell}"',
    "tab": lambda cell: "\t" + cell,
    "form feed": lambda cell: cell + "\f",
    "NUL": lambda cell: cell + "\0",
    "NUL inside": lambda cell: cell + "\0" + "0",
    "\\x1c": lambda cell: cell + "\x1c",
}
LINE_TRAPS = ("trailing comma", "lone CR")


def planted(header, rows, trap, k, j, end):
    """The text of a file of ``rows`` with ``trap`` planted in row k (column j)."""
    rows = [list(row) for row in rows]
    if trap in CELL_TRAPS:
        rows[k][j] = CELL_TRAPS[trap](rows[k][j])
    lines = [",".join(header), *map(",".join, rows)]
    if trap == "trailing comma":
        lines[k + 1] += ","
    ends = [end] * len(lines)
    if trap == "lone CR":
        ends[k] = "\r"
    return "".join(line + end for line, end in zip(lines, ends))


@st.composite
def canonical_file(draw, header, cells):
    """The text of a canonical file with at most one trap planted, and the trap."""
    rows = draw(st.lists(st.tuples(*cells), min_size=1, max_size=25,
                         unique_by=lambda row: row[0]))
    trap = draw(st.none() | st.sampled_from(sorted(CELL_TRAPS)) | st.sampled_from(LINE_TRAPS))
    k = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(header) - 1))
    return planted(header, rows, trap, k, j, draw(st.sampled_from(["\n", "\r\n"]))), trap


CANONICAL_ROWS = {
    "blocks": [("1", "2022-01-01T00:00:00Z", "5"), ("2", "2022-01-01T00:10:00Z", "7")],
    "price": [("2022-01-01T00:00:00Z", "100.5"), ("2022-01-01T00:05:00Z", "101.25")],
    "events": [("0.5", "1"), ("1.25", "2")],
}


class TestColumnReader:
    @pytest.mark.parametrize("kind", sorted(COLUMN_READERS))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_row_reader(self, tmp_path_factory, kind, data):
        # Canonical stamps, Unix seconds, offsets, fractional seconds, blank,
        # short and long rows and bad cells: the column reader gives the
        # per-row reference's columns, or the same ParseError and bad lines.
        header, cells, read, reference = COLUMN_READERS[kind]
        rows = data.draw(csv_rows(*cells))
        path = tmp_path_factory.getbasetemp() / f"column_reader_{kind}.csv"
        path.write_text("\n".join([",".join(header), *map(",".join, rows)]) + "\n")
        assert_same_outcome(outcome(read, path), outcome(reference, path), header)

    @pytest.mark.parametrize("kind", sorted(COLUMN_READERS))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_canonical_files_take_the_c_path(self, tmp_path_factory, kind, data):
        # A clean file never reaches the Python column path; a file with one
        # trap reads as the column path alone and the per-row reference read it.
        header, _, read, reference = COLUMN_READERS[kind]
        text, trap = data.draw(canonical_file(header, CANONICAL_CELLS[kind]))
        path = tmp_path_factory.getbasetemp() / f"canonical_{kind}.csv"
        path.write_text(text, newline="")
        column_path = []

        def spy(*args):
            column_path.append(args[0])
            return table_of_rows(*args)

        with mock.patch.object(events, "_table", spy):
            got = outcome(read, path)
        if trap in (None, "year 9999"):
            assert not column_path
        assert_column_path_outcome(got, kind, path)
        assert_same_outcome(got, outcome(reference, path), header)

    @pytest.mark.parametrize("trap", [*sorted(CELL_TRAPS), *LINE_TRAPS])
    @pytest.mark.parametrize("kind", sorted(COLUMN_READERS))
    def test_every_trap_in_every_column(self, tmp_path, kind, trap):
        header, _, read, reference = COLUMN_READERS[kind]
        for j in range(len(header)):
            path = tmp_path / f"{j}.csv"
            path.write_text(planted(header, CANONICAL_ROWS[kind], trap, 1, j, "\n"), newline="")
            got = outcome(read, path)
            assert_column_path_outcome(got, kind, path)
            assert_same_outcome(got, outcome(reference, path), header)
