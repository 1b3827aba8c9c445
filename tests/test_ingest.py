import hashlib
import re
import time
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockhawkes import (
    BlockRecord,
    JumpConfig,
    PriceBar,
    build_trivariate,
    clean_blocks,
    extract_jumps,
    log_returns,
    read_events_csv,
)
from blockhawkes.errors import ConfigError, InvalidInputError, ParseError
from blockhawkes.ingest import (
    _weibull_quantile,
    parse_timestamp,
    read_blocks_csv,
    read_price_csv,
    write_blocks_csv,
)

from conftest import messy_block_fixture

UTC = timezone.utc
T0 = datetime(2022, 2, 1, 0, 0, 0, tzinfo=UTC)


def bars_from_prices(prices, step_minutes=5, start=T0):
    return [
        PriceBar(start + timedelta(minutes=step_minutes * k), float(p))
        for k, p in enumerate(prices)
    ]


class TestTimestampParsing:
    def test_iso_and_unix_agree(self):
        iso = parse_timestamp("2022-01-20 09:26:01")
        unix = parse_timestamp(str(int(iso.timestamp())))
        assert iso == unix
        assert iso.tzinfo is not None

    def test_z_suffix(self):
        assert parse_timestamp("2022-01-20T09:26:01Z") == parse_timestamp("2022-01-20 09:26:01")

    def test_garbage_rejected(self):
        with pytest.raises(InvalidInputError):
            parse_timestamp("yesterday")

    def test_out_of_range_unix_seconds_rejected(self):
        with pytest.raises(InvalidInputError):
            parse_timestamp("99999999999999999999")

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
        parsed = parse_timestamp(text)
        assert parsed == expected
        assert parsed.utcoffset() == timedelta(0)


class TestCleanBlocks:
    def test_duplicate_keeps_larger_tx_count(self):
        ts = datetime(2022, 1, 20, 9, 26, 1, tzinfo=UTC)
        records = [
            BlockRecord(719598, ts - timedelta(minutes=9), 1500),
            BlockRecord(719599, ts, 2000),
            BlockRecord(719601, ts, 1200),
        ]
        cleaned, report = clean_blocks(records)
        assert [r.height for r in cleaned] == [719598, 719599]
        assert report.counts()["duplicates_dropped"] == 1
        assert report.duplicates_dropped[0]["height"] == 719601

    def test_tie_keeps_lower_height_and_logs(self):
        ts = datetime(2022, 1, 20, 9, 26, 1, tzinfo=UTC)
        records = [BlockRecord(10, ts, 500), BlockRecord(9, ts, 500)]
        cleaned, report = clean_blocks(records)
        assert [r.height for r in cleaned] == [9]
        assert report.counts()["ties"] == 1
        assert report.ties[0]["kept_height"] == 9

    def test_clean_input_is_identity(self):
        records = [
            BlockRecord(k, T0 + timedelta(minutes=k), 100 + k) for k in range(10)
        ]
        cleaned, report = clean_blocks(records)
        assert cleaned == records
        assert report.counts() == {"duplicates_dropped": 0, "reordered": 0, "ties": 0}

    def test_messy_fixture_counts(self):
        cleaned, report = clean_blocks(messy_block_fixture())
        assert report.counts()["duplicates_dropped"] == 2
        assert report.counts()["reordered"] == 14
        stamps = [r.timestamp for r in cleaned]
        assert all(a < b for a, b in zip(stamps, stamps[1:]))
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
        # One object twice (a tie with itself), and an earlier-stamped tie
        # group that first appears later in the input.
        ts = datetime(2022, 1, 20, 9, 26, 1, tzinfo=UTC)
        same = BlockRecord(7, ts, 500)
        records = [same, BlockRecord(5, ts - timedelta(minutes=1), 300), same,
                   BlockRecord(4, ts - timedelta(minutes=1), 300)]
        cleaned, report = clean_blocks(records)
        assert cleaned == [records[3], same]
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
        assert again == cleaned
        assert report.counts() == {"duplicates_dropped": 0, "reordered": 0, "ties": 0}

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidInputError):
            clean_blocks([])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 30), st.integers(0, 5)),
                    min_size=1, max_size=60))
    def test_random_inputs_clean_to_fixed_point(self, raw):
        # Few stamps and tx counts: repeated timestamps, tied counts and
        # out-of-order rows in most draws; heights repeat and run in any order.
        records = [
            BlockRecord(height=height, timestamp=T0 + timedelta(seconds=offset), tx_count=txs)
            for height, offset, txs in raw
        ]
        cleaned, report = clean_blocks(records)
        stamps = [r.timestamp for r in cleaned]
        assert all(a < b for a, b in zip(stamps, stamps[1:]))
        assert len(cleaned) + len(report.duplicates_dropped) == len(records)
        again, empty_report = clean_blocks(cleaned)
        assert again == cleaned
        assert empty_report.counts() == {"duplicates_dropped": 0, "reordered": 0, "ties": 0}


class TestLogReturns:
    def test_constant_prices_give_zero(self):
        returns, gaps = log_returns(bars_from_prices([100.0] * 6))
        assert all(r == 0.0 for _, r in returns)
        assert gaps == []

    def test_exact_log_ratio(self):
        returns, _ = log_returns(bars_from_prices([100.0, 100.0 * np.e]))
        np.testing.assert_allclose(returns[0][1], 1.0, rtol=1e-15)

    def test_gap_flagged_once(self):
        bars = bars_from_prices([100, 101, 102, 103, 104, 105])
        del bars[3]  # hole in the grid
        returns, gaps = log_returns(bars)
        assert len(returns) == 4  # 6 grid slots -> 4 returns with one missing bar
        assert len(gaps) == 1
        assert gaps[0]["missing_bars"] == 1

    def test_needs_two_bars(self):
        with pytest.raises(InvalidInputError):
            log_returns(bars_from_prices([100.0]))

    def test_positive_vwap_enforced_at_construction(self):
        with pytest.raises(InvalidInputError):
            PriceBar(T0, 0.0)

    @pytest.mark.parametrize("vwap", [float("nan"), float("inf")])
    def test_non_finite_vwap_rejected_at_construction(self, vwap):
        with pytest.raises(InvalidInputError):
            PriceBar(T0, vwap)

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
            [r for _, r in scaled], [r for _, r in base], rtol=0, atol=1e-10
        )


def quantile_loop_oracle(returns, config):
    """The reference extraction: a fresh ``np.quantile`` of the sliced history per return."""
    stamps = [t for t, _ in returns]
    seconds = np.array([(t - stamps[0]).total_seconds() for t in stamps])
    values = np.array([r for _, r in returns])
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
    return up, down


def pinned_returns():
    """17,279 returns of a fixed-seed 17,280-bar series: 200 grid slots
    missing, volatility regimes, values rounded to 1e-5 so ties occur."""
    rng = np.random.default_rng(17280)
    n_bars = 17_280
    slots = np.sort(rng.choice(n_bars + 200, n_bars, replace=False))
    regime = np.repeat(rng.choice([0.5, 1.0, 3.0], n_bars // 96 + 1), 96)[: n_bars - 1]
    values = np.round(regime * rng.normal(0.0, 1e-3, n_bars - 1), 5)
    return [(T0 + timedelta(minutes=5 * int(s)), float(v)) for s, v in zip(slots[1:], values)]


def jumps_digest(up, down):
    text = "\n".join(t.isoformat() for t in up) + "\n--\n" + "\n".join(t.isoformat() for t in down)
    return hashlib.sha256(text.encode()).hexdigest()


quantile_levels = st.one_of(st.sampled_from([0.0, 0.1, 0.9, 1.0]), st.floats(0.0, 1.0))


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
    def test_matches_numpy_bit_for_bit(self, sample, q):
        ordered = sorted(sample)
        expected = np.quantile(np.array(ordered), q, method="weibull")
        assert _weibull_quantile(ordered, q) == expected


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
        returns = [(T0 + timedelta(seconds=int(s)), v) for s, (_, v) in zip(offsets, data)]
        config = JumpConfig(window_hours, min(qs), max(qs), min_history)
        assert extract_jumps(returns, config) == quantile_loop_oracle(returns, config)

    def test_window_closed_at_its_start(self):
        # The history of t is [t - 1 h, t): the 1.0 at exactly t - 1 h still
        # caps the 0.5 at t = 60 min; five minutes later it has left.
        values = [1.0] + [0.0] * 11 + [0.5, 0.75]
        returns = [(T0 + timedelta(minutes=5 * k), v) for k, v in enumerate(values)]
        up, down = extract_jumps(returns, JumpConfig(1.0, 0.0, 1.0, 1))
        assert up == [returns[13][0]]

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
        assert extract_jumps(returns, config) == quantile_loop_oracle(returns, config)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_return_rejected(self, bad):
        returns = [(T0 + timedelta(minutes=5 * k), 1e-3 * (k % 7 - 3)) for k in range(40)]
        returns[20] = (returns[20][0], bad)
        with pytest.raises(InvalidInputError, match="non-finite"):
            extract_jumps(returns, JumpConfig())

    def test_constant_returns_flag_nothing(self):
        returns = [(T0 + timedelta(minutes=5 * k), 0.001) for k in range(100)]
        up, down = extract_jumps(returns, JumpConfig())
        assert up == [] and down == []

    def test_single_spike_flagged_once(self):
        # Background pattern puts >= 10% mass on each extreme, so the rolling
        # 10%/90% quantiles coincide with the extremes and strict inequality
        # keeps ordinary values unflagged; only the inserted outlier trips.
        amp = 1e-3
        pattern = [0.0, amp, -amp, 0.0, amp, -amp, 0.0, 0.0]
        values = np.array(pattern * 25)
        spike_idx = 150
        values[spike_idx] = 10 * amp
        returns = [(T0 + timedelta(minutes=5 * k), float(v)) for k, v in enumerate(values)]
        up, down = extract_jumps(returns, JumpConfig())
        assert up == [returns[spike_idx][0]]
        assert down == []

    def test_extreme_quantiles_flag_nothing_when_extremes_recur(self):
        # min/max thresholds plus strict inequality: values equal to the
        # extremes are never flagged as long as every window holds them.
        pattern = [0.0, 0.5, -0.5, 0.2, -0.2, 0.5, -0.5, 0.1]
        values = pattern * 30
        returns = [(T0 + timedelta(minutes=5 * k), v) for k, v in enumerate(values)]
        up, down = extract_jumps(returns, JumpConfig(q_low=0.0, q_high=1.0))
        assert up == [] and down == []

    def test_min_history_skips_early_points(self):
        returns = [(T0 + timedelta(minutes=5 * k), 0.0) for k in range(11)]
        returns.append((T0 + timedelta(minutes=55), 5.0))  # huge but history < 12
        up, down = extract_jumps(returns, JumpConfig())
        assert up == []

    def test_window_shorter_than_grid_rejected(self):
        returns = [(T0 + timedelta(hours=k), 0.1 * k) for k in range(30)]
        with pytest.raises(ConfigError):
            extract_jumps(returns, JumpConfig(window_hours=0.5))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            JumpConfig(q_low=0.9, q_high=0.1)
        for window in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="window_hours"):
                JumpConfig(window_hours=window)


class TestBuildTrivariate:
    def test_empty_inputs(self):
        seq, dropped = build_trivariate([], [], [], (T0, T0 + timedelta(hours=6)))
        assert len(seq) == 0
        assert seq.horizon == 6.0
        assert dropped == 0

    def test_unit_conversion(self):
        block = BlockRecord(1, T0 + timedelta(minutes=30), 100)
        seq, _ = build_trivariate([block], [], [], (T0, T0 + timedelta(hours=2)))
        np.testing.assert_allclose(seq.times, [0.5])
        assert seq.marks[0] == 1

    def test_shared_timestamp_kept_ordered_by_mark(self):
        ts = T0 + timedelta(hours=1)
        block = BlockRecord(1, ts, 10)
        seq, _ = build_trivariate([block], [ts], [], (T0, T0 + timedelta(hours=2)))
        np.testing.assert_array_equal(seq.marks, [1, 2])
        assert seq.times[0] == seq.times[1] == 1.0

    def test_out_of_window_dropped_with_count(self):
        inside = BlockRecord(1, T0 + timedelta(hours=1), 10)
        outside = BlockRecord(2, T0 + timedelta(hours=5), 10)
        seq, dropped = build_trivariate(
            [inside, outside], [T0 - timedelta(hours=1)], [], (T0, T0 + timedelta(hours=2))
        )
        assert len(seq) == 1
        assert dropped == 2

    def test_per_stream_counts_preserved(self):
        blocks = [BlockRecord(k, T0 + timedelta(minutes=10 * k + 1), 5) for k in range(6)]
        ups = [T0 + timedelta(minutes=7)]
        downs = [T0 + timedelta(minutes=13), T0 + timedelta(minutes=44)]
        seq, _ = build_trivariate(blocks, ups, downs, (T0, T0 + timedelta(hours=2)))
        assert list(seq.counts()) == [6, 1, 2]

    def test_empty_window_rejected(self):
        with pytest.raises(ConfigError):
            build_trivariate([], [], [], (T0, T0))


class TestCsvIo:
    def test_blocks_round_trip(self, tmp_path):
        records = messy_block_fixture()
        path = tmp_path / "blocks.csv"
        write_blocks_csv(records, path)
        back = read_blocks_csv(path)
        assert back == records

    def test_unix_second_timestamps(self, tmp_path):
        path = tmp_path / "blocks.csv"
        path.write_text("height,timestamp,tx_count\n1,1642670761,900\n")
        records = read_blocks_csv(path)
        assert records[0].timestamp == datetime(2022, 1, 20, 9, 26, 1, tzinfo=UTC)

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
