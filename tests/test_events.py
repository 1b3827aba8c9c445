import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockhawkes import EventSequence, merge_components, read_events_csv, write_events_csv
from blockhawkes.errors import InvalidInputError, ParseError

from conftest import tied_sequence


class TestEventSequence:
    def test_basic_construction(self):
        seq = EventSequence([0.5, 1.0, 1.5], [1, 2, 1], 2.0, 2)
        assert len(seq) == 3
        assert seq.dim == 2
        assert list(seq.counts()) == [2, 1]
        np.testing.assert_array_equal(seq.component_times(1), [0.5, 1.5])

    def test_empty_sequence(self):
        seq = EventSequence([], [], 5.0, 3)
        assert len(seq) == 0
        assert list(seq.counts()) == [0, 0, 0]

    def test_cross_mark_ties_canonically_ordered(self):
        seq = EventSequence([1.0, 1.0], [2, 1], 2.0, 2)
        np.testing.assert_array_equal(seq.marks, [1, 2])

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=0, max_value=60),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_any_order_within_ties_stored_canonically(self, dim, n, seed):
        rng = np.random.default_rng(seed)
        canonical = tied_sequence(rng, dim, n)
        tied = np.diff(canonical.times) == 0
        assert np.all(np.diff(canonical.marks)[tied] > 0)
        shuffled = rng.permutation(len(canonical))
        shuffled = shuffled[np.argsort(canonical.times[shuffled], kind="stable")]  # times stay sorted
        seq = EventSequence(
            canonical.times[shuffled], canonical.marks[shuffled], canonical.horizon, dim
        )
        np.testing.assert_array_equal(seq.times, canonical.times)
        np.testing.assert_array_equal(seq.marks, canonical.marks)

    def test_same_mark_tie_rejected(self):
        with pytest.raises(InvalidInputError, match="share time"):
            EventSequence([1.0, 1.0], [1, 1], 2.0, 1)

    def test_decreasing_times_rejected(self):
        with pytest.raises(InvalidInputError, match="nondecreasing"):
            EventSequence([2.0, 1.0], [1, 1], 3.0, 1)

    def test_time_outside_window_rejected(self):
        with pytest.raises(InvalidInputError):
            EventSequence([1.0, 5.0], [1, 1], 2.0, 1)
        with pytest.raises(InvalidInputError):
            EventSequence([-0.1], [1], 2.0, 1)

    def test_bad_marks_rejected(self):
        with pytest.raises(InvalidInputError):
            EventSequence([1.0], [0], 2.0, 1)
        with pytest.raises(InvalidInputError):
            EventSequence([1.0], [3], 2.0, 2)

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(InvalidInputError):
            EventSequence([], [], 0.0, 1)

    def test_arrays_read_only(self):
        seq = EventSequence([1.0], [1], 2.0, 1)
        with pytest.raises(ValueError):
            seq.times[0] = 0.0


class TestMerge:
    def test_merge_components_sorts(self):
        seq = merge_components([np.array([3.0, 1.0]), np.array([2.0])], 5.0)
        np.testing.assert_array_equal(seq.times, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(seq.marks, [1, 2, 1])

    def test_merge_empty_streams(self):
        seq = merge_components([np.array([]), np.array([])], 5.0)
        assert len(seq) == 0
        assert seq.dim == 2


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        seq = EventSequence([0.123456789012, 1.5, 2.25], [1, 3, 2], 4.0, 3)
        path = tmp_path / "events.csv"
        write_events_csv(seq, path)
        back = read_events_csv(path, horizon=4.0, dim=3)
        np.testing.assert_allclose(back.times, seq.times, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(back.marks, seq.marks)
        assert back.horizon == 4.0

    def test_defaults_infer_horizon_and_dim(self, tmp_path):
        seq = EventSequence([1.0, 2.0], [1, 2], 3.0, 2)
        path = tmp_path / "events.csv"
        write_events_csv(seq, path)
        back = read_events_csv(path)
        assert back.horizon == 2.0  # last event time
        assert back.dim == 2

    @pytest.mark.parametrize("first", ["nan", "inf"])
    def test_non_finite_time_is_named_before_the_default_horizon(self, tmp_path, first):
        # The default horizon is the largest time, so it is not finite either.
        path = tmp_path / "events.csv"
        path.write_text(f"time_hours,mark\n{first},1\n")
        with pytest.raises(InvalidInputError, match="^event times must be finite$"):
            read_events_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("time,mark\n1.0,1\n")
        with pytest.raises(ParseError, match="header"):
            read_events_csv(path)

    def test_malformed_rows_collected(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("time_hours,mark\n1.0,1\nnot_a_number,1\n2.0,x\n")
        with pytest.raises(ParseError) as err:
            read_events_csv(path)
        assert len(err.value.bad_lines) == 2
        assert err.value.bad_lines[0][0] == 3  # 1-based line numbers
