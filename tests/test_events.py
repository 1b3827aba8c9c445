import math
import re
from dataclasses import is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockhawkes import (
    EventSequence,
    ExponentialKernel,
    HawkesModel,
    PoissonFit,
    SumExpKernel,
    merge_components,
    read_events_csv,
    write_events_csv,
)
from blockhawkes.errors import InvalidInputError, ParseError
from blockhawkes.events import _US_MAX, _US_MIN
from blockhawkes.gof import ComponentGof, GofReport, write_qq_csv
from blockhawkes.ingest import BLOCKS_CSV_DTYPE, write_blocks_csv

import row_writer_oracle
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
        with pytest.raises(InvalidInputError, match="^times and marks must be 1-D arrays of equal"):
            EventSequence([1.0, 1.5], [1], 2.0, 1)
        with pytest.raises(InvalidInputError, match="^component 3 not in 1..2$"):
            EventSequence([1.0], [1], 2.0, 2).component_times(3)

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(InvalidInputError):
            EventSequence([], [], 0.0, 1)
        with pytest.raises(InvalidInputError, match="^dim must be >= 1, got 0$"):
            EventSequence([], [], 1.0, 0)

    def test_arrays_read_only(self):
        seq = EventSequence([1.0], [1], 2.0, 1)
        with pytest.raises(ValueError):
            seq.times[0] = 0.0


def _arrays(obj):
    """The ndarray fields of a frozen value, and of the values it holds."""
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            yield value
        elif is_dataclass(value):
            yield from _arrays(value)


_PAIR, _TWOS = [[0.5, 0.1], [0.2, 0.3]], np.full((2, 2), 2.0)
# Each constructor with one float64 argument x, of the given value, left open.
OWNERS = {
    "EventSequence.times": (lambda x: EventSequence(x, [1, 2], 3.0, 2), [1.0, 2.0]),
    "EventSequence.times, empty": (lambda x: EventSequence(x, [], 3.0, 2), []),
    "HawkesModel.mu": (lambda x: HawkesModel(x, SumExpKernel(np.zeros((1, 2, 2)), [1.0])),
                       [1.0, 2.0]),
    "SumExpKernel.alpha": (lambda x: SumExpKernel(x, [1.0]), [_PAIR]),
    "SumExpKernel.decays": (lambda x: SumExpKernel(np.zeros((2, 1, 1)), x), [1.0, 2.0]),
    "ExponentialKernel.alpha": (lambda x: ExponentialKernel(x, _TWOS), _PAIR),
    "ExponentialKernel.beta": (lambda x: ExponentialKernel(_PAIR, x), [[1.0, 2.0], [2.0, 1.0]]),
    "ExponentialKernel(a, a)": (lambda x: ExponentialKernel(x, x), _PAIR),
    "PoissonFit.rates": (lambda x: PoissonFit(x, 0.0, ()), [1.0, 2.0]),
}


@pytest.mark.parametrize("view", [False, True], ids=["array", "view"])
@pytest.mark.parametrize("case", sorted(OWNERS))
def test_constructors_keep_read_only_copies(case, view):
    # The value owns its arrays: the caller's array, or the larger array it
    # views, stays writable, and a write to either never reaches the value.
    build, value = OWNERS[case]
    value = np.asarray(value, dtype=np.float64)
    if view:
        base = np.zeros(value.size + 2)
        argument = base[1:-1].reshape(value.shape)
        argument[...] = value
    else:
        base = argument = value.copy()
    obj = build(argument)
    fields = list(_arrays(obj))
    before = [field.copy() for field in fields]
    assert argument.flags.writeable and base.flags.writeable
    for field in fields:
        assert not field.flags.writeable
        assert not np.shares_memory(field, argument) and not np.shares_memory(field, base)
    argument[...] = -1.0
    base[...] = -2.0
    for field, kept in zip(fields, before):
        np.testing.assert_array_equal(field, kept)


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

    @pytest.mark.parametrize("text", ["time_hours,mark\n", "time_hours,mark\r\n\r\n  \n"])
    def test_header_only_file_has_no_events(self, tmp_path, text):
        path = tmp_path / "events.csv"
        path.write_text(text, newline="")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: no events$"):
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


EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-310, 1e300, 1.7976931348623157e308]
INT64 = st.integers(-2**63, 2**63 - 1) | st.sampled_from([-2**63, 2**63 - 1])


def same_bytes(tmp_path, write, oracle, *args):
    """The writer and its ``csv.writer`` oracle write the same files, byte
    for byte, and return the same paths (each in its own directory)."""
    new, old = tmp_path / "new", tmp_path / "old"
    new.mkdir()
    old.mkdir()
    got, expected = write(*args, new / "out.csv"), oracle(*args, old / "out.csv")
    assert got == (None if expected is None else [p.replace(str(old), str(new)) for p in expected])
    assert sorted(p.name for p in new.iterdir()) == sorted(p.name for p in old.iterdir())
    for path in old.iterdir():
        assert (new / path.name).read_bytes() == path.read_bytes(), path.name


class TestWriterOracle:
    """Each writer writes the bytes of the ``csv.writer`` bodies it replaced."""

    @settings(max_examples=100, deadline=None)
    @given(times=st.lists(st.sampled_from(EDGE_FLOATS) | st.floats(0.0, 1e300), unique=True),
           data=st.data())
    def test_events(self, tmp_path_factory, times, data):
        marks = data.draw(st.lists(st.integers(1, 2**63 - 1), min_size=len(times),
                                   max_size=len(times)))
        seq = EventSequence(sorted(times), marks, max(times, default=1.0) or 1.0,
                            max(marks, default=1))
        same_bytes(tmp_path_factory.mktemp("events"), write_events_csv,
                   row_writer_oracle.write_events_csv, seq)

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(
        INT64, st.integers(_US_MIN, _US_MAX) | st.sampled_from([_US_MIN, _US_MAX]), INT64)))
    def test_blocks(self, tmp_path_factory, rows):
        blocks = np.array(rows, dtype=BLOCKS_CSV_DTYPE)
        same_bytes(tmp_path_factory.mktemp("blocks"), write_blocks_csv,
                   row_writer_oracle.write_blocks_csv, blocks)

    @settings(max_examples=100, deadline=None)
    @given(samples=st.lists(st.lists(
        st.sampled_from([*EDGE_FLOATS, -1e300, math.nan, math.inf, -math.inf]) | st.floats()),
        max_size=3), degenerate=st.lists(st.booleans(), min_size=3, max_size=3))
    def test_qq(self, tmp_path_factory, samples, degenerate):
        report = GofReport("hawkes", [
            ComponentGof(i + 1, np.array(x, dtype=float), 1.0, 0.0, 0.0, 1.0, degenerate[i])
            for i, x in enumerate(samples)])
        same_bytes(tmp_path_factory.mktemp("qq"), write_qq_csv, row_writer_oracle.write_qq_csv,
                   report)
