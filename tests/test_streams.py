"""Batched bootstrap index streams against the one-lane draw, bit for bit.

``resampling._draws`` builds a batch's index matrix in one pass (the
SeedSequence hash in numpy, numpy's own PCG64 for the raw words, Lemire's
bound in numpy); ``resampling._draw`` is the reference: a SeedSequence, a
PCG64 and a Generator per replicate.  The property also catches a numpy
release that changes ``Generator.integers`` or the seeding, which NEP 19
does not promise to keep.  Also here: the jackknife's leave-one-out gather.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockmax import resampling
from blockmax.resampling import _draw, _draws, jackknife


def _reference(seed, chunk, n):
    return np.stack([_draw(seed, i, attempt, n) for i, attempt in chunk])


LANE = st.tuples(
    st.one_of(st.integers(0, 2_000), st.integers(0, 2**40)),  # i; past 2**32 takes two words
    st.one_of(st.integers(0, 3), st.integers(0, 2**40)),  # attempt
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**32), st.integers(0, 2**64)),
    chunk=st.lists(LANE, min_size=1, max_size=12),
    n=st.one_of(st.integers(10, 300), st.integers(10, 10_000)),
)
@example(seed=0, chunk=[(0, 0)], n=10)
@example(seed=2**64, chunk=[(5, 2), (2**32, 0), (7, 2**32)], n=129)
@example(seed=2**31 + 5, chunk=[(i, 0) for i in range(12)], n=10_000)
def test_batched_streams_are_the_one_lane_draws(seed, chunk, n):
    got = _draws(seed, chunk, n)
    want = _reference(seed, chunk, n)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_a_rejected_draw_takes_the_one_lane_path(monkeypatch):
    seed, n = 7, 129
    chunk = [(i, 0) for i in range(40)]
    # the low product words integers(0, n) compares with its threshold, per lane
    lowest = []
    for i, attempt in chunk:
        bits = np.random.PCG64(np.random.SeedSequence([seed, i, attempt]))
        words = bits.random_raw((n + 1) // 2).astype("<u8").view("<u4")[:n]
        lowest.append(int((words * np.uint32(n)).min()))
    first, second = sorted(lowest)[:2]
    assert first < second
    # a threshold that only the lane with the lowest word falls below
    monkeypatch.setattr(resampling, "_lemire_threshold", lambda n: first + 1)
    calls = []

    def spy(*args):
        calls.append(args)
        return _draw(*args)

    monkeypatch.setattr(resampling, "_draw", spy)
    got = _draws(seed, chunk, n)
    assert calls == [(seed, *chunk[lowest.index(first)], n)]
    assert np.array_equal(got, _reference(seed, chunk, n))


def test_jackknife_gathers_every_leave_one_out_sample():
    values = np.arange(1.0, 14.0)
    seen = []

    class Rows:
        def __call__(self, x):
            return x.mean()

        def rows(self, X, failures):
            seen.extend(X.tolist())
            return X.mean(axis=1)[:, None], np.ones(X.shape[0], dtype=bool)

    jackknife(values, Rows())
    assert seen == [np.delete(values, i).tolist() for i in range(values.size)]
