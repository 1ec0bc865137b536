import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_dp_merge import _dp_merge_loop
from ttpsolve import _kernels


@st.composite
def merge_inputs(draw):
    """A strict-staircase column plus one item.

    Weights step in multiples of the item weight's unit, so taken cells
    land on the weights of kept cells; integer rewards with ``rdist == 0``
    make some of those collisions exact reward ties too.  Capacity is
    often exactly a kept weight plus the item weight.
    """
    unit = draw(st.integers(1, 4))
    n_old = draw(st.integers(1, 12))
    steps = draw(st.lists(st.integers(1, 3), min_size=n_old, max_size=n_old))
    old_w = (np.cumsum(steps) - steps[0] + draw(st.integers(0, 2))) * unit
    gains = draw(st.lists(st.integers(1, 5), min_size=n_old, max_size=n_old))
    old_b = np.cumsum(gains).astype(np.float64) - draw(st.integers(0, 30))
    item_w = draw(st.integers(1, 4)) * unit
    if draw(st.booleans()):
        cap = int(old_w[draw(st.integers(0, n_old - 1))]) + item_w
    else:
        cap = draw(st.integers(0, int(old_w[-1]) + 2 * item_w))
    cap = max(cap, int(old_w[-1]), 1)
    item_p = float(draw(st.integers(1, 10)))
    rdist = draw(st.sampled_from([0.0, 0.0, 3.7, 41.25]))
    vmin = draw(st.sampled_from([0.1, 0.25]))
    vmax = 1.0
    return old_w.astype(np.int64), old_b, item_w, item_p, rdist, vmax, (vmax - vmin) / cap, cap


TIE_AT_CAPACITY = (np.array([0, 2, 4], np.int64), np.array([-3.0, 1.0, 2.0]),
                   2, 4.0, 0.0, 1.0, 0.9 / 4, 4)


@settings(max_examples=300, deadline=None)
@given(merge_inputs())
@example(TIE_AT_CAPACITY)
def test_dp_merge_vectorised_equals_loop(args):
    got = _kernels.dp_merge(*args)
    want = _dp_merge_loop(*args)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


@st.composite
def wide_merge_inputs(draw):
    """``merge_inputs`` at DP widths: 64 to a few thousand cells.

    numpy's stable sort merges runs only from 64 elements on, so narrow
    columns never reach that path.  The column is drawn from a seeded
    generator; weights on a grid of ``unit`` and integer rewards with
    ``rdist == 0`` give equal-weight keep/take collisions and exact reward
    ties, and the capacity is often exactly a kept weight plus the item.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unit = draw(st.integers(1, 4))
    n_old = draw(st.integers(64, 3000))
    steps = rng.integers(1, draw(st.integers(2, 4)), n_old)
    old_w = (np.cumsum(steps) - steps[0] + draw(st.integers(0, 2))) * unit
    gains = rng.integers(1, draw(st.integers(2, 6)), n_old)
    old_b = np.cumsum(gains).astype(np.float64) - draw(st.integers(0, 3000))
    item_w = draw(st.integers(1, 40)) * unit
    if draw(st.booleans()):
        cap = int(old_w[draw(st.integers(0, n_old - 1))]) + item_w
    else:
        cap = draw(st.integers(0, int(old_w[-1]) + 2 * item_w))
    cap = max(cap, int(old_w[-1]), 1)
    item_p = float(draw(st.integers(1, 60)))
    rdist = draw(st.sampled_from([0.0, 0.0, 3.7, 41.25]))
    vmin = draw(st.sampled_from([0.1, 0.25]))
    vmax = 1.0
    return old_w.astype(np.int64), old_b, item_w, item_p, rdist, vmax, (vmax - vmin) / cap, cap


@settings(max_examples=150, deadline=None)
@given(wide_merge_inputs())
def test_dp_merge_wide_vectorised_equals_loop(args):
    got = _kernels.dp_merge(*args)
    want = _dp_merge_loop(*args)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


@st.composite
def segment_inputs(draw):
    """Several ``merge_inputs`` columns under one capacity and speed law.

    The shared capacity and ``nu`` come from one drawn column, so that
    column keeps its items-at-capacity case; the columns heavier than the
    shared capacity are dropped, since DP columns never exceed it.
    """
    cols = draw(st.lists(merge_inputs(), min_size=1, max_size=6))
    lead = cols[draw(st.integers(0, len(cols) - 1))]
    vmax, nu, cap = lead[5], lead[6], lead[7]
    cols = [c for c in cols if c[0][-1] <= cap]
    return cols, vmax, nu, cap


@settings(max_examples=300, deadline=None)
@given(segment_inputs())
def test_dp_merge_segments_equals_per_column(args):
    cols, vmax, nu, cap = args
    n_seg = len(cols)
    got_w, got_b, got_s = _kernels.dp_merge_segments(
        np.concatenate([c[0] for c in cols]), np.concatenate([c[1] for c in cols]),
        np.repeat(np.arange(n_seg), [c[0].size for c in cols]), n_seg,
        np.array([c[2] for c in cols], np.int64), np.array([c[3] for c in cols]),
        np.array([c[4] for c in cols]), vmax, nu, cap)
    assert np.all(np.diff(got_s) >= 0)
    for s, (old_w, old_b, item_w, item_p, rdist, *_) in enumerate(cols):
        want = _kernels.dp_merge(old_w, old_b, item_w, item_p, rdist, vmax, nu, cap)[:2]
        mine = got_s == s
        for g, w in zip((got_w[mine], got_b[mine]), want):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()
