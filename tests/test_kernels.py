import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    got = _kernels.dp_merge_py(*args)
    want = _kernels._dp_merge_loop(*args)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)
