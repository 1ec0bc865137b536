"""The scalar DP column merge, kept as the oracle for the numpy merges.

``_dp_merge_loop`` walks the keep run and the take run of a column in one
two-pointer pass, keeps the cell with the lower weight (the keep cell on a
tie unless the take cell's reward is strictly greater) and drops every
cell that does not beat the best reward before it.  ``tests/test_kernels.py``
requires ``ttpsolve._kernels.dp_merge`` to equal it bit for bit, and
``dp_merge_segments`` to equal ``dp_merge`` on every segment.  Do not
optimise this file.
"""

import numpy as np


def _dp_merge_loop(old_w, old_b, item_w, item_p, rdist, vmax, nu, cap):
    n_old = old_w.size
    k = 0
    while k < n_old and old_w[k] + item_w <= cap:
        k += 1
    tw = np.empty(k, np.int64)
    tb = np.empty(k, np.float64)
    for t in range(k):
        tw[t] = old_w[t] + item_w
        tb[t] = old_b[t] + item_p - rdist * (
            1.0 / (vmax - nu * tw[t]) - 1.0 / (vmax - nu * old_w[t])
        )

    out_w = np.empty(n_old + k, np.int64)
    out_b = np.empty(n_old + k, np.float64)
    out_t = np.empty(n_old + k, np.uint8)
    out_p = np.empty(n_old + k, np.int64)
    i = 0
    j = 0
    cnt = 0
    last_b = -np.inf
    while i < n_old or j < k:
        if j >= k:
            pick_keep = True
        elif i >= n_old:
            pick_keep = False
        elif old_w[i] < tw[j]:
            pick_keep = True
        elif old_w[i] > tw[j]:
            pick_keep = False
        else:
            pick_keep = old_b[i] >= tb[j]
        if pick_keep:
            w, b, tk, pv = old_w[i], old_b[i], 0, i
            i += 1
        else:
            w, b, tk, pv = tw[j], tb[j], 1, j
            j += 1
        if b > last_b:
            out_w[cnt] = w
            out_b[cnt] = b
            out_t[cnt] = tk
            out_p[cnt] = pv
            last_b = b
            cnt += 1
    return out_w[:cnt], out_b[:cnt], out_t[:cnt], out_p[:cnt]

