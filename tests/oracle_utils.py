"""Independent numerical oracles used by the test suite.

The signature oracle evaluates iterated integrals by plain quadrature on
a refined polyline: each original segment is split into many substeps
and the nested integrals accumulate via trapezoidal cumulative sums.
It never touches the tensor-exponential / Chen machinery under test.
``lost_clicks`` is the one-day wastage rule, as plain scalar code.
``full_log_levels`` is the batched tensor logarithm that also forms the
zero terms ``sigcore._log_levels`` skips.  ``cumsum_signature_levels``
is the earlier form of the batched Chen fold, cumulative sums over all
segments at once; the segment-by-segment fold must match it bit for bit.
"""

import itertools

import numpy as np

from sigfatigue.errors import InvalidInputError


def refine_polyline(points, substeps):
    """Insert ``substeps`` evenly spaced vertices along each segment."""
    pts = np.asarray(points, dtype=float)
    out = [pts[:1]]
    frac = np.arange(1, substeps + 1)[:, None] / substeps
    for a, b in zip(pts[:-1], pts[1:]):
        out.append(a[None, :] + frac * (b - a)[None, :])
    return np.concatenate(out, axis=0)


def riemann_signature_levels(points, depth, substeps=10_000):
    """Iterated integrals of a polyline by nested trapezoidal sums.

    Returns one flat coefficient vector per level 1..depth, ordered
    lexicographically by multi-index to match the library layout.
    """
    fine = refine_polyline(points, substeps)
    dx = np.diff(fine, axis=0)  # (M, d)
    d = fine.shape[1]

    # node_vals[word] = value of the word's iterated integral at each vertex
    node_vals = {}
    for j in range(d):
        vals = np.concatenate([[0.0], np.cumsum(dx[:, j])])
        node_vals[(j,)] = vals
    for k in range(2, depth + 1):
        for word in itertools.product(range(d), repeat=k):
            inner = node_vals[word[:-1]]
            step = 0.5 * (inner[:-1] + inner[1:]) * dx[:, word[-1]]
            node_vals[word] = np.concatenate([[0.0], np.cumsum(step)])

    levels = []
    for k in range(1, depth + 1):
        levels.append(
            np.array(
                [node_vals[w][-1] for w in itertools.product(range(d), repeat=k)]
            )
        )
    return levels


def lost_clicks(ctr_bench, ctr_t, impressions_t):
    """Clicks forgone on one day relative to the benchmark rate; never
    negative.  The scalar rule ``compute_wastage`` applies to every day."""
    if ctr_bench < 0 or ctr_t < 0 or impressions_t < 0:
        raise InvalidInputError("lost_clicks inputs must be nonnegative")
    if ctr_bench > 1 or ctr_t > 1:
        raise InvalidInputError("click-through rates cannot exceed 1")
    return max(0.0, ctr_bench - ctr_t) * impressions_t


def _outer(a, b):
    return (a[:, None] * b[None, :]).reshape(-1, *a.shape[1:])


def cumsum_signature_levels(paths, depth):
    """Chen fold over a batch: level k of each path of ``paths`` (B, n, d)
    as a (d**k, B) array.

    The level-k increment contributed by segment s is
    sum_{j=1..k} S^{k-j}(prefix) (x) delta_s^j / j!.  Each cumsum is
    written after a zero column, so the prefixes are a view of it.  The
    top level is no prefix, so it is only summed: with the batch axis last
    and contiguous, numpy adds segment rows in ``cumsum``'s order, and the
    -0.0 start keeps the sign of an all-zero sum.  A single path keeps
    ``cumsum``: numpy would sum its lone axis pairwise, which rounds apart.
    """
    deltas = np.diff(np.ascontiguousarray(paths.transpose(2, 1, 0)), axis=1)  # (d, m, B)
    _, m, batch = deltas.shape
    # pows[j-1][:, s] = delta_s^{tensor j} / j!, flattened
    pows = [deltas]
    for j in range(2, depth + 1):
        pows.append(_outer(pows[-1], deltas) / j)
    levels = []
    prefixes = []  # running level values before each segment
    for k in range(1, depth + 1):
        incr = pows[k - 1]
        for j in range(1, k):
            incr = incr + _outer(prefixes[k - j - 1], pows[j - 1])
        if k == depth and batch > 1:
            levels.append(incr.sum(axis=1, initial=-0.0))
            break
        buf = np.empty((incr.shape[0], m + 1, batch))
        buf[:, 0] = 0.0
        np.cumsum(incr, axis=1, out=buf[:, 1:])
        levels.append(buf[:, -1])
        prefixes.append(buf[:, :-1])
    return levels


def full_log_levels(levels):
    """Truncated tensor logarithm of a batch of signature levels (d**k, B).

    Sums (-1)^{n+1} x^{tensor n} / n with x = sig - 1, building every
    level of every power, including the levels below n where x^{tensor n}
    is zero, and adding them all.
    """
    depth = len(levels)
    acc = [lev.copy() for lev in levels]
    power = levels
    for n in range(2, depth + 1):
        power = [np.zeros_like(levels[0])] + [
            sum(_outer(power[i - 1], levels[k - i - 1]) for i in range(1, k))
            for k in range(2, depth + 1)
        ]
        coef = (-1.0) ** (n + 1) / n
        for k in range(depth):
            acc[k] = acc[k] + coef * power[k]
    return acc
