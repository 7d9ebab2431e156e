"""Exact truncated path signatures for piecewise-linear paths.

The signature of a path X : [a, b] -> R^d is the graded sequence of its
iterated integrals

    S(X) = (1, S^1, S^2, ..., S^k, ...),    S^k in (R^d)^{tensor k},

truncated here at a finite depth D.  Level 1 is the total displacement,
level 2 encodes signed areas, and higher levels capture progressively
finer order-of-events information.  Two facts make the computation exact
for polylines:

  * the signature of a single linear segment with increment v is the
    tensor exponential  exp(v) = sum_k v^{tensor k} / k! ; and
  * concatenating paths multiplies their signatures in the truncated
    tensor algebra (Chen's identity).

Levels are stored dense and flattened: level k is a vector of length
d^k whose entries are ordered lexicographically by multi-index
(i1, ..., ik), each i in {1..d}.  This is the C-order raveling of the
corresponding k-tensor, so flattened tensor products are plain outer
products.  Every function is pure.

``batch_signature`` is the kernel: a Chen fold (and truncated log) that
walks the segments in order, each step vectorised over a whole block of
paths, with blocks sized by ``BLOCK_BYTES``; its rows do not depend on
the split.  The batch is the last axis of every work array.  A block is
padded to a multiple of 16 paths, so each work row starts on a 64-byte
cache line of one allocation, and it runs with numpy's ufunc buffer as
wide as a row, so broadcast operands are not copied through the buffer.
The readable specification it is tested against -- the
``TensorSeq`` algebra of segment exponentials, Chen products and tensor
log/exp -- lives with the test oracles in ``tests/oracle_utils.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError, check_number

__all__ = ["batch_signature", "flat_length"]

# Bytes of one kernel block, budgeted as d**depth + d*(n-1) floats a path:
# its running top level and its increments.  Peak memory is a fixed
# multiple of this for each dimension and depth, whatever the batch size
# or path length.  A block this large holds the 2,346 loops of a
# 1,200-observation series at the default window and depth, so the
# per-segment steps run over long rows.
BLOCK_BYTES = 1024 * 1024

# glibc's malloc serves requests below its mmap threshold from the heap, and
# returns a free heap top to the system once it exceeds twice that
# threshold; freeing an mmap'd block raises the threshold to its size.  A
# call on one block of planar paths peaks at 1.6 * BLOCK_BYTES (depth 3) to
# 10.7 * BLOCK_BYTES (depth-8 log signatures), so under the default 128 KiB
# threshold each call would fault its temporaries in afresh.  Freeing one
# 8 * BLOCK_BYTES block here keeps them on the heap.
np.empty(8 * BLOCK_BYTES, dtype=np.uint8)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flattened outer product over the leading axes of (p, ..., B) and (q, ..., B),
    as ``_log_levels`` forms it.

    Batched arrays keep the batch B as the last, contiguous axis, so the
    products run over long rows of paths.
    """
    return (a[:, None] * b[None, :]).reshape(-1, *a.shape[1:])


def _signature_levels(paths: np.ndarray, depth: int, width: int) -> list:
    """Chen fold over a batch: level k of each path of ``paths`` (B, n, d)
    as a (d**k, B) array.

    The segments are folded in order into running levels L_k, each
    elementwise over the batch.  Segment s, with increment delta and
    pow_j = delta^{tensor j} / j!, adds
    incr_k = pow_k + sum_{j=1..k-1} L_{k-j} (x) pow_j,
    summed in that j order.  Levels are updated from the top down, so
    each incr_k reads the lower levels as they were before the segment.

    The work arrays are (rows, width) views of one allocation whose rows
    start on 64-byte lines; ``width`` is B padded to a multiple of 16, and
    the padding paths have zero increments and are sliced off.
    """
    vertices = paths.transpose(1, 2, 0)  # (n, d, B), a view
    n, dim, batch = vertices.shape
    sizes = [dim**k for k in range(1, depth + 1)]
    rows = np.cumsum([(n - 1) * dim, sum(sizes), sum(sizes), dim**depth, dim**depth])
    raw = np.empty(rows[-1] * width + 7)
    skip = -raw.__array_interface__["data"][0] % 64 // 8
    work = raw[skip : skip + rows[-1] * width].reshape(-1, width)
    deltas, levels, pows, prod, incr, _ = np.split(work, rows)
    deltas = deltas.reshape(n - 1, dim, width)
    np.subtract(vertices[1:], vertices[:-1], out=deltas[..., :batch])  # np.diff's op
    deltas[..., batch:] = 0.0
    levels[...] = 0.0
    levels = np.split(levels, np.cumsum(sizes[:-1]))
    pows = np.split(pows, np.cumsum(sizes[:-1]))
    # each operand and output view is made once, so a segment runs ufuncs only
    pow_steps = [  # pow_j = (pow_{j-1} (x) delta) / j
        (pows[j - 2][:, None], pows[j - 1].reshape(-1, dim, width), pows[j - 1], j)
        for j in range(2, depth + 1)
    ]
    level_steps = [  # incr_k = pow_k + sum_j L_{k-j} (x) pow_j, then L_k += incr_k
        (levels[k - 1], pows[k - 1], incr[: dim**k], prod[: dim**k], [
            (levels[k - j - 1][:, None], pows[j - 1], prod[: dim**k].reshape(-1, dim**j, width))
            for j in range(1, k)
        ])
        for k in range(depth, 0, -1)
    ]
    for s, delta in enumerate(deltas):
        np.copyto(pows[0], delta)
        for lower, out, power, j in pow_steps:
            np.multiply(lower, pows[0], out=out)
            power /= j
        for level, inc, buf, term, products in level_steps:
            for lower, power, out in products:
                np.multiply(lower, power, out=out)
                inc = np.add(inc, term, out=buf)
            # the first increment is copied, not added to zero: 0.0 + -0.0 is 0.0
            if s:
                level += inc
            else:
                level[...] = inc
    return [level[:, :batch] for level in levels]


def _log_levels(levels: list) -> list:
    """Truncated tensor logarithm of a batch of signatures, levels (d**k, B).

    With x = sig - 1, sums (-1)^{n+1} x^{tensor n} / n over n <= depth.
    x^{tensor n} is zero below level n, so those levels are neither
    built nor added.
    """
    depth = len(levels)
    acc = list(levels)  # each sum is a new array, so the levels are not copied
    power = levels
    for n in range(2, depth + 1):
        power = [None] * (n - 1) + [
            sum(_outer(power[i - 1], levels[k - i - 1]) for i in range(n - 1, k))
            for k in range(n, depth + 1)
        ]
        coef = (-1.0) ** (n + 1) / n
        for k in range(n - 1, depth):
            acc[k] = acc[k] + coef * power[k]
    return acc


def _block_paths(n: int, dim: int, depth: int) -> int:
    """Paths of n vertices in R^dim that one ``batch_signature`` block holds:
    ``BLOCK_BYTES`` over 8 bytes times the d**depth + d*(n-1) floats a
    path's top level and increments take, at least one."""
    return max(1, BLOCK_BYTES // (8 * (dim**depth + dim * (n - 1))))


def batch_signature(paths, depth: int, log: bool = False) -> np.ndarray:
    """Flattened truncated signatures of a batch of polylines.

    ``paths`` is a (B, n, d) array of B paths with n >= 2 vertices each
    and d >= 1.
    Returns a (B, flat_length(d, depth)) array whose row b holds levels
    1..depth of the signature of ``paths[b]`` in level order, or with
    ``log`` those of its truncated tensor logarithm.  Blocks hold
    ``_block_paths(n, d, depth)`` paths, so peak memory is fixed
    whatever B, depth and n are.
    Every float operation is elementwise over the batch, so rows are the
    same however B splits.
    """
    check_number("depth", depth, 1, math.inf, integer=True)
    paths = np.asarray(paths)
    if paths.dtype.kind == "c":
        raise InvalidInputError("paths must be real")
    paths = paths.astype(float, copy=False)
    if paths.ndim != 3 or paths.shape[1] < 2 or paths.shape[2] < 1:
        raise InvalidInputError("paths must be a (B, n>=2, d>=1) array of vertices")
    _, n, dim = paths.shape
    out = np.empty((paths.shape[0], flat_length(dim, depth)))
    block = _block_paths(n, dim, depth)
    for start in range(0, paths.shape[0], block):
        rows = slice(start, start + block)
        if not np.all(np.isfinite(paths[rows])):
            raise InvalidInputError("path vertices must be finite")
        # 16 paths are two cache lines of floats, and a multiple of 16 is a
        # valid ufunc buffer size
        width = -(-len(paths[rows]) // 16) * 16
        # with a buffer as wide as a row, broadcast operands run unbuffered;
        # elementwise results do not depend on it, and no float reduction
        # runs in this scope, where it could re-block a pairwise sum
        with np.errstate():
            np.setbufsize(width)
            levels = _signature_levels(paths[rows], depth, width)
            np.concatenate(_log_levels(levels) if log else levels, out=out[rows].T)
            del levels  # frees this block's work before the next block's
    return out


def flat_length(dim: int, depth: int) -> int:
    """Length of the flattened level-1..depth coefficient vector."""
    return sum(dim**k for k in range(1, depth + 1))
