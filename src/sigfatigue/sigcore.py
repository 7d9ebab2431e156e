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
products.  All values are immutable; every function is pure.

``batch_signature`` is the hot path: a Chen fold (and truncated log)
that walks the segments in order, each step vectorised over a whole
block of paths, with blocks sized by ``BLOCK_BYTES``; its rows do not
depend on the split.  ``path_signature`` and
``log_signature`` run it on a batch of one; ``TensorSeq``,
``segment_signature``, ``chen_concat`` and ``tensor_exp`` are the
readable specification it is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, InvalidInputError, ShapeError, is_integer

__all__ = [
    "TensorSeq",
    "identity",
    "segment_signature",
    "chen_concat",
    "path_signature",
    "log_signature",
    "batch_signature",
    "tensor_exp",
    "flatten",
    "flat_length",
    "sig_distance",
]

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
# call on one block of planar paths peaks at 2.4 * BLOCK_BYTES (depth 3) to
# 11 * BLOCK_BYTES (depth-8 log signatures), so under the default 128 KiB
# threshold each call would fault its temporaries in afresh.  Freeing one
# 8 * BLOCK_BYTES block here keeps them on the heap.
np.empty(8 * BLOCK_BYTES, dtype=np.uint8)


@dataclass(frozen=True, eq=False, repr=False)
class TensorSeq:
    """Truncated element of the tensor algebra over R^dim.

    ``levels[k-1]`` holds the level-k coefficients as a flat vector of
    length ``dim ** k``.  ``level0`` is 1.0 for group-like elements
    (signatures) and 0.0 for Lie elements (log-signatures).
    """

    dim: int
    depth: int
    level0: float
    levels: tuple = field(default=())

    def __post_init__(self):
        if self.dim < 1 or self.depth < 1:
            raise InvalidInputError(
                f"dim and depth must be >= 1, got dim={self.dim} depth={self.depth}"
            )
        if len(self.levels) != self.depth:
            raise ShapeError(
                f"expected {self.depth} levels, got {len(self.levels)}"
            )
        frozen = []
        for k, lev in enumerate(self.levels, start=1):
            arr = np.asarray(lev, dtype=float)
            if arr.shape != (self.dim**k,):
                raise ShapeError(
                    f"level {k} must have {self.dim ** k} entries, got shape {arr.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise InvalidInputError(f"level {k} contains non-finite values")
            arr = arr.copy()
            arr.flags.writeable = False
            frozen.append(arr)
        object.__setattr__(self, "levels", tuple(frozen))
        if not math.isfinite(self.level0):
            raise InvalidInputError("level0 must be finite")

    def __repr__(self):
        return f"TensorSeq(dim={self.dim}, depth={self.depth}, level0={self.level0})"

    def level(self, k: int) -> np.ndarray:
        """Level-k coefficient vector (k in 1..depth)."""
        return self.levels[k - 1]


def identity(dim: int, depth: int) -> TensorSeq:
    """Multiplicative identity of the truncated tensor algebra."""
    return TensorSeq(
        dim=dim,
        depth=depth,
        level0=1.0,
        levels=tuple(np.zeros(dim**k) for k in range(1, depth + 1)),
    )


def _check_compatible(a: TensorSeq, b: TensorSeq) -> None:
    if a.dim != b.dim or a.depth != b.depth:
        raise ShapeError(
            f"incompatible operands: dim {a.dim} vs {b.dim}, depth {a.depth} vs {b.depth}"
        )


def _product(a: TensorSeq, b: TensorSeq) -> TensorSeq:
    """Truncated tensor-algebra product of two elements."""
    out = []
    for k in range(1, a.depth + 1):
        acc = a.level0 * b.levels[k - 1] + b.level0 * a.levels[k - 1]
        for i in range(1, k):
            acc = acc + np.multiply.outer(a.levels[i - 1], b.levels[k - i - 1]).ravel()
        out.append(acc)
    return TensorSeq(dim=a.dim, depth=a.depth, level0=a.level0 * b.level0, levels=tuple(out))


def _check_depth(depth) -> None:
    if not is_integer(depth) or depth < 1:
        raise InvalidInputError(f"depth must be an integer >= 1, got {depth!r}")


def segment_signature(delta, depth: int) -> TensorSeq:
    """Signature of one linear segment: the tensor exponential of its increment.

    Level k equals delta^{tensor k} / k!.
    """
    _check_depth(depth)
    vec = np.asarray(delta, dtype=float)
    if vec.ndim != 1 or vec.size < 1:
        raise InvalidInputError("delta must be a 1-D displacement vector")
    if not np.all(np.isfinite(vec)):
        raise InvalidInputError("delta must be finite")
    levels = []
    power = vec.copy()
    levels.append(power)
    for k in range(2, depth + 1):
        power = np.multiply.outer(power, vec).ravel() / k
        levels.append(power)
    return TensorSeq(dim=vec.size, depth=depth, level0=1.0, levels=tuple(levels))


def chen_concat(a: TensorSeq, b: TensorSeq) -> TensorSeq:
    """Signature of a concatenated path: the truncated tensor product."""
    _check_compatible(a, b)
    return _product(a, b)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flattened outer product over the leading axes of (p, ..., B) and (q, ..., B),
    as ``_log_levels`` forms it.

    Batched arrays keep the batch B as the last, contiguous axis, so the
    products run over long rows of paths.
    """
    return (a[:, None] * b[None, :]).reshape(-1, *a.shape[1:])


def _signature_levels(paths: np.ndarray, depth: int) -> list:
    """Chen fold over a batch: level k of each path of ``paths`` (B, n, d)
    as a (d**k, B) array.

    The segments are folded in order into running levels L_k, each
    elementwise over the batch.  Segment s, with increment delta and
    pow_j = delta^{tensor j} / j!, adds
    incr_k = pow_k + sum_{j=1..k-1} L_{k-j} (x) pow_j,
    summed in that j order.  Levels are updated from the top down, so
    each incr_k reads the lower levels as they were before the segment.
    """
    deltas = np.diff(np.ascontiguousarray(paths.transpose(1, 2, 0)), axis=0)  # (m, d, B)
    _, dim, batch = deltas.shape
    levels = [np.zeros((dim**k, batch)) for k in range(1, depth + 1)]
    pows = [np.empty((dim**j, batch)) for j in range(1, depth + 1)]
    prod = np.empty((dim**depth, batch))
    incr = np.empty((dim**depth, batch))
    # each operand and output view is made once, so a segment runs ufuncs only
    pow_steps = [  # pow_j = (pow_{j-1} (x) delta) / j
        (pows[j - 2][:, None], pows[j - 1].reshape(-1, dim, batch), pows[j - 1], j)
        for j in range(2, depth + 1)
    ]
    level_steps = [  # incr_k = pow_k + sum_j L_{k-j} (x) pow_j, then L_k += incr_k
        (levels[k - 1], pows[k - 1], incr[: dim**k], prod[: dim**k], [
            (levels[k - j - 1][:, None], pows[j - 1], prod[: dim**k].reshape(-1, dim**j, batch))
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
    return levels


def _log_levels(levels: list) -> list:
    """Truncated tensor logarithm of a batch of signatures, levels (d**k, B).

    With x = sig - 1, sums (-1)^{n+1} x^{tensor n} / n over n <= depth.
    x^{tensor n} is zero below level n, so those levels are neither
    built nor added.
    """
    depth = len(levels)
    acc = [lev.copy() for lev in levels]
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
    Returns a (B, flat_length(d, depth)) array whose row b equals
    ``flatten(path_signature(paths[b], depth))``, or with ``log`` its
    ``log_signature``, bit for bit.  Blocks hold ``_block_paths(n, d,
    depth)`` paths, so peak memory is fixed whatever B, depth and n are.
    Every float operation is elementwise over the batch, so rows are the
    same however B splits.
    """
    _check_depth(depth)
    paths = np.asarray(paths, dtype=float)
    if paths.ndim != 3 or paths.shape[1] < 2 or paths.shape[2] < 1:
        raise InvalidInputError("paths must be a (B, n>=2, d>=1) array of vertices")
    _, n, dim = paths.shape
    out = np.empty((paths.shape[0], flat_length(dim, depth)))
    block = _block_paths(n, dim, depth)
    for start in range(0, paths.shape[0], block):
        rows = slice(start, start + block)
        if not np.all(np.isfinite(paths[rows])):
            raise InvalidInputError("path vertices must be finite")
        levels = _signature_levels(paths[rows], depth)
        if log:
            levels = _log_levels(levels)
        out[rows] = np.concatenate(levels).T
    return out


def path_signature(path, depth: int) -> TensorSeq:
    """Exact truncated signature of a piecewise-linear path.

    Equivalent to folding ``segment_signature`` over the consecutive
    vertex increments with ``chen_concat``; computed by
    ``batch_signature`` on a batch of one.  ``path`` is an (n, d) vertex
    array.
    """
    pts = np.asarray(path, dtype=float)
    if pts.ndim != 2 or pts.shape[1] < 1:
        raise InvalidInputError("path must be an (n, d) array of vertices")
    if pts.shape[0] < 2:
        raise InsufficientDataError(
            f"path needs at least 2 points, got {pts.shape[0]}"
        )
    row = batch_signature(pts[None], depth)[0]
    dim = pts.shape[1]
    ends = np.cumsum([dim**k for k in range(1, depth)], dtype=int)
    return TensorSeq(dim=dim, depth=depth, level0=1.0, levels=tuple(np.split(row, ends)))


def log_signature(sig: TensorSeq) -> TensorSeq:
    """Truncated tensor logarithm of a group-like element.

    With x = sig - 1 (which has no scalar part), returns
    sum_{n>=1} (-1)^{n+1} x^{tensor n} / n, truncated at sig.depth.
    """
    if sig.level0 != 1.0:
        raise InvalidInputError(
            f"log requires a group-like element with level0 == 1, got {sig.level0}"
        )
    levels = _log_levels([lev[:, None] for lev in sig.levels])
    return TensorSeq(
        dim=sig.dim, depth=sig.depth, level0=0.0, levels=tuple(lev[:, 0] for lev in levels)
    )


def tensor_exp(lie: TensorSeq) -> TensorSeq:
    """Truncated tensor exponential of an element with no scalar part."""
    if lie.level0 != 0.0:
        raise InvalidInputError(
            f"exp requires a Lie element with level0 == 0, got {lie.level0}"
        )
    acc = [np.zeros(lie.dim**k) for k in range(1, lie.depth + 1)]
    power = identity(lie.dim, lie.depth)
    for n in range(1, lie.depth + 1):
        power = _product(power, lie)
        for k in range(lie.depth):
            acc[k] = acc[k] + power.levels[k] / math.factorial(n)
    return TensorSeq(dim=lie.dim, depth=lie.depth, level0=1.0, levels=tuple(acc))


def flat_length(dim: int, depth: int) -> int:
    """Length of the flattened level-1..depth coefficient vector."""
    return sum(dim**k for k in range(1, depth + 1))


def flatten(sig: TensorSeq) -> np.ndarray:
    """Levels 1..depth concatenated in level order (level 0 excluded)."""
    return np.concatenate(sig.levels)


def sig_distance(a: TensorSeq, b: TensorSeq) -> float:
    """Euclidean distance between flattened coefficient vectors."""
    _check_compatible(a, b)
    return float(np.linalg.norm(flatten(a) - flatten(b)))
