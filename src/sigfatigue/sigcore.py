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

``batch_signature`` is the hot path: one vectorised Chen fold (and
truncated log) over a batch of paths, in blocks of ``BLOCK_BYTES``; its
rows do not depend on the split.  ``path_signature`` and
``log_signature`` run it on a batch of one; ``TensorSeq``,
``segment_signature``, ``chen_concat`` and ``tensor_exp`` are the
readable specification it is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, InvalidInputError, ShapeError

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

# Bytes of top-level increments (d**depth * (n-1) floats a path) in one
# kernel block.  Peak memory is a few times this whatever the batch size,
# depth or path length, and blocks this small stay in cache.
BLOCK_BYTES = 128 * 1024

# glibc's malloc returns a free heap top to the system once it exceeds twice
# the largest mmap'd block freed so far (128 KiB until one is).  A kernel call
# peaks near 6 * BLOCK_BYTES, so each call would fault its temporaries in
# afresh.  Freeing one 8 * BLOCK_BYTES block here raises that mark above it.
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


def segment_signature(delta, depth: int) -> TensorSeq:
    """Signature of one linear segment: the tensor exponential of its increment.

    Level k equals delta^{tensor k} / k!.
    """
    if depth < 1:
        raise InvalidInputError(f"depth must be >= 1, got {depth}")
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
    """Flattened outer product over the leading axes of (p, ..., B) and (q, ..., B).

    Batched arrays keep the batch B as the last, contiguous axis, so the
    products and cumulative sums run over long rows of paths.
    """
    return (a[:, None] * b[None, :]).reshape(-1, *a.shape[1:])


def _signature_levels(paths: np.ndarray, depth: int) -> list:
    """Chen fold over a batch: level k of each path of ``paths`` (B, n, d)
    as a (d**k, B) array.

    The fold is restructured as cumulative sums over segments: the
    level-k increment contributed by segment s is
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


def batch_signature(paths, depth: int, log: bool = False) -> np.ndarray:
    """Flattened truncated signatures of a batch of polylines.

    ``paths`` is a (B, n, d) array of B paths with n >= 2 vertices each
    and d >= 1.
    Returns a (B, flat_length(d, depth)) array whose row b equals
    ``flatten(path_signature(paths[b], depth))``, or with ``log`` its
    ``log_signature``, bit for bit.  Blocks hold ``BLOCK_BYTES // (8 *
    d**depth * (n-1))`` paths, at least one, so peak memory is fixed
    whatever B, depth and n are.  A block's top level is summed, and
    cumsum'd for a block of one, so rows are the same however B splits.
    """
    if depth < 1:
        raise InvalidInputError(f"depth must be >= 1, got {depth}")
    paths = np.asarray(paths, dtype=float)
    if paths.ndim != 3 or paths.shape[1] < 2 or paths.shape[2] < 1:
        raise InvalidInputError("paths must be a (B, n>=2, d>=1) array of vertices")
    _, n, dim = paths.shape
    out = np.empty((paths.shape[0], flat_length(dim, depth)))
    block = max(1, BLOCK_BYTES // (8 * dim**depth * (n - 1)))
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
