"""Independent numerical oracles and the signature spec used by the test suite.

The signature oracle evaluates iterated integrals by plain quadrature on
a refined polyline: each original segment is split into many substeps
and the nested integrals accumulate via trapezoidal cumulative sums.
It never touches the tensor-exponential / Chen machinery under test.

``TensorSeq`` and its algebra (``segment_signature``, ``chen_concat``,
``tensor_exp``, ``flatten``, ``sig_distance``) are the readable
specification of the truncated tensor algebra; ``chen_fold`` folds a
polyline's segment exponentials with them, sharing nothing with the
batched kernel.  ``path_signature`` and ``log_signature`` instead run
the shipped kernel (``sigcore.batch_signature`` on a batch of one and
``sigcore._log_levels``), so the Riemann, Chen and log/exp checks
written against them test ``sigfatigue.sigcore`` itself.

``lost_clicks`` is the one-day wastage rule, as plain scalar code.
``full_log_levels`` is the batched tensor logarithm that also forms the
zero terms ``sigcore._log_levels`` skips.  ``cumsum_signature_levels``
is the earlier form of the batched Chen fold, cumulative sums over all
segments at once; the segment-by-segment fold must match it bit for bit.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from sigfatigue import sigcore
from sigfatigue.errors import InsufficientDataError, InvalidInputError, check_number


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


class ShapeError(InvalidInputError):
    """Tensor operands have mismatched dimension or truncation depth."""


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
    check_number("depth", depth, 1, math.inf, integer=True)
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


def chen_fold(pts, depth: int) -> TensorSeq:
    """Signature of the polyline ``pts`` (n, d) by the spec alone: each
    segment's ``segment_signature`` folded with ``chen_concat`` from the
    identity.  Nothing is shared with the batched kernel."""
    pts = np.asarray(pts, dtype=float)
    sig = identity(pts.shape[1], depth)
    for a, b in zip(pts[:-1], pts[1:]):
        sig = chen_concat(sig, segment_signature(b - a, depth))
    return sig


def path_signature(path, depth: int) -> TensorSeq:
    """Exact truncated signature of a piecewise-linear path.

    Equivalent to folding ``segment_signature`` over the consecutive
    vertex increments with ``chen_concat``; computed by
    ``sigcore.batch_signature`` on a batch of one.  ``path`` is an (n, d)
    vertex array.
    """
    pts = np.asarray(path, dtype=float)
    if pts.ndim != 2 or pts.shape[1] < 1:
        raise InvalidInputError("path must be an (n, d) array of vertices")
    if pts.shape[0] < 2:
        raise InsufficientDataError(
            f"path needs at least 2 points, got {pts.shape[0]}"
        )
    row = sigcore.batch_signature(pts[None], depth)[0]
    dim = pts.shape[1]
    ends = np.cumsum([dim**k for k in range(1, depth)], dtype=int)
    return TensorSeq(dim=dim, depth=depth, level0=1.0, levels=tuple(np.split(row, ends)))


def log_signature(sig: TensorSeq) -> TensorSeq:
    """Truncated tensor logarithm of a group-like element.

    With x = sig - 1 (which has no scalar part), returns
    sum_{n>=1} (-1)^{n+1} x^{tensor n} / n, truncated at sig.depth;
    computed by ``sigcore._log_levels`` on a batch of one.
    """
    if sig.level0 != 1.0:
        raise InvalidInputError(
            f"log requires a group-like element with level0 == 1, got {sig.level0}"
        )
    levels = sigcore._log_levels([lev[:, None] for lev in sig.levels])
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


def flatten(sig: TensorSeq) -> np.ndarray:
    """Levels 1..depth concatenated in level order (level 0 excluded)."""
    return np.concatenate(sig.levels)


def sig_distance(a: TensorSeq, b: TensorSeq) -> float:
    """Euclidean distance between flattened coefficient vectors."""
    _check_compatible(a, b)
    return float(np.linalg.norm(flatten(a) - flatten(b)))


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
