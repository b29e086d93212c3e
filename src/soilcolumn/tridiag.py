"""Tridiagonal matrices and the solve of the Newton iteration: odd-even
cyclic reduction, finished by a Thomas sweep once fewer than 64 rows are left."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SingularMatrixError(RuntimeError):
    """A pivot vanished during the elimination, or the solution is not finite."""


@dataclass(eq=False)
class Tridiagonal:
    """Tridiagonal matrix stored as its three diagonals.

    lower has length n-1 (entries A[i+1, i]), diag length n, upper
    length n-1 (entries A[i, i+1]).
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray


# A system is reduced until fewer than 2**SWEEP_BITS rows are
# left, and those are solved by a sequential sweep: below that size a
# level's round of NumPy calls costs more than the rows it eliminates.
SWEEP_BITS = 6


def _sweep(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> list:
    """Solve -a[i]*x[i-1] + b[i]*x[i] - c[i]*x[i+1] = d[i] by Thomas
    elimination on Python floats, without pivoting; a[0] and c[-1]
    multiply the zero borders. ZeroDivisionError on a zero pivot."""
    upper = []
    rhs = []
    cp = dp = 0.0
    for ai, bi, ci, di in zip(a.tolist(), b.tolist(), c.tolist(), d.tolist()):
        pivot = bi - ai * cp
        cp = ci / pivot
        dp = (di + ai * dp) / pivot
        upper.append(cp)
        rhs.append(dp)
    x = [0.0] * len(rhs)
    xi = 0.0
    for i in range(len(rhs) - 1, -1, -1):
        xi = rhs[i] + upper[i] * xi
        x[i] = xi
    return x


def solve(tri: Tridiagonal, rhs: np.ndarray) -> np.ndarray:
    """Solve tri @ x = rhs by odd-even cyclic reduction (no pivoting).

    Each level eliminates the even-indexed rows from their odd-indexed
    neighbours, which leaves a tridiagonal system of (m - 1) / 2 rows in
    the odd unknowns. The rows of the last level are solved directly;
    back-substitution then recovers the even unknowns of each level from
    its stored rows. That is the O(n) work of Gaussian elimination done
    in vectorised passes. Without pivoting it is stable on diagonally
    dominant matrices, such as the M-matrix I - dt*J of the implicit step.

    For n rows, n of L bits, the reduction runs depth = max(0, L -
    SWEEP_BITS) levels. The system is padded with identity rows to the
    fewest rows that this depth splits evenly, m = 2**depth * ceil((n +
    1) / 2**depth) - 1, which leaves fewer than 2**SWEEP_BITS = 64 rows
    on the last level, and a sequential Thomas sweep on Python floats
    solves all of them. The padding follows from n and adds only identity
    rows, uncoupled from the system, so it changes neither the depth nor
    the first n unknowns.

    Raises ValueError when rhs does not match the matrix size, and
    SingularMatrixError when a pivot vanishes or the solution is not
    finite.
    """
    n = tri.diag.size
    if rhs.size != n:
        raise ValueError(f"rhs length {rhs.size} != matrix size {n}")
    # A zero pivot of the reduction turns its own unknown into inf or
    # nan, so the finiteness check on the solution catches it without a
    # test per level; the sweep's Python floats raise instead.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        depth = max(0, n.bit_length() - SWEEP_BITS)
        m = (((n >> depth) + 1) << depth) - 1
        # Row i reads -a[i]*x[i-1] + b[i]*x[i] - c[i]*x[i+1] = d[i]: with
        # the off-diagonals stored negated, the reduction needs no
        # negations.
        a = np.zeros(m)
        b = np.ones(m)
        c = np.zeros(m)
        d = np.zeros(m)
        np.negative(tri.lower, a[1:n])
        b[:n] = tri.diag
        np.negative(tri.upper, c[:n - 1])
        d[:n] = rhs

        levels = [(a, b, c, d)]
        for _ in range(depth):
            alpha = a[1::2] / b[:-1:2]
            beta = c[1::2] / b[2::2]
            # b' = b - alpha*c - beta*a and d' = d + alpha*d + beta*d of
            # the neighbours, each summed left to right into its own array.
            b_next = alpha * c[:-1:2]
            np.subtract(b[1::2], b_next, b_next)
            b_next -= beta * a[2::2]
            d_next = alpha * d[:-1:2]
            np.add(d[1::2], d_next, d_next)
            d_next += beta * d[2::2]
            a, b, c, d = alpha * a[:-1:2], b_next, beta * c[2::2], d_next
            levels.append((a, b, c, d))
        # x[r + 1] is the unknown of row r, between two zero borders. Row
        # j of the level with stride `step` is row (j + 1) * step / 2 - 1,
        # so its even rows sit at step/2, 3*step/2, ... and their
        # neighbours, solved one level up, half a stride to either side.
        x = np.zeros(m + 2)
        step = 1 << depth
        try:
            x[step:-1:step] = _sweep(a, b, c, d)
        except ZeroDivisionError:
            raise SingularMatrixError("zero pivot") from None
        for a, b, c, d in reversed(levels[:-1]):
            even = a[::2] * x[:-1:step]
            np.add(d[::2], even, even)
            even += c[::2] * x[step::step]
            np.divide(even, b[::2], x[step // 2::step])
            step //= 2

    x = x[1:n + 1]
    if not np.isfinite(x).all():
        raise SingularMatrixError("zero pivot or non-finite solution")
    return x
