"""Tridiagonal matrices and the solve of the Newton iteration: odd-even
cyclic reduction, finished by a Thomas sweep once fewer than 64 rows are left.

The reduction's work arrays and views depend only on the row count, so
they are built once per size, as a plan that each thread keeps for the
last size it solved: about 10.5 doubles per padded row, 0.41 MiB at
n = 5,000. A run at discretization.MAX_CELLS (10**6 cells) keeps about
81 MiB in its plan until that thread solves a different size."""

from __future__ import annotations

import threading
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
# Timed with the plan (one core of a 2-core Xeon VM, NumPy 2.4, best of
# 9 repeats over two passes), a solve takes 41.5, 43.2 and 51.7 us at
# n = 500 and 110.8, 109.9 and 115.6 us at n = 5,000 for 5, 6 and 7.
# 5 and 6 are within the noise of each other, and another value changes
# the reduction's arithmetic, so every trajectory moves by round-off.
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


class _Plan:
    """The work arrays of the reduction of an n-row system and the views
    each level reads and writes, built once and reused by every solve of
    that size. A solve writes a[1:n], b[:n], c[:n-1], d[:n], every level
    array and every interior entry of x, so a failed solve leaves nothing
    that a later one reads."""

    def __init__(self, n: int):
        self.n = n
        depth = max(0, n.bit_length() - SWEEP_BITS)
        m = (((n >> depth) + 1) << depth) - 1
        # Row i reads -a[i]*x[i-1] + b[i]*x[i] - c[i]*x[i+1] = d[i]: with
        # the off-diagonals stored negated, the reduction needs no
        # negations. Past row n the identity padding is written here once.
        a, b, c, d = level = np.zeros(m), np.ones(m), np.zeros(m), np.zeros(m)
        self.bands = (a[1:n], b[:n], c[:n - 1], d[:n])
        # alpha and beta of the first level, the largest, and one
        # temporary that the back-substitution also takes for its even rows.
        alpha, beta = np.empty((2, (m - 1) // 2))
        tmp = np.empty((m + 1) // 2)
        # x[r + 1] is the unknown of row r, between two zero borders. Row
        # j of the level with stride `step` is row (j + 1) * step / 2 - 1,
        # so its even rows sit at step/2, 3*step/2, ... and their
        # neighbours, solved one level up, half a stride to either side.
        self.x = x = np.zeros(m + 2)
        self.levels = []
        back = []
        step = 1
        for _ in range(depth):
            rows = (level[0].size - 1) // 2
            step *= 2
            following = tuple(np.empty((4, rows)))
            self.levels.append((
                [v[:-1:2] for v in level], [v[1::2] for v in level],
                [v[2::2] for v in level], following,
                (alpha[:rows], beta[:rows], tmp[:rows])))
            back.append(([v[::2] for v in level], x[:-1:step], x[step::step],
                         x[step // 2::step], tmp[:rows + 1]))
            level = following
        self.last = level
        self.swept = x[step:-1:step]
        self.back = back[::-1]


# One plan per thread, for the size that thread solved last.
_local = threading.local()


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

    The work arrays and their views depend only on n, so each thread
    keeps one plan (_Plan) for the last size it solved and builds a new
    one when n changes. A plan holds about 10.5 doubles per padded row,
    0.41 MiB at n = 5,000, until its thread solves another size. The
    solve copies tri and rhs into it and writes into neither; the result
    is a fresh array.

    Raises ValueError when a band or rhs does not match the matrix size,
    and SingularMatrixError when a pivot vanishes or the solution is not
    finite.
    """
    n = tri.diag.size
    if rhs.size != n:
        raise ValueError(f"rhs length {rhs.size} != matrix size {n}")
    if tri.lower.size != n - 1 or tri.upper.size != n - 1:
        raise ValueError(f"band lengths {tri.lower.size} (lower) and "
                         f"{tri.upper.size} (upper) != matrix size {n} - 1")
    plan = getattr(_local, "plan", None)
    if plan is None or plan.n != n:
        plan = _local.plan = _Plan(n)
    a, b, c, d = plan.bands
    # A zero pivot of the reduction turns its own unknown into inf or
    # nan, so the finiteness check on the solution catches it without a
    # test per level; the sweep's Python floats raise instead.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.negative(tri.lower, a)
        b[...] = tri.diag
        np.negative(tri.upper, c)
        d[...] = rhs
        for ((al, bl, cl, dl), (am, bm, cm, dm), (ar, br, cr, dr),
             (an, bn, cn, dn), (alpha, beta, tmp)) in plan.levels:
            np.divide(am, bl, alpha)
            np.divide(cm, br, beta)
            # b' = b - alpha*c - beta*a and d' = d + alpha*d + beta*d of
            # the neighbours, each summed left to right into its own array.
            np.multiply(alpha, cl, bn)
            np.subtract(bm, bn, bn)
            np.multiply(beta, ar, tmp)
            np.subtract(bn, tmp, bn)
            np.multiply(alpha, dl, dn)
            np.add(dm, dn, dn)
            np.multiply(beta, dr, tmp)
            np.add(dn, tmp, dn)
            np.multiply(alpha, al, an)
            np.multiply(beta, cr, cn)
        try:
            plan.swept[...] = _sweep(*plan.last)
        except ZeroDivisionError:
            raise SingularMatrixError("zero pivot") from None
        # The even unknowns, (d + a*left + c*right) / b, with c*right
        # held in their own slots of x until the division overwrites it.
        for (a, b, c, d), left, right, out, even in plan.back:
            np.multiply(a, left, even)
            np.add(d, even, even)
            np.multiply(c, right, out)
            np.add(even, out, even)
            np.divide(even, b, out)

    x = plan.x[1:n + 1]
    if not np.isfinite(x).all():
        raise SingularMatrixError("zero pivot or non-finite solution")
    return x.copy()
