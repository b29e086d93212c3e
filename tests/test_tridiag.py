import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soilcolumn
from soilcolumn import tridiag
from soilcolumn.discretization import jacobian
from soilcolumn.scenarios import example3
from soilcolumn.tridiag import (
    SWEEP_BITS, SingularMatrixError, Tridiagonal, _dominant_depth, solve)


def random_system(rng, n):
    lower = rng.normal(size=n - 1)
    upper = rng.normal(size=n - 1)
    # diagonally dominant so the pivotless elimination is safe
    diag = 2.0 + np.abs(rng.normal(size=n))
    diag[:-1] += np.abs(upper)
    diag[1:] += np.abs(lower)
    return Tridiagonal(lower=lower, diag=diag, upper=upper)


# Sizes on both sides of 2**k - 1, the rows a full-depth reduction pads
# to; test_solution_ignores_identity_rows covers the shorter pads of an
# early stop.
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9, 10, 500, 511, 512, 513])
def test_solve_matches_dense(n, as_dense):
    rng = np.random.default_rng(n)
    tri = random_system(rng, n)
    b = rng.normal(size=n)
    x = solve(tri, b)
    np.testing.assert_allclose(x, np.linalg.solve(as_dense(tri), b),
                               rtol=1e-12, atol=1e-12)


def max_relative_error(x, ref):
    return np.abs(x - ref).max() / np.abs(ref).max()


# rho = 0 solves every row as x = d / b; rho of about 1e-3 stops the
# reduction after 3 of its 8 levels.
@pytest.mark.parametrize("off", [0.0, 5e-4])
def test_dominant_matrix_stops_early(off, as_dense):
    rng = np.random.default_rng(20)
    tri = Tridiagonal(lower=off * rng.uniform(-1, 1, 499),
                      diag=rng.uniform(1.0, 2.0, 500),
                      upper=off * rng.uniform(-1, 1, 499))
    b = rng.normal(size=500)
    assert max_relative_error(solve(tri, b),
                              np.linalg.solve(as_dense(tri), b)) <= 1e-15


def test_laplacian_takes_full_depth(as_dense):
    # rho = 1 exactly, so no early stop; one would leave the unit
    # off-diagonals of a level in place and miss the solution by O(1)
    n = 500
    tri = Tridiagonal(lower=-np.ones(n - 1), diag=np.full(n, 2.0),
                      upper=-np.ones(n - 1))
    b = np.random.default_rng(22).normal(size=n)
    # condition number about 1e5: both solves carry that much round-off
    assert max_relative_error(solve(tri, b),
                              np.linalg.solve(as_dense(tri), b)) <= 1e-11


def with_identity_rows(tri, b, k):
    """tri and b extended by k rows of the identity, uncoupled from tri."""
    zeros = np.zeros(k)
    return (Tridiagonal(lower=np.concatenate([tri.lower, zeros]),
                        diag=np.concatenate([tri.diag, np.ones(k)]),
                        upper=np.concatenate([tri.upper, zeros])),
            np.concatenate([b, zeros]))


def dominant_system(rng, n, depth):
    """A system whose rho stops the reduction after `depth` levels."""
    # rho**(2**depth) = 2**(-4/3*53) and rho**(2**(depth-1)) = 2**(-2/3*53);
    # the off-diagonal row sums fall in [rho/2, rho].
    rho = 2.0 ** (-53.0 / (0.75 * 2 ** depth))
    lower, upper = (0.25 * rho * rng.uniform(1.0, 2.0, size=(2, n - 1))
                    * rng.choice([-1.0, 1.0], size=(2, n - 1)))
    tri = Tridiagonal(lower=lower, diag=np.ones(n), upper=upper)
    rows = np.abs(np.concatenate([[0.0], lower])) + np.abs(np.append(upper, 0.0))
    assert _dominant_depth(rows.max()) == depth
    return tri


def assert_same_solution(tri, b, extra_rows):
    x = solve(tri, b)
    for k in extra_rows:
        padded = solve(*with_identity_rows(tri, b, k))
        assert padded[:b.size].tobytes() == x.tobytes(), k
        assert not padded[b.size:].any()


# The reduction pads to 2**d * q - 1 rows after an early stop at depth d;
# n on both sides of that, extended past it and past the next multiple.
@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("q", [2, 5])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_solution_ignores_identity_rows(depth, q, offset):
    n = 2 ** depth * q - 1 + offset
    rng = np.random.default_rng([depth, q, offset + 1])
    tri = dominant_system(rng, n, depth)
    assert_same_solution(tri, rng.normal(size=n),
                         [1, 2, 2 ** depth - 1, 2 ** depth, 2 ** depth + 1, 3 * n])


# rho = 1 from n = 3 on: the reduction runs to full depth, one level more
# once the identity rows add a bit to the row count.
@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 31, 32, 33, 255, 256, 257])
def test_full_depth_ignores_identity_rows(n):
    tri = Tridiagonal(lower=-np.ones(n - 1), diag=np.full(n, 2.0),
                      upper=-np.ones(n - 1))
    b = np.random.default_rng(n).normal(size=n)
    assert_same_solution(tri, b, [1, 2, n, n + 1, 4 * n])


def test_matvec_roundtrip(as_dense):
    rng = np.random.default_rng(3)
    tri = random_system(rng, 40)
    x = rng.normal(size=40)
    np.testing.assert_allclose(solve(tri, as_dense(tri) @ x), x, rtol=1e-10)


def test_singular_pivot_raises():
    tri = Tridiagonal(lower=np.array([1.0]), diag=np.array([0.0, 1.0]),
                      upper=np.array([1.0]))
    with pytest.raises(SingularMatrixError):
        solve(tri, np.array([1.0, 1.0]))
    with pytest.raises(SingularMatrixError):
        solve(Tridiagonal(np.empty(0), np.array([0.0]), np.empty(0)),
              np.array([1.0]))


def test_sweep_zero_pivot_raises():
    # nonsingular (det -1), and the reduction's one level pivots on the
    # first and last rows; the sweep's elimination without pivoting meets
    # 1 - 1*1 = 0 in the middle row
    tri = Tridiagonal(lower=np.ones(2), diag=np.ones(3), upper=np.ones(2))
    with pytest.raises(SingularMatrixError):
        solve(tri, np.ones(3))


def sweep_depth(n):
    """The levels the reduction runs before the sweep on n coupled rows."""
    return max(0, n.bit_length() - SWEEP_BITS)


def test_early_stop_past_sweep_depth(as_dense):
    # rho < 1, but the early stop after 5 levels lies past the 3 that
    # leave fewer than 64 of 500 rows, so the sweep solves those
    assert sweep_depth(500) == 3
    rng = np.random.default_rng(23)
    tri = dominant_system(rng, 500, 5)
    b = rng.normal(size=500)
    assert max_relative_error(solve(tri, b),
                              np.linalg.solve(as_dense(tri), b)) <= 1e-12


def test_size_mismatch_raises():
    tri = Tridiagonal(lower=np.array([1.0]), diag=np.array([2.0, 2.0]),
                      upper=np.array([1.0]))
    with pytest.raises(ValueError):
        solve(tri, np.array([1.0, 1.0, 1.0]))


def newton_matrix(scenario, dt):
    """I - dt*J at the scenario's initial state, as the Newton loop builds it."""
    grid = scenario.build_grid()
    jac = jacobian(scenario.initial_state(grid), grid, scenario.params, scenario.bc)
    return Tridiagonal(lower=-dt * jac.lower, diag=1.0 - dt * jac.diag,
                       upper=-dt * jac.upper)


def relative_residual(tri, x, b):
    """max|tri @ x - b| over max-norm(tri) * max|x|."""
    row_sums = np.abs(tri.diag)
    row_sums[:-1] += np.abs(tri.upper)
    row_sums[1:] += np.abs(tri.lower)
    product = tri.diag * x
    product[:-1] += tri.upper * x[1:]
    product[1:] += tri.lower * x[:-1]
    return np.abs(product - b).max() / (row_sums.max() * np.abs(x).max())


def test_pure_transport_newton_matrix(as_dense):
    # kappa=0: the upwind Jacobian has no lower diagonal at all
    tri = newton_matrix(example3(kappa=0.0), dt=0.5)
    assert not tri.lower.any()
    assert tri.upper.any()
    b = np.random.default_rng(7).normal(size=tri.diag.size)
    np.testing.assert_allclose(solve(tri, b), np.linalg.solve(as_dense(tri), b),
                               rtol=1e-12, atol=1e-12)


def test_fine_grid_newton_matrix():
    tri = newton_matrix(dataclasses.replace(example3(), d=0.001), dt=0.1)
    assert tri.diag.size == 5000
    b = np.random.default_rng(8).normal(size=5000)
    assert relative_residual(tri, solve(tri, b), b) <= 1e-14


# Both take the sweep: at dt=0.001 the n=5000 matrix has rho = 0.92,
# whose early stop after 9 levels lies past the sweep's 7; at dt=0.1
# the n=20000 matrix has rho > 1.
@pytest.mark.parametrize("d, dt", [(0.001, 0.001), (0.00025, 0.1)])
def test_coupled_fine_grid_newton_matrix(d, dt):
    tri = newton_matrix(dataclasses.replace(example3(), d=d), dt=dt)
    n = tri.diag.size
    rho = ((np.abs(np.append(tri.upper, 0.0)) + np.abs(np.insert(tri.lower, 0, 0.0)))
           / np.abs(tri.diag)).max()
    assert rho >= 1.0 or _dominant_depth(rho) > sweep_depth(n)
    b = np.random.default_rng(n).normal(size=n)
    assert relative_residual(tri, solve(tri, b), b) <= 1e-14


# Uncoupled rows at the end of the input itself, not identity rows, and
# a coupled block that takes the sweep: rho = 1, or an early stop after
# 5 levels past the sweep's 3. However many rows follow, the sweep takes
# at most 64.
@pytest.mark.parametrize("coupled", ["laplacian", "dominant"])
def test_trailing_uncoupled_rows_keep_the_solution(coupled, monkeypatch):
    swept = []
    sweep = tridiag._sweep

    def recorded(a, b, c, d):
        swept.append(b.size)
        return sweep(a, b, c, d)

    monkeypatch.setattr(tridiag, "_sweep", recorded)
    n = 500
    rng = np.random.default_rng(24)
    if coupled == "laplacian":
        tri = Tridiagonal(lower=-np.ones(n - 1), diag=np.full(n, 2.0),
                          upper=-np.ones(n - 1))
    else:
        tri = dominant_system(rng, n, 5)
    b = rng.normal(size=n)
    x = solve(tri, b)
    for k in (1, 40, 3 * n):
        diag = rng.uniform(1.0, 2.0, k)
        rhs = rng.normal(size=k)
        extended = Tridiagonal(lower=np.append(tri.lower, np.zeros(k)),
                               diag=np.append(tri.diag, diag),
                               upper=np.append(tri.upper, np.zeros(k)))
        y = solve(extended, np.append(b, rhs))
        assert y[:n].tobytes() == x.tobytes(), k
        np.testing.assert_array_equal(y[n:], rhs / diag)
    assert 0 < max(swept) <= 64


@st.composite
def dominant_systems(draw):
    """Row-diagonally dominant systems, diagonals of either sign."""
    n = draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-6, 6))
    margin = draw(st.floats(1e-6, 10.0))
    lower, upper = scale * rng.normal(size=(2, n - 1))
    if draw(st.booleans()):
        lower[:] = 0.0
    diag = scale * margin * (1.0 + rng.random(n))
    diag[:-1] += np.abs(upper)
    diag[1:] += np.abs(lower)
    diag *= rng.choice([-1.0, 1.0], size=n)
    return Tridiagonal(lower=lower, diag=diag, upper=upper), rng.normal(size=n)


@settings(max_examples=200, deadline=None)
@given(dominant_systems())
def test_residual_on_dominant_systems(system):
    tri, b = system
    assert relative_residual(tri, solve(tri, b), b) <= 1e-12


def test_solver_path_does_not_import_scipy():
    # SciPy would add about 0.3 s to start-up and 28 MiB of resident memory
    code = textwrap.dedent("""
        import sys
        import soilcolumn
        scn = soilcolumn.example3()
        grid = soilcolumn.build_grid(scn.params.depth_h, 0.1)
        trace = soilcolumn.integrate(scn.initial_state(grid), 0.01, [], grid,
                                     scn.params, scn.bc)
        assert trace.status == "completed", trace.failure_reason
        assert "scipy" not in sys.modules, "scipy was imported"
    """)
    src = str(Path(soilcolumn.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": path})
