import dataclasses
import os
import subprocess
import sys
import textwrap
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soilcolumn
from soilcolumn import tridiag
from soilcolumn.discretization import jacobian
from soilcolumn.scenarios import example2, example3
from soilcolumn.tridiag import SWEEP_BITS, Plan, SingularMatrixError, Tridiagonal


def solve(tri, b):
    """tridiag.solve in a plan of its own."""
    return tridiag.solve(tri, b, Plan(tri.diag.size))


def random_system(rng, n):
    lower = rng.normal(size=n - 1)
    upper = rng.normal(size=n - 1)
    # diagonally dominant so the pivotless elimination is safe
    diag = 2.0 + np.abs(rng.normal(size=n))
    diag[:-1] += np.abs(upper)
    diag[1:] += np.abs(lower)
    return Tridiagonal(lower=lower, diag=diag, upper=upper)


# Sizes on both sides of 2**k - 1 and of the 64 rows past which the
# reduction runs its first level; test_solution_ignores_identity_rows
# covers the identity rows it pads with.
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


# rho = 0 leaves every row uncoupled, and rho of about 1e-3 nearly so;
# both are reduced 3 levels and swept like any other system of 500 rows.
@pytest.mark.parametrize("off", [0.0, 5e-4])
def test_dominant_matrix_matches_dense(off, as_dense):
    rng = np.random.default_rng(20)
    tri = Tridiagonal(lower=off * rng.uniform(-1, 1, 499),
                      diag=rng.uniform(1.0, 2.0, 500),
                      upper=off * rng.uniform(-1, 1, 499))
    b = rng.normal(size=500)
    assert max_relative_error(solve(tri, b),
                              np.linalg.solve(as_dense(tri), b)) <= 1e-15


def test_laplacian_takes_full_depth(as_dense):
    # rho = 1 exactly: the unit off-diagonals do not shrink from level to
    # level, so the 62 rows of the last level stay coupled in the sweep
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
    """A row-dominant system whose off-diagonals fall below the unit
    round-off relative to the diagonal after `depth` levels (Heller 1976)."""
    # rho**(2**depth) = 2**(-4/3*53) and rho**(2**(depth-1)) = 2**(-2/3*53);
    # the off-diagonal row sums fall in [rho/2, rho].
    rho = 2.0 ** (-53.0 / (0.75 * 2 ** depth))
    lower, upper = (0.25 * rho * rng.uniform(1.0, 2.0, size=(2, n - 1))
                    * rng.choice([-1.0, 1.0], size=(2, n - 1)))
    return Tridiagonal(lower=lower, diag=np.ones(n), upper=upper)


def sweep_depth(n):
    """The levels the reduction runs before the sweep on n rows."""
    return max(0, n.bit_length() - SWEEP_BITS)


def assert_same_solution(tri, b, extra_rows):
    """The identity rows solve to zero, and the first n unknowns are bit
    for bit those of the unextended system wherever the extra rows leave
    the depth unchanged; where they add a level, the reduction rounds
    differently."""
    n = b.size
    x = solve(tri, b)
    for k in extra_rows:
        padded = solve(*with_identity_rows(tri, b, k))
        assert not padded[n:].any(), k
        if sweep_depth(n + k) == sweep_depth(n):
            assert padded[:n].tobytes() == x.tobytes(), k


# Row-dominant systems of n rows on both sides of 2**d * q - 1, extended
# by identity rows past that and past the next multiple; up to n = 160
# they run 0 to 2 levels before the sweep.
@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("q", [2, 5])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_solution_ignores_identity_rows(depth, q, offset):
    n = 2 ** depth * q - 1 + offset
    rng = np.random.default_rng([depth, q, offset + 1])
    tri = dominant_system(rng, n, depth)
    assert_same_solution(tri, rng.normal(size=n),
                         [1, 2, 2 ** depth - 1, 2 ** depth, 2 ** depth + 1, 3 * n])


# rho = 1 from n = 3 on: every level stays coupled, and from n = 64 on
# identity rows that add a bit to the row count add a level.
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


def test_dominant_system_past_sweep_depth(as_dense):
    # rho < 1, with off-diagonals that fall below round-off only after 5
    # levels; the 3 that leave fewer than 64 of 500 rows and the sweep
    # solve it
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
    # A one-entry band would broadcast over every off-diagonal row; a
    # two-entry one would not broadcast at all.
    for lower, upper in [([0.5], [0.1]), ([0.5, 0.5], np.full(4, 0.1))]:
        tri = Tridiagonal(lower=np.array(lower), diag=np.full(5, 2.0),
                          upper=np.array(upper))
        with pytest.raises(ValueError, match=f"band lengths {len(lower)} "):
            solve(tri, np.ones(5))


def test_plan_of_another_size_raises():
    tri = random_system(np.random.default_rng(32), 500)
    with pytest.raises(ValueError, match="plan for 501 rows != matrix size 500"):
        tridiag.solve(tri, np.ones(500), Plan(501))


def test_plan_reuse_keeps_every_answer():
    # One plan per size, each reused after solves of other sizes, against
    # a fresh plan for every solve.
    rng = np.random.default_rng(26)
    plans = {n: Plan(n) for n in (500, 5000, 7)}
    for n in (500, 5000, 500, 7, 500):
        tri = random_system(rng, n)
        b = rng.normal(size=n)
        np.testing.assert_array_equal(tridiag.solve(tri, b, plans[n]),
                                      solve(tri, b))


@pytest.mark.parametrize("pivot", ["reduction", "sweep"])
def test_failed_solve_leaves_nothing_behind(pivot):
    # A zero first pivot fills the reduction's levels and x with inf and
    # nan at n = 500; at n = 3 the sweep meets its zero pivot midway.
    rng = np.random.default_rng(27)
    if pivot == "reduction":
        n = 500
        singular = random_system(rng, n)
        singular.diag[0] = 0.0
    else:
        n = 3
        singular = Tridiagonal(lower=np.ones(2), diag=np.ones(3),
                               upper=np.ones(2))
    plan = Plan(n)
    tridiag.solve(random_system(rng, n), rng.normal(size=n), plan)
    with pytest.raises(SingularMatrixError):
        tridiag.solve(singular, np.ones(n), plan)
    tri = random_system(rng, n)
    b = rng.normal(size=n)
    np.testing.assert_array_equal(tridiag.solve(tri, b, plan), solve(tri, b))


def test_result_survives_the_next_solve():
    rng = np.random.default_rng(28)
    plan = Plan(500)
    first = tridiag.solve(random_system(rng, 500), rng.normal(size=500), plan)
    kept = first.copy()
    tridiag.solve(random_system(rng, 500), rng.normal(size=500), plan)
    np.testing.assert_array_equal(first, kept)


def test_solve_leaves_its_inputs_unchanged():
    rng = np.random.default_rng(29)
    tri = random_system(rng, 500)
    b = rng.normal(size=500)
    bands = [tri.lower.copy(), tri.diag.copy(), tri.upper.copy(), b.copy()]
    solve(tri, b)
    for given, kept in zip([tri.lower, tri.diag, tri.upper, b], bands):
        np.testing.assert_array_equal(given, kept)


def test_concurrent_solves_of_one_size(monkeypatch):
    # Both threads reach the sweep of a 500-row system before either one
    # goes on, so each has reduced its system into its own plan before it
    # sweeps; a plan shared between them would mix the two.
    rng = np.random.default_rng(31)
    systems = [(random_system(rng, 500), rng.normal(size=500)) for _ in range(2)]
    expected = [solve(tri, b) for tri, b in systems]
    barrier = threading.Barrier(2, timeout=30)
    sweep = tridiag._sweep

    def meet(a, b, c, d):
        barrier.wait()
        return sweep(a, b, c, d)

    monkeypatch.setattr(tridiag, "_sweep", meet)
    with ThreadPoolExecutor(2) as pool:
        runs = [pool.submit(solve, tri, b) for tri, b in systems]
        for run, x in zip(runs, expected):
            np.testing.assert_array_equal(run.result(), x)


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


# At dt=0.001 the n=5000 matrix has rho = 0.92; at dt=0.1 the n=20000
# matrix has rho > 1.
@pytest.mark.parametrize("d, dt", [(0.001, 0.001), (0.00025, 0.1)])
def test_coupled_fine_grid_newton_matrix(d, dt):
    tri = newton_matrix(dataclasses.replace(example3(), d=d), dt=dt)
    n = tri.diag.size
    b = np.random.default_rng(n).normal(size=n)
    assert relative_residual(tri, solve(tri, b), b) <= 1e-14


@pytest.fixture
def swept(monkeypatch):
    """The row counts of the tridiag._sweep calls, in call order."""
    sizes = []
    sweep = tridiag._sweep

    def recorded(a, b, c, d):
        sizes.append(b.size)
        return sweep(a, b, c, d)

    monkeypatch.setattr(tridiag, "_sweep", recorded)
    return sizes


# Uncoupled rows at the end of the input itself, not identity rows, after
# a coupled block with rho = 1 or rho < 1. Each solves to d / b exactly,
# and the coupled block keeps its solution bit for bit where they leave
# the depth unchanged. However many rows follow, the sweep takes fewer
# than 64.
@pytest.mark.parametrize("coupled", ["laplacian", "dominant"])
def test_trailing_uncoupled_rows_keep_the_solution(coupled, swept):
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
        np.testing.assert_array_equal(y[n:], rhs / diag)
        if sweep_depth(n + k) == sweep_depth(n):
            assert y[:n].tobytes() == x.tobytes(), k
    assert 0 < max(swept) < 2 ** SWEEP_BITS


# One path: a solve runs its levels and sweeps once, also where the
# off-diagonals fall below round-off before the sweep's depth. That holds
# for the n=5000 matrix at dt=1e-4, as on the fine_front workload, and
# for a system whose off-diagonals do so after 3 levels. kappa=0 has no
# lower diagonal; under example2's dry top its off-diagonals end at row
# 48 of 500, and the depth still follows from the 500 rows.
@pytest.mark.parametrize("system", ["fine_front", "dominant", "pure_transport",
                                    "dry_top"])
def test_coupled_solve_sweeps_once(system, swept):
    if system == "fine_front":
        tri = newton_matrix(dataclasses.replace(example3(), d=0.001), dt=1e-4)
    elif system == "dominant":
        tri = dominant_system(np.random.default_rng(25), 500, 3)
    elif system == "pure_transport":
        tri = newton_matrix(example3(kappa=0.0), dt=0.5)
    else:
        scn = example2()
        scn = dataclasses.replace(
            scn, params=dataclasses.replace(scn.params, kappa=0.0))
        tri = newton_matrix(scn, dt=0.5)
        assert tri.upper[47] and not tri.upper[48:].any()
    n = tri.diag.size
    b = np.random.default_rng(n).normal(size=n)
    x = solve(tri, b)
    assert len(swept) == 1 and 0 < swept[0] < 2 ** SWEEP_BITS
    assert relative_residual(tri, x, b) <= 1e-14


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
