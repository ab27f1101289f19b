"""The round-robin Jacobi kernel against the row-cyclic scalar loop.

The two orders round differently, so the spectra must agree to 1e-13 of the
largest |eigenvalue| rather than bit for bit. The test names that say
"bit_identical" date from the row-cyclic kernel, which matched the loop
exactly; they are kept so that the test ids stay stable.
"""

import math
import warnings

import numpy as np
import pytest

from lapbounds import generate_connected_gnp, normalized_laplacian, signless_laplacian
from lapbounds import eig
from lapbounds.errors import ConvergenceError
from lapbounds.graph import from_edges
from lapbounds.kernels import _circle_permutation, jacobi_sweeps


def _reference_sweeps(a: np.ndarray, tol: float, max_sweeps: int):
    """The row-cyclic scalar loop of the first kernels, verbatim."""
    n = a.shape[0]
    for sweep in range(max_sweeps):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                off += a[i, j] * a[i, j]
        off = math.sqrt(2.0 * off)
        if off <= tol:
            return sweep, off
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta >= 0.0:
                    t = 1.0 / (theta + math.sqrt(theta * theta + 1.0))
                else:
                    t = -1.0 / (-theta + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                tau = s / (1.0 + c)
                app = a[p, p]
                aqq = a[q, q]
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
                for i in range(n):
                    if i != p and i != q:
                        aip = a[i, p]
                        aiq = a[i, q]
                        a[i, p] = aip - s * (aiq + tau * aip)
                        a[i, q] = aiq + s * (aip - tau * aiq)
                        a[p, i] = a[i, p]
                        a[q, i] = a[i, q]
    off = 0.0
    for i in range(n - 1):
        for j in range(i + 1, n):
            off += a[i, j] * a[i, j]
    return max_sweeps, math.sqrt(2.0 * off)


def _tol(m: np.ndarray) -> float:
    return 1e-12 * (1.0 + float(np.sqrt(np.sum(m * m))))


def _assert_agrees(m: np.ndarray) -> tuple[int, np.ndarray]:
    """Solve m with the kernel and the reference; both converge to one spectrum."""
    tol = _tol(m)
    a_new = m.copy()
    a_ref = m.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweeps, off = jacobi_sweeps(a_new, tol, 100)
    # on numpy scalars theta * theta may overflow to inf, with a warning
    with np.errstate(over="ignore"):
        _, off_ref = _reference_sweeps(a_ref, tol, 100)
    assert off <= tol and off_ref <= tol
    ours = np.sort(np.diag(a_new))
    scale = np.abs(ours).max()
    assert np.abs(ours - np.sort(np.diag(a_ref))).max() <= 1e-13 * scale
    # cross-check only: the Jacobi kernel is the oracle, not eigvalsh
    assert np.abs(ours - np.linalg.eigvalsh(m)).max() <= 1e-13 * scale
    return sweeps, a_new


@pytest.mark.parametrize("n", list(range(2, 13)) + [32, 33, 63, 64])
@pytest.mark.parametrize("build", [normalized_laplacian, signless_laplacian])
def test_bit_identical_to_scalar_loop(build, n):
    m = build(generate_connected_gnp(n, 0.5, 900 + n))
    sweeps, _ = _assert_agrees(m)
    assert sweeps > 0


@pytest.mark.parametrize("build", [normalized_laplacian, signless_laplacian])
def test_bit_identical_with_exact_zero_off_diagonal(build):
    # two triangles and a path: pairs across components have apq == 0.0,
    # often with app == aqq, and every rotation keeps their entries 0.0
    edges = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (7, 8), (8, 9), (9, 10)]
    m = build(from_edges(10, edges))
    assert np.count_nonzero(m == 0.0) > m.size // 2
    _, a = _assert_agrees(m)
    component = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2, 2])
    across = component[:, None] != component[None, :]
    assert np.all(a[across] == 0.0)


def test_rotated_matrix_keeps_vertex_order():
    # odd n: the dummy slot is dropped, and each eigenvalue stays on the
    # diagonal entry it started nearest to
    d = np.array([5.0, 1.0, 4.0, 2.0, 3.0])
    m = np.diag(d) + 1e-3 * (np.ones((5, 5)) - np.eye(5))
    a = m.copy()
    _, off = jacobi_sweeps(a, _tol(m), 100)
    assert off <= _tol(m)
    assert np.abs(np.diag(a) - d).max() < 1e-5
    assert np.abs(a - np.diag(np.diag(a))).max() <= _tol(m)


@pytest.mark.parametrize("m", range(2, 41, 2))
def test_each_sweep_rotates_every_pair_once(m):
    perm = _circle_permutation(m)
    k = m // 2
    slots = np.arange(m)  # vertex in each slot
    seen = set()
    for _ in range(m - 1):
        seen.update(frozenset(pair) for pair in zip(slots[:k], slots[k:]))
        slots = slots[perm]
    assert len(seen) == m * (m - 1) // 2
    assert np.array_equal(slots, np.arange(m))


def test_diagonal_matrix_takes_zero_sweeps():
    d = np.array([3.0, -1.0, 0.5, 2.0])
    a = np.diag(d)
    sweeps, off = jacobi_sweeps(a, 1e-12, 100)
    assert sweeps == 0
    assert off == 0.0
    assert np.array_equal(np.diag(a), d)


def test_sweep_cap_reports_non_convergence(monkeypatch):
    m = signless_laplacian(generate_connected_gnp(20, 0.5, 3))
    a = m.copy()
    sweeps, off = jacobi_sweeps(a, _tol(m), 1)
    assert sweeps == 1
    assert off > _tol(m)
    monkeypatch.setattr(eig, "_MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError, match="did not converge in 1 sweeps"):
        eig.eigenvalues_symmetric(m)


@pytest.mark.parametrize("seed", range(910, 916))
def test_agrees_with_library_eigensolver(seed):
    # cross-check only: the Jacobi kernel is the oracle, not eigvalsh
    g = generate_connected_gnp(6 + seed % 20, 0.4, seed)
    for m in (normalized_laplacian(g), signless_laplacian(g)):
        a = m.copy()
        jacobi_sweeps(a, _tol(m), 100)
        ours = np.sort(np.diag(a))
        ref = np.linalg.eigvalsh(m)
        assert np.allclose(ours, ref, rtol=0.0, atol=1e-10 * (1.0 + abs(ref).max()))
