"""The vectorized Jacobi kernel must match the per-element scalar loop bit-for-bit."""

import math
import warnings

import numpy as np
import pytest

from lapbounds import generate_connected_gnp, normalized_laplacian, signless_laplacian
from lapbounds.graph import from_edges
from lapbounds.kernels import jacobi_sweeps


def _reference_sweeps(a: np.ndarray, tol: float, max_sweeps: int):
    """The row-cyclic scalar loop the vectorized kernel replaced, verbatim."""
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


def _assert_identical(m: np.ndarray):
    tol = _tol(m)
    a_new = m.copy()
    a_ref = m.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweeps_new, off_new = jacobi_sweeps(a_new, tol, 100)
    # on numpy scalars theta * theta may overflow to inf, with a warning
    with np.errstate(over="ignore"):
        sweeps_ref, off_ref = _reference_sweeps(a_ref, tol, 100)
    assert sweeps_new == sweeps_ref
    assert off_new == off_ref
    assert np.array_equal(np.diag(a_new), np.diag(a_ref))
    return sweeps_new, off_new, tol


@pytest.mark.parametrize("n", list(range(2, 13)) + [32, 64])
@pytest.mark.parametrize("build", [normalized_laplacian, signless_laplacian])
def test_bit_identical_to_scalar_loop(build, n):
    m = build(generate_connected_gnp(n, 0.5, 900 + n))
    sweeps, off, tol = _assert_identical(m)
    assert off <= tol
    assert sweeps > 0


@pytest.mark.parametrize("build", [normalized_laplacian, signless_laplacian])
def test_bit_identical_with_exact_zero_off_diagonal(build):
    # two triangles and a path: every cross-component entry is 0.0 and stays
    # 0.0, so the apq == 0.0 skip is taken throughout
    edges = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (7, 8), (8, 9), (9, 10)]
    m = build(from_edges(10, edges))
    assert np.count_nonzero(m == 0.0) > m.size // 2
    _assert_identical(m)


def test_diagonal_matrix_takes_zero_sweeps():
    d = np.array([3.0, -1.0, 0.5, 2.0])
    a = np.diag(d)
    sweeps, off = jacobi_sweeps(a, 1e-12, 100)
    assert sweeps == 0
    assert off == 0.0
    assert np.array_equal(np.diag(a), d)


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
