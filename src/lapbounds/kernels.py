"""Row-cyclic Jacobi sweep kernel.

Each rotation updates whole columns p and q (and, by symmetry, rows p and
q) with numpy vector operations. Every element goes through the same IEEE
operations in the same order as the per-element scalar loop it replaces, so
the spectra are bit-identical to it on every machine.
"""

from __future__ import annotations

import importlib.util
import math

import numpy as np

# perfbench records whether numba is importable; the kernel does not use it
HAS_NUMBA = importlib.util.find_spec("numba") is not None


def _off_norm(a: np.ndarray, n: int) -> float:
    # a sequential sum: a pairwise np.sum could round differently and move
    # the convergence test by a sweep
    acc = 0.0
    for i in range(n - 1):
        for j in range(i + 1, n):
            acc += a[i, j] * a[i, j]
    return math.sqrt(2.0 * acc)


def jacobi_sweeps(a: np.ndarray, tol: float, max_sweeps: int):
    """Diagonalize symmetric a in place by row-cyclic Jacobi rotations.

    Returns (sweeps_used, final_off_norm). Convergence: off-diagonal
    Frobenius norm <= tol. Rotation order is fixed (p, q) row-cyclic so
    results are reproducible.
    """
    n = a.shape[0]
    for sweep in range(max_sweeps):
        off = _off_norm(a, n)
        if off <= tol:
            return sweep, off
        for p in range(n - 1):
            for q in range(p + 1, n):
                # Python floats: the same IEEE doubles as numpy scalars, but
                # theta * theta overflows to inf without a RuntimeWarning
                apq = a.item(p, q)
                if apq == 0.0:
                    continue
                app = a.item(p, p)
                aqq = a.item(q, q)
                theta = (aqq - app) / (2.0 * apq)
                if theta >= 0.0:
                    t = 1.0 / (theta + math.sqrt(theta * theta + 1.0))
                else:
                    t = -1.0 / (-theta + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                tau = s / (1.0 + c)
                # both new columns are formed before either is written back
                cp = a[:, p]
                cq = a[:, q]
                new_p = cp - s * (cq + tau * cp)
                new_q = cq + s * (cp - tau * cq)
                a[:, p] = new_p
                a[:, q] = new_q
                a[p, :] = new_p
                a[q, :] = new_q
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
    return max_sweeps, _off_norm(a, n)
