"""Exact eigenvalues of real symmetric matrices via cyclic Jacobi rotations.

This is the oracle every bound is checked against, so it is independent of
any library eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lapbounds.errors import ConvergenceError
from lapbounds.kernels import jacobi_sweeps

_MAX_SWEEPS = 100


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted non-increasing: values[0] = lambda_1.

    sweeps and off_norm are the Jacobi solve's sweep count and final
    off-diagonal Frobenius norm (0 for a 1 x 1 matrix or given values).
    """

    values: tuple[float, ...]
    origin: str = "matrix"
    sweeps: int = 0
    off_norm: float = 0.0

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def largest(self) -> float:
        return self.values[0]

    @property
    def smallest(self) -> float:
        return self.values[-1]


def eigenvalues_symmetric(m: np.ndarray, origin: str = "matrix") -> Spectrum:
    """Eigenvalues of a symmetric matrix, descending.

    Converges when the off-diagonal Frobenius norm drops below
    1e-12 * (1 + ||M||_F), capped at 100 sweeps.
    """
    n = m.shape[0]
    if n == 0 or m.shape != (n, n):
        raise ValueError(f"need a square matrix of order >= 1, got shape {m.shape}")
    work = np.array(m, dtype=np.float64, order="C", copy=True)
    tol = 1e-12 * (1.0 + float(np.sqrt(np.sum(work * work))))
    if n == 1:
        return Spectrum(values=(float(work[0, 0]),), origin=origin)
    sweeps, off = jacobi_sweeps(work, tol, _MAX_SWEEPS)
    if off > tol:
        raise ConvergenceError(
            f"Jacobi did not converge in {_MAX_SWEEPS} sweeps; residual {off:.3e} > {tol:.3e}"
        )
    vals = np.sort(np.diag(work))[::-1]
    return Spectrum(
        values=tuple(float(v) for v in vals), origin=origin, sweeps=sweeps, off_norm=off
    )


def kth_eigenvalue(s: Spectrum, k: int) -> float:
    """lambda_k under descending order, 1-based."""
    if not (1 <= k <= s.n):
        raise ValueError(f"k must be in 1..{s.n}, got {k}")
    return s.values[k - 1]
