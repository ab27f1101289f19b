"""Round-robin Jacobi sweep kernel (Brent & Luk 1985).

Each sweep is n - 1 rounds of the circle (tournament) method. A round rotates
n/2 disjoint (p, q) pairs at once, so every pair is rotated exactly once per
sweep; odd n gets a zero dummy slot, whose rotations are identities. The
matrix is kept permuted so that a round's pairs sit in slots (i, n/2 + i):
the n/2 rotations are then one block update of the rows and one of the
columns, each mixing the two halves, and one fixed permutation between
rounds brings up the next round's pairs. After the n - 1 rounds of a sweep
the slots are back in the original vertex order.

Like the row-cyclic order, this keeps Jacobi's high relative accuracy
(Demmel & Veselić 1992); the spectra differ from the row-cyclic ones in the
last few ulps.
"""

from __future__ import annotations

import importlib.util
import math

import numpy as np

# perfbench records whether numba is importable; the kernel does not use it
HAS_NUMBA = importlib.util.find_spec("numba") is not None


def _circle_permutation(m: int) -> np.ndarray:
    """perm with b[perm][:, perm] moving round r's slot layout to round r + 1's.

    The circle method keeps player 0 fixed and rotates players 1..m-1 around
    a ring; ring position j plays position m - 1 - j. Position j < m/2 lives
    in slot j, position j >= m/2 in slot m - 1 - j + m/2, so each pair sits
    in slots (i, m/2 + i). m - 1 rotations restore the ring, so perm applied
    m - 1 times is the identity.
    """
    k = m // 2
    slot = np.concatenate((np.arange(k), np.arange(m - 1, k - 1, -1)))
    before = np.arange(-1, m - 1)  # ring position each position takes over
    before[0] = 0
    before[1] = m - 1
    perm = np.empty(m, dtype=np.intp)
    perm[slot] = slot[before]
    return perm


def _off_norm(b: np.ndarray, work: np.ndarray) -> float:
    # the off-diagonal squares alone: ||B||^2 - ||diag||^2 would cancel and
    # stall near 1e-8 relative
    np.multiply(b, b, out=work)
    work.reshape(-1)[:: b.shape[0] + 1] = 0.0
    return math.sqrt(float(np.sum(work)))


def jacobi_sweeps(a: np.ndarray, tol: float, max_sweeps: int):
    """Diagonalize symmetric a in place by round-robin Jacobi rotations.

    Returns (sweeps_used, final_off_norm). Convergence: off-diagonal
    Frobenius norm <= tol, tested before each sweep. Each sweep rotates every
    pair once, n(n-1)/2 rotations; a pair with apq == 0.0 gets the identity
    rotation, so exact zeros stay exact. On return a holds the rotated matrix
    in its original row and column order.
    """
    n = a.shape[0]
    m = n + n % 2
    k = m // 2
    b = np.zeros((m, m))
    b[:n, :n] = a
    spare = np.empty_like(b)
    work = np.empty_like(b)
    flat = b.reshape(-1)
    perm = _circle_permutation(m)
    i = np.arange(k)
    # flat positions of each pair's (p, q), (p, p), (q, q) and (q, p) entries
    blocks = np.concatenate((i * m + k + i, i * (m + 1), (k + i) * (m + 1), (k + i) * m + i))
    new_blocks = np.zeros(4 * k)
    # the halves of b and the same halves swapped, by rows and by columns
    rows, rows_swapped, work_rows = b.reshape(2, k, m), b.reshape(2, k, m)[::-1], work.reshape(2, k, m)
    cols, cols_swapped, work_cols = b.reshape(m, 2, k), b.reshape(m, 2, k)[:, ::-1], work.reshape(m, 2, k)
    sines = np.empty((2, k))  # -s for the p half, s for the q half
    # apq == 0.0 == d gives t = 0 / 0 below; those t are then set to 0.0
    with np.errstate(invalid="ignore"):
        for sweep in range(max_sweeps):
            off = _off_norm(b, work)
            if off <= tol:
                break
            for _ in range(m - 1):
                apq, app, aqq = flat[blocks[: 3 * k]].reshape(3, k)
                # t = sgn(theta) / (|theta| + sqrt(theta^2 + 1)) with
                # theta = d / (2 apq), both sides times 2 apq sgn(d)
                d = aqq - app
                root = np.hypot(d, 2.0 * apq)
                np.copysign(root, d, out=root)
                root += d
                t = 2.0 * apq
                t /= root
                t[apq == 0.0] = 0.0
                c = 1.0 / np.hypot(t, 1.0)
                np.multiply(t, c, out=sines[1])
                np.subtract(0.0, sines[1], out=sines[0])
                # [P; Q] <- c [P; Q] + [-s Q; s P], rows then columns
                np.multiply(rows_swapped, sines[:, :, None], out=work_rows)
                rows *= c[:, None]
                rows += work_rows
                np.multiply(cols_swapped, sines, out=work_cols)
                cols *= c
                cols += work_cols
                t *= apq
                np.subtract(app, t, out=new_blocks[k : 2 * k])
                np.add(aqq, t, out=new_blocks[2 * k : 3 * k])
                flat[blocks] = new_blocks
                np.take(b, perm, axis=0, out=spare)
                np.take(spare, perm, axis=1, out=b)
        else:
            sweep, off = max_sweeps, _off_norm(b, work)
    a[...] = b[:n, :n]
    return sweep, off
