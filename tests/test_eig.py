import numpy as np
import pytest

from lapbounds import (
    Spectrum,
    eigenvalues_symmetric,
    generate_connected_gnp,
    kth_eigenvalue,
    laplacian,
    normalized_laplacian,
    parse_edge_list,
    signless_laplacian,
    trace_power,
)
from lapbounds.graph import from_edges
from tests.conftest import complete_graph, path_graph


def test_k2_normalized_spectrum():
    s = eigenvalues_symmetric(normalized_laplacian(parse_edge_list("1 2")))
    assert s.values == pytest.approx((2.0, 0.0), abs=1e-12)


def test_k3_signless_spectrum():
    s = eigenvalues_symmetric(signless_laplacian(complete_graph(3)))
    assert s.values == pytest.approx((4.0, 1.0, 1.0), abs=1e-10)


def test_p3_laplacian_spectrum():
    s = eigenvalues_symmetric(laplacian(path_graph(3)))
    assert s.values == pytest.approx((3.0, 1.0, 0.0), abs=1e-10)


def test_order_one_matrix():
    s = eigenvalues_symmetric(np.array([[5.0]]))
    assert s.values == (5.0,)


def test_example1_largest_normalized(example1):
    s = eigenvalues_symmetric(normalized_laplacian(example1))
    assert kth_eigenvalue(s, 1) == pytest.approx(1.86, abs=0.005)


def test_kth_eigenvalue_indexing():
    s = Spectrum(values=(4.0, 1.0, 1.0))
    assert kth_eigenvalue(s, 2) == 1.0
    assert kth_eigenvalue(Spectrum(values=(2.0, 0.0)), 1) == 2.0
    with pytest.raises(ValueError):
        kth_eigenvalue(s, 0)
    with pytest.raises(ValueError):
        kth_eigenvalue(s, 4)


def test_sorted_non_increasing(example2):
    s = eigenvalues_symmetric(signless_laplacian(example2))
    assert all(a >= b for a, b in zip(s.values, s.values[1:]))


@pytest.mark.parametrize("seed", range(300, 330))
def test_spectrum_matches_library_eigensolver(seed):
    # independent cross-check of the Jacobi oracle
    g = generate_connected_gnp(4 + seed % 8, 0.5, seed)
    for m in (normalized_laplacian(g), signless_laplacian(g)):
        ours = eigenvalues_symmetric(m)
        ref = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert np.allclose(ours.values, ref, atol=1e-9)


def test_spectrum_records_solver_diagnostics():
    m = signless_laplacian(generate_connected_gnp(16, 0.5, 16))
    tol = 1e-12 * (1.0 + float(np.sqrt(np.sum(m * m))))
    s = eigenvalues_symmetric(m)
    assert s.sweeps > 0
    assert 0.0 <= s.off_norm <= tol


@pytest.mark.parametrize("seed", range(400, 420))
def test_moments_and_ranges(seed):
    g = generate_connected_gnp(4 + seed % 9, 0.5, seed)
    nl = normalized_laplacian(g)
    q = signless_laplacian(g)
    for m, top in ((nl, 2.0), (q, 2.0 * max(g.degrees))):
        s = eigenvalues_symmetric(m)
        assert sum(s.values) == pytest.approx(trace_power(m, 1), rel=1e-8, abs=1e-8)
        assert sum(v * v for v in s.values) == pytest.approx(trace_power(m, 2), rel=1e-8)
        assert s.smallest >= -1e-9
        assert s.largest <= top + 1e-9


@pytest.mark.parametrize(
    "g",
    [path_graph(n) for n in (2, 4, 5)]
    + [from_edges(5, [(1, i) for i in range(2, 6)])]  # star
    + [from_edges(6, [(i, i % 6 + 1) for i in range(1, 7)])],  # even cycle
    ids=["P2", "P4", "P5", "star5", "C6"],
)
def test_bipartite_signless_equals_laplacian(g):
    sq = eigenvalues_symmetric(signless_laplacian(g))
    sl = eigenvalues_symmetric(laplacian(g))
    assert np.allclose(sq.values, sl.values, atol=1e-8)


@pytest.mark.parametrize("n", range(2, 9))
def test_complete_graph_normalized_spectrum(n):
    s = eigenvalues_symmetric(normalized_laplacian(complete_graph(n)))
    expect = [n / (n - 1)] * (n - 1) + [0.0]
    assert np.allclose(s.values, expect, atol=1e-9)
