from pathlib import Path

import pytest

from lapbounds import parse_edge_list
from lapbounds.graph import from_edges

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def example1():
    return parse_edge_list((FIXTURES / "example1.txt").read_text())


@pytest.fixture(scope="session")
def example2():
    return parse_edge_list((FIXTURES / "example2.txt").read_text())


def complete_graph(n):
    return from_edges(n, [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)])


def path_graph(n):
    return from_edges(n, [(i, i + 1) for i in range(1, n)])
