import pytest

from treebound import harness
from treebound.families import gen_cycle, gen_disjoint_cliques
from treebound.graphs import Graph, parse_graph, path_tree, star_tree

# Outer 5-cycle, spokes, and the inner 5-cycle taken with step 2.
PETERSEN_TEXT = """\
10 15
0 1
1 2
2 3
3 4
0 4
0 5
1 6
2 7
3 8
4 9
5 7
7 9
6 9
6 8
5 8
"""


@pytest.fixture(autouse=True)
def cold_row_cache():
    """Each test starts with run_suite's caches empty (the rows, the trees'
    labelings, and the graphs' walks and bounds), so no test reads what
    another test computed, or computed under its monkeypatches."""
    for cached in (harness._finished_row, harness._labeling, harness._graph_work):
        cached.cache_clear()


@pytest.fixture(scope="session")
def k4():
    return gen_disjoint_cliques(1, 4)


@pytest.fixture(scope="session")
def c5():
    return gen_cycle(5)


@pytest.fixture(scope="session")
def k4_minus_edge():
    return Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


@pytest.fixture(scope="session")
def petersen():
    graph = parse_graph(PETERSEN_TEXT)
    assert graph.degrees() == (3,) * 10
    return graph


@pytest.fixture(scope="session")
def p2():
    return path_tree(2)


@pytest.fixture(scope="session")
def p3():
    return path_tree(3)


@pytest.fixture(scope="session")
def s3():
    return star_tree(3)
