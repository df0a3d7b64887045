"""The graph helpers the decision procedure and the oracle share, checked
against networkx as a third implementation.

``graphs.py`` has two searches: ``explore`` numbers nodes breadth-first
and ``strongly_connected_components`` (Tarjan) also flags the cyclic
components.  ``shortest_cycle`` and ``find_lasso`` are read off them.
``check_diagnosable`` and ``brute_force_diagnosable`` both search lassos
with ``find_lasso``, build the estimator and the twin plant with
``explore``, and step single classes through ``external_moves``; a bug
there could hide in both verdicts at once, so these tests recompute the
same answers with networkx.
"""

import random

import networkx as nx
import pytest

from hydiag.diagnosability import _fault_product, _indeterminate_graph
from hydiag.estimator import build_estimator
from hydiag.errors import CapExceeded
from hydiag.graphs import explore, find_lasso, shortest_cycle, strongly_connected_components
from hydiag.oracle import random_models, twin_product
from hydiag.quotient import external_moves
from hydiag.regions import region_quotient

from .helpers import fresh_copy, nx_silent_graph

CORPUS = list(random_models(100, 2718))


def random_digraph(rng, nodes, density):
    """Labeled digraph ``{node: [(label, dst), ...]}``, self-loops allowed."""
    return {
        v: [(rng.choice("ab"), w) for w in nodes if rng.random() < density]
        for v in nodes
    }


def to_nx(adj):
    g = nx.DiGraph()
    g.add_nodes_from(adj)
    g.add_edges_from((v, w) for v, out in adj.items() for _, w in out)
    return g


def check_scc(adj):
    pairs = strongly_connected_components(list(adj), adj.__getitem__)
    comps = [comp for comp, _ in pairs]
    g = to_nx(adj)
    assert sorted(map(sorted, comps)) == sorted(
        map(sorted, nx.strongly_connected_components(g))
    )
    for comp, cyclic in pairs:
        assert cyclic == (len(comp) > 1 or g.has_edge(comp[0], comp[0]))
    position = {v: i for i, comp in enumerate(comps) for v in comp}
    for v, w in g.edges:
        assert position[w] <= position[v]  # successors first


def check_lasso(starts, adj, loop_adj, project):
    """find_lasso against shortest paths and cycles computed by networkx."""
    found = find_lasso(
        starts, adj.__getitem__, list(loop_adj), loop_adj.__getitem__, project
    )
    g, loop = to_nx(adj), to_nx(loop_adj)
    on_cycle = {
        x for x in loop if any(nx.has_path(loop, w, x) for w in loop.successors(x))
    }
    dist = nx.multi_source_dijkstra_path_length(g, set(starts))
    ends = {project(x) for x in on_cycle} & set(dist)
    if not ends:
        assert found is None
        return False
    prefix_nodes, prefix_labels, cycle_nodes, cycle_labels = found

    depth = min(dist[v] for v in ends)
    end = min(v for v in ends if dist[v] == depth)
    assert prefix_nodes[0] in starts and prefix_nodes[-1] == end
    assert len(prefix_labels) == depth
    for u, label, v in zip(prefix_nodes, prefix_labels, prefix_nodes[1:]):
        assert (label, v) in adj[u]

    entry = min(x for x in on_cycle if project(x) == end)
    assert cycle_nodes[0] == cycle_nodes[-1] == entry
    shortest = min(
        nx.shortest_path_length(loop, w, entry) + 1
        for w in loop.successors(entry)
        if nx.has_path(loop, w, entry)
    )
    assert len(cycle_labels) == shortest
    for u, label, v in zip(cycle_nodes, cycle_labels, cycle_nodes[1:]):
        assert (label, v) in loop_adj[u]
    return True


def check_explore(starts, adj):
    """explore against descendants and shortest distances computed by networkx."""
    nodes, start_ids, edges = explore(starts, adj.__getitem__)
    g = to_nx(adj)
    reached = set(starts).union(*(nx.descendants(g, s) for s in starts))
    assert len(nodes) == len(set(nodes)) and set(nodes) == reached
    assert nodes[: len(set(starts))] == list(dict.fromkeys(starts))
    assert [nodes[i] for i in start_ids] == starts
    dist = nx.multi_source_dijkstra_path_length(g, set(starts))
    depths = [dist[v] for v in nodes]
    assert depths == sorted(depths)
    assert len(edges) == len(nodes)
    for v, out in zip(nodes, edges):
        assert [(label, nodes[i]) for label, i in out] == adj[v]

    for cap in range(len(nodes) + 2):
        if len(nodes) > cap:
            with pytest.raises(CapExceeded) as err:
                explore(starts, adj.__getitem__, cap, "things")
            assert (err.value.what, err.value.count, err.value.cap) == ("things", cap + 1, cap)
        else:
            assert explore(starts, adj.__getitem__, cap, "things") == (nodes, start_ids, edges)


class TestExplore:
    def test_random_digraphs(self):
        # Named nodes, so a node mistaken for its id shows.
        rng = random.Random(14)
        for _ in range(300):
            n = rng.randint(1, 12)
            names = [f"v{i}" for i in range(n)]
            adj = random_digraph(rng, names, rng.choice([0.1, 0.2, 0.4]))
            check_explore(rng.choices(names, k=rng.randint(1, 3)), adj)

    def test_no_starts(self):
        assert explore([], lambda v: [], 0) == ([], [], [])


class TestStronglyConnectedComponents:
    def test_random_digraphs(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 12)
            check_scc(random_digraph(rng, range(n), rng.choice([0.1, 0.2, 0.4])))

    def test_self_loops_and_isolated_nodes(self):
        adj = {0: [("a", 0)], 1: [], 2: [("a", 3)], 3: [("a", 2)], 4: [("a", 1)]}
        comps = strongly_connected_components(list(adj), adj.__getitem__)
        assert sorted((sorted(comp), cyclic) for comp, cyclic in comps) == [
            ([0], True), ([1], False), ([2, 3], True), ([4], False)
        ]
        check_scc(adj)

    def test_twin_graphs_of_corpus(self):
        for model in CORPUS:
            twin = twin_product(model)
            check_scc(twin.edges)


def check_shortest_cycle(start, adj, allowed):
    """shortest_cycle against shortest paths computed by networkx."""
    found = shortest_cycle(start, adj.__getitem__, allowed)
    h = to_nx(adj).subgraph(set(allowed) | {start})
    lengths = [
        1 if w == start else nx.shortest_path_length(h, w, start) + 1
        for w in h.successors(start)
        if nx.has_path(h, w, start)
    ]
    if not lengths:
        assert found is None
        return False
    nodes, labels = found
    assert nodes[0] == nodes[-1] == start
    assert len(labels) == len(nodes) - 1 == min(lengths)
    assert all(v in allowed for v in nodes[1:-1])
    for u, label, v in zip(nodes, labels, nodes[1:]):
        assert (label, v) in adj[u]
    return True


class TestShortestCycle:
    def test_random_digraphs(self):
        # The start may or may not lie in ``allowed``; only the nodes in
        # between must.
        rng = random.Random(15)
        found = self_loops = 0
        for _ in range(300):
            n = rng.randint(1, 12)
            adj = random_digraph(rng, range(n), rng.choice([0.1, 0.2, 0.4]))
            allowed = {v for v in range(n) if rng.random() < 0.6}
            start = rng.randrange(n)
            found += check_shortest_cycle(start, adj, allowed)
            self_loops += any(w == start for _, w in adj[start])
        assert found > 50 and self_loops > 10

    def test_self_loop(self):
        adj = {0: [("a", 1), ("b", 0)], 1: [("c", 0)]}
        assert shortest_cycle(0, adj.__getitem__, {1}) == ([0, 0], ["b"])

    def test_no_cycle(self):
        adj = {0: [("a", 1)], 1: [("b", 0)], 2: []}
        assert shortest_cycle(0, adj.__getitem__, set()) is None
        assert shortest_cycle(2, adj.__getitem__, {0, 1, 2}) is None


class TestFindLasso:
    def test_random_subgraphs(self):
        # Loop graph induced on a random node subset, as in the twin plant.
        rng = random.Random(12)
        found = 0
        for _ in range(300):
            n = rng.randint(1, 12)
            adj = random_digraph(rng, range(n), rng.choice([0.1, 0.2, 0.4]))
            keep = {v for v in range(n) if rng.random() < 0.6}
            loop_adj = {v: [(a, w) for a, w in adj[v] if w in keep] for v in sorted(keep)}
            starts = rng.sample(range(n), rng.randint(1, min(n, 2)))
            found += check_lasso(starts, adj, loop_adj, lambda v: v)
        assert found > 50

    def test_random_products(self):
        # Loop nodes (v, c) over path node v, as in the fault product.
        rng = random.Random(13)
        found = 0
        for _ in range(300):
            n = rng.randint(1, 10)
            adj = random_digraph(rng, range(n), rng.choice([0.1, 0.2, 0.4]))
            nodes = [(v, c) for v in range(n) for c in range(3) if rng.random() < 0.5]
            node_set = set(nodes)
            loop_adj = {
                (v, c): [
                    (a, (w, c2))
                    for a, w in adj[v]
                    for c2 in range(3)
                    if (w, c2) in node_set and rng.random() < 0.5
                ]
                for v, c in nodes
            }
            starts = rng.sample(range(n), rng.randint(1, min(n, 2)))
            found += check_lasso(starts, adj, loop_adj, lambda x: x[0])
        assert found > 50

    def test_twin_plants_of_corpus(self):
        found = 0
        for model in CORPUS:
            twin = twin_product(model)
            bad = {s for s, (left, _) in enumerate(twin.states) if model.faulty[left]}
            loop_adj = {s: [(lab, d) for lab, d in twin.edges[s] if d in bad] for s in sorted(bad)}
            found += check_lasso(twin.initials, twin.edges, loop_adj, lambda s: s)
        assert found > 0

    def test_fault_products_of_corpus(self):
        found = 0
        for model in CORPUS:
            est = build_estimator(model)
            adj, indet, _ = _indeterminate_graph(est)
            nodes, successors = _fault_product(est, adj, indet)
            product = {v: list(successors(v)) for v in nodes}
            starts = [sid for _, sid in sorted(est.initials.items())]
            found += check_lasso(starts, adj, product, lambda node: node[0])
        assert found > 0


class TestExternalMoves:
    def test_against_descendant_closures(self, ta1):
        # Each model's table is filled once per process, so the order
        # checks below take fresh copies, whose tables start empty.
        for model in CORPUS + [region_quotient(ta1)]:
            silent = nx_silent_graph(model)
            expected = {}
            for c in range(len(model.classes)):
                closure = nx.descendants(silent, c) | {c}
                for action in model.external_actions:
                    expected[(c, action.name)] = sorted(
                        {
                            (d, model.obs[d])
                            for s, label, d in model.edges
                            if label == action and s in closure
                        }
                    )
            moves = external_moves(fresh_copy(model))
            assert moves == {}
            assert {key: moves[key] for key in expected} == expected
            odd = range(1, len(model.classes), 2)
            moves = external_moves(fresh_copy(model))
            assert moves == {}
            for c in odd:
                moves[(c, model.external_actions[0].name)]
            assert moves == {key: rows for key, rows in expected.items() if key[0] in odd}
