"""Small deterministic graph algorithms, built on two searches.

``explore`` numbers the nodes reachable from a start set breadth-first;
shortest cycles and lasso prefixes are read off its numbering.  Tarjan's
``strongly_connected_components`` also says which components hold a
cycle.  All functions iterate nodes and successors in the order given, so
results are reproducible whenever the inputs are.
"""

from __future__ import annotations

from .errors import CapExceeded


def explore(starts, successors, max_nodes=None, what="states"):
    """Number the nodes reachable from ``starts`` in breadth-first order.

    ``successors(node)`` yields ``(label, dst)`` pairs.  Nodes are numbered
    as discovered, ``starts`` first and in the order given.  Returns
    ``(nodes, start_ids, edges)``: ``nodes[i]`` is node i, ``start_ids``
    the id of each start, and ``edges[i]`` the ``(label, dst id)`` pairs
    of node i in the order yielded.  Raises ``CapExceeded(what, ...)``
    when more than ``max_nodes`` nodes are reachable.
    """
    nodes = []
    index = {}

    def node_id(node):
        nid = index.get(node)
        if nid is None:
            if max_nodes is not None and len(nodes) >= max_nodes:
                raise CapExceeded(what, len(nodes) + 1, max_nodes)
            nid = index[node] = len(nodes)
            nodes.append(node)
        return nid

    start_ids = [node_id(s) for s in starts]
    edges = []  # the queue is nodes[len(edges):]
    while len(edges) < len(nodes):
        edges.append([(label, node_id(dst)) for label, dst in successors(nodes[len(edges)])])
    return nodes, start_ids, edges


def strongly_connected_components(nodes, successors):
    """Tarjan's algorithm, iterative.

    ``nodes`` is an iterable of hashable nodes; ``successors(node)``
    yields ``(label, dst)`` pairs, as for ``explore``.  Returns ``(component,
    cyclic)`` pairs in reverse topological order (every successor
    component appears before the components that reach it); ``cyclic``
    is true when the component holds a cycle: it has more than one node,
    or a self-loop.
    """
    index = {}
    low = {}
    on_stack = set()
    stack = []
    looped = set()  # nodes with a self-loop
    out = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(successors(root)))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            pushed = False
            for _, w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(successors(w))))
                    pushed = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
                    if w == v:
                        looped.add(v)
            if pushed:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append((comp, len(comp) > 1 or v in looped))
    return out


def _bfs_tree(edges, roots):
    """The breadth-first tree of an ``explore`` numbering with ``roots`` starts.

    Ids follow discovery order, so the parent of a later node is the first
    node whose edge row reaches it.  Returns ``parent``: ``parent[i]`` is
    ``(parent id, label)``, or None for a start.
    """
    parent = [None] * roots
    for i, row in enumerate(edges):
        for label, j in row:
            if j == len(parent):
                parent.append((i, label))
    return parent


def _tree_path(parent, i):
    """The ids and labels along the ``_bfs_tree`` path from a start to ``i``."""
    ids, labels = [i], []
    while parent[i] is not None:
        i, label = parent[i]
        ids.append(i)
        labels.append(label)
    return ids[::-1], labels[::-1]


def shortest_cycle(start, successors, allowed):
    """Shortest cycle from ``start`` back to itself inside ``allowed``.

    ``successors(node)`` yields ``(label, dst)``; every intermediate node
    must belong to ``allowed``.  Returns ``([nodes...], [labels...])`` with
    nodes[0] == nodes[-1] == start, or None if no cycle exists.  The cycle
    closes on the first edge back to ``start`` in breadth-first order.
    """

    def inside(v):
        return ((label, w) for label, w in successors(v) if w == start or w in allowed)

    nodes, _, edges = explore([start], inside)
    for i, row in enumerate(edges):
        for label, j in row:
            if j == 0:
                ids, labels = _tree_path(_bfs_tree(edges, 1), i)
                return [nodes[k] for k in ids] + [start], labels + [label]
    return None


def find_lasso(starts, successors, loop_nodes, loop_successors, project):
    """Shortest prefix into a reachable cycle of the loop graph, plus the cycle.

    The path graph is explored from ``starts`` through ``successors``; the
    loop graph has nodes ``loop_nodes`` and edges ``loop_successors``; both
    successor callables yield ``(label, dst)``.  ``project`` maps a loop
    node to the path node it sits on.  The prefix ends on the shallowest
    path node (then the smallest) carrying a loop node that lies on a
    cycle; the cycle is the shortest one, inside its strongly connected
    component, through the smallest such loop node.

    Returns ``(prefix_nodes, prefix_labels, cycle_nodes, cycle_labels)``,
    or None when no cycle of the loop graph sits on a reachable path node.
    """
    component = {}  # loop node on a cycle -> its component
    for comp, cyclic in strongly_connected_components(loop_nodes, loop_successors):
        if cyclic:
            members = set(comp)
            for v in comp:
                component[v] = members
    if not component:
        return None
    on_path = {}
    for v in component:
        on_path.setdefault(project(v), []).append(v)

    nodes, start_ids, edges = explore(starts, successors)
    parent = _bfs_tree(edges, len(set(start_ids)))
    depth = []
    for p in parent:
        depth.append(0 if p is None else depth[p[0]] + 1)
    reached = [i for i, v in enumerate(nodes) if v in on_path]
    if not reached:
        return None
    end = min(reached, key=lambda i: (depth[i], nodes[i]))
    ids, prefix_labels = _tree_path(parent, end)
    entry = min(on_path[nodes[end]])
    cycle_nodes, cycle_labels = shortest_cycle(entry, loop_successors, component[entry])
    return [nodes[i] for i in ids], prefix_labels, cycle_nodes, cycle_labels
