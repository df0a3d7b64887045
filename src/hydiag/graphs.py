"""Small deterministic graph algorithms (exploration, SCC, labeled BFS, lassos).

All functions iterate nodes and successors in the order given, so results
are reproducible whenever the inputs are.
"""

from __future__ import annotations

from collections import deque

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

    ``nodes`` is an iterable of hashable nodes, ``successors`` a callable
    returning an iterable of successor nodes.  Components are returned in
    reverse topological order (every successor component appears before
    the components that reach it).
    """
    index = {}
    low = {}
    on_stack = set()
    stack = []
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
            for w in it:
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
                out.append(comp)
    return out


def is_cyclic_component(comp, successors):
    """A component contains a cycle iff it has >1 node or a self-loop."""
    if len(comp) > 1:
        return True
    v = comp[0]
    return any(w == v for w in successors(v))


def bfs_parents(starts, successors):
    """Breadth-first search over labeled edges.

    ``successors(node)`` yields ``(label, dst)`` pairs.  Returns a dict
    mapping every reached node to ``(parent, label)`` (``(None, None)``
    for the start nodes), in BFS discovery order.
    """
    parents = {}
    queue = deque()
    for s in starts:
        if s not in parents:
            parents[s] = (None, None)
            queue.append(s)
    while queue:
        v = queue.popleft()
        for label, w in successors(v):
            if w not in parents:
                parents[w] = (v, label)
                queue.append(w)
    return parents


def path_from_parents(parents, node):
    """Reconstruct ``([nodes...], [labels...])`` from a bfs_parents dict."""
    nodes = [node]
    labels = []
    while True:
        parent, label = parents[nodes[-1]]
        if parent is None:
            break
        nodes.append(parent)
        labels.append(label)
    nodes.reverse()
    labels.reverse()
    return nodes, labels


def shortest_cycle(start, successors, allowed):
    """Shortest cycle from ``start`` back to itself inside ``allowed``.

    ``successors(node)`` yields ``(label, dst)``; every intermediate node
    must belong to ``allowed``.  Returns ``([nodes...], [labels...])`` with
    nodes[0] == nodes[-1] == start, or None if no cycle exists.
    """
    parents = {}
    queue = deque()
    for label, w in successors(start):
        if w == start:
            return [start, start], [label]
        if w in allowed and w not in parents:
            parents[w] = (None, label)
            queue.append(w)
    while queue:
        v = queue.popleft()
        for label, w in successors(v):
            if w == start:
                nodes, labels = path_from_parents(parents, v)
                first_label = parents[nodes[0]][1]
                return [start] + nodes + [start], [first_label] + labels + [label]
            if w in allowed and w not in parents:
                parents[w] = (v, label)
                queue.append(w)
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

    def targets(v):
        return (d for _, d in loop_successors(v))

    component = {}  # loop node on a cycle -> its component
    for comp in strongly_connected_components(loop_nodes, targets):
        if is_cyclic_component(comp, targets):
            members = set(comp)
            for v in comp:
                component[v] = members
    if not component:
        return None
    on_path = {}
    for v in component:
        on_path.setdefault(project(v), []).append(v)

    parents = bfs_parents(starts, successors)
    depth = {}
    for v, (parent, _) in parents.items():
        depth[v] = 0 if parent is None else depth[parent] + 1
    reached = [v for v in parents if v in on_path]
    if not reached:
        return None
    end = min(reached, key=lambda v: (depth[v], v))
    prefix_nodes, prefix_labels = path_from_parents(parents, end)
    entry = min(on_path[end])
    cycle_nodes, cycle_labels = shortest_cycle(entry, loop_successors, component[entry])
    return prefix_nodes, prefix_labels, cycle_nodes, cycle_labels

