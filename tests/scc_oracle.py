"""Reference for ``chains._strongly_connected_components``.

This is the Tarjan search the package ran before each depth-first frame
kept an iterator over its node's successors. It shares no code with the
one under test; property tests require equal component lists, in the
same order.
"""

from __future__ import annotations


def strongly_connected_components(adjacency: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """Iterative Tarjan on an adjacency list, deterministic output order.

    Each time the search comes back to a node it scans the node's
    successors from the first again, so a node with d successors costs
    O(d^2).
    """
    n = len(adjacency)
    preorder: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    found: set[int] = set()
    scc_queue: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for source in range(n):
        if source in found:
            continue
        stack = [source]
        while stack:
            v = stack[-1]
            if v not in preorder:
                counter += 1
                preorder[v] = counter
            descend = False
            for w in adjacency[v]:
                if w not in preorder:
                    stack.append(w)
                    descend = True
                    break
            if descend:
                continue
            lowlink[v] = preorder[v]
            for w in adjacency[v]:
                if w not in found:
                    if preorder[w] > preorder[v]:
                        lowlink[v] = min(lowlink[v], lowlink[w])
                    else:
                        lowlink[v] = min(lowlink[v], preorder[w])
            stack.pop()
            if lowlink[v] == preorder[v]:
                found.add(v)
                component = [v]
                while scc_queue and preorder[scc_queue[-1]] > preorder[v]:
                    k = scc_queue.pop()
                    found.add(k)
                    component.append(k)
                components.append(sorted(component))
            else:
                scc_queue.append(v)
    return components
