"""Shared test fixtures and independent reference implementations.

The reference routines here (union-find components, subset-scan
connectivity, a pair flow) deliberately do not reuse the library's search
code, so tests can cross-check the package against a second opinion.
"""

from __future__ import annotations

import random
from collections import defaultdict, deque
from itertools import combinations, product

from sparsecut.generators import ICOSAHEDRON_LABELS
from sparsecut.graph import Graph


def union_find_components(n: int, edges, removed: set[int]) -> list[list[int]]:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        if u in removed or v in removed:
            continue
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[int, list[int]] = {}
    for v in range(n):
        if v in removed:
            continue
        groups.setdefault(find(v), []).append(v)
    return sorted((sorted(c) for c in groups.values()), key=lambda c: c[0])


def theorem3_subset_scan(g: Graph, kappa: int) -> tuple[int, ...] | None:
    """theorem3_dichotomy's cutset branch as one test per set: the first
    set of size kappa..4, by size and then lexicographically, that induces
    fewer than |S|/2 edges and is an inclusion-minimal cutset, or None. S
    is minimal when G - S has two or more components and each of them has
    a neighbor at every vertex of S."""
    edges = g.edges()
    for size in range(kappa, 5):
        for s in combinations(range(g.n), size):
            inside = set(s)
            if sum(len(inside.intersection(g.neighbors(v))) for v in s) >= size:
                continue
            comps = union_find_components(g.n, edges, inside)
            if len(comps) >= 2 and all(
                inside <= {w for x in comp for w in g.neighbors(x)} for comp in comps
            ):
                return s
    return None


def brute_connectivity(g: Graph) -> int:
    """Vertex connectivity by scanning separator sizes, smallest first."""
    n = g.n
    if n <= 1:
        return max(n - 1, 0)
    edges = g.edges()
    if len(union_find_components(n, edges, set())) > 1:
        return 0
    if g.m == n * (n - 1) // 2:
        return n - 1
    for k in range(1, n - 1):
        for s in combinations(range(n), k):
            if len(union_find_components(n, edges, set(s))) > 1:
                return k
    return n - 1


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def _gf4_mul(a: int, b: int) -> int:
    # GF(4) multiplicative group is cyclic of order 3 with generator 2
    if a == 0 or b == 0:
        return 0
    log = {1: 0, 2: 1, 3: 2}
    exp = (1, 2, 3)
    return exp[(log[a] + log[b]) % 3]


def pg24_incidence() -> Graph:
    """Point-line incidence graph of the projective plane of order 4.

    42 vertices, 5-regular, girth 6: a constructive C4-free 5-regular
    fixture of order at least 30.
    """
    points: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    for vec in product(range(4), repeat=3):
        if vec == (0, 0, 0) or vec in seen:
            continue
        points.append(vec)
        for s in (1, 2, 3):
            seen.add(tuple(_gf4_mul(s, c) for c in vec))
    assert len(points) == 21

    def dot(u: tuple[int, int, int], v: tuple[int, int, int]) -> int:
        out = 0
        for a, b in zip(u, v):
            out ^= _gf4_mul(a, b)  # GF(4) addition is xor
        return out

    edges = [
        (i, 21 + j)
        for i, p in enumerate(points)
        for j, line in enumerate(points)
        if dot(p, line) == 0
    ]
    return Graph(42, edges)


def connected_random_regular(n: int, d: int, first_seed: int):
    """First connected random d-regular graph at or after first_seed.

    Seeds whose pairing never settles into a simple graph are skipped, so
    this always terminates. Returns (graph, seed) so tests stay
    reproducible.
    """
    from sparsecut.errors import BudgetExhausted
    from sparsecut.generators import random_regular

    seed = first_seed
    while True:
        try:
            g = random_regular(n, d, seed)
        except BudgetExhausted:
            seed += 1
            continue
        if len(union_find_components(g.n, g.edges(), set())) == 1:
            return g, seed
        seed += 1


def joined_at_cut_vertex(seed: int) -> Graph:
    """Two random 4-regular graphs, each missing one edge, whose four loose
    ends meet in one new vertex: 4-regular with a cut vertex."""
    (a, _), (b, _) = connected_random_regular(16, 4, seed), connected_random_regular(20, 4, seed + 50)
    (u1, v1), (u2, v2) = a.edges()[0], b.edges()[0]
    hub = a.n + b.n
    edges = [e for e in a.edges() if e != (u1, v1)]
    edges += [(x + a.n, y + a.n) for x, y in b.edges() if (x, y) != (u2, v2)]
    edges += [(u1, hub), (v1, hub), (u2 + a.n, hub), (v2 + a.n, hub)]
    return Graph(hub + 1, edges)


def planted_cut(seed: int, cross: int) -> Graph:
    """Two random 4-regular halves of 16 and 20 vertices joined by cross
    edges i -- 16 + i for i < cross: connectivity cross, for cross <= 3."""
    (a, _), (b, _) = connected_random_regular(16, 4, seed), connected_random_regular(20, 4, seed + 50)
    edges = [*a.edges(), *((x + 16, y + 16) for x, y in b.edges())]
    return Graph(36, edges + [(i, 16 + i) for i in range(cross)])


def reference_flow(g: Graph, s: int, t: int, stop_at: int) -> int:
    """The number of internally disjoint paths from s to a non-adjacent t,
    up to stop_at, on a dict-of-tuples split digraph built for the pair:
    an earlier flow routine, kept as an independent reference."""
    cap: dict[tuple[int, int], int] = defaultdict(int)
    adj: dict[int, list[int]] = defaultdict(list)

    def arc(a: int, b: int) -> None:
        if cap[(a, b)] == 0 and cap[(b, a)] == 0:
            adj[a].append(b)
            adj[b].append(a)
        cap[(a, b)] += 1

    for v in range(g.n):
        arc(2 * v, 2 * v + 1)
    for u in range(g.n):
        for v in g.neighbors(u):
            arc(2 * u + 1, 2 * v)
    src, snk = 2 * s + 1, 2 * t
    flow = 0
    while flow < stop_at:
        prev: dict[int, int | None] = {src: None}
        queue = deque([src])
        while queue and snk not in prev:
            x = queue.popleft()
            for y in adj[x]:
                if y not in prev and cap[(x, y)] > 0:
                    prev[y] = x
                    queue.append(y)
        if snk not in prev:
            break
        y = snk
        while prev[y] is not None:
            x = prev[y]
            cap[(x, y)] -= 1
            cap[(y, x)] += 1
            y = x
        flow += 1
    return flow


def circulant(n: int, chords) -> Graph:
    """Circulant graph: i is joined to i + d and i - d for each chord d."""
    edges = set()
    for i in range(n):
        for d in chords:
            j = (i + d) % n
            if i != j:
                edges.add((min(i, j), max(i, j)))
    return Graph(n, sorted(edges))


def bounded_degree_connected(n: int, dmax: int, rng) -> Graph:
    """Random connected graph with every degree capped at dmax.

    Builds a random tree that respects the cap, then sprinkles extra
    edges while the cap allows. With dmax = 2 this degenerates to a
    path, which is fine for the callers.
    """
    deg = [0] * n
    edges: list[tuple[int, int]] = []
    for v in range(1, n):
        u = rng.choice([w for w in range(v) if deg[w] < dmax])
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1
    seen = set(edges)
    want = rng.randint(0, n)
    for _ in range(3 * n):
        if not want:
            break
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        e = (min(a, b), max(a, b))
        if e in seen or deg[a] >= dmax or deg[b] >= dmax:
            continue
        seen.add(e)
        edges.append(e)
        deg[a] += 1
        deg[b] += 1
        want -= 1
    return Graph(n, edges)


def _octahedron_edges(base: int, skip: set) -> list[tuple[int, int]]:
    # K_{2,2,2} with parts {0,3}, {1,4}, {2,5}, shifted by base
    missing = {(0, 3), (1, 4), (2, 5)}
    return [
        (base + a, base + b)
        for a, b in combinations(range(6), 2)
        if (a, b) not in missing and (a, b) not in skip
    ]


def _squared_ring_edges(n: int, base: int, drop: set) -> list[tuple[int, int]]:
    out = set()
    for i in range(n):
        for d in (1, 2):
            a, b = sorted((i, (i + d) % n))
            if (a, b) not in drop:
                out.add((base + a, base + b))
    return sorted(out)


def four_regular_cut1() -> Graph:
    """4-regular graph of order 11 with a single cut vertex.

    Two K5-minus-an-edge blocks whose degree-3 endpoints all attach to
    one hub. Removing the hub splits the graph in two.
    """

    def block(base: int) -> list[tuple[int, int]]:
        return [
            (base + a, base + b)
            for a, b in combinations(range(5), 2)
            if (a, b) != (0, 1)
        ]

    return Graph(11, block(0) + block(5) + [(10, 0), (10, 1), (10, 5), (10, 6)])


def four_regular_cut2() -> Graph:
    """4-regular, connectivity 2, where the best 2-cut is an adjacent pair.

    A 5-vertex dense block hangs off x and y by four spokes, a larger
    8-vertex ring block hangs off them by one spoke each, and x, y are
    adjacent. The pair {x, y} = {13, 14} leaves the smallest component,
    so an independence-restoring exchange into the ring side is forced.
    """
    dense = [
        (a, b)
        for a, b in combinations(range(5), 2)
        if (a, b) not in {(0, 1), (2, 3)}
    ]
    ring = _squared_ring_edges(8, 5, {(0, 1)})
    x, y = 13, 14
    return Graph(
        15,
        dense + ring + [(x, 0), (x, 1), (x, 5), (y, 2), (y, 3), (y, 6), (x, y)],
    )


def four_regular_cut3() -> Graph:
    """4-regular, connectivity 3, minimum cutset carrying one edge.

    A 6-vertex block consumes two spokes from each of s1, s2, s3; a
    10-vertex ring block takes one spoke from s1 and s2 and two from s3;
    s1 and s2 are adjacent. {16, 17, 18} minimizes the small side, so
    the endpoint exchange has to fire.
    """
    blockA = _octahedron_edges(0, {(0, 1), (2, 3), (4, 5)})
    ring = _squared_ring_edges(10, 6, {(0, 1), (5, 6)})
    s1, s2, s3 = 16, 17, 18
    spokes = [
        (s1, 0), (s1, 1), (s1, 6), (s1, s2),
        (s2, 2), (s2, 3), (s2, 7),
        (s3, 4), (s3, 5), (s3, 11), (s3, 12),
    ]
    return Graph(19, blockA + ring + spokes)


def four_regular_cut3_far_swap() -> Graph:
    """four_regular_cut3 with (6, 16) and (10, 11) traded for (6, 10) and
    (11, 16): still 4-regular with connectivity 3, but 16's one far-side
    neighbor 11 also sees 18, so the exchange has to swap 17 instead.
    """
    g = four_regular_cut3()
    kept = [e for e in g.edges() if e not in {(6, 16), (10, 11)}]
    return Graph(g.n, kept + [(6, 10), (11, 16)])


def complement_cube() -> Graph:
    """Complement of the 3-cube: 4-regular on 8 vertices.

    Every open neighborhood induces a triangle plus an isolated vertex,
    and no subset of size at most 4 is both a cutset and sparse, which
    makes this the standard witness for the no-cutset outcome of the
    4-regular dichotomy below its order threshold.
    """
    cube = {
        (0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3),
        (2, 6), (3, 7), (4, 5), (4, 6), (5, 7), (6, 7),
    }
    return Graph(
        8, [(a, b) for a, b in combinations(range(8), 2) if (a, b) not in cube]
    )


def diamond_chain(k: int) -> Graph:
    """Chain of k diamonds (K4 minus an edge) joined tip to tip.

    Every greedy ball-cover representative lands on a vertex whose
    neighborhood contains a path, so sparse-neighborhood shortcuts never
    apply and pair contraction is exercised end to end.
    """
    edges = []
    for j in range(k):
        a = 4 * j
        edges += [(a, a + 1), (a, a + 2), (a, a + 3), (a + 1, a + 2), (a + 1, a + 3)]
        if j + 1 < k:
            edges.append((a + 3, a + 4))
    return Graph(4 * k, edges)


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph plus the mapping from new ids to original ids.

    Position i of the mapping holds the original id of new vertex i.
    """
    old = tuple(sorted(set(vertices)))
    index = {v: i for i, v in enumerate(old)}
    edges = [
        (index[u], index[w])
        for u in old
        for w in g.neighbors(u)
        if w > u and w in index
    ]
    return Graph(len(old), edges), old


def renamed(g: Graph, ids) -> Graph:
    """g with vertex v renamed ids[v]; ids is a permutation of range(g.n)."""
    return Graph(g.n, [(ids[u], ids[w]) for u, w in g.edges()])


def relabelled(g: Graph, seed: int) -> Graph:
    """g with its vertex ids shuffled by a seeded random permutation: the
    same graph up to isomorphism, so every question the paper asks of it
    has the same answer."""
    ids = list(range(g.n))
    random.Random(seed).shuffle(ids)
    return renamed(g, ids)


def icosahedron_labels() -> dict[int, str]:
    """Mapping from icosahedron() vertex ids to their letter labels."""
    return dict(enumerate(ICOSAHEDRON_LABELS))


def bit_reversed(n: int) -> list[int]:
    """0..n-1 in the order both connectivity routines decide them: the
    b-bit strings in counting order, each read backwards, for the fewest b
    that cover n."""
    b = (n - 1).bit_length()
    return [u for i in range(1 << b) if (u := int(f"{i:0{b}b}"[::-1], 2)) < n]


def assert_fans_follow_bit_reversal(g: Graph, calls) -> None:
    """calls logs a connectivity run's searches as (kind, source, found,
    cap, ends). There is one fan per non-neighbor of v0, in bit-reversal
    order; each asks for paths into v0, its neighbors and the earlier fans'
    sources, so u is decided after its own fan and before the next."""
    v0 = min(range(g.n), key=g.degree)
    decided = {v0, *g.neighbors(v0)}
    fans = [(source, ends) for kind, source, _, _, ends in calls if kind == "fan"]
    assert [source for source, _ in fans] == [u for u in bit_reversed(g.n) if u not in decided]
    for source, ends in fans:
        assert ends == decided
        decided.add(source)
