"""Generators for the extremal graph families used throughout the package.

Everything here is deterministic given its arguments; the random families
take an explicit seed and use an isolated random.Random instance.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import BudgetExhausted, PreconditionError
from .graph import Graph

# Vertex 0..11 of icosahedron() carries label a..l. The edge list is fixed
# by the fact that every neighborhood induces a 5-cycle: starting from
# N(a) = {b,c,d,e,f} with cycle b-c-d-e-f-b, the remaining neighborhoods
# are forced one vertex at a time.
ICOSAHEDRON_LABELS = "abcdefghijkl"

_ICOSAHEDRON_EDGES = (
    "ab ac ad ae af bc cd de ef fb eg eh fg gh hd di ci ih hj gj ji gk fk "
    "kj kb il jl lc lk lb"
)


def icosahedron() -> Graph:
    """The icosahedron: 12 vertices, 30 edges, 5-regular, all neighborhoods C5."""
    index = {c: i for i, c in enumerate(ICOSAHEDRON_LABELS)}
    edges = [(index[a], index[b]) for a, b in _ICOSAHEDRON_EDGES.split()]
    return Graph(12, edges)


def squared_cycle(n: int) -> Graph:
    """C_n^2: vertex i adjacent to i+-1 and i+-2 mod n. Requires n >= 5.

    Below 5 the +-2 chords collide with cycle edges or each other, which
    the simple-graph constructor would reject anyway.
    """
    if n < 5:
        raise PreconditionError(f"squared_cycle requires n >= 5, got {n}")
    edges = [(i, (i + d) % n) for i in range(n) for d in (1, 2)]
    return Graph(n, [(min(u, v), max(u, v)) for u, v in edges])


def squared_path(n: int) -> Graph:
    """P_n^2: vertex i adjacent to i+-1 and i+-2 within range. Requires n >= 3."""
    if n < 3:
        raise PreconditionError(f"squared_path requires n >= 3, got {n}")
    edges = [(i, i + 1) for i in range(n - 1)] + [(i, i + 2) for i in range(n - 2)]
    return Graph(n, edges)


def figure2_pattern(blocks: int) -> Graph:
    """Cyclic 5-regular pattern of repeated 4-vertex blocks.

    Block k contributes a bottom vertex B=4k, two middle vertices M1=4k+1
    and M2=4k+2, and a top vertex T=4k+3. The bottom and top rows form
    cycles of length `blocks`, the middle row a cycle of length 2*blocks,
    and diagonals tie the rows together so that each middle vertex's
    neighborhood induces C5 while bottom/top neighborhoods induce P5 for
    blocks >= 4. The family has no cutset with max internal degree <= 1.

    With blocks=3 the wraparound chords close those P5s into C5s as well,
    and the result is isomorphic to the icosahedron; blocks >= 4 gives the
    generic member of the family.
    """
    if blocks < 3:
        raise PreconditionError(f"figure2_pattern requires blocks >= 3, got {blocks}")
    edges = []
    for k in range(blocks):
        nk = (k + 1) % blocks
        bot, m1, m2, top = 4 * k, 4 * k + 1, 4 * k + 2, 4 * k + 3
        bot_n, m1_n, top_n = 4 * nk, 4 * nk + 1, 4 * nk + 3
        edges += [
            (bot, bot_n),
            (top, top_n),
            (m1, m2),
            (m2, m1_n),
            (m1, bot),
            (m1, top),
            (m2, top),
            (m2, bot),
            (m2, bot_n),
            (top, m1_n),
        ]
    return Graph(4 * blocks, edges)


@dataclass(frozen=True)
class CliqueChainParams:
    """Parameters for clique_chain.

    delta is the target maximum degree (at least 9). The chain replaces
    each vertex of a base path or cycle of order base_length with a clique
    of order delta + 1 - 2*ceil(sqrt(delta)) and each base edge with a
    random ceil(sqrt(delta))-regular bipartite connector.
    """

    delta: int
    base_length: int
    cyclic: bool = False
    seed: int = 0

    @property
    def connector_degree(self) -> int:
        return _ceil_sqrt(self.delta)

    @property
    def clique_order(self) -> int:
        return self.delta + 1 - 2 * self.connector_degree


def _ceil_sqrt(x: int) -> int:
    r = math.isqrt(x)
    return r if r * r == x else r + 1


def _regular_bipartite(n: int, d: int, rng: random.Random) -> list[tuple[int, int]]:
    """d-regular bipartite graph on n+n vertices via the permutation-union
    model: d random permutations, resampled until no two collide anywhere."""
    while True:
        perms = []
        for _ in range(d):
            p = list(range(n))
            rng.shuffle(p)
            perms.append(p)
        used = set()
        ok = True
        for p in perms:
            for i, j in enumerate(p):
                if (i, j) in used:
                    ok = False
                    break
                used.add((i, j))
            if not ok:
                break
        if ok:
            return sorted(used)


def clique_chain(params: CliqueChainParams) -> Graph:
    """Chain (or ring) of cliques joined by regular bipartite connectors.

    Every connected graph in this family has max degree at most delta with
    equality at base-interior cliques, while small sparse cutsets are
    scarce; tests record the achieved degree and cutset statistics instead
    of asserting any asymptotic bound.
    """
    if params.delta < 9:
        raise PreconditionError(f"clique_chain requires delta >= 9, got {params.delta}")
    if params.base_length < 3:
        raise PreconditionError(
            f"clique_chain requires base_length >= 3, got {params.base_length}"
        )
    k = params.clique_order
    d = params.connector_degree
    if k < d:
        raise PreconditionError(
            f"clique order {k} below connector degree {d}; delta={params.delta} "
            "leaves no room for a simple regular connector"
        )
    rng = random.Random(params.seed)
    length = params.base_length
    edges: list[tuple[int, int]] = []
    for b in range(length):
        base = b * k
        edges += [(base + i, base + j) for i in range(k) for j in range(i + 1, k)]
    base_edges = [(b, b + 1) for b in range(length - 1)]
    if params.cyclic:
        base_edges.append((length - 1, 0))
    for bu, bv in base_edges:
        for i, j in _regular_bipartite(k, d, rng):
            edges.append((bu * k + i, bv * k + j))
    return Graph(length * k, edges)


def named_small(name: str) -> Graph:
    """Small named graphs: K4, TriangularPrism, K3BoxK3, LineGraphPetersen."""
    builders = {
        "K4": _k4,
        "TriangularPrism": _triangular_prism,
        "K3BoxK3": _k3_box_k3,
        "LineGraphPetersen": _line_graph_petersen,
    }
    if name not in builders:
        known = ", ".join(sorted(builders))
        raise PreconditionError(f"unknown graph name {name!r}; known: {known}")
    return builders[name]()


def _k4() -> Graph:
    return Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def _triangular_prism() -> Graph:
    tri = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    rungs = [(0, 3), (1, 4), (2, 5)]
    return Graph(6, tri + rungs)


def _k3_box_k3() -> Graph:
    # Cartesian product: vertex 3*i+j, same-row and same-column triangles
    edges = []
    for i in range(3):
        for j in range(3):
            v = 3 * i + j
            for jj in range(j + 1, 3):
                edges.append((v, 3 * i + jj))
            for ii in range(i + 1, 3):
                edges.append((v, 3 * ii + j))
    return Graph(9, edges)


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def _line_graph_petersen() -> Graph:
    p = _petersen()
    pe = p.edges()
    edges = [
        (a, b)
        for a in range(len(pe))
        for b in range(a + 1, len(pe))
        if set(pe[a]) & set(pe[b])
    ]
    return Graph(len(pe), edges)


# whole pairings random_regular draws before it gives up
_PAIRING_ATTEMPTS = 2000


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Random d-regular graph by the pairing model with full rejection.

    All n*d stubs are shuffled and paired; any pairing with a self-loop or
    repeated edge is thrown away entirely, so the result is uniform over
    simple pairings. Deterministic given the seed.
    """
    if n <= 0 or d < 0:
        raise PreconditionError(f"random_regular needs n > 0, d >= 0, got n={n} d={d}")
    if d >= n:
        raise PreconditionError(f"random_regular requires d < n, got n={n} d={d}")
    if (n * d) % 2 != 0:
        raise PreconditionError(f"n*d must be even, got n={n} d={d}")
    getrandbits = random.Random(seed).getrandbits
    stubs = [v for v in range(n) for _ in range(d)]
    # random.Random.shuffle inlined, drawing exactly the same getrandbits
    # calls: for each i from the top down, j is drawn on i+1's bit length
    # until it is at most i
    steps = [(i, (i + 1).bit_length()) for i in range(len(stubs) - 1, 0, -1)]
    for _ in range(_PAIRING_ATTEMPTS):
        for i, k in steps:
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            stubs[i], stubs[j] = stubs[j], stubs[i]
        seen = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            key = (u, v) if u < v else (v, u)
            if key in seen:
                ok = False
                break
            seen.add(key)
        if ok:
            return Graph(n, sorted(seen))
    raise BudgetExhausted(
        f"random_regular(n={n}, d={d}, seed={seed}) found no simple pairing "
        f"in {_PAIRING_ATTEMPTS} attempts"
    )
