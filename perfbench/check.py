"""Independent answer checks for the benchmark.

Nothing here imports sparsecut. Graphs are plain ``(n, edges)`` pairs with
sorted ``u < v`` edges, separation is decided with this file's own
union-find, and the edge-list and graph6 readers are written from the
format descriptions, so a defect shared with the library cannot hide.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from itertools import combinations


class Plain:
    """A simple graph as the benchmark sees it: order, edges, adjacency."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges):
        self.n = n
        self.edges = sorted((min(u, v), max(u, v)) for u, v in edges)
        self.adj = [set() for _ in range(n)]
        for u, v in self.edges:
            self.adj[u].add(v)
            self.adj[v].add(u)

    def digest(self) -> str:
        return edge_hash(self.n, self.edges)


def edge_hash(n: int, edges) -> str:
    """Canonical sha256 of an order and a sorted edge list."""
    h = hashlib.sha256(f"order {n}\n".encode())
    for u, v in edges:
        h.update(f"{u},{v};".encode())
    return h.hexdigest()


def json_digest(obj) -> str:
    """128-bit digest of the canonical JSON form of obj."""
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:32]


def bytes_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ------------------------------------------------------------ graph readers


def read_edge_list(text: str) -> Plain:
    n = None
    edges = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].split()
        if not line:
            continue
        if line[0] == "n":
            n = int(line[1])
            continue
        edges.append((int(line[0]), int(line[1])))
    if n is None:
        n = 1 + max((max(e) for e in edges), default=-1)
    return Plain(n, edges)


def read_graph6(text: str) -> Plain:
    data = text.strip().removeprefix(">>graph6<<").encode()
    if data[0] == 126:
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    edges = []
    for k, byte in enumerate(body):
        bits = byte - 63
        for b in range(6):
            if bits & (32 >> b):
                idx = 6 * k + b
                j = (1 + math.isqrt(1 + 8 * idx)) // 2
                edges.append((idx - j * (j - 1) // 2, j))
    return Plain(n, edges)


def write_edge_list(g: Plain) -> str:
    return "n %d\n" % g.n + "".join("%d %d\n" % e for e in g.edges)


_PLUS_63 = bytes((b + 63) & 255 for b in range(256))


def write_graph6(g: Plain) -> str:
    n = g.n
    head = bytes([n + 63]) if n <= 62 else bytes(
        [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    )
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for u, v in g.edges:
        idx = v * (v - 1) // 2 + u
        body[idx // 6] |= 32 >> (idx % 6)
    return (head + body.translate(_PLUS_63)).decode()


# ------------------------------------------------------------- separation


def pieces(g: Plain, removed) -> int:
    """Number of components of g minus removed, by union-find."""
    gone = set(removed)
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges:
        if u in gone or v in gone:
            continue
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(v) for v in range(g.n) if v not in gone})


def separates(g: Plain, s) -> bool:
    return len(set(s)) < g.n and pieces(g, s) >= 2


def inner_degrees(g: Plain, s) -> list[int]:
    ss = set(s)
    return [len(g.adj[v] & ss) for v in ss]


def cutset_ok(
    g: Plain,
    s,
    size: int | None = None,
    degree: int | None = None,
    avg_below: Fraction | None = None,
    minimal: bool = False,
) -> bool:
    """Separation plus the promised size, degree and strict average bounds."""
    s = list(s)
    if len(set(s)) != len(s) or any(not 0 <= v < g.n for v in s):
        return False
    if not separates(g, s):
        return False
    if size is not None and len(s) > size:
        return False
    degs = inner_degrees(g, s)
    if degree is not None and max(degs, default=0) > degree:
        return False
    if avg_below is not None and not (not s or Fraction(sum(degs), len(s)) < avg_below):
        return False
    if minimal:
        for k in range(len(s)):
            if any(pieces(g, sub) >= 2 for sub in combinations(s, k)):
                return False
    return True


def krr_ok(g: Plain, r: int, a, b) -> bool:
    a, b = list(a), list(b)
    return (
        len(a) == r
        and len(b) == r
        and len(set(a) | set(b)) == 2 * r
        and all(w in g.adj[u] for u in a for w in b)
    )


def has_krr(g: Plain, r: int) -> bool:
    for combo in combinations(range(g.n), r):
        common = set.intersection(*(g.adj[v] for v in combo))
        if len(common) >= r:
            return True
    return False


def squared_cycle_order_ok(g: Plain, order) -> bool:
    """order lists the vertices around a cycle whose square is g."""
    n = g.n
    order = list(order)
    if n < 5 or sorted(order) != list(range(n)) or len(g.edges) != (10 if n == 5 else 2 * n):
        return False
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    for u, v in g.edges:
        d = abs(pos[u] - pos[v]) % n
        if min(d, n - d) not in (1, 2):
            return False
    return True


def is_squared_cycle_labelled(g: Plain) -> bool:
    return squared_cycle_order_ok(g, range(g.n))


def is_icosahedron(g: Plain) -> bool:
    if g.n != 12 or len(g.edges) != 30:
        return False
    for v in range(12):
        nb = g.adj[v]
        # a 2-regular simple graph on five vertices can only be C5
        if len(nb) != 5 or any(len(g.adj[u] & nb) != 2 for u in nb):
            return False
    return True


def connected(g: Plain) -> bool:
    return g.n > 0 and pieces(g, ()) == 1


def connectivity_above(g: Plain, k: int) -> bool:
    """No set of at most k vertices separates g."""
    return not any(
        pieces(g, s) >= 2
        for size in range(k + 1)
        for s in combinations(range(g.n), size)
        if size < g.n - 1
    )


def all_two_k2(g: Plain) -> bool:
    for v in range(g.n):
        nb = g.adj[v]
        if len(nb) != 4 or any(len(g.adj[u] & nb) != 1 for u in nb):
            return False
    return True


def no_sparse_minimal_cutset(g: Plain, max_size: int, avg_below: Fraction) -> bool:
    return not any(
        cutset_ok(g, s, avg_below=avg_below, minimal=True)
        for size in range(1, max_size + 1)
        for s in combinations(range(g.n), size)
    )


def no_cutset(g: Plain, degree: int) -> bool:
    """No cutset of g has internal max degree at most degree (exhaustive)."""
    deg = [0] * g.n

    def grow(start: int, chosen: list[int]) -> bool:
        if chosen and separates(g, chosen):
            return False
        for v in range(start, g.n):
            inside = [u for u in chosen if u in g.adj[v]]
            if len(inside) > degree or any(deg[u] >= degree for u in inside):
                continue
            for u in inside:
                deg[u] += 1
            deg[v] = len(inside)
            chosen.append(v)
            clear = grow(v + 1, chosen)
            chosen.pop()
            deg[v] = 0
            for u in inside:
                deg[u] -= 1
            if not clear:
                return False
        return True

    return grow(0, [])


def regular_simple(g: Plain, n: int, d: int) -> bool:
    return (
        g.n == n
        and len(set(g.edges)) == len(g.edges) == n * d // 2
        and all(u != v for u, v in g.edges)
        and all(len(a) == d for a in g.adj)
    )
