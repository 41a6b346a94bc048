"""Independent brute-force oracles used to verify certificates.

Everything here works from the graph alone (its own flood fill, its own
unit-capacity path searches on the residual sets of one vertex-split
network per connectivity call and, for graphs within the budget's order
cap, adjacency bitmasks) and shares no logic with the constructive
algorithms it audits.
Exponential searches are gated by an OracleBudget; running out of budget
raises BudgetExhausted, which is a first-class outcome distinct from a
definitive "none".

The four exponential searches each build one _Search, which rejects an
order above max_n, holds the adjacency bitmasks and counts search steps.

The three searches for cutsets share one cut test at every order, bit-sliced
after Biham, "A fast new DES implementation in software" (FSE 1997): the
sets to test are the lanes of a block, each vertex gets one big int whose
bit i says whether it is in the i-th set, and one flood fill decides every
lane (_cut_lanes). A block holds at most _BLOCK_BITS // n sets, so its
slices take at most 32 KB whatever the number of sets is. Blocks are
filled in two ways, and _Search.block_cuts names the sets that cut.

- enumerate_min_cutsets and the average-only scan of
  find_constrained_cutset fill blocks with whole layers of k-subsets in
  lexicographic order (layer_cuts).
- The degree walks of find_independent_cutset and find_constrained_cutset
  walk their sets on an explicit stack, so no search recurses, and add
  each set as the next lane of a block (_Lanes). The size walk
  (_size_walk) goes by increasing size and reaches each size from stored
  roots, so it does not walk the prefixes of every size again.

find_krr walks its r-subsets on an explicit stack too and needs no cut
test. Every search, vertex_connectivity included, follows the one clock
rule that OracleBudget states.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import comb
from numbers import Real
from typing import Iterator

from .certificates import (
    Certificate,
    GoodCutset,
    IndependentCutset,
    KrrWitness,
    SquaredCycleIso,
    _fields_fit,
)
from .errors import BudgetExhausted, PreconditionError, require_int
from .graph import Graph


@dataclass(frozen=True)
class OracleBudget:
    """Caps for the exhaustive searches.

    max_n gates every exponential enumeration, max_subset_size caps
    searches that go subset-size by subset-size, and time_hint_s is a soft
    wall-clock limit, counted from the start of each search.
    vertex_connectivity reads time_hint_s and no other cap.

    The clock rule, one for every search: without a time hint no search
    reads the clock. With one, a search reads it at its start, after each
    sweep of a block's flood fill, every 64 steps of a walk
    (find_independent_cutset, find_constrained_cutset(max_delta=...),
    with max_avg or without, and find_krr) and, in vertex_connectivity,
    after each flow pair, and it stops at the first read past the limit.

    The two caps are ints that are not bools, and time_hint_s, when given,
    is a positive number that is not a bool; anything else raises
    PreconditionError.

    max_subset_size does not cap find_independent_cutset or
    find_constrained_cutset(max_delta=...): both are exhaustive, so their
    None means "no such cutset at all", and a cap would turn those answers
    into BudgetExhausted.
    """

    max_n: int = 24
    max_subset_size: int = 6
    time_hint_s: float | None = None

    def __post_init__(self) -> None:
        for name in ("max_n", "max_subset_size"):
            cap = getattr(self, name)
            require_int(cap, f"OracleBudget: {name}")
            if cap < 0:
                raise PreconditionError(f"OracleBudget: {name} must be non-negative, got {cap}")
        hint = self.time_hint_s
        if hint is None:
            return
        if isinstance(hint, bool) or not isinstance(hint, Real):
            raise PreconditionError(
                f"OracleBudget: time_hint_s must be a number or None, got {hint!r}"
            )
        if not hint > 0:
            raise PreconditionError(f"OracleBudget: time_hint_s must be positive, got {hint}")


def _separates(g: Graph, removed: tuple[int, ...]) -> bool:
    """Whether g minus removed has at least two components, by flood fill."""
    seen = set(removed)
    start = next((v for v in range(g.n) if v not in seen), None)
    if start is None:
        return False
    seen.add(start)
    stack = [start]
    while stack:
        for w in g.neighbors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) < g.n


# The most bits, n times lanes, in one block of bit slices: 32 KB per list
# of n slices. At n = 24 a block holds 10922 subsets, a whole
# layer up to k = 4.
_BLOCK_BITS = 1 << 18

# The lanes in the first block of a walk's sets (_Lanes).
_FIRST_LANES = 16

# _DIGITS[j] maps each byte to the ASCII digit of its bit j.
_DIGITS = tuple(bytes(48 + (x >> j & 1) for x in range(256)) for j in range(8))


class _Search:
    """What one exponential search over g needs: its order gate, the
    adjacency bitmasks and lists, a step clock for the time hint and the
    cut test for a block of sets.

    A block holds at most self.lanes = _BLOCK_BITS // n sets: lane i is its
    i-th set, and bit i of members[v] is set when v is in it. _cut_lanes
    tests every lane of a block in one flood fill. layer_cuts(k) fills its
    blocks with _blocks and reads them back with block_cuts(members,
    width), which yields each set that cuts; the walks use _Lanes.
    """

    def __init__(self, g: Graph, budget: OracleBudget | None, what: str):
        self.budget = budget or OracleBudget()
        if g.n > self.budget.max_n:
            raise BudgetExhausted(
                f"{what}: n={g.n} exceeds oracle cap max_n={self.budget.max_n}"
            )
        self.n = g.n
        self.adj = tuple(map(g.neighbors, range(g.n)))
        # bit w of masks[v] is set iff vw is an edge; each mask has n bits,
        # which is why they are built only past the order gate
        self.masks = tuple(sum(1 << w for w in g.neighbors(v)) for v in range(g.n))
        self.full = (1 << g.n) - 1
        # the most lanes in one block
        self.lanes = max(1, _BLOCK_BITS // max(g.n, 1))
        self.steps = 0
        self.start = None if self.budget.time_hint_s is None else time.monotonic()

    def tick(self) -> None:
        """Count one search step; every 64 steps, enforce the time hint."""
        self.steps += 1
        if not self.steps & 63:
            self.check_clock()

    def check_clock(self) -> None:
        """Enforce the time hint, reading the clock only when there is one.
        A step can cost O(n) big-int work on deep sets, so the walks call
        this often: once every 64 steps, and _cut_lanes once per sweep."""
        if self.start is not None and time.monotonic() - self.start > self.budget.time_hint_s:
            raise BudgetExhausted(f"oracle time budget of {self.budget.time_hint_s}s exceeded")

    def layer_cuts(self, k: int) -> Iterator[tuple[int, ...]]:
        """Every k-subset whose removal leaves two or more components, in
        lexicographic order, found a block of subsets at a time.

        _blocks fills lexicographic blocks of at most self.lanes subsets,
        lane i of a block holding its i-th subset, and block_cuts tests
        each one. Each subset tested is one step. A generator, so a caller
        that stops at its first hit leaves the blocks after it untested."""
        for members, width in self._blocks(k):
            self.steps += width
            yield from self.block_cuts(members, width)

    def _blocks(self, k: int) -> Iterator[tuple[list[int], int]]:
        """The k-subsets in lexicographic blocks of at most self.lanes
        subsets, each as (members, width) for block_cuts: bit i of
        members[v] is set when v is in the block's i-th subset. A block is
        filled a piece at a time, a piece being a prefix joined to each
        j-subset of a..n-1. The fill reads no clock: the first sweep of each
        block's _cut_lanes does."""
        n, lanes = self.n, self.lanes
        tables = self._tables(k)

        def pieces(prefix: tuple[int, ...], a: int, j: int):
            # split by the least member until a piece fits in a block; the
            # recursion is at most k deep
            while comb(n - a, j) > lanes:
                yield from pieces(prefix + (a,), a + 1, j - 1)
                a += 1
            if j <= n - a:
                yield prefix, a, j

        members = [0] * n
        width = 0
        for prefix, a, j in pieces((), 0, k):
            size = comb(n - a, j)
            if width + size > lanes:
                yield members, width
                members, width = [0] * n, 0
            if j:  # else the prefix is the whole subset
                # the j-subsets of a..n-1 are the last size lanes of tables[j]
                base_a, base = tables[j]
                drop = comb(n - base_a, j) - size
                for v, x in zip(range(a, n), base[a - base_a :]):
                    members[v] |= x >> drop << width
            for v in prefix:
                members[v] |= (1 << size) - 1 << width
            width += size
        # the last block needs no tables: free them before its fill
        tables = base = None
        if width:
            yield members, width

    def _tables(self, k: int) -> list:
        """tables[j] = (a, slices) for 1 <= j <= k: bit i of slices[v - a] is
        set when v is in the i-th j-subset of a..n-1 in lexicographic order,
        for the least a whose C(n - a, j) subsets fit in a block and with
        a >= k - j, since a piece at j has k - j members below a.

        C(a, 1) has a + i in lane i, so one table serves every a. The rest
        are built from a = n - 2 down by C(a, j) = {a}·C(a+1, j-1) ++
        C(a+1, j), with no clock read: the first sweep of the first block's
        _cut_lanes follows them. Each table fits in a block, so together
        they hold at most k * _BLOCK_BITS bits."""
        n, lanes = self.n, self.lanes
        tables: list = [None] * (k + 1)
        if k:
            low = max(n - lanes, 0)  # the least a whose C(n - a, 1) fits
            tables[1] = (low, [1 << i for i in range(n - low)])
        for a in range(n - 2, -1, -1) if k > 1 else ():
            # j descends, so tables[j - 1] still holds C(a+1, j-1)
            for j in range(min(k, n - a), max(k - a, 2) - 1, -1):
                if comb(n - a, j) > lanes:
                    continue
                head = comb(n - a - 1, j - 1)  # the subsets that hold a
                inc = tables[j - 1][1]
                # in place, so each slice of C(a+1, j) is freed as it is
                # extended; C(a+1, n-a) is empty
                slices = tables[j][1] if tables[j] else [0] * (n - a - 1)
                for i in range(n - a - 1):
                    slices[i] = inc[i] | slices[i] << head
                slices.insert(0, (1 << head) - 1)
                tables[j] = (a, slices)
        return tables

    def _cut_lanes(self, members: list[int], width: int) -> int:
        """The lanes of a block whose subset leaves two or more components.

        alive[v] has bit i set when v is not in subset i. Each lane is
        seeded at its lowest vertex left; sweeps forward, then backward, and
        so on set reach[v] |= alive[v] & OR(reach[u] for u in N(v)) until a
        whole sweep changes nothing or every lane is reached, one clock read
        per sweep. A lane cuts when some vertex left is unreached."""
        full = (1 << width) - 1
        # in place, so each member slice is freed as its alive slice is made
        alive = members
        reach = []
        seen = 0
        for v, m in enumerate(members):
            alive[v] = x = full ^ m
            reach.append(x & ~seen)
            seen |= x
        adj = self.adj
        order = range(self.n)
        changed = True
        while changed:
            self.check_clock()
            changed = False
            for v in order:
                r = x = reach[v]
                y = alive[v]
                if r == y:
                    continue  # reached in every lane that keeps v
                for u in adj[v]:
                    x |= reach[u]
                x &= y
                if x != r:
                    reach[v] = x
                    changed = True
            order = order[::-1]
            cut = 0
            for x, r in zip(alive, reach):
                cut |= x ^ r
            if not cut:
                break  # every lane is reached: no confirming sweep
        return cut

    def block_cuts(self, members: list[int], width: int) -> Iterator[tuple[int, ...]]:
        """The sets of a block that leave two or more components, in lane
        order: lane i is the block's i-th set, and bit i of members[v] is set
        when v is in it. One _cut_lanes fill tests every lane; it leaves
        members as the alive slices, so v is in a cutting lane's set when
        that lane's bit of its slice is clear."""
        cut = self._cut_lanes(members, width)
        while cut:
            low = cut & -cut
            cut ^= low
            yield tuple(v for v, x in enumerate(members) if not x & low)


class _Lanes:
    """The sets a walk tests, gathered as the lanes of one block.

    Lane i is the i-th set added, kept as its n-bit vertex mask in
    ceil(n / 8) little-endian bytes of one bytearray, so adding a lane is
    one to_bytes whatever the block's width. test transposes the buffer
    into the member slices with C-level bytes operations: slice v is the
    byte at offset v >> 3 of every lane, each mapped to the digit of its
    bit v & 7 and the digits reversed, read in base 2. One block_cuts
    fill tests the block and names its first cutting lane's set. The
    first block holds _FIRST_LANES lanes and each later one twice
    as many, up to search.lanes, so a walk that hits early tests few sets."""

    def __init__(self, search: _Search):
        self.search = search
        self.cap = min(_FIRST_LANES, search.lanes)
        self.size = (search.n + 7) >> 3  # bytes per lane
        self.buf = bytearray()
        self.width = 0

    def add(self, mask: int) -> tuple[int, ...] | None:
        """Add the set whose vertex mask is mask as the next lane. Once the
        block is full, test it: the first set in it that cuts, or None."""
        self.buf += mask.to_bytes(self.size, "little")
        self.width += 1
        return self.test() if self.width == self.cap else None

    def test(self) -> tuple[int, ...] | None:
        """Test the lanes added since the last test: the first set that
        cuts, or None."""
        buf, width, size, n = self.buf, self.width, self.size, self.search.n
        self.buf, self.width = bytearray(), 0
        self.cap = min(2 * self.cap, self.search.lanes)
        if not width:
            return None
        members = [int(buf[v >> 3 :: size].translate(_DIGITS[v & 7])[::-1], 2) for v in range(n)]
        return next(self.search.block_cuts(members, width), None)


# --------------------------------------------------------- cutset enumeration


def enumerate_min_cutsets(
    g: Graph, budget: OracleBudget | None = None
) -> list[tuple[int, ...]]:
    """All cutsets of minimum order, in lexicographic order.

    A complete graph has no cutset at all and yields the empty list (its
    connectivity is the conventional n-1). Requires a connected input.
    """
    search = _Search(g, budget, "enumerate_min_cutsets")
    if _separates(g, ()):
        raise PreconditionError("enumerate_min_cutsets requires a connected graph")
    if g.m == g.n * (g.n - 1) // 2:
        return []
    # kappa <= min degree for connected non-complete graphs, so the scan
    # below is guaranteed to stop by then
    limit = g.min_degree()
    for k in range(1, limit + 1):
        if k > search.budget.max_subset_size:
            raise BudgetExhausted(
                f"enumerate_min_cutsets: min cutset order exceeds cap "
                f"max_subset_size={search.budget.max_subset_size}"
            )
        found = list(search.layer_cuts(k))
        if found:
            return found
    raise PreconditionError(
        "enumerate_min_cutsets: no cutset up to the minimum degree; "
        "input was not a connected simple graph"
    )


# ------------------------------------------------------------------------ flow


def _free_end(residual: list[set[int]], source: int, ends):
    """Breadth-first from source to the in side 2v of a vertex v of ends
    whose unit arc to 2v+1 is free: that node, and prev, the node that
    each reached node came from; None if no such end is in reach."""
    prev = {source: None}
    queue = [source]
    for x in queue:
        for y in residual[x]:
            if y not in prev:
                prev[y] = x
                if not y & 1 and y >> 1 in ends and y + 1 in residual[y]:
                    return y, prev
                queue.append(y)
    return None


def _fan(residual: list[set[int]], src: int, ends, stop_at: int) -> int:
    """How many paths run from src to distinct vertices of the set ends,
    sharing only src, counted up to stop_at; src is not in ends.

    In residual, node 2v is v's in side and 2v+1 its out side, and
    residual[x] holds each node that x has a free unit arc to. Each path
    comes from one augmenting search from src's out side (_free_end) and
    turns its arcs, the end's unit first: each leaves its tail's set and
    joins its head's. The turned arcs are logged and turned back before
    returning.

    For non-adjacent s and t this is also the capped pair flow:
    _fan(residual, s, N(t), k) = min(k, kappa(s, t)), since a path to a
    neighbor of t extends to t and a path to t passes a neighbor of t last."""
    turned: list[tuple[int, int]] = []
    found = 0
    while found < stop_at and (hit := _free_end(residual, 2 * src + 1, ends)):
        x, prev = hit
        y = x + 1
        while x is not None:
            residual[x].remove(y)
            residual[y].add(x)
            turned.append((x, y))
            x, y = prev[x], x
        found += 1
    for x, y in reversed(turned):
        residual[y].remove(x)
        residual[x].add(y)
    return found


def vertex_connectivity(g: Graph, budget: OracleBudget | None = None) -> int:
    """Exact vertex connectivity by unit-capacity paths, with the pair
    selection of Esfahanian and Hakimi, "On computing the connectivities of
    graphs and digraphs" (Networks 1984), and the check of Even, "An
    algorithm for determining whether the connectivity of a graph is at
    least k" (SIAM J. Comput. 1975), in place of most of its flows.

    Let v0 be the smallest-index vertex of minimum degree. A minimum cutset
    that misses v0 separates it from some non-neighbor. One that contains
    v0 is minimal, so v0 has a neighbor in two of the components it leaves,
    and those two neighbors are non-adjacent. So the minimum of deg(v0),
    kappa(v0, u) over the non-neighbors u, and kappa(x, y) over the
    non-adjacent pairs of neighbors is exact.

    best starts at deg(v0) and only falls. W holds v0, its neighbors and
    the non-neighbors decided so far, each of which has kappa(v0, w) >=
    best. The non-neighbors u are decided in bit-reversal order of their
    ids: if best paths run from u to distinct vertices of W, sharing only u
    (_fan), then kappa(v0, u) >= best. Proof: let X, of fewer than best
    vertices and holding neither v0 nor u, part them. X misses one of the
    paths whole. Its end is v0, a neighbor of v0 outside X, or a decided
    w, which X cannot part from v0 since kappa(v0, w) >= best > |X|. So u
    reaches v0 in G - X, a contradiction. Only when the fan falls short
    does a flow from v0 to u run, and best falls to its value. Either way
    u then joins W. The proof uses no property of the order, so any order
    is exact; the order only sets how far a fan travels. W grown in
    breadth-first order is one arc around a squared cycle, so each fan has
    to go the long way round and the run is quadratic; bit reversal
    spreads W around it, so each fan finds W near u. Each non-adjacent
    pair of neighbors gets its flow. All of it runs on one set of residual
    arcs built once per call, node 2v for v's in side and 2v+1 for its out
    side (_fan). A complete graph leaves no pair, so its answer is
    deg(v0) = n-1, and a disconnected g (one _separates flood fill) is 0.

    Of budget only time_hint_s applies, under OracleBudget's clock rule:
    with a hint the clock is read at the start of the call and after each
    pair, and running out raises BudgetExhausted naming how many pairs
    were finished; without one it is never read.
    """
    if not g.n or _separates(g, ()):
        return 0
    v0 = min(range(g.n), key=g.degree)
    near = g.neighbor_set(v0)
    # the ids 0 .. 2^b - 1 in bit-reversal order, b the fewest bits that
    # cover every id: each prefix is spread evenly over the ids
    spread = [0]
    while len(spread) < g.n:
        spread = [2 * x for x in spread] + [2 * x + 1 for x in spread]
    pairs = [(u, None) for u in spread if u < g.n and u != v0 and u not in near]
    pairs += [(x, y) for x, y in combinations(g.neighbors(v0), 2) if not g.has_edge(x, y)]
    # out(u) has a unit arc to in(v) for each edge uv, in(v) one to out(v)
    residual = [
        {x + 1} if not x & 1 else {2 * v for v in g.neighbors(x >> 1)} for x in range(2 * g.n)
    ]
    best = g.degree(v0)
    checked = {v0, *near}
    limit = None if budget is None else budget.time_hint_s
    start = None if limit is None else time.monotonic()
    for done, (s, t) in enumerate(pairs, 1):
        if t is not None:
            best = _fan(residual, s, g.neighbor_set(t), best)
        elif _fan(residual, s, checked, best) < best:
            best = _fan(residual, v0, g.neighbor_set(s), best)
        # a non-neighbor joins W; a neighbor s of v0 is in it already
        checked.add(s)
        if limit is not None and time.monotonic() - start > limit:
            raise BudgetExhausted(
                f"oracle time budget of {limit}s exceeded after {done} of {len(pairs)} flow pairs"
            )
    return best


# -------------------------------------------------------- constrained searches


def find_independent_cutset(
    g: Graph, budget: OracleBudget | None = None
) -> tuple[int, ...] | None:
    """The size walk (_size_walk) at internal degree 0: the first independent
    cutset by size, lexicographic within a size, a definitive None, or
    BudgetExhausted. A disconnected input returns (), the empty set, which
    is an independent cutset by convention."""
    search = _Search(g, budget, "find_independent_cutset")
    return () if g.n and _separates(g, ()) else _size_walk(search, 0, None)


def _cut_vertices(adj: tuple[tuple[int, ...], ...]) -> int:
    """The mask of the vertices v with two or more components in G - v, from
    the lowpoints of one iterative depth-first pass (Hopcroft and Tarjan,
    "Efficient algorithms for graph manipulation", CACM 1973).

    G - v has the components of G other than v's, plus the pieces its own
    component falls into: the part above v unless v is a root, and each
    subtree of a child w from which no edge climbs above v, low[w] >=
    order[v]."""
    n = len(adj)
    order, low, pieces = [0] * n, [0] * n, [1] * n
    t = trees = 0
    for root in range(n):
        if order[root]:
            continue
        trees += 1
        t += 1
        order[root] = low[root] = t
        pieces[root] = 0
        stack = [(root, iter(adj[root]))]
        while stack:
            v, edges = stack[-1]
            for w in edges:
                if not order[w]:
                    t += 1
                    order[w] = low[w] = t
                    stack.append((w, iter(adj[w])))
                    break
                if order[w] < low[v]:
                    low[v] = order[w]
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if low[v] >= order[p]:
                        pieces[p] += 1
    return sum(1 << v for v in range(n) if trees - 1 + pieces[v] >= 2)


def _size_walk(search: _Search, cap: int, avg: Fraction | None) -> tuple[int, ...] | None:
    """The first nonempty set that cuts, has internal degree at most cap
    and, with avg, average internal degree below avg, by increasing size
    and lexicographic within a size, or None. A vertex can join a set S
    when it has at most cap neighbors in S and none among its saturated
    members, those with cap neighbors in S: at cap 0, every member. The
    walk stops at the first size with no degree-capped set, since the cap
    is hereditary. Each set that meets avg is one lane of a block (_Lanes),
    except that a singleton {v} is one only when v is a cut vertex
    (_cut_vertices), since no other singleton cuts.

    Size k is walked from stored roots, each kept with its candidates: the
    sets of the deepest size j < k that has at most search.lanes of them,
    or the empty root. From each root an explicit stack takes the k - j
    picks left, so when every size fits each set is visited once. The next
    roots are dropped once they pass that cap, checked after the candidates
    of each (k-1)-set, so they hold at most n sets more, and the walk's
    memory stays within a block's lane bound whatever max_n is. Each pick,
    a set's last one included, is one step.
    """
    n, masks, lanes = search.n, search.masks, _Lanes(search)

    def join(s: int, c: int, b: int) -> int:
        # the vertices of c that can join s | b; only b's neighbors change
        x, block = s | b, 0
        t = masks[b.bit_length() - 1] & (s | c) | b
        while t:
            w = t & -t
            t ^= w
            mw = masks[w.bit_length() - 1]
            inside = (mw & x).bit_count()
            if inside > cap:
                block |= w
            elif inside == cap and w & x:
                block |= mw
        return c & ~block

    def lane(x: int) -> tuple[int, ...] | None:
        # x is a lane when twice its induced edges, over its size, is below avg
        edges2, t = 0, x
        while t:
            edges2 += (masks[(t & -t).bit_length() - 1] & x).bit_count()
            t &= t - 1
        return lanes.add(x) if edges2 * avg.denominator < avg.numerator * x.bit_count() else None

    add, most = lanes.add if avg is None else lane, 2 * search.lanes
    cuts = _cut_vertices(search.adj)
    # flat, each root's vertex mask then its candidates: the vertices that
    # can join it, above its last member
    roots, j = [0, search.full], 0
    # sets[d] is a root and its first d picks, cands[d] their candidates
    sets, cands = [0], [0]
    for k in range(1, n - 1):
        need = k - j
        put = add if k > 1 else (lambda x: add(x) if x & cuts else None)
        grown: list[int] | None = []  # the k-sets as roots, while they fit
        for r in range(0, len(roots), 2):
            sets[0], cands[0] = roots[r], roots[r + 1]
            while True:
                c = cands[-1]
                depth = len(cands)
                if depth == need:
                    # each candidate completes one degree-capped k-set
                    s = sets[-1]
                    while c:
                        b = c & -c
                        c ^= b
                        search.steps = steps = search.steps + 1
                        if not steps & 63:
                            search.check_clock()
                        x = s | b
                        if grown is not None:
                            grown.append(x)
                            grown.append(join(s, c, b) if cap else c & ~masks[b.bit_length() - 1])
                        hit = put(x)
                        if hit is not None:
                            return hit
                    if grown is not None and len(grown) > most:
                        grown = None
                elif c.bit_count() > need - depth:
                    # enough candidates left for the picks to come
                    b = c & -c
                    c ^= b
                    cands[-1] = c
                    nxt = join(sets[-1], c, b) if cap else c & ~masks[b.bit_length() - 1]
                    if nxt.bit_count() >= need - depth:
                        search.tick()
                        sets.append(sets[-1] | b)
                        cands.append(nxt)
                    continue
                if depth == 1:
                    break
                sets.pop()
                cands.pop()
        if grown == []:
            break  # no degree-capped k-set, so none larger
        if grown:
            roots, j = grown, k
    return lanes.test()


def find_constrained_cutset(
    g: Graph,
    max_delta: int | None = None,
    max_avg: tuple[int, int] | Fraction | None = None,
    budget: OracleBudget | None = None,
) -> tuple[int, ...] | None:
    """Cutset with max internal degree <= max_delta, a non-negative int,
    and/or average internal degree strictly below max_avg, a Fraction or a
    (numerator, positive denominator) pair.

    With max_delta given, the degree cap is hereditary, so the search
    covers every degree-capped set and None is exhaustive. With an average
    bound too, it is the size walk (_size_walk) at degree max_delta: a
    smallest nonempty qualifying cutset, lexicographically first of its
    size. With max_delta alone, it walks the degree-capped sets in
    depth-first inclusion order, each one lane of a block (_Lanes), and a
    disconnected input returns () as in find_independent_cutset. With only
    an average bound nothing is hereditary, so the scan goes by size up to
    budget.max_subset_size, and None means "none within that cap".
    """
    if max_delta is None and max_avg is None:
        raise PreconditionError("find_constrained_cutset needs at least one constraint")
    if max_delta is not None:
        # a float bound would never mark a vertex saturated
        require_int(max_delta, "find_constrained_cutset: max_delta")
        if max_delta < 0:
            # no set meets a negative cap, not even the empty set
            raise PreconditionError(
                f"find_constrained_cutset: max_delta must be non-negative, got {max_delta}"
            )
    avg = max_avg
    if max_avg is not None and not isinstance(max_avg, Fraction):
        pair = isinstance(max_avg, (tuple, list)) and len(max_avg) == 2
        if not (pair and all(type(x) is int for x in max_avg)):
            raise PreconditionError(
                f"find_constrained_cutset: max_avg must be a Fraction or a pair of ints, "
                f"got {max_avg!r}"
            )
        if max_avg[1] <= 0:
            raise PreconditionError(
                f"find_constrained_cutset: max_avg needs a positive denominator, got {max_avg}"
            )
        avg = Fraction(*max_avg)
    # the arguments are checked first, so a malformed one is never reported
    # as an order above max_n
    search = _Search(g, budget, "find_constrained_cutset")
    masks = search.masks
    if max_delta is not None and avg is not None:
        return _size_walk(search, max_delta, avg)
    if max_delta is not None:
        if _separates(g, ()):
            return ()
        # an explicit stack, so deep searches cannot overflow the interpreter
        # stack; S is tested when v joins it, extended by the vertices above
        # v, then v is swapped for its successors. Each entry holds v and
        # saturated, S's members with max_delta neighbors in S, before v joined
        stack: list[tuple[int, int]] = []
        lanes = _Lanes(search)
        smask = saturated = v = 0
        while True:
            if v == g.n:
                if not stack:
                    return lanes.test()
                v, saturated = stack.pop()
                smask ^= 1 << v
                v += 1
                continue
            search.steps += 1
            if not search.steps & 63:
                search.check_clock()
            inside = masks[v] & smask
            d = inside.bit_count()
            if d > max_delta or inside & saturated:
                v += 1
                continue
            stack.append((v, saturated))
            smask |= 1 << v
            if d == max_delta:
                saturated |= 1 << v
            while inside:
                b = inside & -inside
                inside ^= b
                if (masks[b.bit_length() - 1] & smask).bit_count() == max_delta:
                    saturated |= b
            hit = lanes.add(smask)
            if hit is not None:
                return hit
            v += 1

    # edges2 counts each induced edge of a k-set twice, and the set meets
    # the average bound when edges2 / k < avg
    for k in range(1, min(search.budget.max_subset_size, g.n - 1) + 1):
        for cutset in search.layer_cuts(k):
            smask = sum(1 << v for v in cutset)
            edges2 = sum((masks[v] & smask).bit_count() for v in cutset)
            if edges2 * avg.denominator < avg.numerator * k:
                return cutset
    return None


def find_krr(
    g: Graph, r: int, budget: OracleBudget | None = None
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """A complete bipartite K_{r,r} subgraph, as (side_a, side_b), or None.

    side_a is the lexicographically first r-set with r common neighbors,
    and side_b is the r smallest of them. The subgraph need not be induced.
    The r-sets are walked in lexicographic order on an explicit stack that
    prunes on common neighbors: a vertex joins the picks only while they
    keep r common neighbors, since further picks can only lose some. Each
    vertex tried is one step.
    """
    require_int(r, "find_krr: r")
    if r < 1:
        raise PreconditionError(f"find_krr requires r >= 1, got {r}")
    search = _Search(g, budget, "find_krr")
    n, masks = g.n, search.masks
    # common[d] is the common neighborhood of the first d picks
    picks: list[int] = []
    common = [search.full]
    v = 0
    while True:
        if v <= n - r + len(picks):
            # enough vertices from v on for the r - len(picks) picks to come
            search.tick()
            c = common[-1] & masks[v]
            if c.bit_count() >= r:
                picks.append(v)
                common.append(c)
                if len(picks) == r:
                    return tuple(picks), tuple(w for w in range(n) if c >> w & 1)[:r]
            v += 1
            continue
        if not picks:
            return None
        v = picks.pop() + 1
        common.pop()


# ------------------------------------------------------------------- recognizer


def recognize_squared_cycle(g: Graph) -> tuple[int, ...] | None:
    """If g is a squared cycle, the vertex order around it, else None.

    For n <= 6 the neighborhood structure degenerates (C5^2 = K5 and C6^2
    is 4-regular with C4 neighborhoods), so those orders use a direct
    exhaustive isomorphism. From n = 7 on, each neighborhood must induce
    P4 whose interior vertices are the two cycle neighbors; following them
    reconstructs the cycle, which is then verified edge for edge.
    """
    n = g.n
    if n < 5:
        return None
    if n <= 6:
        for perm in permutations(range(n)):
            if _order_matches(g, perm):
                return perm
        return None
    if any(g.degree(v) != 4 for v in range(n)):
        return None
    inner: list[tuple[int, int] | None] = [None] * n
    for v in range(n):
        nbset = g.neighbor_set(v)
        counts = [len(g.neighbor_set(u) & nbset) for u in g.neighbors(v)]
        if sorted(counts) != [1, 1, 2, 2]:
            return None
        inner[v] = tuple(u for u, k in zip(g.neighbors(v), counts) if k == 2)
    order = [0, min(inner[0])]
    placed = [False] * n
    placed[0] = placed[order[1]] = True
    while len(order) < n:
        prev, cur = order[-2], order[-1]
        a, b = inner[cur]
        nxt = b if prev == a else a
        if placed[nxt]:
            return None
        placed[nxt] = True
        order.append(nxt)
    perm = tuple(order)
    return perm if _order_matches(g, perm) else None


def _order_matches(g: Graph, order: tuple[int, ...]) -> bool:
    """Whether each vertex's neighbors are exactly the two before and the
    two after it around order, a permutation of the n >= 5 vertices."""
    n = len(order)
    return all(
        g.neighbor_set(v)
        == {order[i - 2], order[i - 1], order[(i + 1) % n], order[(i + 2) % n]}
        for i, v in enumerate(order)
    )


# ------------------------------------------------------------------ verification


def verify_certificate(g: Graph, cert: Certificate) -> bool:
    """Re-check a certificate from the graph alone. A field value that its
    declared type refuses, as in certificate_from_dict, makes it False."""
    if not isinstance(cert, Certificate):
        raise PreconditionError(f"unknown certificate type {type(cert).__name__}")
    if not _fields_fit(cert):
        return False
    if isinstance(cert, GoodCutset):
        return _verify_cutset_claim(
            g,
            cert.cutset,
            size_bound=cert.size_bound,
            degree_bound=cert.degree_bound,
            avg_bound=cert.avg_bound_strict,
            require_minimal=cert.require_minimal,
        )
    if isinstance(cert, IndependentCutset):
        return _verify_cutset_claim(
            g, cert.cutset, size_bound=cert.size_bound, degree_bound=0
        )
    if isinstance(cert, KrrWitness):
        return _verify_krr(g, cert)
    if isinstance(cert, SquaredCycleIso):
        return (
            g.n >= 5
            and len(cert.order) == g.n
            and _vertex_set(g, cert.order)
            and _order_matches(g, cert.order)
        )
    return _verify_icosahedron(g)


def _vertex_set(g: Graph, ids: tuple) -> bool:
    """Whether ids, ints that are not bools, are distinct vertices of g."""
    return all(0 <= v < g.n for v in ids) and len(set(ids)) == len(ids)


def _verify_cutset_claim(
    g: Graph,
    cutset: tuple[int, ...],
    size_bound: int | None = None,
    degree_bound: int | None = None,
    avg_bound: tuple[int, int] | None = None,
    require_minimal: bool = False,
) -> bool:
    """Whether cutset is a set of distinct vertices that separates g and
    meets each bound given; with require_minimal, also that no proper
    subset separates g, at every size.

    S is minimal exactly when no S - x (x in S) separates, so |S| flood
    fills decide it. Proof: suppose a proper subset T of S separates. V - S
    is not empty, since S is a cutset. If V - S meets two components of
    G - T, then S - x separates for any x in S - T, as G - (S - x) is an
    induced subgraph of G - T that holds V - S. Otherwise V - S lies in one
    component of G - T. Another component then lies inside S - T, and any
    x in it has no neighbor in V - S, so it is alone in G - (S - x).
    """
    if not (_vertex_set(g, cutset) and _separates(g, cutset)):
        return False
    if size_bound is not None and len(cutset) > size_bound:
        return False
    members = frozenset(cutset)
    inner = [len(g.neighbor_set(v) & members) for v in cutset]
    if degree_bound is not None and max(inner, default=0) > degree_bound:
        return False
    if avg_bound is not None:
        num, den = avg_bound
        if len(cutset) == 0 or not sum(inner) * den < num * len(cutset):
            return False
    return not (require_minimal and any(_separates(g, tuple(members - {x})) for x in cutset))


def _verify_krr(g: Graph, cert: KrrWitness) -> bool:
    r, a, b = cert.r, cert.side_a, cert.side_b
    return (
        r >= 1 and len(a) == len(b) == r
        # one set of 2r distinct vertices: each side distinct, the sides disjoint
        and _vertex_set(g, (*a, *b))
        and all(g.has_edge(u, w) for u in a for w in b)
    )


def _verify_icosahedron(g: Graph) -> bool:
    # 5-regular on 12 vertices, each neighborhood 2-regular on five
    # vertices, which is exactly C5
    return (g.n, g.m) == (12, 30) and all(
        len(nbset) == 5 and all(len(g.neighbor_set(u) & nbset) == 2 for u in nbset)
        for nbset in map(g.neighbor_set, range(12))
    )
