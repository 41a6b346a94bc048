"""Graph interchange: edge-list text, graph6 lines, digests, DOT export.

Edge lists are the primary, human-debuggable format. graph6 is kept
bit-exact for corpus interop, including the three-byte extended order
form. Digests hash the canonical edge-list rendering, so two graphs with
the same vertex count and edge set always share a digest.
"""

from __future__ import annotations

import hashlib
import re
from typing import Iterable

from .errors import GraphError
from .graph import Graph, _ids

_G6_HEADER = ">>graph6<<"
# both formats' order limit, graph6's largest four-byte order: a short edge
# list cannot ask for gigabytes of adjacency
MAX_ORDER = 258047
# printable graph6 bytes run from '?' (63) to '~' (126)
_G6_BYTES = bytes(range(63, 127))
_G6_INVALID = re.compile(r"[^?-~]")
# each payload byte as 0 when it is '?', which holds no edge, else as 1
_G6_FLAGS = bytes(b != 63 for b in range(256))
# the payload bytes flagged at a time, so the flags stay small at any order
_G6_WINDOW = 1 << 16
# the set bits of each payload byte, as shifts from its high (first) bit
_G6_SHIFTS = [tuple(s for s in range(6) if (b - 63) & (32 >> s)) for b in range(127)]
_G6_PLUS_63 = bytes((b + 63) % 256 for b in range(256))
_DIGITS = b"0123456789"


def parse_graph(text: str, fmt: str = "auto") -> Graph:
    """Parse text as a graph6 line or as an edge list.

    fmt "graph6" reads graph6 and "edge-list" reads an edge list. "auto"
    reads graph6 when the stripped text starts with the ">>graph6<<"
    header, or is non-empty and holds only the printable graph6 bytes '?'
    to '~' (so no whitespace); anything else is read as an edge list.
    """
    return parse_graph6(text) if _is_graph6(text, fmt) else parse_edge_list(text)


def parse_with_digest(text: str, fmt: str = "auto") -> tuple[Graph, str]:
    """parse_graph(text, fmt) and the graph's graph_digest.

    An edge list that is already exactly emit_edge_list's rendering of the
    graph is hashed as it stands instead of rendered again: an "n" header,
    a final newline, no id with a leading zero, u < v on every line and
    the lines strictly increasing. The fast pass of parse_edge_list has
    parsed its ids already, and the check reuses them."""
    if _is_graph6(text, fmt):
        g = parse_graph6(text)
        return g, graph_digest(g)
    g, ids = _read_edge_list(text)
    if ids is not None and _emitted(text, g.n, ids):
        return g, hashlib.sha256(text.encode("ascii")).hexdigest()
    return g, graph_digest(g)


def _is_graph6(text: str, fmt: str) -> bool:
    """Whether parse_graph reads text as graph6 under fmt."""
    if fmt != "auto":
        return fmt == "graph6"
    line = text.strip()
    return line.startswith(_G6_HEADER) or (line != "" and _graph6_bytes(line) is not None)


def parse_edge_list(text: str) -> Graph:
    """Parse "u v" lines into a graph.

    A '#' starts a comment anywhere on a line. An optional header line
    "n <count>" may appear before the first edge and fixes the vertex
    count; otherwise the count is one past the largest id seen. Counts and
    ids are plain ASCII decimals; an id may carry a '-', which is then
    rejected as negative. The order, declared or implied by the largest
    id, may not exceed MAX_ORDER. Errors carry the offending line number.

    Text in the form emit_edge_list writes, bare "u v" lines after an
    optional header, is read by a few C-level passes over the whole text,
    and Graph makes the only duplicate check. Any other text, and text
    that Graph refuses, goes through the line loop, which names the line.
    """
    return _read_edge_list(text)[0]


def _read_edge_list(text: str) -> tuple[Graph, list[int] | None]:
    """parse_edge_list's graph, with the ids in text order, u then v of
    each line, when the fast pass read it, else None."""
    canonical = _canonical_edge_list(text)
    if canonical is not None:
        n, ids = canonical
        it = iter(ids)
        try:
            return Graph(n, zip(it, it)), ids
        except GraphError:
            pass  # the line loop names the line at fault
    return _parse_edge_lines(text), None


def _canonical_edge_list(text: str) -> tuple[int, list[int]] | None:
    """The order and the ids, u then v of each line, of text in
    emit_edge_list's form, else None."""
    if not text.isascii():
        return None
    data = text.encode("ascii")
    declared = None
    if data.startswith(b"n "):
        head, _, data = data.partition(b"\n")
        count = head[2:]
        # a short count only: int() refuses over 4300 digits
        if not (count.isdigit() and len(count) <= len(str(MAX_ORDER)) and int(count) <= MAX_ORDER):
            return None
        declared = int(count)
    if data and not data.endswith(b"\n"):
        data += b"\n"
    # around the digit runs, spaces and newlines must take turns, one at a
    # time, from a space on: no run is empty and every line holds two
    gaps = data.translate(None, _DIGITS)
    if (
        gaps != b" \n" * (len(gaps) // 2)
        or data.startswith(b" ")
        or b"\n " in data
        or b" \n" in data
    ):
        return None
    try:
        ids = list(map(int, data.split()))
    except ValueError:  # a run too long for int()
        return None
    if declared is None:
        top = max(ids, default=-1)
        if top >= MAX_ORDER:
            return None
        declared = top + 1
    return declared, ids


def _emitted(text: str, n: int, ids: list[int]) -> bool:
    """Whether text, which the fast pass read as ids of a graph of order n,
    is exactly emit_edge_list's rendering of that graph."""
    head = f"n {n}\n"
    if not (text.startswith(head) and text.endswith("\n")):
        return False
    # past the header each u follows a newline and each v a space. Emitted,
    # no v starts with 0, since v > u >= 0, and a u does only as the id 0
    at = len(head) - 1
    if text.find(" 0", at) >= 0 or text.count("\n0", at) != text.count("\n0 ", at):
        return False
    # u < v on every line, and the lines in order of u * n + v, which is
    # (u, v) order since Graph has taken every v < n. No two keys are equal,
    # since Graph has refused parallel edges, so sorted is strictly increasing
    it = iter(ids)
    keys = [u * n + v for u, v in zip(it, it) if u < v]
    return 2 * len(keys) == len(ids) and keys == sorted(keys)


def _parse_edge_lines(text: str) -> Graph:
    """parse_edge_list one line at a time, raising at the first faulty line."""
    declared: int | None = None
    limit, limit_name = MAX_ORDER, "the order limit"
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if edges:
                raise GraphError(f"line {lineno}: header must precede all edges")
            if declared is not None:
                raise GraphError(f"line {lineno}: repeated 'n' header")
            if len(parts) != 2 or not (line.isascii() and parts[1].isdigit()):
                raise GraphError(f"line {lineno}: malformed header {line!r}")
            # a long count is over the limit; int() refuses over 4300 digits
            if len(parts[1].lstrip("0")) > len(str(MAX_ORDER)) or int(parts[1]) > MAX_ORDER:
                raise GraphError(f"line {lineno}: order {parts[1]} above the limit {MAX_ORDER}")
            declared = limit = int(parts[1])
            limit_name = "declared order"
            continue
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v', got {line!r}")
        a, b = parts
        # plain ASCII decimals only: int() would also take '+', '_' and the
        # digits of other scripts
        if not (line.isascii() and a.removeprefix("-").isdigit() and b.removeprefix("-").isdigit()):
            raise GraphError(f"line {lineno}: non-integer vertex id in {line!r}")
        try:
            u, v = int(a), int(b)
        except ValueError:  # int() refuses more than 4300 digits
            raise GraphError(
                f"line {lineno}: vertex id outside the order limit {MAX_ORDER}"
            ) from None
        if u < 0 or v < 0:
            raise GraphError(f"line {lineno}: negative vertex id in {line!r}")
        if u == v:
            raise GraphError(f"line {lineno}: self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e[1] >= limit:
            raise GraphError(f"line {lineno}: vertex id {e[1]} outside {limit_name} {limit}")
        if e in seen:
            raise GraphError(f"line {lineno}: duplicate edge {e[0]} {e[1]}")
        seen.add(e)
        edges.append(e)
    if declared is not None:
        n = declared
    else:
        n = 1 + max((e[1] for e in edges), default=-1)
    return Graph(n, edges)


def emit_edge_list(g: Graph) -> str:
    """Canonical text form: an "n <count>" header, then sorted edges."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def graph_digest(g: Graph) -> str:
    """sha256 hex digest of the canonical edge-list rendering."""
    return hashlib.sha256(emit_edge_list(g).encode("ascii")).hexdigest()


def emit_graph6(g: Graph) -> str:
    """Standard graph6 line: order, then the upper triangle column by column."""
    n = g.n
    if n > MAX_ORDER:
        raise GraphError(f"graph6 supports at most {MAX_ORDER} vertices, got {n}")
    if n <= 62:
        order = bytes([n])
    else:
        order = bytes([63, (n >> 12) & 63, (n >> 6) & 63, n & 63])
    # bit k = j(j-1)/2 + i stands for the edge ij with i < j, six to a byte
    # from the high bit down
    bits = bytearray((n * (n - 1) // 2 + 5) // 6)
    for j in range(1, n):
        base = j * (j - 1) // 2
        for i in g.neighbors(j):
            if i >= j:
                break
            k = base + i
            bits[k // 6] |= 32 >> (k % 6)
    return (order + bits).translate(_G6_PLUS_63).decode("ascii")


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line, with or without the optional format header."""
    line = text.strip()
    if line.startswith(_G6_HEADER):
        line = line[len(_G6_HEADER):]
    data = _graph6_bytes(line)
    if data is None:
        bad = _G6_INVALID.search(line)
        raise GraphError(f"graph6: invalid character at position {bad.start()}")
    if not data:
        raise GraphError("graph6: empty input")
    if data[0] == 126:
        # graph6 writes an order above MAX_ORDER in the eight-byte form
        if len(data) >= 2 and data[1] == 126:
            raise GraphError("graph6: eight-byte order form is not supported")
        if len(data) < 4:
            raise GraphError("graph6: truncated extended order")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    nbits = n * (n - 1) // 2
    want = (nbits + 5) // 6
    if len(body) != want:
        raise GraphError(
            f"graph6: order {n} needs {want} payload bytes, got {len(body)}"
        )
    if want:
        tail = body[-1] - 63
        pad = want * 6 - nbits
        if pad and tail & ((1 << pad) - 1):
            raise GraphError("graph6: nonzero padding bits")
    edges: list[tuple[int, int]] = []
    # only bytes other than '?' hold edges, and bytes.find on a window's
    # flags skips to each; bit k is the edge ij with base = j(j-1)/2 <= k <
    # base + j and i = k - base, so j only steps forward as k grows
    window = _G6_WINDOW
    j, base = 1, 0
    for start in range(0, len(body), window):
        flags = body[start : start + window].translate(_G6_FLAGS)
        at = flags.find(1)
        while at >= 0:
            pos = start + at
            for shift in _G6_SHIFTS[body[pos]]:
                k = 6 * pos + shift
                while k >= base + j:
                    base += j
                    j += 1
                edges.append((k - base, j))
            at = flags.find(1, at + 1)
    return Graph(n, edges)


def _graph6_bytes(line: str) -> bytes | None:
    """line as bytes when it holds only the printable graph6 bytes, else None."""
    if not line.isascii():
        return None
    data = line.encode("ascii")
    return None if data.translate(None, _G6_BYTES) else data


def to_dot(g: Graph, highlight: Iterable[int] = ()) -> str:
    """DOT rendering with the given vertices drawn filled."""
    chosen = set(_ids(g, highlight))
    lines = ["graph G {"]
    for v in range(g.n):
        if v in chosen:
            lines.append(f'  {v} [style=filled fillcolor="gold"];')
        else:
            lines.append(f"  {v};")
    lines.extend(f"  {u} -- {v};" for u, v in g.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"
