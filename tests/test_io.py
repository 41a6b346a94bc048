"""Interchange formats: edge-list text, graph6, digests, DOT.

graph6 correctness is pinned twice: against a byhand encoding of the
5-cycle and through random round trips covering both order headers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsecut.io as sparsecut_io
from sparsecut.certificates import (
    _KINDS,
    GoodCutset,
    IndependentCutset,
    IsIcosahedron,
    KrrWitness,
    SquaredCycleIso,
    certificate_from_dict,
    certificate_to_dict,
)
from sparsecut.errors import GraphError
from sparsecut.generators import icosahedron, squared_cycle
from sparsecut.graph import Graph
from sparsecut.io import (
    MAX_ORDER,
    _canonical_edge_list,
    _parse_edge_lines,
    emit_edge_list,
    emit_graph6,
    graph_digest,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    parse_with_digest,
    to_dot,
)
from sparsecut.oracles import verify_certificate


def cycle5() -> Graph:
    return Graph(5, [(i, (i + 1) % 5) for i in range(5)])


# ------------------------------------------------------------- edge lists


def test_parse_plain_path():
    g = parse_edge_list("0 1\n1 2")
    assert g.n == 3
    assert g.edges() == ((0, 1), (1, 2))


def test_parse_header_and_comments():
    text = "# fixture\nn 5\n0 1  # spoke\n\n1 2\n"
    g = parse_edge_list(text)
    assert g.n == 5
    assert g.m == 2


def test_parse_isolated_vertices_via_header():
    g = parse_edge_list("n 4\n0 1\n")
    assert g.n == 4
    assert g.degree(3) == 0


def test_parse_empty_text_is_empty_graph():
    g = parse_edge_list("")
    assert g.n == 0 and g.m == 0


@pytest.mark.parametrize(
    "text,needle",
    [
        ("0 0", "line 1: self-loop"),
        ("0 1\n0 1", "line 2: duplicate edge"),
        ("0 1\n1 2 3", "line 2: expected"),
        ("zero one", "non-integer"),
        ("0 -2", "negative"),
        ("n 3\n0 5", "outside declared order"),
        ("0 1\nn 4", "precede"),
        ("n 4\nn 4", "repeated"),
        ("n four", "malformed header"),
        # int() takes these, but none is a plain ASCII decimal
        ("n \u00b2", "malformed header"),
        ("n +3", "malformed header"),
        ("1_0 2", "non-integer"),
        ("+1 2", "non-integer"),
        ("0 \u0663", "non-integer"),
        ("0 \uff11", "non-integer"),
        ("--1 2", "non-integer"),
        # one order limit for both formats, graph6's, so a short edge list
        # cannot ask for gigabytes of adjacency
        ("n 258048", "^line 1: order 258048 above the limit 258047$"),
        ("# big\nn 0000258048", "^line 2: order 0000258048 above the limit 258047$"),
        ("0 1\n2 258047", "^line 2: vertex id 258047 outside the order limit 258047$"),
        ("n 5\n0 258047", "^line 2: vertex id 258047 outside declared order 5$"),
        # longer than int() converts where the interpreter caps it
        pytest.param(
            "n 1" + "0" * 5000, "^line 1: order 10{5000} above the limit 258047$", id="long-header"
        ),
        pytest.param(
            "0 1" + "0" * 5000, "^line 1: vertex id .*outside the order limit 258047$", id="long-id"
        ),
    ],
)
def test_parse_rejects(text, needle):
    with pytest.raises(GraphError, match=needle):
        parse_edge_list(text)


def test_parse_accepts_the_order_limit():
    assert parse_edge_list("n 258047\n0 258046\n").n == 258047


def test_canonical_text_takes_the_fast_pass():
    g = squared_cycle(14)
    assert _canonical_edge_list(emit_edge_list(g)) is not None
    assert _canonical_edge_list("0 1\n1 2") is not None
    assert _canonical_edge_list("0 1 # c\n") is None


def _edge_list_outcome(parse, text):
    try:
        return parse(text)
    except GraphError as exc:
        return type(exc), str(exc)


def _on_a_line(change):
    """A mutation that rewrites one line, picked by index."""
    def mutate(lines, i):
        if not lines:
            return lines
        i %= len(lines)
        return [*lines[:i], change(lines[i]), *lines[i + 1:]]
    return mutate


def _inserted(line):
    """A mutation that inserts a line (which may depend on the edges) at an index."""
    def mutate(lines, i):
        return [*lines[:i], line(lines), *lines[i:]]
    return mutate


def _an_edge(lines):
    edges = [line for line in lines if line[:1].isdigit()]
    return edges[0] if edges else "0 1"


_EDGE_LIST_MUTATIONS = {
    "comment": _on_a_line(lambda line: line + " # note"),
    "comment-line": _inserted(lambda lines: "# note"),
    "tab": _on_a_line(lambda line: line.replace(" ", "\t", 1)),
    "crlf": _on_a_line(lambda line: line + "\r"),
    "blank-line": _inserted(lambda lines: ""),
    "leading-zero": _on_a_line(lambda line: "0" + line),
    "minus-zero": _on_a_line(lambda line: "-0 " + line.rpartition(" ")[2]),
    "minus": _on_a_line(lambda line: "-" + line),
    "plus": _on_a_line(lambda line: "+" + line),
    "header": _inserted(lambda lines: "n 9"),
    "duplicate": _inserted(_an_edge),
    "reversed-duplicate": _inserted(lambda lines: " ".join(_an_edge(lines).split()[::-1])),
    "self-loop": _inserted(lambda lines: "3 3"),
    "id-at-the-limit": _inserted(lambda lines: f"0 {MAX_ORDER}"),
    "long-id": _inserted(lambda lines: "0 " + "7" * 5000),
    "non-ascii-digit": _on_a_line(lambda line: line.replace("1", "\u0663", 1)),
    "fullwidth-digit": _on_a_line(lambda line: line.replace("2", "\uff12", 1)),
    "double-space": _on_a_line(lambda line: line.replace(" ", "  ", 1)),
    "third-id": _on_a_line(lambda line: line + " 4"),
    "lone-id": _on_a_line(lambda line: line.partition(" ")[0]),
    "empty-first-id": _on_a_line(lambda line: " " + line.rpartition(" ")[2]),
    "empty-second-id": _on_a_line(lambda line: line.partition(" ")[0] + " "),
}


@st.composite
def _edge_list_texts(draw):
    """emit_edge_list's form, optionally without its header, under mutations."""
    n = draw(st.integers(1, 9))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
            unique_by=frozenset,
            max_size=14,
        )
    )
    header = draw(st.sampled_from([None, f"n {n}", f"n 0{n}", f"n {MAX_ORDER + 1}"]))
    lines = [f"{u} {v}" for u, v in pairs]
    if header is not None:
        lines.insert(0, header)
    for name in draw(st.lists(st.sampled_from(sorted(_EDGE_LIST_MUTATIONS)), max_size=3)):
        lines = _EDGE_LIST_MUTATIONS[name](lines, draw(st.integers(0, len(lines))))
    text = "\n".join(lines)
    return text if draw(st.booleans()) else text + "\n"


def test_each_edge_list_mutation_reads_the_same_both_ways():
    # every mutation alone, anywhere; on a matching, a token that slips into
    # the next pair still leaves a valid graph
    for header in (None, "n 10", f"n {MAX_ORDER + 1}"):
        lines = ["0 1", "2 3", "4 5", "6 7", "8 9"]
        if header is not None:
            lines.insert(0, header)
        for name, mutate in _EDGE_LIST_MUTATIONS.items():
            for at in range(len(lines) + 1):
                text = "\n".join(mutate(lines, at)) + "\n"
                fast = _edge_list_outcome(parse_edge_list, text)
                assert fast == _edge_list_outcome(_parse_edge_lines, text), (name, text)


@settings(max_examples=400, deadline=None)
@given(_edge_list_texts())
def test_edge_list_fast_pass_matches_the_line_loop(text):
    # the same graph, or the same error message, whichever path reads it
    assert _edge_list_outcome(parse_edge_list, text) == _edge_list_outcome(_parse_edge_lines, text)


def _sniff_then_parse(text: str, fmt: str) -> Graph:
    """The graph6 sniff the CLI used before parse_graph, kept as the
    reference: a per-character check of the stripped text."""
    line = text.strip()
    looks_like_graph6 = line.startswith(">>graph6<<") or (
        bool(line)
        and not any(ch.isspace() for ch in line)
        and all(63 <= ord(ch) <= 126 for ch in line)
    )
    if fmt == "graph6" or (fmt == "auto" and looks_like_graph6):
        return parse_graph6(text)
    return parse_edge_list(text)


def _outcome(parse, text, fmt):
    try:
        return parse(text, fmt)
    except GraphError as exc:
        return type(exc), str(exc)


_PIECES = [
    ">>graph6<<", " ", "\n", "\t", "\r", ">", "?", "~", "\x7f", "\u00e9", "\u3000",
    "A", "_", "0", "1", "n", "#", "Dhc", "Bw",
]


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.sampled_from(_PIECES), max_size=8).map("".join),
    st.sampled_from(["auto", "graph6", "edge-list"]),
)
def test_parse_graph_keeps_the_sniff_rule(text, fmt):
    assert _outcome(parse_graph, text, fmt) == _outcome(_sniff_then_parse, text, fmt)


def test_parse_graph_reads_either_format():
    g = squared_cycle(14)
    assert parse_graph(emit_graph6(g)) == g
    assert parse_graph(">>graph6<<" + emit_graph6(g) + "\n") == g
    assert parse_graph(emit_edge_list(g)) == g
    assert parse_graph("") == Graph(0, [])
    with pytest.raises(GraphError, match="expected 'u v'"):
        parse_graph(emit_graph6(g), "edge-list")


def test_edge_list_round_trip_fixture():
    ico = icosahedron()
    back = parse_edge_list(emit_edge_list(ico))
    assert back.n == ico.n
    assert back.edges() == ico.edges()


def test_digest_ignores_input_order():
    a = Graph(4, [(0, 1), (1, 2), (2, 3)])
    b = Graph(4, [(2, 3), (2, 1), (0, 1)])
    assert graph_digest(a) == graph_digest(b)
    assert graph_digest(a) != graph_digest(Graph(5, [(0, 1), (1, 2), (2, 3)]))


def test_digest_frozen_value():
    expected = "894a4511f5ff94bd8ed9a47aa632b6269318d19626f2378dc5e369114b9a2420"
    assert graph_digest(parse_edge_list("0 1\n1 2")) == expected


def _swap_two_lines(lines, i):
    i, j = 1 + i % (len(lines) - 1), 1 + (i + 1) % (len(lines) - 1)
    lines[i], lines[j] = lines[j], lines[i]
    return lines


def _on_an_edge(change):
    def mutate(lines, i):
        i = 1 + i % (len(lines) - 1)
        return [*lines[:i], change(lines[i]), *lines[i + 1:]]
    return mutate


# texts that read as about the same graph as emit_edge_list's, but are not
# emit_edge_list's text of any graph
_NOT_EMITTED = {
    "leading-zero-u": _on_an_edge(lambda line: "0" + line),
    "leading-zero-v": _on_an_edge(lambda line: line.replace(" ", " 0", 1)),
    "header-leading-zero": lambda lines, i: ["n 0" + lines[0][2:], *lines[1:]],
    "swapped-lines": _swap_two_lines,
    "v-u-line": _on_an_edge(lambda line: " ".join(line.split()[::-1])),
    "no-header": lambda lines, i: lines[1:],
    "comment": _on_an_edge(lambda line: line + " # c"),
    "comment-line": lambda lines, i: [*lines, "# c"],
}


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(3, 14),
    p=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    seed=st.integers(0, 2**16),
    change=st.sampled_from(sorted(_NOT_EMITTED) + ["no-final-newline", None]),
    at=st.integers(0, 100),
)
def test_input_digest_hashes_only_emitted_text_as_read(n, p, seed, change, at):
    rng = random.Random(seed)
    # two edges at least, so that two lines can swap
    edges = {(0, 1), (1, 2)}
    edges |= {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p}
    g = Graph(n, edges)
    emitted, digest = emit_edge_list(g), graph_digest(g)
    if change is None:
        # emitted text is hashed as read, with no rendering
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparsecut_io, "emit_edge_list", None)
            assert parse_with_digest(emitted) == (g, digest)
        assert digest == hashlib.sha256(emitted.encode()).hexdigest()
        return
    if change == "no-final-newline":
        text = emitted[:-1]
    else:
        text = "\n".join(_NOT_EMITTED[change](emitted.splitlines(), at)) + "\n"
    # any other text falls back to rendering the graph it reads as: g, or g
    # less its last vertex when that is isolated and the header is gone
    h = parse_graph(text)
    assert text != emit_edge_list(h)
    assert parse_with_digest(text) == (h, graph_digest(h))
    assert graph_digest(h) != hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------- graph6


def test_graph6_five_cycle_byhand():
    # column-major upper triangle of C5 packs to 101001 100100
    assert emit_graph6(cycle5()) == "Dhc"
    g = parse_graph6("Dhc")
    assert g.n == 5 and g.m == 5
    assert g.edges() == cycle5().edges()


def test_graph6_empty_and_header():
    assert emit_graph6(Graph(0, [])) == "?"
    assert parse_graph6("?").n == 0
    assert parse_graph6(">>graph6<<Dhc").m == 5


def test_graph6_extended_order():
    rng = random.Random(9)
    n = 80
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.1]
    g = Graph(n, edges)
    s = emit_graph6(g)
    assert s.startswith("~")
    back = parse_graph6(s)
    assert back.n == n and back.edges() == g.edges()


@pytest.mark.parametrize(
    "line,needle",
    [
        ("D\x19c", "invalid character"),
        ("Déc", "invalid character"),
        ("", "empty"),
        ("Dhcc", "payload bytes"),
        ("Dh", "payload bytes"),
        ("~~????", "not supported"),
        ("~?", "truncated"),
        ("Dhd", "padding"),
    ],
)
def test_graph6_rejects(line, needle):
    with pytest.raises(GraphError, match=needle):
        parse_graph6(line)


@pytest.mark.parametrize("where", ["start", "middle", "end"])
@pytest.mark.parametrize("bad", ["!", "\x7f", "\u00e9"])
def test_graph6_names_the_invalid_position(where, bad):
    line = emit_graph6(squared_cycle(4000))
    k = {"start": 0, "middle": len(line) // 2, "end": len(line) - 1}[where]
    broken = line[:k] + bad + line[k + 1:]
    # the position counts from the end of the optional header
    for text in (broken, ">>graph6<<" + broken + "\n"):
        with pytest.raises(GraphError) as err:
            parse_graph6(text)
        assert str(err.value) == f"graph6: invalid character at position {k}"


@settings(max_examples=200, deadline=None)
@given(
    n=st.one_of(st.sampled_from([62, 63, 64]), st.integers(0, 70)),
    p=st.sampled_from([0.0, 0.02, 0.3, 1.0]),
    seed=st.integers(0, 2**16),
    window=st.integers(1, 5),
)
def test_graph6_decodes_across_windows(n, p, seed, window):
    # a window of a few bytes: columns and windows straddle each other
    rng = random.Random(seed)
    g = Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p])
    line = emit_graph6(g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparsecut_io, "_G6_WINDOW", window)
        assert parse_graph6(line) == g
        assert parse_with_digest(line) == (g, graph_digest(g))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.random_module())
def test_graph6_round_trips(n, rnd):
    rng = random.Random(rnd.seed)
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4]
    g = Graph(n, edges)
    s = emit_graph6(g)
    back = parse_graph6(s)
    assert back.n == g.n
    assert back.edges() == g.edges()
    assert emit_graph6(back) == s


def test_graph6_matches_edge_list_on_fixture():
    g = squared_cycle(14)
    assert parse_graph6(emit_graph6(g)).edges() == g.edges()


def _graph6_bit_by_bit(g: Graph) -> str:
    """The pair-by-pair emitter the library replaced, as reference."""
    n = g.n
    out = bytearray([n + 63] if n <= 62 else [126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    acc, filled = 0, 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | g.has_edge(i, j)
            filled += 1
            if filled == 6:
                out.append(acc + 63)
                acc, filled = 0, 0
    if filled:
        out.append((acc << (6 - filled)) + 63)
    return out.decode("ascii")


def test_graph6_matches_bit_by_bit_reference():
    rng = random.Random(20261021)
    for _ in range(150):
        n = rng.randint(0, 140)
        p = rng.random()
        g = Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p])
        line = _graph6_bit_by_bit(g)
        assert emit_graph6(g) == line
        assert parse_graph6(line) == g


# ----------------------------------------------------------- certificates


@pytest.mark.parametrize(
    "cert",
    [
        GoodCutset(cutset=(1, 2, 4), size_bound=4, avg_bound_strict=(1, 1)),
        GoodCutset(cutset=(0,), degree_bound=0, require_minimal=True),
        IndependentCutset(cutset=(3, 5), size_bound=3),
        IndependentCutset(cutset=()),
        KrrWitness(r=2, side_a=(0, 1), side_b=(2, 19)),
        SquaredCycleIso(order=(0, 1, 2, 3, 4, 5, 6)),
        IsIcosahedron(),
    ],
)
def test_certificate_dict_round_trip(cert):
    data = certificate_to_dict(cert)
    assert data["kind"]
    assert certificate_from_dict(data) == cert


@pytest.mark.parametrize(
    "cert, text",
    [
        (
            GoodCutset(cutset=(1, 2, 4), size_bound=4, avg_bound_strict=(1, 1)),
            '{"kind": "good-cutset", "cutset": [1, 2, 4], "size_bound": 4, '
            '"degree_bound": null, "avg_bound_strict": [1, 1], "require_minimal": false}',
        ),
        (
            IndependentCutset(cutset=(3, 5), size_bound=3),
            '{"kind": "independent-cutset", "cutset": [3, 5], "size_bound": 3}',
        ),
        (
            KrrWitness(r=2, side_a=(0, 1), side_b=(2, 19)),
            '{"kind": "krr-witness", "r": 2, "side_a": [0, 1], "side_b": [2, 19]}',
        ),
        (
            SquaredCycleIso(order=(0, 1, 2, 3, 4)),
            '{"kind": "squared-cycle-iso", "order": [0, 1, 2, 3, 4]}',
        ),
        (IsIcosahedron(), '{"kind": "is-icosahedron"}'),
    ],
)
def test_certificate_dict_key_order(cert, text):
    # reports are compared byte for byte, so the key order is part of the format
    assert json.dumps(certificate_to_dict(cert)) == text


_GARBAGE = [
    ({"cutset": [1]}, "certificate payload must be an object with a 'kind' tag"),
    ([["kind", "good-cutset"]], "certificate payload must be an object with a 'kind' tag"),
    ({"kind": "mystery"}, "unknown certificate kind 'mystery'"),
    ({"kind": ["good-cutset"]}, "unknown certificate kind ['good-cutset']"),
    # good-cutset: every field, missing and of the wrong type
    ({"kind": "good-cutset"}, "malformed good-cutset certificate: 'cutset'"),
    (
        {"kind": "good-cutset", "cutset": ["x"]},
        "malformed good-cutset certificate: cutset must be a list of ints",
    ),
    (
        {"kind": "good-cutset", "cutset": [True]},
        "malformed good-cutset certificate: cutset must be a list of ints",
    ),
    (
        {"kind": "good-cutset", "cutset": 3},
        "malformed good-cutset certificate: cutset must be a list of ints",
    ),
    (
        {"kind": "good-cutset", "cutset": [1], "size_bound": "4"},
        "malformed good-cutset certificate: size_bound must be an int or null",
    ),
    (
        {"kind": "good-cutset", "cutset": [1], "degree_bound": False},
        "malformed good-cutset certificate: degree_bound must be an int or null",
    ),
    (
        {"kind": "good-cutset", "cutset": [1], "require_minimal": "no"},
        "malformed good-cutset certificate: require_minimal must be true or false",
    ),
    (
        {"kind": "good-cutset", "cutset": [1], "require_minimal": None},
        "malformed good-cutset certificate: require_minimal must be true or false",
    ),
    # avg_bound_strict: a list of ints first, then the fraction's shape
    (
        {"kind": "good-cutset", "cutset": [1], "avg_bound_strict": "1/2"},
        "malformed good-cutset certificate: avg_bound_strict must be a list of ints",
    ),
    (
        {"kind": "good-cutset", "cutset": [1], "avg_bound_strict": [1.5, 2]},
        "malformed good-cutset certificate: avg_bound_strict must be a list of ints",
    ),
    (
        {"kind": "good-cutset", "cutset": [1], "avg_bound_strict": [1]},
        "malformed good-cutset certificate: avg_bound_strict must be [numerator, positive denominator]",
    ),
    (
        {"kind": "good-cutset", "cutset": [1], "avg_bound_strict": [1, 0]},
        "malformed good-cutset certificate: avg_bound_strict must be [numerator, positive denominator]",
    ),
    (
        {"kind": "good-cutset", "cutset": [1], "avg_bound_strict": [1, 2, 3]},
        "malformed good-cutset certificate: avg_bound_strict must be [numerator, positive denominator]",
    ),
    # independent-cutset
    ({"kind": "independent-cutset"}, "malformed independent-cutset certificate: 'cutset'"),
    (
        {"kind": "independent-cutset", "cutset": 3},
        "malformed independent-cutset certificate: cutset must be a list of ints",
    ),
    (
        {"kind": "independent-cutset", "cutset": [3], "size_bound": 1.0},
        "malformed independent-cutset certificate: size_bound must be an int or null",
    ),
    # krr-witness
    ({"kind": "krr-witness", "r": 2}, "malformed krr-witness certificate: 'side_a'"),
    ({"kind": "krr-witness", "side_a": [0], "side_b": [1]}, "malformed krr-witness certificate: 'r'"),
    (
        {"kind": "krr-witness", "r": 2, "side_a": [0, 1]},
        "malformed krr-witness certificate: 'side_b'",
    ),
    (
        {"kind": "krr-witness", "r": "2", "side_a": [0, 1], "side_b": [2, 3]},
        "malformed krr-witness certificate: r must be an int",
    ),
    (
        {"kind": "krr-witness", "r": None, "side_a": [0, 1], "side_b": [2, 3]},
        "malformed krr-witness certificate: r must be an int",
    ),
    (
        {"kind": "krr-witness", "r": 2, "side_a": [[0], 1], "side_b": [2, 3]},
        "malformed krr-witness certificate: side_a must be a list of ints",
    ),
    (
        {"kind": "krr-witness", "r": 2, "side_a": [0, 1], "side_b": None},
        "malformed krr-witness certificate: side_b must be a list of ints",
    ),
    # squared-cycle-iso
    ({"kind": "squared-cycle-iso"}, "malformed squared-cycle-iso certificate: 'order'"),
    (
        {"kind": "squared-cycle-iso", "order": [0, 1.5]},
        "malformed squared-cycle-iso certificate: order must be a list of ints",
    ),
    (
        {"kind": "squared-cycle-iso", "order": {"0": 1}},
        "malformed squared-cycle-iso certificate: order must be a list of ints",
    ),
]


def test_certificate_dict_rejects_garbage():
    for payload, message in _GARBAGE:
        with pytest.raises(GraphError) as err:
            certificate_from_dict(payload)
        assert str(err.value) == message, payload


def test_verify_refuses_the_field_values_certificate_dict_refuses():
    # one rule for field values: a payload of a known kind with every
    # required field is refused only for a value, so the same certificate
    # built directly, lists as tuples and with no check, verifies False on
    # any graph; P3 is cut by {1}, the cutset most of the payloads name
    graphs = (Graph(3, [(0, 1), (1, 2)]), squared_cycle(14))
    built = 0
    for payload, _ in _GARBAGE:
        kind = payload.get("kind") if isinstance(payload, dict) else None
        if not isinstance(kind, str) or kind not in _KINDS:
            continue
        cls = _KINDS[kind]
        names = {f.name for f in dataclasses.fields(cls)}
        required = {f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING}
        if not required <= payload.keys():
            continue
        values = {k: v for k, v in payload.items() if k in names}
        cert = cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})
        for g in graphs:
            assert verify_certificate(g, cert) is False, (payload, g.n)
        built += 1
    assert built == 20


@pytest.mark.parametrize(
    "payload, cert",
    [
        # a field left out takes its default; null is the default of a bound
        ({"kind": "good-cutset", "cutset": [2, 1]}, GoodCutset(cutset=(2, 1))),
        (
            {"kind": "good-cutset", "cutset": [1], "size_bound": None, "avg_bound_strict": None},
            GoodCutset(cutset=(1,)),
        ),
        ({"kind": "independent-cutset", "cutset": []}, IndependentCutset(cutset=())),
        # keys that name no field of the kind are ignored, avg_bound_strict too
        (
            {"kind": "independent-cutset", "cutset": [3], "avg_bound_strict": "x"},
            IndependentCutset(cutset=(3,)),
        ),
        (
            {"kind": "krr-witness", "r": 1, "side_a": [0], "side_b": [1], "avg_bound_strict": [1, 0]},
            KrrWitness(r=1, side_a=(0,), side_b=(1,)),
        ),
        (
            {"kind": "squared-cycle-iso", "order": [0], "avg_bound_strict": None},
            SquaredCycleIso(order=(0,)),
        ),
        ({"kind": "is-icosahedron", "avg_bound_strict": 7, "cutset": "x"}, IsIcosahedron()),
    ],
)
def test_certificate_dict_defaults_and_extra_keys(payload, cert):
    assert certificate_from_dict(payload) == cert


# -------------------------------------------------------------------- DOT


def test_dot_highlights_cutset():
    out = to_dot(Graph(3, [(0, 1), (1, 2)]), highlight=[1])
    assert "graph G {" in out
    assert '1 [style=filled fillcolor="gold"];' in out
    assert "0 -- 1;" in out and "1 -- 2;" in out


def test_dot_rejects_foreign_vertex():
    # the ids rule of graph._ids, with its messages
    for highlight, message in [
        ([7], "vertex id 7 out of range for n=2"),
        ([-1], "vertex id -1 out of range for n=2"),
        ([1.5], "vertex id must be an int, got 1.5"),
        (["a", 0], "vertex id must be an int, got 'a'"),
        ([True], "vertex id must be an int, got True"),
    ]:
        with pytest.raises(GraphError) as err:
            to_dot(Graph(2, [(0, 1)]), highlight=highlight)
        assert str(err.value) == message
