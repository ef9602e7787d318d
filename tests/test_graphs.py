import json
import pickle
import random

import pytest

from ramsey_jahangir import (
    SUITES,
    Cycle,
    ExtractionTrace,
    Graph,
    Graph6Error,
    Jahangir,
    Path,
    PreconditionError,
    SubgraphSearch,
    Thm1,
    build,
    complement,
    complete,
    component_masks,
    disjoint_union,
    empty,
    enumerate_graphs,
    from_edges,
    from_graph6,
    generate_case,
    relabel,
    to_graph6,
)
from ramsey_jahangir import graphs
from ramsey_jahangir.graphs import _indented_json, clique_union_sizes, iter_bits

from helpers_naive import from_graph6_per_bit, naive_graph6, random_graph, validate_every_arc


def test_empty_and_complete():
    e = empty(5)
    assert e.edge_count() == 0
    k = complete(5)
    assert k.edge_count() == 10
    assert all(k.degree(v) == 4 for v in range(5))
    assert complement(e) == k
    assert complement(k) == e


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edges(3, [(1, 1)])


def test_graph_rejects_self_loops_and_bad_rows():
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # vertex 0 adjacent to itself
    with pytest.raises(ValueError):
        Graph(2, (0,))
    with pytest.raises(ValueError):
        Graph(1, (2,))  # bit outside the vertex range


def test_graph_rejects_asymmetric_rows():
    with pytest.raises(ValueError, match="^asymmetric edge 0,1$"):
        Graph(2, (2, 0))  # 0 says it has 1, but 1 disagrees


def test_graph_names_the_first_asymmetric_pair():
    """The constructor raises exactly where the every-arc walk does,
    whether the missing mirrors sit above the diagonal, below it, or both."""
    rng = random.Random(31)
    seen = set()
    for order in (2, 3, 7, 20, 64, 130):
        for p in (0.1, 0.5, 0.9):
            g = random_graph(rng, order, p)
            assert Graph(order, g.adj) == g
            edges = list(g.edges())
            for where in ("above", "below", "both") * 3 if edges else ():
                rows = list(g.adj)
                picks = sorted(rng.sample(edges, min(len(edges), rng.randrange(1, 5))),
                               key=lambda e: e[1])
                for i, (u, v) in enumerate(picks):
                    # "both": the pick whose larger end is least loses its
                    # mirror above, the rest lose theirs below
                    side = where if where != "both" else ("above", "below")[i > 0]
                    if side == "above":
                        rows[u] &= ~(1 << v)  # v keeps u below the diagonal
                    else:
                        rows[v] &= ~(1 << u)  # u keeps v above the diagonal
                with pytest.raises(ValueError) as want:
                    validate_every_arc(order, rows)
                with pytest.raises(ValueError) as got:
                    Graph(order, tuple(rows))
                assert str(got.value) == str(want.value), (order, p, where)
                a, b = map(int, str(want.value).split()[-1].split(","))
                unmirrored_above = any(
                    not rows[w] >> u & 1
                    for u in range(order) for w in iter_bits(rows[u] >> u << u)
                )
                seen.add((where, "below" if a > b else "above", unmirrored_above))
    # Among them: a first pair below the diagonal while an edge above it
    # lacks its mirror too, so a walk of the upper triangle alone would name
    # another pair.
    assert ("both", "below", True) in seen
    assert {("above", "below", False), ("below", "above", True)} <= seen


def test_graph_rejects_a_negative_order_and_compares_only_with_graphs():
    with pytest.raises(ValueError, match="^negative order$"):
        Graph(-1, ())
    g = complete(3)
    assert g.__eq__((3, (6, 5, 3))) is NotImplemented
    assert g != (3, (6, 5, 3))


def test_rows_given_as_a_list_are_kept_as_a_tuple():
    rows = [2, 5, 2]
    g = Graph(3, rows)
    assert g.adj == (2, 5, 2)
    assert g == Graph(3, (2, 5, 2))
    assert hash(g) == hash(Graph(3, (2, 5, 2)))
    # the caller's list is not the graph's rows
    rows[0] = 0
    assert g.adj == (2, 5, 2)
    assert g.edge_count() == 2


def test_rows_from_outside_are_checked_on_every_way_in():
    g = complete(3)
    with pytest.raises(ValueError, match="^asymmetric edge 0,1$"):
        g.replace(adj=(2, 0, 0))
    # Protocol 0 spells the rows as text: I6, I5, I3 become I2, I0, I0.
    data = pickle.dumps(g, protocol=0)
    assert b"I6\nI5\nI3\n" in data
    with pytest.raises(ValueError, match="^asymmetric edge 0,1$"):
        pickle.loads(data.replace(b"I6\nI5\nI3\n", b"I2\nI0\nI0\n"))


def test_unchecked_builders_make_rows_the_constructor_accepts():
    """The builders that skip the constructor's check still make simple graphs."""
    built = []
    rng = random.Random(41)
    for order in (0, 1, 2, 5, 9, 33, 70):
        for p in (0.1, 0.5, 0.9):
            g = random_graph(rng, order, p)
            perm = list(range(order))
            rng.shuffle(perm)
            pairs = [(v, u) for u, v in g.edges()] + list(g.edges())
            built += [
                g,
                complement(g),
                relabel(g, perm),
                disjoint_union(g, random_graph(rng, 4, p)),
                from_edges(order, pairs),
                from_graph6(to_graph6(g)),
            ]
    built += [empty(4), complete(6)]
    built += enumerate_graphs(6)
    built += [
        generate_case(spec, seed, index)
        for spec in SUITES.values() for seed in (0, 1) for index in range(20)
    ]
    for h in built:
        assert Graph(h.order, h.adj) == h


def test_relabel_rejects_a_non_permutation():
    with pytest.raises(ValueError, match="^not a permutation of the vertex set$"):
        relabel(complete(3), [0, 0, 1])


def test_edges_are_sorted_pairs():
    g = from_edges(4, [(2, 1), (3, 0), (0, 1)])
    assert list(g.edges()) == [(0, 1), (0, 3), (1, 2)]


def test_disjoint_union_shifts_second_block():
    g = disjoint_union(complete(3), complete(2))
    assert g.order == 5
    assert g.has_edge(3, 4)
    assert not any(g.has_edge(u, v) for u in range(3) for v in (3, 4))


def test_relabel_round_trip():
    rng = random.Random(11)
    for _ in range(25):
        g = random_graph(rng, 8)
        perm = list(range(8))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert h.edge_count() == g.edge_count()
        inverse = [0] * 8
        for v, p in enumerate(perm):
            inverse[p] = v
        assert relabel(h, inverse) == g


def test_components_ordering():
    g = from_edges(7, [(1, 4), (2, 5), (5, 6)])
    assert component_masks(g) == [0b1, 0b10010, 0b1100100, 0b1000]


def test_clique_union_sizes():
    g = disjoint_union(complete(4), disjoint_union(complete(1), complete(3)))
    assert clique_union_sizes(g) == (4, 3, 1)
    assert clique_union_sizes(empty(3)) == (1, 1, 1)
    # a path is not a clique union
    assert clique_union_sizes(from_edges(3, [(0, 1), (1, 2)])) is None


# graph6 -----------------------------------------------------------------


def test_graph6_known_codes():
    # codes computed by hand from the format definition
    assert to_graph6(empty(0)) == "?"
    assert to_graph6(complete(2)) == "A_"
    assert to_graph6(empty(2)) == "A?"
    assert to_graph6(from_edges(5, [(0, 2), (0, 4), (1, 3), (3, 4)])) == "DQc"


def test_graph6_matches_independent_encoder(monkeypatch):
    rng = random.Random(99)
    for order in (0, 1, 2, 5, 13, 62, 63, 100):
        for _ in range(5):
            g = random_graph(rng, order, 0.4)
            assert to_graph6(g) == naive_graph6(order, g.edges())
    # both sides of the long header, a large dense graph and a sparse one
    # as long as the benchmark's longest path host
    for order, p in ((62, 0.5), (63, 0.5), (500, 0.5), (1200, 0.003)):
        g = random_graph(rng, order, p)
        assert to_graph6(g) == naive_graph6(order, g.edges())
    # every residue of the body's bit count mod 6 and mod 24, sparse to dense
    for order in range(71):
        for p in (0.1, 0.5, 0.9):
            g = random_graph(rng, order, p)
            assert to_graph6(g) == naive_graph6(order, g.edges())
    # just under one window, just over it, and several windows
    assert len(to_graph6(empty(222))) - 1 <= graphs._G6_WINDOW < len(to_graph6(empty(223))) - 1
    for order, p in ((222, 0.5), (223, 0.5), (223, 0.01), (600, 0.5), (600, 0.01)):
        g = random_graph(rng, order, p)
        assert to_graph6(g) == naive_graph6(order, g.edges())
    for window, order, g in _across_windows(rng, monkeypatch):
        assert to_graph6(g) == naive_graph6(order, g.edges()), (window, order)


def test_graph6_round_trip():
    rng = random.Random(5)
    for _ in range(60):
        order = rng.randrange(0, 30)
        g = random_graph(rng, order)
        assert from_graph6(to_graph6(g)) == g
    for order in (62, 63, 100, 500):  # both sides of the long header
        g = random_graph(rng, order)
        assert from_graph6(to_graph6(g)) == g
    # a few thousand vertices: a long path, and one with random chords
    path = build(Path(3000))
    chords = from_edges(3000, [*path.edges(), *(rng.sample(range(3000), 2) for _ in range(9000))])
    for g in (path, chords):
        code = to_graph6(g)
        assert len(code) == 4 + (3000 * 2999 // 2 + 5) // 6
        assert from_graph6(code) == g


def test_column_decoder_matches_the_per_bit_decoder(monkeypatch):
    rng = random.Random(23)
    codes = [to_graph6(random_graph(rng, order, rng.choice((0.1, 0.5, 0.9))))
             for order in [*range(71), 62, 63]]
    codes.append(to_graph6(random_graph(rng, 500, 0.5)))
    codes.append(to_graph6(random_graph(rng, 1200, 0.003)))
    for code in codes:
        g = from_graph6(code)
        assert g == from_graph6_per_bit(code)
        assert to_graph6(g) == code
    for window, order, g in _across_windows(rng, monkeypatch):
        code = naive_graph6(order, g.edges())
        assert from_graph6(code) == from_graph6_per_bit(code) == g, (window, order)


def test_graph6_rejects_padding_bits_across_windows(monkeypatch):
    # The padding is what the decoder's run holds after the last column, so
    # a set padding bit is found however many windows the body spans.
    rng = random.Random(31)
    longest = 0
    for window, order, g in _across_windows(rng, monkeypatch):
        code = to_graph6(g)
        pad = -(order * (order - 1) // 2) % 6
        for bit in range(pad):
            junk = code[:-1] + chr(63 + ((ord(code[-1]) - 63) | 1 << bit))
            for decode in (from_graph6, from_graph6_per_bit):
                with pytest.raises(Graph6Error, match="^nonzero padding bits$"):
                    decode(junk)
            longest = max(longest, len(code) - 1 - window)
    assert longest > 0  # a padded body longer than one window


def _across_windows(rng, monkeypatch):
    """(window, order, graph) for sparse and dense graphs of order up to 80,
    with the codec's window shrunk to a few bytes, so that bodies cross it
    in every way: one that fills exactly one window, one that fills one
    window and one sextet, several windows with a column straddling two,
    and a column longer than a window.  The window is set while a case is
    yielded."""
    seen = set()
    for window in (4, 8, 12, 40):
        monkeypatch.setattr(graphs, "_G6_WINDOW", window)
        size = 6 * window
        for order in range(81):
            nbits = order * (order - 1) // 2
            length = (nbits + 5) // 6
            if length == window:
                seen.add("one window")
            elif length == window + 1:
                seen.add("one window and a sextet")
            for col in range(1, order):
                start = col * (col - 1) // 2
                if start // size != (start + col - 1) // size:
                    seen.add("a column straddling two windows")
                if col > size:
                    seen.add("a column longer than a window")
            for p in (0.05, 0.9):
                yield window, order, random_graph(rng, order, p)
    monkeypatch.undo()
    assert seen == {
        "one window", "one window and a sextet",
        "a column straddling two windows", "a column longer than a window",
    }


def test_graph6_rejects_garbage():
    # "Bx": order 3 leaves three padding bits, and x sets the last one;
    # an order-63 body (long header ~??~) is 326 bytes.  A bad byte after a
    # valid header is named, the first one when there are several; only a
    # trailing newline is stripped, so a "\r" is a bad byte.
    body_short, body_long = "~??~" + "?" * 325, "~??~" + "?" * 327
    cases = {
        "": "empty graph6 line",
        " ": "byte 32 outside graph6 range",
        "A": "body length 0, expected 1 for order 2",
        "A?extra": "body length 6, expected 1 for order 2",
        chr(200): "byte 200 outside graph6 range",
        "~~": "truncated extended order header",
        "~~???": "8-byte graph6 headers not supported",
        "~???": "extended header used for a small order",
        "Bx": "nonzero padding bits",
        body_short: "body length 325, expected 326 for order 63",
        body_long: "body length 327, expected 326 for order 63",
        "C?" + chr(127): "byte 127 outside graph6 range",
        "C" + chr(127) + " ": "byte 127 outside graph6 range",
        "C ": "byte 32 outside graph6 range",
        "Bw\r": "byte 13 outside graph6 range",
        "Bw\r\n": "byte 13 outside graph6 range",
    }
    for junk, message in cases.items():
        for decode in (from_graph6, from_graph6_per_bit):
            with pytest.raises(Graph6Error) as err:
                decode(junk)
            assert str(err.value) == message, (junk, decode)


# ------------------------------------------------------------ indented JSON


def test_indented_json_is_json_dumps_on_the_edge_cases():
    backslash = to_graph6(from_edges(5, [(0, 2), (0, 3), (1, 2), (2, 3)]))
    wide = to_graph6(empty(63))
    assert "\\" in backslash and wide.startswith("~")
    values = [
        [], {}, [[]], [[], [[]], {}], {"a": [], "b": {}},
        True, False, None, 0, -7, [True, False, None], [1, True], [-1, 0, 1 << 70],
        (1, (2, -3), ()), {"graph6": [backslash, wide, to_graph6(complete(5))]},
        {"k": 1, "nested": {"deep": [{"x": None}, [1, [2, [3]]]]}},
        "quote \" and \\ and tab\t and \u00e9 and \u2028", "",
    ]
    for value in values:
        assert _indented_json(value) == json.dumps(value, indent=2), value


@pytest.mark.parametrize("value", [1.5, {1, 2}, [0.0], {"x": {3}}, {1: "int key"}, frozenset()])
def test_indented_json_refuses_types_the_package_never_emits(value):
    with pytest.raises(TypeError):
        _indented_json(value)


# ---------------------------------------------------------------- values


def test_graph6_refuses_an_order_beyond_its_headers():
    with pytest.raises(Graph6Error, match="^order 258048 beyond supported graph6 headers$"):
        to_graph6(empty(258_048))


def test_values_reject_bad_arguments_like_a_frozen_dataclass():
    with pytest.raises(TypeError, match=r"^Jahangir\(\) takes 2 arguments but 3 were given$"):
        Jahangir(2, 3, 4)
    with pytest.raises(TypeError, match=r"^Jahangir\(\) missing argument 'm'$"):
        Jahangir(2)
    with pytest.raises(TypeError, match=r"^Jahangir\(\) got an unexpected or repeated argument 'k'$"):
        Jahangir(2, m=3, k=1)
    with pytest.raises(TypeError, match=r"^Jahangir\(\) got an unexpected or repeated argument 's'$"):
        Jahangir(2, 3, s=2)
    j = Jahangir(2, 3)
    with pytest.raises(AttributeError, match="^cannot delete field 'm'$"):
        del j.m
    with pytest.raises(TypeError, match="^Jahangir has no field 'k'$"):
        j.replace(k=1)


def test_values_keep_frozen_dataclass_semantics():
    # Each expectation below was read off the dataclass implementation.
    assert Path(5) != Cycle(5)
    assert Path(5) == Path(5) and hash(Path(5)) == hash(Path(5))
    assert hash(Thm1(23, 2, 3)) == hash((23, 2, 3))
    assert hash(complete(3)) == hash((3, (6, 5, 3)))
    assert repr(Jahangir(2, 3)) == "Jahangir(s=2, m=3)"
    assert repr(complete(3)) == "Graph(order=3, adj=(6, 5, 3))"
    for value, name in ((Jahangir(2, 3), "m"), (Thm1(23, 2, 3), "t"), (complete(3), "adj")):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 1)
    case = Thm1(23, 2, 3)
    assert case.replace(n=30) == Thm1(30, 2, 3)
    with pytest.raises(PreconditionError):
        case.replace(m=2)
    assert SubgraphSearch("absent").embedding is None
    a = ExtractionTrace("Thm1", "path-found", 1, (), ())
    b = ExtractionTrace("Thm1", "path-found", 1, (), ())
    assert a == b and a.selections == {} and a.selections is not b.selections
    for value in (complete(3), case, a):
        assert pickle.loads(pickle.dumps(value)) == value
