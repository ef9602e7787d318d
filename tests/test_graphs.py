import pickle
import random

import pytest

from ramsey_jahangir import (
    Cycle,
    ExtractionTrace,
    Graph,
    Graph6Error,
    Jahangir,
    Path,
    PreconditionError,
    SubgraphSearch,
    Thm1,
    complement,
    complete,
    component_masks,
    disjoint_union,
    empty,
    from_edges,
    from_graph6,
    relabel,
    to_graph6,
)
from ramsey_jahangir.graphs import clique_union_sizes, iter_bits

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


def test_validate_catches_asymmetry():
    g = Graph(2, (2, 0))  # 0 says it has 1, but 1 disagrees
    with pytest.raises(ValueError):
        g.validate()


def test_validate_names_the_first_asymmetric_pair():
    """The upper-triangle check raises exactly where the every-arc walk does,
    whether the missing mirrors sit above the diagonal, below it, or both."""
    rng = random.Random(31)
    seen = set()
    for order in (2, 3, 7, 20, 64, 130):
        for p in (0.1, 0.5, 0.9):
            g = random_graph(rng, order, p)
            g.validate()
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
                bad = Graph(order, tuple(rows))
                with pytest.raises(ValueError) as want:
                    validate_every_arc(bad)
                with pytest.raises(ValueError) as got:
                    bad.validate()
                assert str(got.value) == str(want.value), (order, p, where)
                a, b = map(int, str(want.value).split()[-1].split(","))
                unmirrored_above = any(
                    not rows[w] >> u & 1
                    for u in range(order) for w in iter_bits(rows[u] >> u << u)
                )
                seen.add((where, "below" if a > b else "above", unmirrored_above))
    # Among them: a first pair below the diagonal while an edge above it
    # lacks its mirror too, so the upper walk alone would name another pair.
    assert ("both", "below", True) in seen
    assert {("above", "below", False), ("below", "above", True)} <= seen


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


def test_graph6_matches_independent_encoder():
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


def test_graph6_round_trip():
    rng = random.Random(5)
    for _ in range(60):
        order = rng.randrange(0, 30)
        g = random_graph(rng, order)
        assert from_graph6(to_graph6(g)) == g
    for order in (62, 63, 100, 500):  # both sides of the long header
        g = random_graph(rng, order)
        assert from_graph6(to_graph6(g)) == g


def test_column_decoder_matches_the_per_bit_decoder():
    rng = random.Random(23)
    codes = [to_graph6(random_graph(rng, order, rng.choice((0.1, 0.5, 0.9))))
             for order in [*range(71), 62, 63]]
    codes.append(to_graph6(random_graph(rng, 500, 0.5)))
    codes.append(to_graph6(random_graph(rng, 1200, 0.003)))
    for code in codes:
        g = from_graph6(code)
        assert g == from_graph6_per_bit(code)
        assert to_graph6(g) == code


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


# ---------------------------------------------------------------- values


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
