import hashlib
import json
import random

import pytest

from ramsey_jahangir import (
    Budget,
    BudgetExhausted,
    DisjointPaths,
    Embedding,
    Graph,
    Jahangir,
    MaximalityViolation,
    Path,
    PreconditionError,
    SUITES,
    Thm1,
    Thm2EvenM,
    Thm2OddM,
    Thm3,
    build,
    check_embedding,
    complement,
    complete,
    disjoint_union,
    empty,
    extract,
    extremal_graph,
    from_edges,
    generate_case,
    trace_document,
    trace_json,
    verify_extremal,
    verify_witness,
)
import ramsey_jahangir.embedding as embedding_module
import ramsey_jahangir.witness as witness_module
from ramsey_jahangir.witness import (
    _assemble_endpoint_rim,
    _theorem1,
    _theorem2_oddm_case2,
    build_path_system,
)

from helpers_naive import (
    first_closing_couple_picks,
    first_endpoint_rim,
    near_end_couples,
    random_graph,
    shuffled_complete_bipartite,
)


def _union(*parts):
    g = parts[0]
    for p in parts[1:]:
        g = disjoint_union(g, p)
    return g


def triangles_host():
    """Eight triangles plus an isolate: order 25, longest path 3."""
    return _union(*([complete(3)] * 8), empty(1))


# ---------------------------------------------------------------- thresholds


def test_minimum_n_thresholds():
    assert Thm1(2, 2, 3).min_n == 23
    assert Thm1(2, 2, 4).min_n == 46
    assert Thm1(2, 4, 3).min_n == 116
    assert Thm3(3, 2, 2, 3).min_n == 23
    assert Thm2EvenM(2, 3, 2).min_n == 12
    assert Thm2OddM(2, 3, 3).min_n == 32
    assert Thm2EvenM(2, 5, 2).min_n == 40


# ----------------------------------------------------------- path systems


def test_path_system_fabricates_on_edgeless_leftovers():
    system = build_path_system(empty(6), 2)
    assert system.paths == ((0, 1), (2, 3))
    assert system.augmented_edges == ((0, 1), (2, 3))
    assert system.remainder == (4, 5)


def test_path_system_runs_out():
    with pytest.raises(PreconditionError, match="^host exhausted after 3 of 4 paths$") as info:
        build_path_system(empty(6), 4)
    assert info.value.system.paths == ((0, 1), (2, 3), (4, 5))
    assert info.value.system.augmented_edges == ((0, 1), (2, 3), (4, 5))
    assert info.value.system.remainder == ()


def test_path_system_needs_a_positive_count():
    with pytest.raises(ValueError, match="^count >= 1 required$"):
        build_path_system(empty(6), 0)


def test_path_system_within_a_vertex_mask_keeps_host_labels():
    host = _union(complete(3), build(Path(4)), empty(3))
    system = build_path_system(host, 2, within=0b1111111000)
    assert system.paths == ((3, 4, 5, 6), (7, 8))
    assert system.augmented_edges == ((7, 8),)
    assert system.remainder == (9,)
    with pytest.raises(ValueError):
        build_path_system(host, 1, within=1 << 10)


# ------------------------------------------------------- even rim step


def test_path_found_short_circuits():
    host = build(Path(25))
    w = extract(host, Thm1(23, 2, 3))
    assert w.kind == "paths"
    assert w.trace.case == "path-found"
    assert w.trace.k == 23
    assert w.embedding.pattern == Path(23)
    assert verify_witness(host, w)


def test_edgeless_host():
    host = empty(25)
    w = extract(host, Thm1(23, 2, 3))
    assert w.kind == "jahangir"
    assert w.trace.case == "edgeless-host"
    assert w.trace.selections == {"hub": 6}
    assert w.embedding.mapping == (0, 1, 2, 3, 4, 5, 6)
    assert verify_witness(host, w)


def test_short_path_rim():
    host = triangles_host()
    w = extract(host, Thm1(23, 2, 3))
    assert w.kind == "jahangir"
    assert w.trace.case == "Thm1-Case1"
    assert w.trace.k == 3
    assert w.trace.paths == ((0, 1, 2), (3, 4, 5))
    assert w.trace.selections == {"x": 6, "y": 7, "z": 8, "hub": 8}
    assert w.embedding.mapping == (0, 6, 3, 7, 2, 5, 8)
    assert verify_witness(host, w)


def test_long_path_rim():
    host = disjoint_union(build(Path(20)), build(Path(5)))
    w = extract(host, Thm1(23, 2, 3))
    assert w.kind == "jahangir"
    assert w.trace.case == "Thm1-Case2"
    assert w.trace.k == 20
    assert w.trace.quadruples == ((1, 2, 3, 4), (5, 6, 7, 8))
    sel = w.trace.selections
    assert sel["y1"] == 20 and sel["y2"] == 21 and sel["y3"] == 22
    assert sel["c1"] in (1, 2, 3, 4) and sel["c2"] in (5, 6, 7, 8)
    assert sel["hub"] == 0
    assert verify_witness(host, w)


# -------------------------------------------------------- odd rim step


def test_even_spokes_via_wheel():
    host = _union(empty(2), *([build(Path(7))] * 3))
    assert host.order == 23
    w = extract(host, Thm2EvenM(12, 3, 2))
    assert w.kind == "jahangir"
    assert w.trace.case == "Thm2-EvenM"
    assert w.embedding.pattern == Jahangir(3, 2)
    assert list(w.trace.selections) == ["hub"]
    assert verify_witness(host, w)


def test_even_spokes_fail_when_the_complement_holds_no_wheel():
    # K7's complement is edgeless: no wheel with rim 6, so the forced even
    # spoke route reports the violation with the maximum path it found.
    with pytest.raises(MaximalityViolation, match="^complement holds no wheel with rim 6; ") as info:
        extract(complete(7), Thm2EvenM(12, 3, 2), force=True)
    assert info.value.trace.case == "Thm2-EvenM"
    assert info.value.trace.k == 7


def test_odd_spokes_short_paths():
    host = _union(empty(1), *([build(Path(7))] * 9))
    assert host.order == 64
    w = extract(host, Thm2OddM(32, 3, 3))
    assert w.trace.case == "Thm2-OddM-Case1"
    assert w.trace.k == 7
    assert len(w.trace.paths) == 4
    assert sorted(w.trace.selections) == ["hub", "x", "y"]
    assert verify_witness(host, w)


def test_odd_spokes_two_long_paths():
    host = _union(build(Path(30)), build(Path(30)), empty(4))
    w = extract(host, Thm2OddM(32, 3, 3))
    assert w.trace.case == "Thm2-OddM-Case2"
    assert w.trace.k == 30
    assert sorted(w.trace.selections) == ["a1", "a2", "a3", "b1", "b2", "b3", "x", "y"]
    assert len(w.trace.couples_a) == len(w.trace.couples_b) == 3
    flat = [v for c in w.trace.couples_a + w.trace.couples_b for v in c]
    assert len(set(flat)) == len(flat), "couples must be pairwise disjoint"
    assert verify_witness(host, w)


def test_odd_spokes_one_long_path():
    host = _union(build(Path(20)), *([build(Path(7))] * 6), empty(2))
    assert host.order == 64
    w = extract(host, Thm2OddM(32, 3, 3))
    assert w.trace.case == "Thm2-OddM-Case3"
    assert w.trace.k == 20
    # the rim construction runs off the long path entirely
    assert all(v >= 20 for p in w.trace.paths for v in p)
    assert all(v >= 20 for v in w.embedding.mapping)
    assert verify_witness(host, w)


def _two_long_paths_host(rng, s, m):
    """Two paths of sm - 1 to sm + 2 vertices, random host edges among their
    vertices, and two vertices off them: the hub candidate, which touches
    one member of some couples, and the isolated rim closer.  Labels are
    shuffled."""
    sm = s * m
    q = (sm - 3) // 2
    l1, l2 = rng.randint(sm - 1, sm + 2), rng.randint(sm - 1, sm + 2)
    order = l1 + l2 + 2
    label = list(range(order))
    rng.shuffle(label)
    first, second = tuple(label[:l1]), tuple(label[l1 : l1 + l2])
    hub = min(label[l1 + l2 :])
    edges = {e for path in (first, second) for e in zip(path, path[1:])}
    on_paths = first + second
    for i, u in enumerate(on_paths):
        edges.update((u, v) for v in on_paths[i + 1 :] if rng.random() < 0.2)
    for couple in near_end_couples(first, q) + near_end_couples(second, q):
        if rng.random() < 0.25:
            edges.add((hub, rng.choice(couple)))
    return from_edges(order, sorted(edges)), first, second, hub


@pytest.mark.parametrize("s, m", [(3, 3), (3, 5), (5, 3)])
def test_couple_rim_takes_the_first_closing_selection(s, m):
    q = (s * m - 3) // 2
    outcomes = set()
    for i in range(30):
        rng = random.Random(f"couples/{s},{m}/{i}")
        host, first, second, hub = _two_long_paths_host(rng, s, m)
        expected = first_closing_couple_picks(host, first, second, hub, q)
        if expected is None:
            with pytest.raises(MaximalityViolation, match="^no couple selection closes"):
                _theorem2_oddm_case2(host, first, second, s, m)
            outcomes.add("no closing selection")
            continue
        w = _theorem2_oddm_case2(host, first, second, s, m)
        sel = w.trace.selections
        picks = tuple(sel[f"{role}{j}"] for j in range(1, q + 1) for role in "ba")
        assert picks == expected
        assert w.trace.couples_a == tuple(near_end_couples(first, q))
        assert w.trace.couples_b == tuple(near_end_couples(second, q))
        assert w.embedding.mapping == (first[0], *picks, second[-1], sel["y"], hub)
        assert verify_witness(host, w)
        # Taking the least pick that avoids the previous rim vertex at every
        # slot, with no backtracking, finds the same selection or none.
        pairs = zip(near_end_couples(second, q), near_end_couples(first, q))
        prev, greedy = first[0], []
        for couple in (c for pair in pairs for c in pair):
            fits = [
                v for v in sorted(couple)
                if not host.has_edge(v, hub) and not host.has_edge(prev, v)
            ]
            if not fits:
                break
            prev = fits[0]
            greedy.append(prev)
        outcomes.add("greedy" if tuple(greedy) == expected else "backtracked")
    assert outcomes == {"greedy", "backtracked", "no closing selection"}


def _endpoint_rim_host(rng, s, m):
    """The (sm - 1) // 2 short paths of the endpoint rim, two to four
    vertices each, the spare vertices off them (one more than the rim slots
    their endpoints leave), and random host edges among all of them.
    Labels are shuffled."""
    sm = s * m
    count = (sm - 1) // 2
    lengths = [rng.randint(2, 4) for _ in range(count)]
    order = sum(lengths) + sm - 2 * count + 1
    label = list(range(order))
    rng.shuffle(label)
    paths, start = [], 0
    for length in lengths:
        paths.append(tuple(label[start : start + length]))
        start += length
    spares = label[start:]
    edges = {e for path in paths for e in zip(path, path[1:])}
    p = rng.choice([0.05, 0.15, 0.3])
    edges.update(
        (u, v) for u in range(order) for v in range(u + 1, order) if rng.random() < p
    )
    return from_edges(order, sorted(edges)), tuple(paths), spares


# J_{2,2} is left out: there every split needs the same six endpoint-spare
# non-edges, so a later hub never closes a rim the first one cannot.
@pytest.mark.parametrize("s, m", [(2, 3), (3, 2), (2, 4)])
def test_endpoint_rim_takes_the_first_valid_arrangement(s, m):
    outcomes = set()
    for i in range(60):
        rng = random.Random(f"endpoint-rim/{s},{m}/{i}")
        host, paths, spares = _endpoint_rim_host(rng, s, m)
        expected = first_endpoint_rim(host, paths, spares, s, m)
        if expected is None:
            with pytest.raises(MaximalityViolation, match="^no arrangement of path endpoints"):
                _assemble_endpoint_rim(host, paths, spares, s, m)
            outcomes.add("no arrangement")
            continue
        rim, hub, attempt = expected
        assert _assemble_endpoint_rim(host, paths, spares, s, m) == (rim, hub)
        emb = Embedding(Jahangir(s, m), host.order, (*rim, hub))
        assert check_embedding(complement(host), emb) is None
        outcomes.add("first arrangement" if attempt == 0 else "later hub or arrangement")
    assert outcomes == {"first arrangement", "later hub or arrangement", "no arrangement"}


def test_endpoint_rim_needs_exactly_the_rim_in_endpoints_and_spares():
    # J_{2,3} has a rim of 6: one path's 2 endpoints and 2 spares, one of
    # them the hub, leave it 3 short.
    with pytest.raises(ValueError, match="^endpoints plus rim spares must fill the rim exactly$"):
        _assemble_endpoint_rim(empty(10), ((0, 1),), [2, 3], 2, 3)


def test_a_rim_with_more_slots_than_the_recursion_limit_is_filled():
    # Every path of 520 disjoint edges is an edge, so the rim of J_{2,500}
    # takes 499 of them: 998 endpoint slots, more than the default limit
    # of 1,000 frames leaves a backtracker that recurses once per slot.
    host = from_edges(1100, [(2 * i, 2 * i + 1) for i in range(520)])
    w = extract(host, Thm1(30, 2, 500), force=True)
    assert w.kind == "jahangir"
    assert w.trace.case == "Thm1-Case1"
    assert w.embedding.pattern == Jahangir(2, 500)
    assert verify_witness(host, w)


def test_endpoint_rim_failure_carries_the_peeled_paths(monkeypatch):
    # Maximum paths leave the rim an arrangement, so the failure is reached
    # by handing the construction the hand-made paths of a host that has
    # none; the violation must still carry the trace with those paths.
    s, m = 2, 3
    for i in range(60):
        rng = random.Random(f"endpoint-rim/{s},{m}/{i}")
        host, paths, spares = _endpoint_rim_host(rng, s, m)
        if first_endpoint_rim(host, paths, spares, s, m) is None:
            break
    system = witness_module.PathSystem(paths, (), tuple(sorted(spares)))
    monkeypatch.setattr(witness_module, "build_path_system", lambda *args, **kwargs: system)
    with pytest.raises(MaximalityViolation, match="^no arrangement of path endpoints") as info:
        witness_module._endpoint_witness(
            host, "Thm1", "Thm1-Case1", s, m, 4, Budget(1000), (1 << host.order) - 1, {}
        )
    assert info.value.trace.paths == paths
    assert info.value.trace.case == "Thm1-Case1"


# ------------------------------------------------------ several paths


def test_t_paths_found():
    host = _union(complete(23), complete(23), empty(2))
    w = extract(host, Thm3(2, 23, 2, 3))
    assert w.kind == "paths"
    assert w.embedding.pattern == DisjointPaths(2, 23)
    assert w.trace.case == "Thm3-step2"
    assert w.trace.theorem == "Thm3"
    a, b = w.trace.paths
    assert len(a) == len(b) == 23
    assert not (set(a) & set(b))
    assert verify_witness(host, w)


def test_t_paths_jahangir_in_later_round():
    host = _union(complete(23), *([complete(3)] * 8), empty(1))
    assert host.order == 48
    w = extract(host, Thm3(2, 23, 2, 3))
    assert w.kind == "jahangir"
    assert w.trace.case == "Thm3-step2"
    assert w.trace.theorem == "Thm3"
    # round one consumed the big clique, so everything lives above it
    assert all(v >= 23 for v in w.embedding.mapping)
    assert verify_witness(host, w)


def test_t_equal_one_is_the_plain_extractor():
    # One round keeps the regime's own trace names and embeds Path(n), so
    # Thm3 with t = 1 gives Thm1's witness, here also on every seed-0
    # thm1-s2m3 host.
    spec = SUITES["thm1-s2m3"]
    hosts = [generate_case(spec, 0, index) for index in range(40)]
    hosts += [triangles_host(), empty(25), build(Path(25)), _union(complete(23), empty(2))]
    for host in hosts:
        assert extract(host, Thm3(1, 23, 2, 3)) == extract(host, Thm1(23, 2, 3))


def test_extract_takes_the_case_not_a_theorem_number():
    with pytest.raises(TypeError):
        extract(triangles_host(), 1, 23, 2, 3)


# ------------------------------------------------------ error contract


def test_preconditions():
    host = empty(25)
    with pytest.raises(PreconditionError):
        extract(host, Thm1(23, 3, 3))  # rim step parity
    with pytest.raises(PreconditionError):
        extract(host, Thm1(23, 2, 2))  # spoke count too small
    with pytest.raises(PreconditionError):
        extract(host, Thm1(22, 2, 3))  # below the n threshold
    with pytest.raises(PreconditionError):
        extract(empty(24), Thm1(23, 2, 3))  # host too small
    with pytest.raises(PreconditionError):
        extract(empty(23), Thm2EvenM(12, 2, 2))  # even rim step
    with pytest.raises(PreconditionError):
        extract(empty(23), Thm2EvenM(11, 3, 2))  # below the n threshold
    with pytest.raises(PreconditionError):
        extract(empty(63), Thm2OddM(32, 3, 3))  # odd spokes need order 2n
    with pytest.raises(PreconditionError):
        extract(empty(25), Thm3(0, 23, 2, 3))  # t >= 1


def test_force_still_checks_the_regime_shape():
    # Odd s is outside the even-rim-step regime; its long-path rim assumes
    # even s, so running it anyway must not reach the construction.
    host = disjoint_union(build(Path(20)), empty(5))
    with pytest.raises(PreconditionError):
        extract(host, Thm1(23, 3, 3), force=True)
    with pytest.raises(PreconditionError):
        extract(empty(23), Thm2EvenM(12, 2, 2), force=True)
    with pytest.raises(PreconditionError):
        extract(empty(48), Thm3(0, 23, 2, 3), force=True)


def test_force_skips_preconditions_and_may_fail_loudly():
    with pytest.raises(MaximalityViolation) as info:
        extract(empty(6), Thm1(23, 2, 3), force=True)
    assert info.value.trace is not None
    assert info.value.trace.case == "edgeless-host"


@pytest.mark.parametrize(
    "case, theorem, case_name, message",
    [
        (Thm1(23, 2, 3), "Thm1", "Thm1-Case1", "host exhausted after 1 of 2 paths"),
        (Thm2OddM(32, 3, 3), "Thm2", "Thm2-OddM-Case1", "host exhausted after 1 of 4 paths"),
    ],
    ids=["Thm1", "Thm2OddM"],
)
def test_forced_run_out_of_host_is_a_maximality_violation(case, theorem, case_name, message):
    # P3 + K1: the endpoint rim peels more short paths than the host holds
    host = disjoint_union(build(Path(3)), empty(1))
    with pytest.raises(MaximalityViolation, match=f"^{message}$") as info:
        extract(host, case, force=True)
    trace = info.value.trace
    assert (trace.theorem, trace.case, trace.k) == (theorem, case_name, 3)
    assert trace.paths == ((0, 1, 2),)
    assert trace.augmented_edges == ()


def test_long_path_rim_needs_vertices_outside_the_path():
    with pytest.raises(MaximalityViolation) as info:
        extract(build(Path(20)), Thm1(23, 2, 3), force=True)
    assert str(info.value) == "need 3 vertices outside the maximum path, found 0"
    assert info.value.trace.case == "Thm1-Case2"
    assert info.value.trace.paths == (tuple(range(20)),)


def test_long_path_rim_fails_when_a_quadruple_touches_its_flanks():
    # Hand a path of 12 and three outside vertices to the Case 2
    # construction, with the first outside vertex adjacent to the whole of
    # the first quadruple; a maximum path would not allow it.
    first = tuple(range(12))
    host = from_edges(15, [*zip(first, first[1:]), *((12, v) for v in first[1:5])])
    with pytest.raises(MaximalityViolation) as info:
        _theorem1(host, first, 2, 3, Budget(1000), (1 << 15) - 1, {})
    assert str(info.value) == (
        "every vertex of quadruple 1 touches one of its flanking outside vertices"
    )
    assert info.value.trace.case == "Thm1-Case2"
    assert info.value.trace.selections == {"y1": 12, "y2": 13, "y3": 14}


@pytest.mark.parametrize(
    "outside, extra, message",
    [
        (1, [], "fewer than two vertices lie outside the two paths"),
        (2, [(20, 0)], "hub candidate is host-adjacent to the first path's start"),
        (2, [(19, 21)], "rim closer is host-adjacent to a fixed rim neighbour"),
        (2, [(0, 21)], "rim closer is host-adjacent to a fixed rim neighbour"),
        (2, [(20, 11), (20, 12)], "both vertices of couple B1 touch the hub candidate"),
    ],
    ids=["no-closer", "hub-touches-start", "closer-touches-end", "closer-touches-start",
         "couple-touches-hub"],
)
def test_couple_rim_failures_carry_the_case(outside, extra, message):
    # paths 0..9 and 10..19, then the hub candidate 20 and the closer 21
    first, second = tuple(range(10)), tuple(range(10, 20))
    edges = [*zip(first, first[1:]), *zip(second, second[1:]), *extra]
    host = from_edges(20 + outside, edges)
    with pytest.raises(MaximalityViolation) as info:
        _theorem2_oddm_case2(host, first, second, 3, 3)
    assert str(info.value) == message
    assert info.value.trace.case == "Thm2-OddM-Case2"
    assert info.value.trace.paths == (first, second)


def test_partial_traces_name_host_vertices():
    # The failing construction runs on what the first path leaves: K3 + K3
    # beside the K23 (round 2 of Thm3), and 4P3 beside the P8 (Case 3 of
    # Thm2OddM).  Its partial trace still names host vertices.
    host = _union(complete(23), complete(3), complete(3))
    with pytest.raises(MaximalityViolation) as info:
        extract(host, Thm3(2, 23, 2, 3), force=True)
    assert info.value.trace.case == "Thm1-Case1"
    assert info.value.trace.paths == ((23, 24, 25), (26, 27, 28))
    host = _union(build(Path(8)), *([build(Path(3))] * 4))
    with pytest.raises(MaximalityViolation) as info:
        extract(host, Thm2OddM(32, 3, 3), force=True)
    assert info.value.trace.case == "Thm2-OddM-Case3"
    assert info.value.trace.paths == ((8, 9, 10), (11, 12, 13), (14, 15, 16), (17, 18, 19))


def test_budget_exhaustion():
    with pytest.raises(BudgetExhausted):
        extract(triangles_host(), Thm1(23, 2, 3), budget=1)


def spider_host(legs=4, length=7):
    # centre 0 with ``legs`` legs of ``length`` vertices; by default 29
    # vertices, longest path 15
    edges = []
    for leg in range(legs):
        first = 1 + length * leg
        edges.append((0, first))
        edges.extend((v, v + 1) for v in range(first, first + length - 1))
    return from_edges(1 + legs * length, edges)


def test_one_path_search_per_host():
    # One longest-path search of the spider costs 301 nodes; searching it
    # once for P23 and again for a maximum path would not fit in 451.
    w = extract(spider_host(), Thm1(23, 2, 3), budget=Budget(451))
    assert w.trace.case == "Thm1-Case2"
    assert w.trace.k == 15


@pytest.mark.parametrize(
    "make_host, case, case_name",
    [
        (triangles_host, Thm1(23, 2, 3), "Thm1-Case1"),
        (lambda: _union(empty(1), *([build(Path(7))] * 9)), Thm2OddM(32, 3, 3),
         "Thm2-OddM-Case1"),
        (lambda: _union(build(Path(20)), *([build(Path(7))] * 6), empty(2)),
         Thm2OddM(32, 3, 3), "Thm2-OddM-Case3"),
        # 25 vertices, longest path 9: the P23 search explores every branch
        # of the one component, so its answer is the stop-free one too.
        (lambda: spider_host(6, 4), Thm1(23, 2, 3), "Thm1-Case1"),
    ],
)
def test_no_graph_is_searched_twice(monkeypatch, make_host, case, case_name):
    # Every search runs on the host itself, restricted by a vertex mask.  The
    # path system finds the maximum path the extractor already holds among
    # the component answers, and a stop search that explores every branch
    # answers the stop-free question too, so no component is searched twice,
    # and each extraction spends what it spent when that path was handed to
    # the path system instead.
    graphs, components = [], []
    search = witness_module.longest_path
    component_search = embedding_module._component_search

    def counted(g, *args, **kwargs):
        graphs.append(g)
        return search(g, *args, **kwargs)

    def counted_component(g, comp_mask, side, bud, stop_len):
        components.append((comp_mask, stop_len))
        return component_search(g, comp_mask, side, bud, stop_len)

    monkeypatch.setattr(witness_module, "longest_path", counted)
    monkeypatch.setattr(embedding_module, "_component_search", counted_component)
    host = make_host()
    bud = Budget(1_000)
    w = extract(host, case, budget=bud)
    assert w.trace.case == case_name
    assert graphs and all(g is host for g in graphs)
    masks = [mask for mask, _ in components]
    assert len(set(masks)) == len(masks)
    assert 1_000 - bud.remaining == {
        ("Thm1-Case1", 3): 6, ("Thm2-OddM-Case1", 7): 28, ("Thm2-OddM-Case3", 20): 48,
        ("Thm1-Case1", 9): 248,
    }[case_name, w.trace.k]


def _tree_blocks(rng, base, end, lo, hi, chords):
    """Random trees of ``lo..hi`` vertices on ``base..end-1``, each of four
    or more vertices with ``chords`` random extra edges."""
    edges = []
    while base < end:
        size = min(rng.randint(lo, hi), end - base)
        edges += [(base + rng.randrange(v), base + v) for v in range(1, size)]
        if size >= 4:
            edges += [tuple(rng.sample(range(base, base + size), 2)) for _ in range(chords)]
        base += size
    return edges


def _shuffled_host(rng, order, edges):
    perm = list(range(order))
    rng.shuffle(perm)
    return from_edges(order, [(perm[u], perm[v]) for u, v in edges])


def _sparse_trees(rng):
    order = rng.randint(25, 32)
    return _shuffled_host(rng, order, _tree_blocks(rng, 0, order, 6, 11, 4))


def _small_trees(rng):
    order = rng.randint(64, 70)
    return _shuffled_host(rng, order, _tree_blocks(rng, 0, order, 3, 7, 2))


def _caterpillar(rng):
    """A caterpillar (spine of 10 to 24, six legs) beside trees of 3 to 7."""
    order, spine = rng.randint(64, 70), rng.randint(10, 24)
    edges = [(v, v + 1) for v in range(spine - 1)]
    edges += [(rng.randrange(1, spine - 1), leaf) for leaf in range(spine, spine + 6)]
    edges += _tree_blocks(rng, spine + 6, order, 3, 7, 0)
    return _shuffled_host(rng, order, edges)


def _clique_beside_sparse(rng):
    order = rng.randint(48, 55)
    edges = [(u, v) for v in range(23) for u in range(v)]
    edges += _tree_blocks(rng, 23, order, 6, 11, 4)
    return _shuffled_host(rng, order, edges)


# Sparse hosts whose residuals keep most of their components: the path
# system, both searches of Case 3 and the second round of Thm3 all search
# what an earlier path left.  Five hosts each from random.Random(name); the
# digest is the sha256 of their trace_json texts joined by newlines,
# recorded before component answers were carried between searches.
CARRIED_SHAPES = [
    ("sparse-trees", _sparse_trees, Thm1(23, 2, 3), "Thm1-Case1",
     "6b94640ce3aad717da3019dc40e531d3b0c6ca6b40f3fdaf3a75b6479e86ca2d"),
    ("small-trees", _small_trees, Thm2OddM(32, 3, 3), "Thm2-OddM-Case1",
     "23fbd2876999419d3ece1a8327cd6e7fc4f6f2924f9b060cb9c16e2d188f806e"),
    ("caterpillar", _caterpillar, Thm2OddM(32, 3, 3), "Thm2-OddM-Case3",
     "32cdbe1688bb87f212819f3ac4b994451cccf168b63e198d2b6e8e79687b9d69"),
    ("clique-beside-sparse", _clique_beside_sparse, Thm3(2, 23, 2, 3), "Thm3-step2",
     "ef59068ce6bbc35cdaab78275d4d36b61dca503bcb54f837cdc58df8a4848fd8"),
]


def _carried_hosts(name, make):
    rng = random.Random(name)
    return [make(rng) for _ in range(5)]


@pytest.mark.parametrize(
    "name, make, case, case_name, digest", CARRIED_SHAPES, ids=[c[0] for c in CARRIED_SHAPES]
)
def test_no_component_is_searched_twice_in_one_extraction(
    monkeypatch, name, make, case, case_name, digest
):
    searched = []
    search = embedding_module._component_search

    def counted(g, comp_mask, side, bud, stop_len):
        searched.append((comp_mask, stop_len))
        return search(g, comp_mask, side, bud, stop_len)

    monkeypatch.setattr(embedding_module, "_component_search", counted)
    texts = []
    for host in _carried_hosts(name, make):
        searched.clear()
        w = extract(host, case)
        assert w.trace.case == case_name
        assert searched and len(set(searched)) == len(searched)
        texts.append(trace_json(host, w))
    # Carrying answers changes the work, never a witness.
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == digest


def test_untouched_components_are_not_searched_again():
    # The first maximum path lies in one block; the path system's second
    # search of the residual reuses the other blocks' answers.  Every
    # residual was searched afresh before, which spent 387 nodes; reuse
    # alone spends 335, and twin pruning with the dead-end bound 107.
    host = _carried_hosts("sparse-trees", _sparse_trees)[1]
    bud = Budget(1_000)
    w = extract(host, Thm1(23, 2, 3), budget=bud)
    assert w.trace.case == "Thm1-Case1"
    assert 1_000 - bud.remaining == 107


def test_complete_bipartite_host_settles_within_budget():
    # K_{10,30} holds no P23 (its longest path has 21 vertices); the
    # side-count bound proves that in a few hundred nodes.
    host = shuffled_complete_bipartite(random.Random(3), 10, 30)
    w = extract(host, Thm1(23, 2, 3), budget=Budget(1_000_000))
    assert w.kind == "jahangir"
    assert w.trace.case == "Thm1-Case2"
    assert w.trace.k == 21
    assert verify_witness(host, w)


def test_wheel_search_out_of_budget_is_budget_exhausted():
    # The path search spends 2 nodes; the complement wheel search needs 7.
    host = from_edges(23, [(2 * i, 2 * i + 1) for i in range(11)])
    with pytest.raises(BudgetExhausted, match="wheel with rim 6"):
        extract(host, Thm2EvenM(12, 3, 2), budget=4)
    assert extract(host, Thm2EvenM(12, 3, 2), budget=9).trace.case == "Thm2-EvenM"


def test_verify_witness_catches_corruption():
    host = triangles_host()
    w = extract(host, Thm1(23, 2, 3))
    mapping = list(w.embedding.mapping)
    mapping[0], mapping[1] = mapping[1], mapping[0]
    bad = type(w)(Embedding(w.embedding.pattern, host.order, tuple(mapping)), w.trace)
    assert not verify_witness(host, bad)


def _remapped(w, mapping, host_order=None):
    """``w`` with its embedding's map (and host order) replaced."""
    emb = w.embedding
    order = emb.host_order if host_order is None else host_order
    return w.replace(embedding=Embedding(emb.pattern, order, tuple(mapping)))


def _row_check_witnesses():
    """A Jahangir witness (Thm1-Case1 on eight triangles) and a path witness
    (path-found on P25), each with its host."""
    jahangir_host = triangles_host()
    path_host = build(Path(25))
    return [
        (jahangir_host, extract(jahangir_host, Thm1(23, 2, 3))),
        (path_host, extract(path_host, Thm1(23, 2, 3))),
    ]


def test_verify_witness_rejects_a_jahangir_edge_on_a_host_edge():
    host, w = _row_check_witnesses()[0]
    assert w.kind == "jahangir" and verify_witness(host, w)
    image = list(w.embedding.mapping)
    # Move one end of a pattern edge onto an unused host neighbour of the
    # other end: the map stays injective and in range.
    u, v, b = next(
        (u, v, b)
        for u, v in w.embedding.pattern.edges()
        for b in host.neighbors(image[u])
        if b not in image
    )
    image[v] = b
    assert len(set(image)) == len(image)
    assert not verify_witness(host, _remapped(w, image))


def test_verify_witness_rejects_a_path_edge_missing_from_the_host():
    host, w = _row_check_witnesses()[1]
    assert w.kind == "paths" and verify_witness(host, w)
    image = list(w.embedding.mapping)
    last = image[-2]
    image[-1] = next(x for x in range(host.order) if x not in image and not host.has_edge(last, x))
    assert not verify_witness(host, _remapped(w, image))


@pytest.mark.parametrize("kind", ["jahangir", "paths"])
def test_verify_witness_rejects_a_bad_map_or_host_order(kind):
    host, w = next(pair for pair in _row_check_witnesses() if pair[1].kind == kind)
    assert verify_witness(host, w)
    image = list(w.embedding.mapping)
    assert not verify_witness(host, _remapped(w, [image[1]] + image[1:]))  # not injective
    assert not verify_witness(host, _remapped(w, [host.order] + image[1:]))  # out of range
    assert not verify_witness(host, _remapped(w, image, host.order + 1))
    assert not verify_witness(disjoint_union(host, empty(1)), w)


def test_verify_witness_agrees_with_the_embedding_check_on_the_complement():
    # Every one-vertex remap of witnesses on random hosts: the row check
    # answers as check_embedding does on the host, or on its complement
    # for a Jahangir witness.
    kinds = set()
    for i in range(12):
        rng = random.Random(3000 + i)
        host = random_graph(rng, 25, rng.choice((0.08, 0.3, 0.6)))
        w = extract(host, Thm1(23, 2, 3))
        side = complement(host) if w.kind == "jahangir" else host
        for at in range(len(w.embedding.mapping)):
            for x in range(host.order):
                image = list(w.embedding.mapping)
                image[at] = x
                bad = _remapped(w, image)
                expected = check_embedding(side, bad.embedding) is None
                assert verify_witness(host, bad) == expected
        kinds.add(w.kind)
    assert kinds == {"jahangir", "paths"}


# ------------------------------------------------------------- traces


def test_trace_document_layout():
    host = triangles_host()
    w = extract(host, Thm1(23, 2, 3))
    doc = trace_document(host, w)
    assert list(doc) == [
        "theorem",
        "case",
        "k",
        "paths",
        "augmented_edges",
        "selections",
        "witness",
        "verified",
    ]
    assert doc["theorem"] == "Thm1"
    assert doc["case"] == "Thm1-Case1"
    assert doc["k"] == 3
    assert doc["witness"]["pattern"] == "J2,3"
    assert doc["verified"] is True
    json.loads(trace_json(host, w))  # must be valid JSON


def test_trace_json_is_deterministic():
    host = disjoint_union(build(Path(20)), build(Path(5)))
    a = trace_json(host, extract(host, Thm1(23, 2, 3)))
    b = trace_json(host, extract(host, Thm1(23, 2, 3)))
    assert a == b


def test_trace_json_is_json_dumps_of_the_trace_document():
    # A path witness whose trace fills every serialized field, and a
    # Jahangir witness with augmented edges and selections.
    host = build(Path(25))
    w = extract(host, Thm1(23, 2, 3))
    filled = w.replace(trace=w.trace.replace(augmented_edges=((23, 24),), selections={"x": 0}))
    lifted_host = _union(complete(23), complete(3), empty(22))
    lifted = extract(lifted_host, Thm3(2, 23, 2, 3))
    assert lifted.trace.augmented_edges and lifted.trace.selections
    for g, witness in ((host, filled), (lifted_host, lifted)):
        assert trace_json(g, witness) == json.dumps(trace_document(g, witness), indent=2)


# Pinned trace_json digests for hosts whose Jahangir is found in what is
# left of the host after a first path (Thm2-OddM-Case3, Thm3-step2); the
# hosts cover paths, selections, augmented edges and quadruples there.
LIFTED_TRACES = [
    (
        lambda: _union(build(Path(20)), *([build(Path(7))] * 6), empty(2)),
        lambda h: extract(h, Thm2OddM(32, 3, 3)),
        "Thm2-OddM-Case3",
        "e06a3f611ca17beaf2f145705cd537048d091af27feea84a88c36fafb4a684ef",
    ),
    (
        lambda: _union(complete(23), *([complete(3)] * 8), empty(1)),
        lambda h: extract(h, Thm3(2, 23, 2, 3)),
        "Thm3-step2",
        "aecbdf80ae037f3da815b0fa2a92283f2a70883094f1c6c8fc36ea24a30c2fcb",
    ),
    (
        lambda: _union(complete(23), build(Path(20)), empty(5)),
        lambda h: extract(h, Thm3(2, 23, 2, 3)),
        "Thm3-step2",
        "9befbf229a3bd0d87d92f6a4cf4da5bfb6576975ef90ae807e41050b54ea69cc",
    ),
    (
        lambda: _union(complete(23), complete(3), empty(22)),
        lambda h: extract(h, Thm3(2, 23, 2, 3)),
        "Thm3-step2",
        "866b1de851a86e35aa1b6299842c8b88774f2995c13e088d9667b9065b27a337",
    ),
]


@pytest.mark.parametrize("make_host, run, case, digest", LIFTED_TRACES)
def test_lifted_trace_bytes_are_pinned(make_host, run, case, digest):
    host = make_host()
    w = run(host)
    assert w.kind == "jahangir"
    assert w.trace.case == case
    assert hashlib.sha256(trace_json(host, w).encode()).hexdigest() == digest


def test_lifted_trace_keeps_unserialized_fields():
    host = _union(complete(23), build(Path(20)), empty(5))
    w = extract(host, Thm3(2, 23, 2, 3))
    assert w.trace.quadruples == ((24, 25, 26, 27), (28, 29, 30, 31))
    host = _union(complete(23), complete(3), empty(22))
    assert extract(host, Thm3(2, 23, 2, 3)).trace.augmented_edges == ((26, 27),)


# ------------------------------------------------- extremal lower bounds


_CAPACITY = "path-capacity-by-components"
_PATH_SEARCH = "path-absence-by-search"
_COLOURING = "jahangir-vs-multipartite-complement"
_JAHANGIR_SEARCH = "jahangir-absence-by-search"


def test_extremal_constructions_all_check_out():
    # Searches run up to order 30; above it the clique union's colouring
    # argument is the complement side's whole case.
    cases = {
        Thm1(23, 2, 3): (_CAPACITY, _PATH_SEARCH, _COLOURING, _JAHANGIR_SEARCH),
        Thm1(29, 2, 4): (_CAPACITY, _COLOURING),
        Thm1(56, 4, 3): (_CAPACITY, _COLOURING),
        Thm2EvenM(12, 3, 2): (_CAPACITY, _PATH_SEARCH, _COLOURING, _JAHANGIR_SEARCH),
        Thm2OddM(32, 3, 3): (_CAPACITY, _COLOURING),
        Thm3(2, 23, 2, 3): (_CAPACITY, _COLOURING),
    }
    for case, names in cases.items():
        report = verify_extremal(case)
        assert report.ok, (case, report.checks)
        assert report.reason is None
        assert tuple(name for name, _ in report.checks) == names, case


@pytest.mark.parametrize(
    "case, k",
    [(Thm1(23, 2, 3), 3), (Thm1(23, 2, 4), 4), (Thm3(2, 23, 2, 4), 4)],
    ids=["Thm1-J2,3", "Thm1-J2,4", "Thm3-J2,4"],
)
def test_extremal_audit_accepts_a_balanced_clique_union(case, k):
    # The complement of K_k + K_k is K_{k,k}, which holds the rim cycle but
    # no Jahangir: a graph the audit must pass, whatever the regime.
    report = verify_extremal(case, graph=disjoint_union(complete(k), complete(k)))
    assert report.ok, report.checks
    named = dict(report.checks)
    assert named[_COLOURING] and named[_JAHANGIR_SEARCH]


def test_extremal_disjoint_paths_fail_fast_on_component_capacity():
    # A path lies in one component, so the components of the extremal graph
    # holding fewer than t blocks of n vertices is the whole path-side
    # argument for t > 1; no search is run for it.
    for case in (Thm3(3, 4, 2, 3), Thm3(2, 7, 2, 4), Thm3(2, 5, 2, 3)):
        report = verify_extremal(case, budget=Budget(100_000))
        assert report.ok, (case, report.checks)
        named = dict(report.checks)
        assert named["path-capacity-by-components"]
        assert "path-absence-by-search" not in named


def test_extremal_audit_spots_a_spoiled_graph():
    case = Thm1(23, 2, 3)
    g = extremal_graph(case)
    # bridge the two cliques
    spoiled = from_edges(g.order, [*g.edges(), (0, g.order - 1)])
    report = verify_extremal(case, graph=spoiled)
    assert not report
    failed = {name for name, ok in report.checks if not ok}
    assert "path-capacity-by-components" in failed


def test_extremal_audit_validates_a_supplied_graph():
    # K_22 + K_2 with row 23 missing its edge to 22: the audit rejects it
    # as extract does, instead of auditing a graph that is not one.
    g = disjoint_union(complete(22), complete(2))
    rows = list(g.adj)
    rows[23] = 0
    with pytest.raises(ValueError, match="^asymmetric edge 22,23$"):
        verify_extremal(Thm1(23, 2, 3), graph=Graph(24, tuple(rows)))


def test_extremal_audit_cannot_argue_a_large_non_clique_union_complement():
    # K_22 + P_9 has order 31, above the search cap, and is no clique
    # union: nothing settles its complement side.
    report = verify_extremal(Thm1(23, 2, 3), graph=disjoint_union(complete(22), build(Path(9))))
    assert not report.ok
    assert report.reason == "failed: complement-side-undecided"


def test_extremal_audit_out_of_budget_raises_rather_than_fails():
    # 21 nodes leave the path search undecided, 22 and 23 the Jahangir
    # search; neither may turn into a failed check.
    case = Thm1(23, 2, 3)
    with pytest.raises(BudgetExhausted, match="^undecided: P23 in "):
        verify_extremal(case, budget=21)
    for budget in (22, 23):
        with pytest.raises(BudgetExhausted, match="^undecided: J2,3 in "):
            verify_extremal(case, budget=budget)
    assert verify_extremal(case, budget=24).ok


def test_extremal_orders():
    assert extremal_graph(Thm1(23, 2, 3)).order == 24
    assert extremal_graph(Thm2EvenM(12, 3, 2)).order == 22
    assert extremal_graph(Thm2OddM(32, 3, 3)).order == 63
    assert extremal_graph(Thm3(2, 23, 2, 3)).order == 47


# --------------------------------------------------------- random hosts


def test_random_hosts_always_yield_verified_witnesses():
    seen = set()
    for i in range(20):
        rng = random.Random(1000 + i)
        g = random_graph(rng, 25, rng.choice((0.08, 0.3, 0.6)))
        w = extract(g, Thm1(23, 2, 3))
        assert verify_witness(g, w)
        seen.add(w.trace.case)
    assert {"path-found", "Thm1-Case1", "Thm1-Case2"} <= seen


def test_random_hosts_odd_rim_step():
    for i in range(10):
        rng = random.Random(2000 + i)
        g = random_graph(rng, 23, rng.choice((0.08, 0.3, 0.6)))
        w = extract(g, Thm2EvenM(12, 3, 2))
        assert verify_witness(g, w)
