import hashlib
import json
import random

import pytest

from ramsey_jahangir import (
    Budget,
    BudgetExhausted,
    DisjointPaths,
    Embedding,
    Jahangir,
    MaximalityViolation,
    Path,
    PreconditionError,
    Thm1,
    Thm2EvenM,
    Thm2OddM,
    Thm3,
    Wheel,
    add_edge,
    build,
    complete,
    disjoint_union,
    empty,
    extract,
    extract_t_paths,
    extract_theorem1,
    extract_theorem2,
    extremal_graph,
    trace_document,
    trace_json,
    verify_extremal,
    verify_witness,
    wheel_to_jahangir,
)
from ramsey_jahangir.witness import build_path_system

from helpers_naive import random_graph


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
    with pytest.raises(PreconditionError):
        build_path_system(empty(6), 4)


# ------------------------------------------------------- even rim step


def test_path_found_short_circuits():
    host = build(Path(25))
    w = extract_theorem1(host, 23, 2, 3)
    assert w.kind == "paths"
    assert w.trace.case == "path-found"
    assert w.trace.k == 23
    assert w.embedding.pattern == Path(23)
    assert verify_witness(host, w)


def test_edgeless_host():
    host = empty(25)
    w = extract_theorem1(host, 23, 2, 3)
    assert w.kind == "jahangir"
    assert w.trace.case == "edgeless-host"
    assert w.trace.selections == {"hub": 6}
    assert w.embedding.mapping == (0, 1, 2, 3, 4, 5, 6)
    assert verify_witness(host, w)


def test_short_path_rim():
    host = triangles_host()
    w = extract_theorem1(host, 23, 2, 3)
    assert w.kind == "jahangir"
    assert w.trace.case == "Thm1-Case1"
    assert w.trace.k == 3
    assert w.trace.paths == ((0, 1, 2), (3, 4, 5))
    assert w.trace.selections == {"x": 6, "y": 7, "z": 8, "hub": 8}
    assert w.embedding.mapping == (0, 6, 3, 7, 2, 5, 8)
    assert verify_witness(host, w)


def test_long_path_rim():
    host = disjoint_union(build(Path(20)), build(Path(5)))
    w = extract_theorem1(host, 23, 2, 3)
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
    w = extract_theorem2(host, 12, 3, 2)
    assert w.kind == "jahangir"
    assert w.trace.case == "Thm2-EvenM"
    assert w.embedding.pattern == Jahangir(3, 2)
    assert list(w.trace.selections) == ["hub"]
    assert verify_witness(host, w)


def test_odd_spokes_short_paths():
    host = _union(empty(1), *([build(Path(7))] * 9))
    assert host.order == 64
    w = extract_theorem2(host, 32, 3, 3)
    assert w.trace.case == "Thm2-OddM-Case1"
    assert w.trace.k == 7
    assert len(w.trace.paths) == 4
    assert sorted(w.trace.selections) == ["hub", "x", "y"]
    assert verify_witness(host, w)


def test_odd_spokes_two_long_paths():
    host = _union(build(Path(30)), build(Path(30)), empty(4))
    w = extract_theorem2(host, 32, 3, 3)
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
    w = extract_theorem2(host, 32, 3, 3)
    assert w.trace.case == "Thm2-OddM-Case3"
    assert w.trace.k == 20
    # the rim construction runs off the long path entirely
    assert all(v >= 20 for p in w.trace.paths for v in p)
    assert all(v >= 20 for v in w.embedding.mapping)
    assert verify_witness(host, w)


def test_wheel_reuse_rejects_mismatch():
    emb = Embedding(Wheel(8), 9, tuple(range(9)))
    with pytest.raises(ValueError):
        wheel_to_jahangir(emb, 3, 2)
    with pytest.raises(ValueError):
        wheel_to_jahangir(Embedding(Path(3), 5, (0, 1, 2)), 3, 2)


# ------------------------------------------------------ several paths


def test_t_paths_found():
    host = _union(complete(23), complete(23), empty(2))
    w = extract_t_paths(host, 2, 23, 2, 3)
    assert w.kind == "paths"
    assert w.embedding.pattern == DisjointPaths(2, 23)
    assert w.trace.case == "Thm3-step2"
    assert w.trace.theorem == "Thm3"
    a, b = w.paths
    assert len(a) == len(b) == 23
    assert not (set(a) & set(b))
    assert verify_witness(host, w)


def test_t_paths_jahangir_in_later_round():
    host = _union(complete(23), *([complete(3)] * 8), empty(1))
    assert host.order == 48
    w = extract_t_paths(host, 2, 23, 2, 3)
    assert w.kind == "jahangir"
    assert w.trace.case == "Thm3-step2"
    assert w.trace.theorem == "Thm3"
    # round one consumed the big clique, so everything lives above it
    assert all(v >= 23 for v in w.embedding.mapping)
    assert verify_witness(host, w)


def test_t_equal_one_is_the_plain_extractor():
    host = triangles_host()
    assert extract_t_paths(host, 1, 23, 2, 3) == extract_theorem1(host, 23, 2, 3)


def test_extract_dispatches_by_theorem():
    host = triangles_host()
    assert extract(host, 1, 23, 2, 3) == extract_theorem1(host, 23, 2, 3)
    assert extract(empty(23), 2, 12, 3, 2) == extract_theorem2(empty(23), 12, 3, 2)
    big = _union(complete(23), *([complete(3)] * 8), empty(1))
    assert extract(big, 3, 23, 2, 3, t=2) == extract_t_paths(big, 2, 23, 2, 3)
    with pytest.raises(ValueError):
        extract(host, 4, 23, 2, 3)


# ------------------------------------------------------ error contract


def test_preconditions():
    host = empty(25)
    with pytest.raises(PreconditionError):
        extract_theorem1(host, 23, 3, 3)  # rim step parity
    with pytest.raises(PreconditionError):
        extract_theorem1(host, 23, 2, 2)  # spoke count too small
    with pytest.raises(PreconditionError):
        extract_theorem1(host, 22, 2, 3)  # below the n threshold
    with pytest.raises(PreconditionError):
        extract_theorem1(empty(24), 23, 2, 3)  # host too small
    with pytest.raises(PreconditionError):
        extract_theorem2(empty(23), 12, 2, 2)  # even rim step
    with pytest.raises(PreconditionError):
        extract_theorem2(empty(23), 11, 3, 2)  # below the n threshold
    with pytest.raises(PreconditionError):
        extract_theorem2(empty(63), 32, 3, 3)  # odd spokes need order 2n
    with pytest.raises(PreconditionError):
        extract_t_paths(empty(25), 0, 23, 2, 3)  # t >= 1


def test_force_still_checks_the_regime_shape():
    # Odd s is outside the even-rim-step regime; its long-path rim assumes
    # even s, so running it anyway must not reach the construction.
    host = disjoint_union(build(Path(20)), empty(5))
    with pytest.raises(PreconditionError):
        extract_theorem1(host, 23, 3, 3, force=True)
    with pytest.raises(PreconditionError):
        extract_theorem2(empty(23), 12, 2, 2, force=True)
    with pytest.raises(PreconditionError):
        extract_t_paths(empty(48), 0, 23, 2, 3, force=True)


def test_force_skips_preconditions_and_may_fail_loudly():
    with pytest.raises(MaximalityViolation) as info:
        extract_theorem1(empty(6), 23, 2, 3, force=True)
    assert info.value.trace is not None
    assert info.value.trace.case == "edgeless-host"


def test_budget_exhaustion():
    with pytest.raises(BudgetExhausted):
        extract_theorem1(triangles_host(), 23, 2, 3, budget=1)


def test_verify_witness_catches_corruption():
    host = triangles_host()
    w = extract_theorem1(host, 23, 2, 3)
    mapping = list(w.embedding.mapping)
    mapping[0], mapping[1] = mapping[1], mapping[0]
    bad = type(w)(w.kind, Embedding(w.embedding.pattern, host.order, tuple(mapping)), w.trace)
    assert not verify_witness(host, bad)


# ------------------------------------------------------------- traces


def test_trace_document_layout():
    host = triangles_host()
    w = extract_theorem1(host, 23, 2, 3)
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
    a = trace_json(host, extract_theorem1(host, 23, 2, 3))
    b = trace_json(host, extract_theorem1(host, 23, 2, 3))
    assert a == b


# Pinned trace_json digests for hosts whose Jahangir is found in an induced
# subgraph and lifted back to the host (Thm2-OddM-Case3, Thm3-step2); the
# hosts cover lifted paths, selections, augmented edges and quadruples.
LIFTED_TRACES = [
    (
        lambda: _union(build(Path(20)), *([build(Path(7))] * 6), empty(2)),
        lambda h: extract_theorem2(h, 32, 3, 3),
        "Thm2-OddM-Case3",
        "e06a3f611ca17beaf2f145705cd537048d091af27feea84a88c36fafb4a684ef",
    ),
    (
        lambda: _union(complete(23), *([complete(3)] * 8), empty(1)),
        lambda h: extract_t_paths(h, 2, 23, 2, 3),
        "Thm3-step2",
        "aecbdf80ae037f3da815b0fa2a92283f2a70883094f1c6c8fc36ea24a30c2fcb",
    ),
    (
        lambda: _union(complete(23), build(Path(20)), empty(5)),
        lambda h: extract_t_paths(h, 2, 23, 2, 3),
        "Thm3-step2",
        "9befbf229a3bd0d87d92f6a4cf4da5bfb6576975ef90ae807e41050b54ea69cc",
    ),
    (
        lambda: _union(complete(23), complete(3), empty(22)),
        lambda h: extract_t_paths(h, 2, 23, 2, 3),
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
    w = extract_t_paths(host, 2, 23, 2, 3)
    assert w.trace.quadruples == ((24, 25, 26, 27), (28, 29, 30, 31))
    host = _union(complete(23), complete(3), empty(22))
    assert extract_t_paths(host, 2, 23, 2, 3).trace.augmented_edges == ((26, 27),)


# ------------------------------------------------- extremal lower bounds


def test_extremal_constructions_all_check_out():
    cases = [
        Thm1(23, 2, 3),
        Thm1(29, 2, 4),
        Thm1(56, 4, 3),
        Thm2EvenM(12, 3, 2),
        Thm2OddM(32, 3, 3),
        Thm3(2, 23, 2, 3),
    ]
    for case in cases:
        report = verify_extremal(case)
        assert report.ok, (case, report.checks)
        assert report.reason is None
        named = dict(report.checks)
        assert named["path-capacity-by-components"]
        assert named["jahangir-vs-multipartite-complement"]


def test_extremal_disjoint_paths_by_search():
    # Order 11 is below the search cap, so the t > 1 path side is searched.
    case = Thm3(2, 5, 2, 3)
    assert extremal_graph(case).order == 11
    report = verify_extremal(case)
    assert report.ok, report.checks
    assert dict(report.checks)["path-absence-by-search"]


def test_extremal_disjoint_paths_fail_fast_on_component_capacity():
    # The components of the extremal graph hold fewer than t blocks of n
    # vertices, so the path search stops before trying any path choice.
    for case in (Thm3(3, 4, 2, 3), Thm3(2, 7, 2, 4)):
        report = verify_extremal(case, budget=Budget(100_000))
        assert report.ok, (case, report.checks)
        assert dict(report.checks)["path-absence-by-search"]


def test_extremal_audit_spots_a_spoiled_graph():
    case = Thm1(23, 2, 3)
    g = extremal_graph(case)
    spoiled = add_edge(g, 0, g.order - 1)  # bridge the two cliques
    report = verify_extremal(case, graph=spoiled)
    assert not report
    failed = {name for name, ok in report.checks if not ok}
    assert "path-capacity-by-components" in failed


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
        w = extract_theorem1(g, 23, 2, 3)
        assert verify_witness(g, w)
        seen.add(w.trace.case)
    assert {"path-found", "Thm1-Case1", "Thm1-Case2"} <= seen


def test_random_hosts_odd_rim_step():
    for i in range(10):
        rng = random.Random(2000 + i)
        g = random_graph(rng, 23, rng.choice((0.08, 0.3, 0.6)))
        w = extract_theorem2(g, 12, 3, 2)
        assert verify_witness(g, w)
