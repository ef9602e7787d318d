import hashlib
import json

import pytest

from ramsey_jahangir import (
    SUITES,
    Budget,
    SuiteSpec,
    Thm1,
    component_masks,
    from_graph6,
    generate_case,
    run_suite,
    splitmix64,
)
from ramsey_jahangir.graphs import iter_bits
from ramsey_jahangir.suites import case_seed

from helpers_naive import generate_case_reference


def test_splitmix64_reference_values():
    # classic test vector: the first outputs of the stream seeded at 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert case_seed(0, 0) == 0xE220A8397B1DCDAF
    assert case_seed(0, 1) == 0x6E789E6AA1B965F4
    assert case_seed(7, 3) != case_seed(3, 7)


def test_suite_catalogue():
    assert set(SUITES) == {
        "thm1-s2m3",
        "thm2-s3m2",
        "thm2-s3m3",
        "thm3-t2s2m3",
        "thm3-t2s2m3-paths",
    }
    assert SUITES["thm1-s2m3"].order == 25
    assert SUITES["thm2-s3m2"].order == 23
    assert SUITES["thm2-s3m3"].order == 64
    assert SUITES["thm3-t2s2m3"].order == 48


def test_unknown_suite_kind_is_refused():
    spec = SuiteSpec("odd", "ring", Thm1(23, 2, 3), 25)
    with pytest.raises(ValueError, match="^unknown suite kind 'ring'$"):
        generate_case(spec, 0, 0)


def test_generated_blocks_respect_the_caps():
    for name in ("thm1-s2m3", "thm2-s3m2", "thm2-s3m3", "thm3-t2s2m3"):
        spec = SUITES[name]
        for index in range(4):
            g = generate_case(spec, seed=11, index=index)
            assert g.order == spec.order
            cap = min(20, spec.case.n - 1)
            assert all(c.bit_count() <= cap for c in component_masks(g))


def test_clique_paths_recipe_shape():
    spec = SUITES["thm3-t2s2m3-paths"]
    g = generate_case(spec, seed=5, index=0)
    assert g.order == 48
    sizes = sorted(c.bit_count() for c in component_masks(g))
    assert sizes == [1, 1, 23, 23]
    big = max(component_masks(g), key=int.bit_count)
    sub = set(iter_bits(big))
    assert all(g.has_edge(u, v) for u in sub for v in sub if u < v)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_hosts_match_the_edge_list_reference(name):
    # The rows are assembled from the same draws the frozen recipes make
    # through an edge list; the extreme seeds exercise the 64-bit wrap.
    spec = SUITES[name]
    for seed in (0, 1, (1 << 64) - 1):
        for index in range(100):
            assert generate_case(spec, seed, index) == generate_case_reference(spec, seed, index)


def test_same_seed_same_bytes():
    a = run_suite("thm2-s3m2", seed=42, count=4)
    b = run_suite("thm2-s3m2", seed=42, count=4)
    assert json.dumps(a) == json.dumps(b)
    assert a["ok"] is True
    assert a["suite"] == "thm2-s3m2" and a["seed"] == 42 and a["count"] == 4


def test_case_stream_is_a_prefix():
    long = run_suite("thm1-s2m3", seed=9, count=8)
    short = run_suite("thm1-s2m3", seed=9, count=3)
    assert long["cases"][:3] == short["cases"]


def test_run_suite_records_verified_traces():
    out = run_suite("thm1-s2m3", seed=1, count=5)
    for i, case in enumerate(out["cases"]):
        assert case["index"] == i
        assert from_graph6(case["graph6"]).order == 25
        assert case["verified"] is True
        assert case["theorem"] == "Thm1"
        assert case["witness"]["pattern"] == "J2,3"


def test_paths_suite_lands_on_the_path_side():
    out = run_suite("thm3-t2s2m3-paths", seed=3, count=2)
    for case in out["cases"]:
        assert case["witness"]["pattern"] == "2P23"
        assert case["theorem"] == "Thm3"


def test_bad_arguments():
    with pytest.raises(ValueError):
        run_suite("no-such-suite", seed=0, count=1)
    with pytest.raises(ValueError):
        run_suite("thm1-s2m3", seed=0, count=0)


def test_seed_must_fit_64_bits():
    # The case stream works modulo 2^64, so -1 and 2^64 would replay the
    # cases of 2^64 - 1 and 0 while recording a different seed.
    for seed in (-1, 1 << 64, -(1 << 70)):
        with pytest.raises(ValueError, match=f"seed {seed} outside"):
            run_suite("thm1-s2m3", seed=seed, count=1)
    for seed in (0, (1 << 64) - 1):
        assert run_suite("thm1-s2m3", seed=seed, count=1)["seed"] == seed


# sha256 of json.dumps(run_suite(name, 0, 40), indent=2), recorded before
# the residual searches moved from induced subgraphs to vertex masks; any
# change to a suite's bytes, even a consistent one, shows up here.
SUITE_DIGESTS = {
    "thm1-s2m3": "bf9119f0ac5c7a529fdc06a93cd101b6d9cbcce654052ec485d492a9e8a93e4a",
    "thm2-s3m2": "7ee09399f16d85a1251b4a479604e2c2fcc2e83117abf0eeb84a9db14f290528",
    "thm2-s3m3": "5993011c552e8e00889ffbc48e7c021ebb11fe350690e21e9acb4dddfc45e95d",
    "thm3-t2s2m3": "c5fd4ca0ab3f4c54d1d21cfc0aec7ec80e60ead092b919418fe03b111b819fe8",
    "thm3-t2s2m3-paths": "9b6c070177a5c6106209697ec3240619d5039b39ac2d18a90fa0dc10b6f8f955",
}


@pytest.mark.parametrize("name", sorted(SUITE_DIGESTS))
def test_suite_bytes_are_pinned(name):
    text = json.dumps(run_suite(name, 0, 40), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == SUITE_DIGESTS[name]


# Search nodes that run_suite(name, 0, 40) spends in all, through one
# shared budget.  The stop-free path search visits components largest
# first and skips any that cannot beat or tie the best path; in least-vertex
# order it spent 1,434, 1,811, 4,162, 2,492 and 1,840 (11,739 in all).
SUITE_NODES = {
    "thm1-s2m3": 1_022,
    "thm2-s3m2": 1_346,
    "thm2-s3m3": 2_210,
    "thm3-t2s2m3": 1_651,
    "thm3-t2s2m3-paths": 1_840,
}


@pytest.mark.parametrize("name", sorted(SUITE_NODES))
def test_suite_search_work_is_pinned(name):
    budget = Budget(10**9)
    run_suite(name, 0, 40, budget=budget)
    assert 10**9 - budget.remaining == SUITE_NODES[name]
