"""The benchmark workloads: each is a list of CLI invocations built from a seed.

An invocation's ``params`` drive both its command line and the output
checker, so the two cannot drift apart.  Why each workload exists is
recorded in README.md next to this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import hosts as H


@dataclass(frozen=True)
class Invocation:
    """One ``ramsey-jahangir`` command as a user would type it.

    ``command`` is ``ramsey``, ``suite`` or ``witness``; a witness
    invocation reads ``hosts`` (graph6 codes) from a file, or from standard
    input when ``via_stdin`` is set.
    """

    label: str
    command: str
    params: dict
    hosts: tuple[str, ...] = ()
    via_stdin: bool = False

    @property
    def items(self) -> int:
        """Certified values, suite cases or hosts this invocation answers for."""
        if self.command == "witness":
            return len(self.hosts)
        return self.params["count"] if self.command == "suite" else 1

    def argv(self, host_file: str | None) -> list[str]:
        p = self.params
        if self.command == "ramsey":
            return ["ramsey", p["g"], p["h"], "--cap", str(p["cap"])]
        if self.command == "suite":
            return ["suite", p["name"], "--seed", str(p["seed"]), "--count", str(p["count"])]
        out = ["witness", "-" if self.via_stdin else host_file,
               "--theorem", str(p["theorem"]), "-n", str(p["n"]),
               "-s", str(p["s"]), "-m", str(p["m"])]
        if p.get("t", 1) != 1:
            out += ["-t", str(p["t"])]
        if "budget" in p:
            out += ["--budget", str(p["budget"])]
        return out

    def host_text(self) -> str:
        return "".join(code + "\n" for code in self.hosts)


def _ramsey_scan(seed: int) -> list[Invocation]:
    # The criterion-1 anchors.  The inputs are fixed, so the seed only
    # orders the three scans.
    scans = [
        Invocation("R-P4-J2,2", "ramsey", {"g": "P4", "h": "J2,2", "cap": 8}),
        Invocation("R-P5-J2,2", "ramsey", {"g": "P5", "h": "J2,2", "cap": 8}),
        Invocation("R-P6-J2,2", "ramsey", {"g": "P6", "h": "J2,2", "cap": 9}),
    ]
    random.Random(f"{seed}/ramsey-scan").shuffle(scans)
    return scans


# Counts are fixed so that every suite contributes a few hundred cases.
SUITE_COUNTS = {
    "thm1-s2m3": 600,
    "thm2-s3m2": 600,
    "thm2-s3m3": 300,
    "thm3-t2s2m3": 400,
    "thm3-t2s2m3-paths": 300,
}


def _suite_replay(seed: int) -> list[Invocation]:
    return [
        Invocation(f"suite-{name}", "suite", {"name": name, "seed": seed, "count": count})
        for name, count in SUITE_COUNTS.items()
    ]


def _codes(seed: int, label: str, count: int, make) -> tuple[str, ...]:
    out = []
    for i in range(count):
        adj = make(random.Random(f"{seed}/{label}/{i}"))
        out.append(H.encode_graph6(len(adj), adj))
    return tuple(out)


def _witness_hosts(seed: int) -> list[Invocation]:
    thm1 = {"theorem": 1, "n": 23, "s": 2, "m": 3}
    oddm = {"theorem": 2, "n": 32, "s": 3, "m": 3}
    # Each file targets one branch the suites almost never reach.  Orders
    # sit just above each regime's hypothesis (order >= n + sm/2 - 1 for
    # the even rim step, >= 2n for odd spoke counts); components stay below
    # the case threshold on the longest path (2sm - 1 for Thm1-Case1,
    # sm - 2 for the odd-m short-path cases).
    return [
        Invocation("Thm1-Case1-s2m3", "witness", thm1, _codes(
            seed, "t1m3", 10, lambda r: H.sparse_host(r, r.randint(25, 32), 6, 11, 4))),
        Invocation("Thm1-Case1-s2m4", "witness", {"theorem": 1, "n": 46, "s": 2, "m": 4}, _codes(
            seed, "t1m4", 10, lambda r: H.sparse_host(r, r.randint(49, 56), 9, 15, 6))),
        Invocation("Thm1-Case1-s2m5", "witness", {"theorem": 1, "n": 77, "s": 2, "m": 5}, _codes(
            seed, "t1m5", 12,
            lambda r: H.wide_tree_host(r, r.randint(81, 88), 12, 19, 8, 30, 4))),
        Invocation("Thm2-OddM-Case1", "witness", oddm, _codes(
            seed, "oddm1", 10, lambda r: H.sparse_host(r, r.randint(64, 70), 3, 7, 2))),
        Invocation("Thm2-OddM-Case3", "witness", oddm, _codes(
            seed, "oddm3", 10,
            lambda r: H.caterpillar_host(r, r.randint(64, 70), r.randint(10, 24), 6, 3, 7))),
        Invocation("Thm3-step2-jahangir", "witness", {**thm1, "theorem": 3, "t": 2}, _codes(
            seed, "thm3", 10,
            lambda r: H.clique_beside_sparse(r, 23, r.randint(48, 55), 6, 11, 4))),
        Invocation("edgeless-host", "witness", thm1, _codes(
            seed, "edgeless", 6, lambda r: [set() for _ in range(r.randint(25, 40))])),
        # The longest-path stall: K_{10,30} holds no P23 (its longest path
        # has 21 vertices), but the engine cannot show that within budget.
        Invocation("K10,30", "witness", {**thm1, "budget": 1_000_000}, _codes(
            seed, "k1030", 1, lambda r: H.complete_bipartite(r, 10, 30))),
    ]


def _witness_large(seed: int) -> list[Invocation]:
    # Target orders stay well below the interpreter's default recursion
    # limit, except the P1200 repro, which exceeds it today.
    large = [
        Invocation(f"long-path-{order}", "witness",
                   {"theorem": 1, "n": order * 3 // 4, "s": 2, "m": 3},
                   _codes(seed, f"long{order}", 1,
                          lambda r, o=order: H.monotone_path_host(r, o, o - o // 8, 2, 5)))
        for order in (400, 600, 800)
    ]
    repro = H.labelled_path(1200)
    large.append(Invocation(
        "P1200-repro", "witness", {"theorem": 1, "n": 1100, "s": 2, "m": 3},
        (H.encode_graph6(1200, repro),), via_stdin=True))
    return large


WORKLOADS = {
    "ramsey-scan": _ramsey_scan,
    "suite-replay": _suite_replay,
    "witness-hosts": _witness_hosts,
    "witness-large": _witness_large,
}
