"""Command-line front end.

Four subcommands::

    ramsey-jahangir build J2,3                 # emit a pattern graph
    ramsey-jahangir witness HOSTS --theorem 1 -n 23 -s 2 -m 3
    ramsey-jahangir ramsey P4 J2,2 --cap 8     # certified small Ramsey value
    ramsey-jahangir suite thm1-s2m3 --seed 7 --count 500

``witness`` reads one graph6 code per line from a file (or ``-`` for
stdin); a single input graph prints an indented trace document, several
print one compact JSON line each.  Exit codes: 0 success, 2 bad usage or
failed precondition, 3 maximality violation, 4 search budget exhausted,
5 Ramsey scan hit its cap undecided.

Each subcommand imports the modules it runs when it runs, so a process
loads only its own: ``build`` neither the extractor nor the oracle,
``witness`` no oracle, ``ramsey`` no extractor.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .embedding import BudgetExhausted
from .families import (
    MaximalityViolation,
    TheoremCase,
    Thm1,
    Thm2EvenM,
    Thm2OddM,
    Thm3,
    build,
    parse_spec,
)
from .graphs import Graph, from_graph6, to_graph6


class _SuiteHelp(argparse.HelpFormatter):
    """Help for ``suite``, which lists the suite names: the suite table is
    loaded only when that help is printed."""

    def _get_help_string(self, action: argparse.Action) -> str | None:
        if action.dest != "name":
            return action.help
        from .suites import SUITES

        return f"one of: {', '.join(sorted(SUITES))}"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramsey-jahangir",
        description="Dichotomy extractors and exhaustive Ramsey oracles"
        " for paths versus generalized Jahangir graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a pattern graph")
    p_build.add_argument("pattern", help="pattern spec, e.g. P23, C6, W6, J2,3, 2P23, K5, K3+K1")
    p_build.add_argument("--format", choices=("json", "graph6", "human"), default="graph6")
    p_build.add_argument("--out", metavar="FILE", default=None)

    p_wit = sub.add_parser("witness", help="run a dichotomy extraction on host graphs")
    p_wit.add_argument("input", help="file of graph6 codes, one per line, or - for stdin")
    p_wit.add_argument("--theorem", type=int, choices=(1, 2, 3), required=True)
    p_wit.add_argument("-n", type=int, required=True, help="target path order")
    p_wit.add_argument("-s", type=int, required=True, help="rim step")
    p_wit.add_argument("-m", type=int, required=True, help="spoke count")
    p_wit.add_argument("-t", type=int, default=1, help="number of disjoint paths (theorem 3)")
    p_wit.add_argument("--budget", type=int, default=None)
    p_wit.add_argument(
        "--force", action="store_true", help="skip the n-threshold and host-order checks"
    )
    p_wit.add_argument("--format", choices=("json", "human"), default="json")
    p_wit.add_argument("--out", metavar="FILE", default=None)

    p_ram = sub.add_parser("ramsey", help="certified small Ramsey value")
    p_ram.add_argument("g", help="pattern found in the host side")
    p_ram.add_argument("h", help="pattern found in the complement side")
    p_ram.add_argument("--cap", type=int, required=True, help="exclusive scan bound")
    p_ram.add_argument("--budget", type=int, default=None)
    p_ram.add_argument("--format", choices=("json", "human"), default="json")
    p_ram.add_argument("--out", metavar="FILE", default=None)

    p_suite = sub.add_parser(
        "suite", help="run a seeded extraction suite", formatter_class=_SuiteHelp
    )
    p_suite.add_argument("name", help="the suite to run")
    p_suite.add_argument("--seed", type=int, default=0)
    p_suite.add_argument("--count", type=int, default=10)
    p_suite.add_argument("--budget", type=int, default=None)
    p_suite.add_argument("--format", choices=("json", "human"), default="json")
    p_suite.add_argument("--out", metavar="FILE", default=None)
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        print(text)
    else:
        Path(out).write_text(text + "\n", encoding="ascii")


def _human_graph(g: Graph, title: str) -> str:
    lines = [f"{title}: order {g.order}, {g.edge_count()} edges"]
    for v in range(g.order):
        lines.append(f"  {v}: " + " ".join(str(u) for u in g.neighbors(v)))
    return "\n".join(lines)


def _human_trace(doc: dict, index: int | None = None) -> str:
    where = (
        "in the host's complement"
        if doc["witness"]["pattern"].startswith("J")
        else "in the host"
    )
    head = "" if index is None else f"graph {index}: "
    lines = [
        f"{head}{doc['theorem']} {doc['case']} (longest path found: {doc['k']})",
        f"  witness: {doc['witness']['pattern']} {where}, map "
        + " ".join(str(v) for v in doc["witness"]["map"]),
        f"  verified: {'yes' if doc['verified'] else 'NO'}",
    ]
    if doc["augmented_edges"]:
        pairs = " ".join(f"{u}-{v}" for u, v in doc["augmented_edges"])
        lines.append(f"  augmented edges: {pairs}")
    return "\n".join(lines)


def _cmd_build(args: argparse.Namespace) -> int:
    spec = parse_spec(args.pattern)
    g = build(spec)
    if args.format == "graph6":
        _emit(to_graph6(g), args.out)
    elif args.format == "json":
        doc = {
            "pattern": spec.text(),
            "order": g.order,
            "graph6": to_graph6(g),
            "edges": [[u, v] for u, v in g.edges()],
        }
        _emit(json.dumps(doc, indent=2), args.out)
    else:
        _emit(_human_graph(g, spec.text()), args.out)
    return 0


def _read_codes(source: str) -> list[str]:
    text = sys.stdin.read() if source == "-" else Path(source).read_text(encoding="ascii")
    codes = [line.strip() for line in text.splitlines()]
    return [code for code in codes if code]


def _regime(args: argparse.Namespace) -> TheoremCase:
    """The regime ``--theorem`` names: 1 is Thm1, 2 is Thm2EvenM or Thm2OddM
    by the parity of ``m``, 3 is Thm3 (the only one that reads ``-t``)."""
    if args.theorem == 3:
        return Thm3(args.t, args.n, args.s, args.m)
    if args.t != 1:
        raise ValueError("-t applies to --theorem 3 only")
    if args.theorem == 1:
        return Thm1(args.n, args.s, args.m)
    return (Thm2OddM if args.m % 2 else Thm2EvenM)(args.n, args.s, args.m)


def _cmd_witness(args: argparse.Namespace) -> int:
    from .witness import extract, trace_document

    case = _regime(args)
    codes = _read_codes(args.input)
    if not codes:
        raise ValueError(f"no graph6 codes in {args.input!r}")
    docs = []
    for code in codes:
        host = from_graph6(code)
        witness = extract(host, case, budget=args.budget, force=args.force)
        docs.append(trace_document(host, witness))
    if args.format == "human":
        blocks = [
            _human_trace(doc, index=None if len(docs) == 1 else i)
            for i, doc in enumerate(docs)
        ]
        _emit("\n".join(blocks), args.out)
    elif len(docs) == 1:
        _emit(json.dumps(docs[0], indent=2), args.out)
    else:
        _emit("\n".join(json.dumps(doc) for doc in docs), args.out)
    return 0


def _cmd_ramsey(args: argparse.Namespace) -> int:
    from .oracle import RamseyIndeterminate, certificate_to_json, ramsey

    g_spec = parse_spec(args.g)
    h_spec = parse_spec(args.h)
    try:
        cert = ramsey(g_spec, h_spec, args.cap, budget=args.budget)
    except RamseyIndeterminate as exc:
        last = exc.last
        if args.format == "human":
            _emit(
                f"R({g_spec.text()}, {h_spec.text()}) >= {exc.cap}"
                f" (cap {exc.cap} reached; order {last.order}"
                f" counterexample {last.counterexample})",
                args.out,
            )
        else:
            report = {
                "g": g_spec.text(),
                "h": h_spec.text(),
                "cap": exc.cap,
                "value": None,
                "last_order": last.order,
                "last_counterexample": last.counterexample,
            }
            _emit(json.dumps(report, indent=2), args.out)
        print(f"error: {exc}", file=sys.stderr)
        return 5
    if args.format == "human":
        _emit(
            f"R({g_spec.text()}, {h_spec.text()}) = {cert.value}"
            f" (checked {cert.upper.checked} classes at order {cert.upper.order};"
            f" lower witness {cert.lower_witness})",
            args.out,
        )
    else:
        _emit(certificate_to_json(cert), args.out)
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    from .suites import run_suite

    doc = run_suite(args.name, args.seed, args.count, budget=args.budget)
    if args.format == "human":
        lines = [
            f"suite {doc['suite']} seed {doc['seed']} count {doc['count']}:"
            f" {'all verified' if doc['ok'] else 'FAILURES'}"
        ]
        for case in doc["cases"]:
            lines.append(
                f"  {case['index']}: {case['case']}"
                f" {case['witness']['pattern']}"
                f" {'ok' if case['verified'] else 'FAILED'}"
            )
        _emit("\n".join(lines), args.out)
    else:
        _emit(json.dumps(doc, indent=2), args.out)
    return 0


_COMMANDS = {
    "build": _cmd_build,
    "witness": _cmd_witness,
    "ramsey": _cmd_ramsey,
    "suite": _cmd_suite,
}


def run(argv: list[str] | None = None) -> int:
    """Parse arguments and execute; returns the process exit code."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MaximalityViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:  # pragma: no cover - thin shim
    sys.exit(run(sys.argv[1:]))
