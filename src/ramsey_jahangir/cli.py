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
5 Ramsey scan hit its cap undecided, 141 standard output closed early.

Each subcommand imports the modules it runs when it runs, so a process
loads only its own: ``build`` no search engine, extractor or oracle,
``witness`` no oracle, ``ramsey`` no extractor.  The options are declared
once, in the table ``_COMMANDS``: a plainly spelled line (exact option
strings, each value its own token) is matched against it directly, and
only help, errors and every other spelling load argparse, whose parser is
built from the same table and prints what it always has.  The process
entry point ``entry`` freezes the collector once ``run`` returns, so that
shutdown does not sweep every object alive at exit; ``run`` called in
process leaves the collector as it is.
"""

from __future__ import annotations

import gc
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import chain
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .families import (
    BudgetExhausted,
    MaximalityViolation,
    TheoremCase,
    Thm1,
    Thm2EvenM,
    Thm2OddM,
    build,
    parse_spec,
)
from .graphs import Graph, _graph6_pieces, _indented_json, from_graph6, to_graph6

if TYPE_CHECKING:
    import argparse


def _parser() -> argparse.ArgumentParser:
    """The argparse parser of the command line in ``_COMMANDS``, which reads
    every line ``_plain`` leaves: help, errors and every other spelling."""
    import argparse

    class _SuiteHelp(argparse.HelpFormatter):
        """Help for ``suite``, which lists the suite names: the suite table
        is loaded only when that help is printed."""

        def _get_help_string(self, action: argparse.Action) -> str | None:
            if action.dest != "name":
                return action.help
            from .suites import SUITES

            return f"one of: {', '.join(sorted(SUITES))}"

    parser = argparse.ArgumentParser(
        prog="ramsey-jahangir",
        description="Dichotomy extractors and exhaustive Ramsey oracles"
        " for paths versus generalized Jahangir graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, arguments) in _COMMANDS.items():
        formatter = _SuiteHelp if command == "suite" else argparse.HelpFormatter
        p_command = sub.add_parser(command, help=summary, formatter_class=formatter)
        for name, spec in arguments:
            p_command.add_argument(name, **spec)
    return parser


def _plain(argv: list[str]) -> SimpleNamespace | None:
    """What ``_parser().parse_args(argv)`` returns, if ``argv`` is spelled
    plainly; None for every other line, which argparse reads.

    Plain is the command name, then its positionals and exact option
    strings in any order: each valued option followed by its own value,
    which does not start with ``-`` unless it is ``-``, no option twice,
    every required option given, and every value converting with its
    option's type into its choices.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, _, arguments = _COMMANDS[argv[0]]
    options = {name: spec for name, spec in arguments if name.startswith("-")}
    positionals = [name for name, _ in arguments if name not in options]
    given: dict[str, str | bool] = {}
    tokens = iter(argv[1:])
    unfilled = iter(positionals)
    for token in tokens:
        if token in options:
            if token in given:
                return None
            if options[token].get("action") == "store_true":
                given[token] = True
                continue
            name = token
            token = next(tokens, None)
            if token is None:
                return None
        else:
            name = next(unfilled, None)
            if name is None:
                return None
        if token.startswith("-") and token != "-":
            return None
        given[name] = token
    args = SimpleNamespace(command=argv[0])
    for name, spec in arguments:
        if name in given:
            value = given[name]
            if value is not True:
                try:
                    value = spec.get("type", str)(value)
                except ValueError:
                    return None
                if "choices" in spec and value not in spec["choices"]:
                    return None
        elif name in positionals or spec.get("required"):
            return None
        else:
            value = spec.get("default")
        setattr(args, name.lstrip("-"), value)
    return args


def _emit(pieces: Iterable[str], out: str | None) -> None:
    """Write the concatenated ``pieces`` and a newline to stdout, or to the
    file ``out``.

    Each piece is one write, never joined into the whole document; a piece
    is one case, host, graph6 window or small document, a few tens of
    KB at most.
    """
    pieces = chain(pieces, ["\n"])
    if out is None or out == "-":
        sys.stdout.writelines(pieces)
        sys.stdout.flush()  # a closed pipe raises in a write or here, inside run
    else:
        with open(out, "w", encoding="ascii") as stream:
            stream.writelines(pieces)


def _joined(items: Iterable[str], sep: str) -> Iterator[str]:
    """The pieces of ``sep.join(items)``, without the join."""
    for i, item in enumerate(items):
        if i:
            yield sep
        yield item


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


def _cmd_build(args: argparse.Namespace | SimpleNamespace) -> int:
    spec = parse_spec(args.pattern)
    g = build(spec)
    if args.format == "graph6":
        # Taking the header first raises for an order past the headers
        # before --out is opened.
        pieces = _graph6_pieces(g)
        _emit(chain([next(pieces)], pieces), args.out)
    elif args.format == "json":
        doc = {
            "pattern": spec.text(),
            "order": g.order,
            "graph6": to_graph6(g),
            "edges": [[u, v] for u, v in g.edges()],
        }
        _emit([_indented_json(doc)], args.out)
    else:
        _emit([_human_graph(g, spec.text())], args.out)
    return 0


def _read_codes(source: str) -> list[str]:
    if source == "-":
        text = sys.stdin.read()
    else:
        with open(source, encoding="ascii") as stream:
            text = stream.read()
    codes = [line.strip() for line in text.splitlines()]
    return [code for code in codes if code]


def _regime(args: argparse.Namespace | SimpleNamespace) -> TheoremCase:
    """The regime ``--theorem`` names: 1 and 3 are Thm1, with ``-t`` paths
    (read by 3 only), and 2 is Thm2EvenM or Thm2OddM by the parity of ``m``."""
    if args.theorem != 3 and args.t != 1:
        raise ValueError("-t applies to --theorem 3 only")
    if args.theorem != 2:
        return Thm1(args.n, args.s, args.m, args.t)
    return (Thm2OddM if args.m % 2 else Thm2EvenM)(args.n, args.s, args.m)


def _cmd_witness(args: argparse.Namespace | SimpleNamespace) -> int:
    from .witness import extract, trace_document

    case = _regime(args)
    codes = _read_codes(args.input)
    if not codes:
        raise ValueError(f"no graph6 codes in {args.input!r}")
    # Each host's text is made as soon as its extraction finishes, so that
    # no trace document outlives its host.
    texts = []
    for i, code in enumerate(codes):
        host = from_graph6(code)
        witness = extract(host, case, budget=args.budget, force=args.force)
        doc = trace_document(host, witness)
        if args.format == "human":
            texts.append(_human_trace(doc, index=None if len(codes) == 1 else i))
        else:
            texts.append(_indented_json(doc, "\n" if len(codes) == 1 else None))
    _emit(_joined(texts, "\n"), args.out)
    return 0


def _cmd_ramsey(args: argparse.Namespace | SimpleNamespace) -> int:
    from .oracle import RamseyIndeterminate, certificate_to_json, ramsey

    g_spec = parse_spec(args.g)
    h_spec = parse_spec(args.h)
    try:
        cert = ramsey(g_spec, h_spec, args.cap, budget=args.budget)
    except RamseyIndeterminate as exc:
        last = exc.last
        if args.format == "human":
            _emit(
                [f"R({g_spec.text()}, {h_spec.text()}) >= {exc.cap}"
                 f" (cap {exc.cap} reached; order {last.order}"
                 f" counterexample {last.counterexample})"],
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
            _emit([_indented_json(report)], args.out)
        print(f"error: {exc}", file=sys.stderr)
        return 5
    if args.format == "human":
        _emit(
            [f"R({g_spec.text()}, {h_spec.text()}) = {cert.value}"
             f" (checked {cert.upper.checked} classes at order {cert.upper.order};"
             f" lower witness {cert.lower_witness})"],
            args.out,
        )
    else:
        _emit([certificate_to_json(cert)], args.out)
    return 0


# A string no suite document holds: it stands in for the cases when the
# writer lays out the document's head, case separator and tail.
_MARK = "\0"


def _cmd_suite(args: argparse.Namespace | SimpleNamespace) -> int:
    """Print the document ``run_suite`` returns, encoding each case as it
    finishes and keeping its text, never its record.  Nothing is written
    until every case has succeeded."""
    from .suites import _case_records

    human = args.format == "human"
    texts = []
    ok = True
    for case in _case_records(args.name, args.seed, args.count, args.budget):
        if not case["verified"]:
            ok = False
        if human:
            texts.append(
                f"  {case['index']}: {case['case']}"
                f" {case['witness']['pattern']}"
                f" {'ok' if case['verified'] else 'FAILED'}"
            )
        else:
            # the indentation a case has as an item of "cases"
            texts.append(_indented_json(case, "\n    "))
    if human:
        title = (
            f"suite {args.name} seed {args.seed} count {args.count}:"
            f" {'all verified' if ok else 'FAILURES'}"
        )
        _emit(_joined(chain([title], texts), "\n"), args.out)
    else:
        frame = {
            "suite": args.name,
            "seed": args.seed,
            "count": args.count,
            "ok": ok,
            "cases": [_MARK, _MARK],
        }
        head, sep, tail = _indented_json(frame).split(_indented_json(_MARK))
        _emit(chain([head], _joined(texts, sep), [tail]), args.out)
    return 0


# The one declaration of the command line: each subcommand's handler, its
# help line, and its arguments as the name and keywords of argparse's
# add_argument, in the order the help lists them.
_COMMANDS = {
    "build": (_cmd_build, "construct a pattern graph", (
        ("pattern", {"help": "pattern spec, e.g. P23, C6, W6, J2,3, 2P23, K5, K3+K1"}),
        ("--format", {"choices": ("json", "graph6", "human"), "default": "graph6"}),
        ("--out", {"metavar": "FILE"}),
    )),
    "witness": (_cmd_witness, "run a dichotomy extraction on host graphs", (
        ("input", {"help": "file of graph6 codes, one per line, or - for stdin"}),
        ("--theorem", {"type": int, "choices": (1, 2, 3), "required": True}),
        ("-n", {"type": int, "required": True, "help": "target path order"}),
        ("-s", {"type": int, "required": True, "help": "rim step"}),
        ("-m", {"type": int, "required": True, "help": "spoke count"}),
        ("-t", {"type": int, "default": 1, "help": "number of disjoint paths (theorem 3)"}),
        ("--budget", {"type": int}),
        ("--force", {"action": "store_true", "default": False,
                     "help": "skip the n-threshold and host-order checks"}),
        ("--format", {"choices": ("json", "human"), "default": "json"}),
        ("--out", {"metavar": "FILE"}),
    )),
    "ramsey": (_cmd_ramsey, "certified small Ramsey value", (
        ("g", {"help": "pattern found in the host side"}),
        ("h", {"help": "pattern found in the complement side"}),
        ("--cap", {"type": int, "required": True, "help": "exclusive scan bound"}),
        ("--budget", {"type": int}),
        ("--format", {"choices": ("json", "human"), "default": "json"}),
        ("--out", {"metavar": "FILE"}),
    )),
    "suite": (_cmd_suite, "run a seeded extraction suite", (
        ("name", {"help": "the suite to run"}),
        ("--seed", {"type": int, "default": 0}),
        ("--count", {"type": int, "default": 10}),
        ("--budget", {"type": int}),
        ("--format", {"choices": ("json", "human"), "default": "json"}),
        ("--out", {"metavar": "FILE"}),
    )),
}


def run(argv: list[str] | None = None) -> int:
    """Parse arguments (``sys.argv[1:]`` if None) and execute; returns the
    process exit code.

    A plainly spelled line is matched against ``_COMMANDS`` directly and
    loads no argparse; help, errors and every other spelling go through
    the argparse parser, with its output and exit codes.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _plain(argv)
    if args is None:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            code = exc.code
            return code if isinstance(code, int) else 2
    try:
        return _COMMANDS[args.command][0](args)
    except MaximalityViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except BrokenPipeError:  # 128 + SIGPIPE; the last flush goes to the null device
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:  # pragma: no cover - thin shim
    code = run(sys.argv[1:])
    # Shutdown still runs atexit handlers, flushes the streams and tears
    # down the modules, but its collections skip every object frozen here:
    # sweeping them all took 8-10 ms of a short run, and the memory they
    # hold goes back to the system with the process.
    gc.freeze()
    sys.exit(code)
