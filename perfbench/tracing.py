"""Traced in-process runs: spans and work counts around each layer's calls.

The program is not edited.  For the length of a traced pass, each function
in ``LAYERS`` is replaced by a recording wrapper in every module of the
package that binds it, which is where its callers look it up (``oracle``
calls ``relabel`` through ``oracle.relabel``, for instance).  A wrapper
records a span (name, start, end, parent) and, from the arguments and the
result, the work counts below; ``Graph.validate`` is wrapped on the class.
Interpreter settings such as the recursion limit are left alone, so a
traced pass fails exactly where the command line does.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import inspect
import io
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

# Metric prefix -> (module of ramsey_jahangir, attribute names).  Spans
# whose prefix is not reported as a metric (oracle.ramsey, suites.run_suite)
# still count as children, so that cli.self_s is the front end's own time.
LAYERS = {
    "oracle.ramsey": ("oracle", ("ramsey",)),
    "oracle.arrows": ("oracle", ("arrows",)),
    "oracle.enumerate_graphs": ("oracle", ("enumerate_graphs",)),
    "oracle.canonical_graph": ("oracle", ("canonical_graph",)),
    "oracle._refine": ("oracle", ("_refine",)),
    "graphs.relabel": ("graphs", ("relabel",)),
    "graphs.to_graph6": ("graphs", ("to_graph6",)),
    "graphs.from_graph6": ("graphs", ("from_graph6",)),
    "graphs.validate": ("graphs", ("Graph.validate",)),
    "graphs.induced": ("graphs", ("induced",)),
    "graphs.components": ("graphs", ("components",)),
    "families.build": ("families", ("build",)),
    "embedding.find_subgraph": ("embedding", ("find_subgraph",)),
    "embedding.longest_path": ("embedding", ("longest_path",)),
    "embedding.find_path_at_least": ("embedding", ("find_path_at_least",)),
    "witness.extract": ("witness", ("extract_theorem1", "extract_theorem2", "extract_t_paths")),
    "witness.build_path_system": ("witness", ("build_path_system",)),
    "witness.verify_witness": ("witness", ("verify_witness",)),
    "witness.trace_document": ("witness", ("trace_document",)),
    "suites.run_suite": ("suites", ("run_suite",)),
    "suites.generate_case": ("suites", ("generate_case",)),
}

# Trace cases the extractors name today; a witness.case metric each.
CASE_NAMES = (
    "path-found", "edgeless-host", "Thm1-Case1", "Thm1-Case2", "Thm2-EvenM",
    "Thm2-OddM-Case1", "Thm2-OddM-Case2", "Thm2-OddM-Case3", "Thm3-step1", "Thm3-step2",
)

# Spans whose inclusive time is reported too: the layer each workload is
# predicted to spend most of its time in, children included.
TOTALS = ("oracle.canonical_graph", "embedding.longest_path", "graphs.from_graph6")

# Modules of the package; layer.<module>.self_s sums their spans' self time.
MODULES = ("graphs", "families", "embedding", "oracle", "witness", "suites")

# (metric, unit, better) for every per-layer metric, in report order.
PER_LAYER = (
    [(f"oracle.canonical_graph.{k}", u, "lower") for k, u in
     (("calls", "count"), ("self_s", "s"), ("nodes", "count"), ("leaves", "count"))]
    + [(f"{p}.{k}", u, "lower") for p in ("oracle._refine", "graphs.relabel", "graphs.to_graph6")
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("oracle.enumerate_graphs.calls", "count", "lower"),
       ("oracle.enumerate_graphs.self_s", "s", "lower"),
       ("oracle.enumerate_graphs.levels_built", "count", "lower"),
       ("oracle.enumerate_graphs.class_share", "ratio", "higher"),
       ("oracle.arrows.self_s", "s", "lower"),
       ("oracle.arrows.classes_checked", "count", "lower"),
       ("embedding.find_subgraph.calls", "count", "lower"),
       ("embedding.find_subgraph.self_s", "s", "lower"),
       ("embedding.find_subgraph.nodes", "count", "lower"),
       ("embedding.find_subgraph.present_share", "ratio", "higher"),
       ("embedding.find_subgraph.unknown", "count", "lower"),
       ("embedding.longest_path.calls", "count", "lower"),
       ("embedding.longest_path.self_s", "s", "lower"),
       ("embedding.longest_path.nodes", "count", "lower"),
       ("embedding.find_path_at_least.calls", "count", "lower"),
       ("embedding.find_path_at_least.self_s", "s", "lower"),
       ("embedding.find_path_at_least.nodes", "count", "lower"),
       ("embedding.find_path_at_least.hit_share", "ratio", "higher"),
       ("graphs.from_graph6.calls", "count", "lower"),
       ("graphs.from_graph6.self_s", "s", "lower"),
       ("graphs.from_graph6.pairs", "count", "lower"),
       ("graphs.validate.self_s", "s", "lower"),
       ("graphs.induced.self_s", "s", "lower"),
       ("graphs.components.self_s", "s", "lower"),
       ("families.build.calls", "count", "lower"),
       ("families.build.self_s", "s", "lower"),
       ("witness.extract.calls", "count", "lower"),
       ("witness.extract.self_s", "s", "lower"),
       ("witness.build_path_system.calls", "count", "lower"),
       ("witness.build_path_system.self_s", "s", "lower"),
       ("witness.verify_witness.self_s", "s", "lower"),
       ("witness.trace_document.self_s", "s", "lower")]
    + [(f"{name}.total_s", "s", "lower") for name in TOTALS]
    + [(f"layer.{module}.self_s", "s", "lower") for module in MODULES]
    + [(f"witness.case.{case}", "count", "higher") for case in CASE_NAMES]
    + [("witness.kind.paths", "count", "higher"),
       ("witness.kind.jahangir", "count", "higher"),
       ("suites.generate_case.calls", "count", "lower"),
       ("suites.generate_case.self_s", "s", "lower"),
       ("cli.self_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower")]
)


def _on_result(name: str, counts: Counter, args: tuple, result) -> None:
    """Work counts read off a call's arguments and result."""
    if name == "oracle.enumerate_graphs":
        counts[name + ".levels_built"] += args[0]
        counts[name + ".classes"] += len(result)
    elif name == "oracle.arrows":
        counts[name + ".classes_checked"] += result.checked
    elif name == "embedding.find_subgraph":
        counts[f"{name}.{result.status}"] += 1
    elif name == "embedding.find_path_at_least":
        counts[name + ".hits"] += result is not None
    elif name == "graphs.from_graph6":
        counts[name + ".pairs"] += result.order * (result.order - 1) // 2
    elif name == "witness.trace_document":
        counts[f"witness.case.{result['case']}"] += 1
        kind = "jahangir" if result["witness"]["pattern"].startswith("J") else "paths"
        counts[f"witness.kind.{kind}"] += 1


class Tracer:
    """Spans of one traced pass, kept in memory, plus per-name aggregates."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.under: Counter = Counter()  # (parent name, name) -> calls
        self.absent: list[str] = []
        self._open: list[list] = []  # [span id, name, start, child time]

    def enter(self, name: str) -> None:
        sid = len(self.starts)
        parent = self._open[-1] if self._open else None
        self.names.append(name)
        self.parents.append(parent[0] if parent else -1)
        if parent:
            self.under[(parent[1], name)] += 1
        frame = [sid, name, 0.0, 0.0]
        self._open.append(frame)
        frame[2] = start = time.perf_counter()
        self.starts.append(start)
        self.ends.append(start)

    def leave(self) -> None:
        end = time.perf_counter()
        sid, name, start, child = self._open.pop()
        self.ends[sid] = end
        self.calls[name] += 1
        self.self_s[name] += end - start - child
        self.total_s[name] += end - start
        if self._open:
            self._open[-1][3] += end - start

    def wrap(self, name: str, fn):
        """``fn`` recording a span named ``name`` and its budget nodes."""
        try:
            budget_at = list(inspect.signature(fn).parameters).index("budget")
        except ValueError:
            budget_at = None
        Budget = sys.modules["ramsey_jahangir.embedding"].Budget
        counts = self.counts

        def traced(*args, **kwargs):
            bud = kwargs.get("budget")
            if bud is None and budget_at is not None and len(args) > budget_at:
                bud = args[budget_at]
            before = bud.remaining if isinstance(bud, Budget) else None
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave()
                if before is not None:
                    counts[name + ".nodes"] += before - bud.remaining
            _on_result(name, counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every layer function for its wrapper; restore on exit."""
        package = [m for k, m in sys.modules.items() if k.split(".")[0] == "ramsey_jahangir"]
        patches = []
        try:
            for name, (module, attrs) in LAYERS.items():
                for attr in attrs:
                    host = sys.modules.get(f"ramsey_jahangir.{module}")
                    owner, _, leaf = attr.rpartition(".")
                    if owner:
                        host = getattr(host, owner, None)
                    fn = getattr(host, leaf, None)
                    if fn is None:
                        self.absent.append(f"{module}.{attr}")
                        continue
                    wrapper = self.wrap(name, fn)
                    targets = [host] if owner else [m for m in package if getattr(m, leaf, None) is fn]
                    for target in targets:
                        patches.append((target, leaf, fn))
                        setattr(target, leaf, wrapper)
            yield
        finally:
            for target, leaf, fn in reversed(patches):
                setattr(target, leaf, fn)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric but trace.overhead_s; a layer that was
        never called reads 0."""
        c, calls, under = self.counts, self.calls, self.under

        def share(num, den):
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for name in LAYERS:
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self.self_s[name]
            out[name + ".nodes"] = c[name + ".nodes"]
        out["cli.self_s"] = self.self_s["cli"]
        for name in TOTALS:
            out[name + ".total_s"] = self.total_s[name]
        for module in MODULES:
            out[f"layer.{module}.self_s"] = sum(
                t for name, t in self.self_s.items() if name.startswith(module + ".")
            )
        cg = "oracle.canonical_graph"
        out[cg + ".nodes"] = under[(cg, "oracle._refine")]
        out[cg + ".leaves"] = under[(cg, "graphs.relabel")]
        en = "oracle.enumerate_graphs"
        out[en + ".levels_built"] = c[en + ".levels_built"]
        out[en + ".class_share"] = share(c[en + ".classes"], under[(en, cg)])
        out["oracle.arrows.classes_checked"] = c["oracle.arrows.classes_checked"]
        fs = "embedding.find_subgraph"
        out[fs + ".present_share"] = share(c[fs + ".present"], calls[fs])
        out[fs + ".unknown"] = c[fs + ".unknown"]
        fp = "embedding.find_path_at_least"
        out[fp + ".hit_share"] = share(c[fp + ".hits"], calls[fp])
        out["graphs.from_graph6.pairs"] = c["graphs.from_graph6.pairs"]
        for key in c:
            if key.startswith("witness."):
                out[key] = c[key]
        return out

    def work_counts(self) -> dict:
        """The counts that must repeat exactly from one traced pass to the next."""
        m = self.metrics()
        keys = [k for k in m if not k.endswith(("_s", "_share"))]
        return {k: m[k] for k in sorted(keys)} | {"under": sorted(self.under.items())}

    def dump(self, path: Path) -> None:
        """Write every span as a JSON line: id, parent, name, start and end in µs."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="ascii") as fh:
            for sid, name in enumerate(self.names):
                start = round((self.starts[sid] - t0) * 1e6)
                end = round((self.ends[sid] - t0) * 1e6)
                fh.write(json.dumps([sid, self.parents[sid], name, start, end]) + "\n")


def import_cli(src: Path):
    """Import the package from ``src`` and return its ``cli`` module."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return importlib.import_module("ramsey_jahangir.cli")


def run_in_process(run, argv: list[str], stdin_text: str) -> tuple[int, str]:
    """Call the CLI's ``run`` like a fresh process would: exit code and stdout.

    Standard error is discarded; an exception escaping ``run`` is exit
    code 1, as for the interpreter.
    """
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(argv)
            except Exception:  # noqa: BLE001 - an uncaught exception exits with 1
                code = 1
    finally:
        sys.stdin = saved
    return code, out.getvalue()
