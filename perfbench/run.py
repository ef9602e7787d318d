"""Benchmark of the ramsey-jahangir command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` runs every invocation of
the workload as its own child process, one at a time, for at least
``--seconds`` seconds and reports the end-to-end metrics; ``--trace 1``
runs the same invocations in this process with spans recorded around each
layer and reports the per-layer metrics.  ``--workload all`` runs every
workload and prints each metric with its name and unit.  The last line of
standard output is the result as one JSON object; README.md next to this
file describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from check import check_output
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# (metric, unit, better) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_share", "ratio", "higher"),
)

SETUP_RUNS = 7

# The reference machine is a shared host whose speed swings by up to 1.7x
# in spells of a few seconds, on both of its cores at once.  While children
# run, a thread here times a small fixed probe every PROBE_EVERY_S seconds
# (a duty of about 4%, on the core the child leaves free), and each child's
# times are scaled by PROBE_REF_S / (probe time while it ran).  Times are
# thus seconds of the reference machine at the speed where the probe takes
# PROBE_REF_S.
PROBE_REF_S = 0.002
PROBE_EVERY_S = 0.05
# Probe samples up to this far either side of a child count for it, so that
# short children get enough samples, some of them taken while no child runs.
PROBE_PAD_S = 0.5
_PROBE_BITS = (1 << 400_000) - 12345


def _probe_work() -> int:
    """Bit tricks, sorting and small containers, big-integer shifts, JSON
    text: the program's own kinds of work."""
    acc = 0
    for i in range(200):
        mask = (i * 0x9E3779B1) & 0xFFFFFFFF
        while mask:
            low = mask & -mask
            acc += low.bit_length()
            mask ^= low
    for k in range(34):
        items = sorted(((i * 7919 + k) % 104729, i) for i in range(40))
        acc += len(tuple(sorted(set({key: i for key, i in items}.values()))))
    for j in range(40):
        acc += _PROBE_BITS >> (j * 4999) & 1
    data = [{"a": i, "b": [i, i + 1, i * 2], "c": "x" * (i % 17)} for i in range(120)]
    return acc + len(json.loads(json.dumps(data)))


class SpeedProbe:
    """Background sampler of machine speed; use as a context manager."""

    def __init__(self) -> None:
        self._samples: list[tuple[float, float]] = []  # (start, duration)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_EVERY_S):
            start = time.perf_counter()
            _probe_work()
            with self._lock:
                self._samples.append((start, time.perf_counter() - start))

    def scale(self, start: float, end: float) -> float:
        """PROBE_REF_S over the probe time between ``start`` and ``end``.

        The probe time is the mean of the samples in the interval (the five
        nearest when it holds fewer) without the slowest fifth; dropping
        those made the scaled times steadier on the reference machine.
        """
        with self._lock:
            samples = list(self._samples)
        inside = [d for t, d in samples if start <= t <= end]
        if len(inside) < 5:
            mid = (start + end) / 2
            inside = [d for t, d in sorted(samples, key=lambda s: abs(s[0] - mid))[:5]]
        inside.sort()
        return PROBE_REF_S / statistics.mean(inside[: len(inside) - len(inside) // 5])


class Pass:
    """Outcome of one pass over a workload's invocations."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0
        self.raw_wall = 0.0
        self.setups: list[float] = []
        self.rss_kb = 0
        self.codes: list[int] = []
        self.outputs: list[str] = []
        self.passed = 0
        self.failures: list[str] = []

    def digests(self) -> list[tuple[int, str]]:
        return [(code, hashlib.sha256(out.encode()).hexdigest())
                for code, out in zip(self.codes, self.outputs)]


class Workdir:
    """Per-run directory under perfbench/out holding the host files."""

    def __init__(self, workload: str, seed: int, invocations) -> None:
        self.path = OUT / f"{workload}-{seed}-{os.getpid()}"
        self.path.mkdir(parents=True, exist_ok=True)
        self.argvs, self.stdins = [], []
        for inv in invocations:
            text = inv.host_text()
            host_file = None
            if inv.hosts and not inv.via_stdin:
                host_file = self.path / f"{inv.label}.g6"
                host_file.write_text(text, encoding="ascii")
            stdin_file = self.path / f"{inv.label}.stdin"
            stdin_file.write_text(text if inv.via_stdin else "", encoding="ascii")
            self.argvs.append(inv.argv(str(host_file) if host_file else None))
            self.stdins.append(stdin_file)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Launcher:
    """The ``launch.py`` process that starts every child (see there why)."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT, text=True,
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait()

    def run(self, cmd: list[str], stdin: Path, out: Path) -> tuple[int, float, float, float, int]:
        """Exit code, start, end, user+system s and peak RSS KB of one child."""
        self._proc.stdin.write(json.dumps([cmd, str(stdin), str(out)]) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the child launcher exited")
        return tuple(json.loads(reply))


def run_child(
    cmd: list[str], stdin: Path, out: Path, launcher: Launcher, speed: SpeedProbe
) -> tuple[int, float, float, float, int]:
    """Run one child to completion: exit code, wall s, user+system s, the
    speed scale over its run, and its peak RSS in KB."""
    code, start, end, cpu, rss = launcher.run(cmd, stdin, out)
    return code, end - start, cpu, speed.scale(start - PROBE_PAD_S, end + PROBE_PAD_S), rss


def setup_time(launcher: Launcher, speed: SpeedProbe) -> float:
    """Scaled wall time of a fresh interpreter importing the CLI module."""
    cmd = [sys.executable, "-c", "import ramsey_jahangir.cli"]
    code, wall, _, scale, _ = run_child(cmd, Path(os.devnull), Path(os.devnull), launcher, speed)
    if code != 0:
        raise RuntimeError("cannot import ramsey_jahangir.cli from src/")
    return wall * scale


def subprocess_pass(invocations, work: Workdir, launcher: Launcher, speed: SpeedProbe) -> Pass:
    """One pass; before each invocation, one untimed ``setup_time`` sample."""
    p = Pass()
    for i, inv in enumerate(invocations):
        p.setups.append(setup_time(launcher, speed))
        out = work.path / f"{inv.label}.out"
        cmd = [sys.executable, "-m", "ramsey_jahangir", *work.argvs[i]]
        code, wall, cpu, scale, rss = run_child(cmd, work.stdins[i], out, launcher, speed)
        p.raw_wall += wall
        p.wall += wall * scale
        p.cpu += cpu * scale
        p.rss_kb = max(p.rss_kb, rss)
        p.codes.append(code)
        p.outputs.append(out.read_text(encoding="utf-8", errors="replace"))
    return p


def check_pass(invocations, p: Pass, cases: dict) -> bool:
    """Count passed items into ``p``; False if some output is wrong."""
    correct = True
    for inv, code, text in zip(invocations, p.codes, p.outputs):
        if code != 0:
            p.failures.append(f"{inv.label}: exit {code} ({inv.items} items)")
            continue
        passed, bad = check_output(inv, text, cases)
        p.passed += passed
        if bad:
            correct = False
            p.failures += [f"{inv.label}: {reason}" for reason in bad]
    return correct


def _generate(workload: str, seed: int):
    invocations = WORKLOADS[workload](seed)
    again = WORKLOADS[workload](seed)
    same = [(i.argv("f"), i.host_text()) for i in invocations] == [
        (i.argv("f"), i.host_text()) for i in again
    ]
    return invocations, same


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Untraced runs: end-to-end metrics over as many passes as fit."""
    invocations, correct = _generate(workload, seed)
    notes = [] if correct else ["host files differ between two generations"]
    work = Workdir(workload, seed, invocations)
    passes: list[Pass] = []
    cases: dict = {}
    try:
        with Launcher() as launcher, SpeedProbe() as speed:
            setup_time(launcher, speed)  # fills the bytecode cache
            setups = [setup_time(launcher, speed) for _ in range(SETUP_RUNS)]
            start = time.perf_counter()
            # Start a pass only if it should end before the deadline.
            while not passes or (
                (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds
            ):
                passes.append(subprocess_pass(invocations, work, launcher, speed))
    finally:
        work.close()
    for i, p in enumerate(passes):
        if not i:
            correct &= check_pass(invocations, p, cases)
        elif p.digests() == passes[0].digests():
            p.passed, p.failures = passes[0].passed, passes[0].failures
        else:
            correct = False
            notes.append(f"pass {i} output differs from pass 0")
            check_pass(invocations, p, {})
    items = sum(inv.items for inv in invocations)
    metrics = {
        "setup_s": statistics.median(setups + [t for p in passes for t in p.setups]),
        "wall_s": _median([p.wall for p in passes]),
        "cpu_s": _median([p.cpu for p in passes]),
        "items_per_s": _median([p.passed / p.wall for p in passes]),
        "peak_rss_mb": _median([p.rss_kb / 1024 for p in passes]),
        "pass_share": sum(p.passed for p in passes) / (items * len(passes)),
    }
    return {
        "correct": correct,
        "attempted": items * len(passes),
        "failed": items * len(passes) - sum(p.passed for p in passes),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in END_TO_END},
        "_report": {"failures": passes[0].failures, "cases": cases, "notes": notes,
                    "passes": [f"{p.wall:.3f} (raw {p.raw_wall:.3f})"
                               for p in passes]},
    }


def trace(workload: str, seed: int, seconds: float) -> dict:
    """Traced runs in this process: per-layer metrics and the tracing overhead.

    After a warm-up pass, traced and untraced in-process passes alternate,
    at least two traced and one untraced; the work counts of every traced
    pass must agree.
    """
    import tracing

    invocations, correct = _generate(workload, seed)
    notes = [] if correct else ["host files differ between two generations"]
    cli = tracing.import_cli(SRC)
    work = Workdir(workload, seed, invocations)
    plain_walls, traced, cases = [], [], {}
    try:
        stdins = [path.read_text(encoding="ascii") for path in work.stdins]

        def in_process(run) -> Pass:
            p = Pass()
            for argv, stdin in zip(work.argvs, stdins):
                t0 = time.perf_counter()
                code, out = tracing.run_in_process(run, argv, stdin)
                p.wall += time.perf_counter() - t0
                p.codes.append(code)
                p.outputs.append(out)
            return p

        # The first pass warms the interpreter up and fixes the output every
        # later pass must repeat; then traced and untraced passes alternate.
        reference = in_process(cli.run)
        correct &= check_pass(invocations, reference, cases)
        start = time.perf_counter()
        while len(traced) < 2 or not plain_walls or time.perf_counter() - start < seconds:
            if len(plain_walls) < len(traced):
                p = in_process(cli.run)
                plain_walls.append(p.wall)
            else:
                last = tracing.Tracer()
                with last.installed():
                    p = in_process(last.wrap("cli", cli.run))
                traced.append((last.metrics(), last.work_counts(), p.wall))
                if traced[-1][1] != traced[0][1]:
                    correct = False
                    notes.append(f"traced pass {len(traced) - 1} work counts differ from pass 0")
            if p.digests() != reference.digests():
                correct = False
                notes.append("in-process output differs between passes")
    finally:
        work.close()
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-{seed}.jsonl.gz"
    last.dump(spans)
    layer = dict(traced[0][0])
    for name in layer:
        if name.endswith("_s"):
            layer[name] = _median([m[name] for m, _, _ in traced])
    layer["trace.overhead_s"] = _median([w for _, _, w in traced]) - _median(plain_walls)
    listed = [name for name, _, _ in tracing.PER_LAYER]
    items = sum(inv.items for inv in invocations)
    return {
        "correct": correct,
        "attempted": items,
        "failed": items - reference.passed,
        "metrics": {name: {"value": layer.get(name, 0), "unit": unit}
                    for name, unit, _ in tracing.PER_LAYER},
        "_report": {"failures": reference.failures, "cases": cases, "notes": notes,
                    "absent": last.absent, "spans": str(spans.relative_to(ROOT)),
                    "span_count": len(last.names),
                    "unlisted": [k for k in layer if k.startswith("witness.case.") and k not in listed]},
    }


def _print_table(workload: str, result: dict, stream) -> None:
    report = result["_report"]
    print(f"== {workload}: correct={result['correct']} attempted={result['attempted']}"
          f" failed={result['failed']}"
          f" fail_share={result['failed'] / result['attempted']:.4f}", file=stream)
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}", file=stream)
    if report.get("passes"):
        print("  pass wall_s: " + ", ".join(report["passes"]), file=stream)
    for key in ("failures", "notes", "absent", "unlisted"):
        if report.get(key):
            print(f"  {key}: " + "; ".join(report[key]), file=stream)
    if report.get("cases"):
        print("  checked cases: " + ", ".join(f"{k}={v}" for k, v in sorted(report["cases"].items())),
              file=stream)
    if report.get("spans"):
        print(f"  spans: {report['span_count']} written to {report['spans']}", file=stream)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ramsey_jahangir" / "cli.py").is_file():
        print(f"error: no ramsey_jahangir package under {SRC}", file=sys.stderr)
        return 2
    run = trace if args.trace else measure
    if args.workload != "all":
        result = run(args.workload, args.seed, args.seconds)
        _print_table(args.workload, result, sys.stderr)
        result.pop("_report")
        print(json.dumps(result))
        return 0
    results = {}
    for name in WORKLOADS:
        result = run(name, args.seed, args.seconds)
        _print_table(name, result, sys.stdout)
        result.pop("_report")
        results[name] = result
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
