"""Benchmark of the kum3check checker.

Run from the repository root:

    python3 bench/run.py --workload verify-all --seed 1 --seconds 50 --trace 0

Workloads (closed loop, one client, one operation at a time):

    verify-all      the default config through `verify all`; linalg does
                    most of the work (the 256x256 Gram certificate).
    mutation-sweep  seeded perturbed or malformed documents (see docs.py),
                    each through `verify all`; the failure paths.

One operation verifies one document twice: in a cold `python -m
kum3check.cli` process and in this process with a fresh Engine.  Every report
is checked: default-config reports against golden.json, every cold report
against the in-process one, exit statuses against each other.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the separate traced run and prints its per-layer metrics.  The last stdout
line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from statistics import fmean, median, quantiles
from time import perf_counter
from typing import Iterator

from docs import load_golden, matches_golden, mutation_docs
from tracer import Tracer, layer_metrics, stage_order, stage_times, write_spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
CHILD = BENCH / "child.py"
DEFAULT_CONFIG = SRC / "kum3check" / "data" / "default_config.json"

WORKLOADS = ("verify-all", "mutation-sweep")
SETUP_SAMPLES = 15
TRACE_DOCS = 4  # mutation-sweep documents in one traced pass, one of them malformed
# Mean seconds of one perturbed mutation-sweep document, cold plus in-process,
# at the seed on a 2-vCPU virtual machine; sets the document quota.
PERTURBED_DOC_S = 4.0
RUN_LIMIT_S = 150  # a mutation sweep stops early past this, whatever its quota
CHILD_TIMEOUT_S = 60
COUNT_SUFFIXES = (".calls", ".elim_cells", ".terms", ".bytes", ".rejected", ".checks")


@dataclass(frozen=True)
class Op:
    name: str
    suite: str
    text: str
    mutated: bool
    malformed: bool = False


@dataclass
class Outcome:
    op: Op
    cold_s: float
    cold_status: int
    verify_s: float | None  # fresh Engine, verify and emit; None if rejected at load
    in_process_s: float | None  # parse, verify and emit; None if the program crashed
    errors: list[str] = field(default_factory=list)
    undetected: bool = False

    @property
    def failed(self) -> bool:
        return bool(self.errors) or self.undetected


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def operations(workload: str, seed: int, default_text: str) -> Iterator[Op]:
    if workload == "verify-all":
        while True:
            yield Op("default", "all", default_text, False)
    else:
        for doc in mutation_docs(default_text, seed):
            yield Op(doc.describe(), "all", doc.text, True, doc.malformed)


class Bench:
    """One benchmark run: the program's modules, golden reports, temp files."""

    def __init__(self, workdir: Path):
        from kum3check import config, engine, report, suites

        self.config, self.engine, self.report, self.suites = config, engine, report, suites
        self.golden = load_golden()
        self.workdir = workdir
        self.env = child_env()
        self.paths: dict[str, Path] = {}

    def path_for(self, op: Op) -> Path | None:
        if not op.mutated:
            return None
        if op.name not in self.paths:
            path = self.workdir / f"{op.name.split()[0]}.json"
            path.write_text(op.text, encoding="utf-8")
            self.paths[op.name] = path
        return self.paths[op.name]

    def setup_seconds(self, path: Path) -> float:
        """Import kum3check.cli and parse ``path`` in a fresh interpreter."""
        proc = self._child([str(CHILD), "setup", str(path)])
        return float(proc.stdout.split()[-1])

    def _child(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            timeout=CHILD_TIMEOUT_S,
            check=False,
        )

    def in_process(self, op: Op):
        """(status, report text, verify seconds, parse-to-emit seconds).

        The verify time covers a fresh Engine, the suite and the report.  A
        document rejected at load has status 2 and no verify time.
        """
        gc.collect()
        start = perf_counter()
        try:
            doc = self.config.parse_config(op.text)
        except self.config.ConfigError:
            return 2, None, None, perf_counter() - start
        parsed = perf_counter()
        result = self.suites.run_suite(self.engine.Engine(doc), op.suite)
        text = self.report.emit_json(result)
        end = perf_counter()
        return (0 if result.status == "pass" else 1), text, end - parsed, end - start

    def cold(self, op: Op, traced: bool):
        path = self.path_for(op)
        args = ["verify", op.suite] + (["--config", str(path)] if path else [])
        argv = [str(CHILD), "cli", *args] if traced else ["-m", "kum3check.cli", *args]
        start = perf_counter()
        proc = self._child(argv)
        return perf_counter() - start, proc

    def run_op(self, op: Op, cold_first: bool, traced: bool = False, in_process=None):
        """Verify one document cold and in-process; returns (outcome, child timings).

        ``in_process`` is a result of ``guarded_in_process`` already taken.
        """
        if in_process is None and not cold_first:
            in_process = self.guarded_in_process(op)
        try:
            cold_s, proc = self.cold(op, traced)
        except subprocess.TimeoutExpired:
            return Outcome(op, CHILD_TIMEOUT_S, -1, None, None, ["cold process timed out"]), None
        if in_process is None:
            in_process = self.guarded_in_process(op)
        status, text, verify_s, in_process_s, errors = in_process
        stdout, stderr = proc.stdout, proc.stderr
        timings = None
        if traced:
            last = stderr.decode(errors="replace").strip().splitlines()[-1:]
            try:
                timings = json.loads(last[0])
            except (IndexError, ValueError):
                errors.append("traced child wrote no timings")
        if proc.returncode not in (0, 1, 2):
            errors.append(f"cold exit status {proc.returncode}")
        if b"Traceback" in stderr:
            errors.append("cold traceback: " + stderr.decode(errors="replace").strip().splitlines()[-1])
        if status is not None and proc.returncode != status:
            errors.append(f"cold exit {proc.returncode} but in-process status {status}")
        if text is not None and stdout != text.encode():
            errors.append("cold and in-process reports differ")
        if not op.mutated and not matches_golden(self.golden, op.suite, stdout):
            errors.append("report differs from the golden report")
        outcome = Outcome(op, cold_s, proc.returncode, verify_s, in_process_s, errors)
        outcome.undetected = op.mutated and proc.returncode == 0
        return outcome, timings

    def guarded_in_process(self, op: Op):
        try:
            return (*self.in_process(op), [])
        except Exception:  # a crash in the program is a failed operation
            return None, None, None, None, ["in-process traceback: " + traceback.format_exc().strip().splitlines()[-1]]


def spread_note(name: str, values: list[float], unit: str) -> str:
    cut = quantiles(values, n=10) if len(values) > 1 else values * 9
    return (
        f"{name}: mean of {len(values)}; median {median(values):.4f} {unit}, "
        f"p90 {cut[-1]:.4f} {unit}, range {min(values):.4f}-{max(values):.4f} {unit}"
    )


def timed_run(bench: Bench, workload: str, seed: int, seconds: float):
    default_text = DEFAULT_CONFIG.read_text(encoding="utf-8")
    stream = operations(workload, seed, default_text)
    if workload == "mutation-sweep":
        first = islice(operations(workload, seed, default_text), SETUP_SAMPLES)
        setup_paths = [bench.path_for(op) for op in first]
        # A fixed quota, not a deadline: every run of a seed verifies the
        # same documents, and a faster program sees the same documents too.
        quota = max(1, round(seconds / PERTURBED_DOC_S))
        deadline = perf_counter() + RUN_LIMIT_S
    else:
        setup_paths = [DEFAULT_CONFIG]
        quota = None
        deadline = perf_counter() + seconds
    bench.setup_seconds(setup_paths[0])  # fills the bytecode cache
    setup: list[float] = []
    outcomes: list[Outcome] = []
    perturbed = 0
    for op in stream:
        if outcomes and (perf_counter() >= deadline or (quota and perturbed >= quota)):
            break
        outcomes.append(bench.run_op(op, cold_first=len(outcomes) % 2 == 0)[0])
        perturbed += not op.malformed
        if len(setup) < SETUP_SAMPLES:  # spread over the run, not one burst
            setup.append(bench.setup_seconds(setup_paths[len(setup) % len(setup_paths)]))
    while len(setup) < SETUP_SAMPLES:
        setup.append(bench.setup_seconds(setup_paths[len(setup) % len(setup_paths)]))
    # cold_s and verify_s cover the default or perturbed documents that were
    # verified.  A malformed document tests rejection at load; its short
    # cold process, and the short verify of a renamed label that slips past
    # the loader, would make the means depend on which kinds were drawn.
    # The means, not the medians, are reported: the host's speed swings
    # between a fast and a slow state, and the median of a dozen samples
    # jumps between the two.
    timed = [o for o in outcomes if o.verify_s is not None and not o.op.malformed]
    loaded = [o.in_process_s for o in outcomes if o.in_process_s is not None]
    if not timed:
        first_error = next((e for o in outcomes for e in o.errors), "every document was rejected")
        sys.exit(f"error: no operation was verified: {first_error}")
    cold = [o.cold_s for o in timed]
    verify = [o.verify_s for o in timed]
    metrics = {
        "cold_s": fmean(cold),
        "verify_s": fmean(verify),
        "docs_per_s": len(loaded) / sum(loaded),
        "setup_s": median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    notes = [
        spread_note("cold_s", cold, "s"),
        spread_note("verify_s", verify, "s"),
        f"docs_per_s: {len(loaded)} documents / {sum(loaded):.4f} s in-process, parse to emit",
        f"setup_s: median of {len(setup)} fresh interpreters, range {min(setup):.4f}-{max(setup):.4f} s",
    ]
    if quota and perturbed < quota:
        notes.append(f"stopped after {RUN_LIMIT_S} s, {perturbed} of {quota} perturbed documents verified")
    return outcomes, metrics, notes


def traced_run(bench: Bench, workload: str, seed: int, seconds: float):
    default_text = DEFAULT_CONFIG.read_text(encoding="utf-8")
    count = TRACE_DOCS if workload == "mutation-sweep" else 1
    ops = list(islice(operations(workload, seed, default_text), count))
    default_doc = bench.config.parse_config(default_text)
    orders = {
        suite: stage_order(bench.engine.Engine, default_doc, suite, bench.suites.run_suite)
        for suite in {op.suite for op in ops}
    }
    passes: list[dict[str, float]] = []
    outcomes: list[Outcome] = []
    spans = []
    deadline = perf_counter() + seconds
    pass_s = 0.0
    while not passes or perf_counter() + pass_s < deadline:
        begin = perf_counter()
        metrics, pass_outcomes, tracer = traced_pass(bench, ops, orders, len(passes))
        pass_s = perf_counter() - begin
        passes.append(metrics)
        outcomes += pass_outcomes
        spans += tracer.spans
    write_spans(spans, RUN_DIR / f"spans-{workload}-seed{seed}.jsonl")
    names = sorted(set().union(*passes))
    merged = {name: median(p.get(name, 0.0) for p in passes) for name in names}
    for name in names:
        if name.endswith(COUNT_SUFFIXES) and len({p.get(name, 0.0) for p in passes}) > 1:
            outcomes[0].errors.append(f"count {name} differs between traced passes")
    notes = [
        f"{len(passes)} traced passes of {len(ops)} operations; "
        f"spans written to {RUN_DIR.name}/spans-{workload}-seed{seed}.jsonl",
        f"tracing overhead: {merged['trace.overhead.ms']:.1f} ms per pass "
        f"(traced minus untraced in-process time)",
    ]
    if tracer.missing:
        notes.append("not traced, missing from the package: " + ", ".join(sorted(tracer.missing)))
    return outcomes, merged, notes


def traced_pass(bench: Bench, ops: list[Op], orders, index: int):
    """One traced pass; each operation runs untraced, stage by stage, then traced."""
    metrics: dict[str, float] = defaultdict(float)
    untraced_s = traced_s = 0.0
    tracer = Tracer()
    outcomes = []
    for op in ops:
        in_process = bench.guarded_in_process(op)
        status, text, verify_s, _, errors = in_process
        untraced_s += verify_s or 0.0
        try:
            doc = bench.config.parse_config(op.text)
        except bench.config.ConfigError:
            doc = None
        if doc is not None:
            for stage, spent in stage_times(bench.engine.Engine, doc, orders[op.suite]).items():
                metrics[f"engine.{stage}.ms"] += spent * 1000
        tracer.doc = f"pass{index}/{op.name}"
        with tracer:
            try:
                doc = bench.config.parse_config(op.text)
            except bench.config.ConfigError:
                doc = None
            if doc is not None:
                gc.collect()
                start = perf_counter()
                try:
                    result = bench.suites.run_suite(bench.engine.Engine(doc), op.suite)
                    traced_text = bench.report.emit_json(result)
                except Exception:  # a crash in the program is a failed operation
                    errors.append("traced traceback: " + traceback.format_exc().strip().splitlines()[-1])
                else:
                    traced_s += perf_counter() - start
                    metrics["suites.checks"] += len(result.checks)
                    metrics["suites.error_checks"] += sum(c.expected == "no error" for c in result.checks)
                    if traced_text != text:
                        errors.append("traced report differs from the untraced one")
        outcome, timings = bench.run_op(op, True, traced=True, in_process=in_process)
        outcomes.append(outcome)
        if timings:
            metrics["cli.import.ms"] += timings["import"] * 1000
            metrics["cli.process.ms"] += (outcome.cold_s - sum(timings.values())) * 1000
    metrics.update(layer_metrics(tracer.spans))
    stages_ms = sum(v for k, v in metrics.items() if k.startswith("engine."))
    metrics["engine.unaccounted.ms"] = untraced_s * 1000 - stages_ms
    metrics["trace.overhead.ms"] = (traced_s - untraced_s) * 1000
    return metrics, outcomes, tracer


def declared_metrics(trace: bool) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kum3check" / "__init__.py").is_file():
        print(f"error: no kum3check package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RUN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUN_DIR) as workdir:
        bench = Bench(Path(workdir))
        run = traced_run if args.trace else timed_run
        outcomes, produced, notes = run(bench, args.workload, args.seed, args.seconds)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for i, o in enumerate(outcomes):
        verify = "-" if o.verify_s is None else f"{o.verify_s:.4f}s"
        state = "FAILED " + "; ".join(o.errors or ["mutated document exits 0"]) if o.failed else "ok"
        print(f"op {i} {o.op.name} {o.op.suite}: cold {o.cold_s:.4f}s exit {o.cold_status}, in-process {verify}: {state}")
    for note in notes:
        print(note)
    metrics = {}
    for spec in declared_metrics(bool(args.trace)):
        value = produced[spec["name"]] if not args.trace else produced.get(spec["name"], 0.0)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']} {value} {spec['unit']}")
    failed = sum(o.failed for o in outcomes)
    errors = sum(bool(o.errors) for o in outcomes)
    print(f"fail_ratio {failed}/{len(outcomes)} ({sum(o.undetected for o in outcomes)} undetected mutations)")
    result = {
        "correct": errors == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
