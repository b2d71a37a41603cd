"""Time two source trees of ``kum3check`` against each other in one process.

    python tests/ab_inprocess.py SRC_A SRC_B [rounds] [runs]

SRC_A and SRC_B are directories that each hold a ``kum3check`` package,
such as the ``src`` of two checkouts.  Each package is copied into a
temporary directory under its own name (``kum3check_a``, ``kum3check_b``;
the package imports itself only relatively) and both are imported into
this interpreter, so the two sides share the process, the allocator and
the host's load.

Before timing anything the script requires the same output from both
trees: the default ``verify all`` JSON, and for each document of the
failure golden's corpus (``test_failure_golden.corpus()``, built with
tree A's default document) its report status and JSON, or its loader
error.  It names each document that differs and exits 1 if one does.

Then, for ``rounds`` rounds (default 6), it alternates which tree goes
first and times ``runs`` (default 40) in-process runs of the default
document (``run_suite(doc, "all")`` and ``emit_json``) and one pass over
the corpus (parse, ``all``, emit) per tree.  For each workload it prints
each tree's min, quartiles and median, and the rounds each tree won on
its round median.

Last, it prints each tree's per-stage minima over the same rounds and
runs: every ``Engine`` stage that ``verify all`` reads, forced on a fresh
engine over the default document in first-return order (a stage is
listed after every stage it reads, as ``bench/tracer.stage_order`` lists
them), so each stage is timed with its inputs already computed; then
``report rows`` (``run_suite(engine, "all")`` with every stage computed)
and ``emit_json`` (the writer alone).  A run takes about a minute with
the defaults.  The module imports only the standard library, and pytest
does not collect it.
"""

import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(src: Path, name: str, directory: Path):
    """The package ``src/kum3check``, imported as ``name`` from a copy."""
    shutil.copytree(
        src / "kum3check", directory / name, ignore=shutil.ignore_patterns("__pycache__")
    )
    return importlib.import_module(f"{name}.cli"), importlib.import_module(f"{name}.config")


def default_json(pkg) -> str:
    cli, config = pkg
    return cli.emit_json(cli.run_suite(config.default_config(), "all"))


def serve(pkg, text: str) -> tuple[str, str]:
    """The report status and JSON of ``verify all`` on one document, or
    ``("rejected", message)`` when the loader rejects it."""
    cli, config = pkg
    try:
        doc = config.parse_config(text)
    except config.ConfigError as exc:
        return "rejected", str(exc)
    report = cli.run_suite(doc, "all")
    return report.status, cli.emit_json(report)


def stage_order(pkg) -> list[str]:
    """The engine stages that ``verify all`` on the default document reads,
    in the order their first reads return: each after every stage it reads."""
    cli, config = pkg
    engine = importlib.import_module(f"{cli.__package__}.engine")
    suites = importlib.import_module(f"{cli.__package__}.suites")
    stages = {k for k, v in vars(engine.Engine).items() if isinstance(v, engine.stage)}
    order: list[str] = []

    class Probe(engine.Engine):
        def __getattribute__(self, name):
            value = super().__getattribute__(name)
            if name in stages and name not in order:
                order.append(name)
            return value

    suites.run_suite(Probe(config.default_config()), "all")
    return order


def stage_times(pkg, order: list[str]) -> dict[str, float]:
    """Milliseconds per stage, forced in ``order`` on a fresh engine, then
    the report rows and the JSON writer."""
    cli, config = pkg
    engine = importlib.import_module(f"{cli.__package__}.engine")
    suites = importlib.import_module(f"{cli.__package__}.suites")
    fresh = engine.Engine(config.default_config())
    out = {name: timed(lambda: getattr(fresh, name)) for name in order}
    report = []
    out["report rows"] = timed(lambda: report.append(suites.run_suite(fresh, "all")))
    out["emit_json"] = timed(lambda: cli.emit_json(report[0]))
    return out


def timed(work) -> float:
    start = time.perf_counter()
    work()
    return (time.perf_counter() - start) * 1000


def summary(label: str, times: list[float], won: int) -> str:
    q1, median, q3 = (
        statistics.quantiles(times, n=4, method="inclusive") if len(times) > 1 else times * 3
    )
    return (
        f"  {label}  min {min(times):9.2f}  q1 {q1:9.2f}  median {median:9.2f}"
        f"  q3 {q3:9.2f}  rounds won {won}"
    )


def main(argv: list[str]) -> int:
    if not 2 <= len(argv) <= 4:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src_a, src_b = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    rounds = int(argv[2]) if len(argv) > 2 else 6
    runs = int(argv[3]) if len(argv) > 3 else 40
    with tempfile.TemporaryDirectory() as scratch:
        sys.path.insert(0, scratch)
        a = load(src_a, "kum3check_a", Path(scratch))
        b = load(src_b, "kum3check_b", Path(scratch))
        sys.path.insert(0, str(src_a))
        sys.path.insert(0, str(HERE))
        from test_failure_golden import corpus

        docs = list(corpus().items())
        differ = [name for name, text in docs if serve(a, text) != serve(b, text)]
        if default_json(a) != default_json(b):
            differ.insert(0, "default verify all JSON")
        for name in differ:
            print(f"differs: {name}")
        if differ:
            return 1
        print(f"same output: default verify all and {len(docs)} corpus documents")

        workloads = {
            f"default document (ms per run, {rounds} rounds x {runs} runs)": (
                runs, default_json
            ),
            f"corpus (ms per pass over {len(docs)} documents, {rounds} rounds)": (
                1, lambda pkg: [serve(pkg, text) for _, text in docs]
            ),
        }
        sides = {"A": a, "B": b}
        orders = {s: stage_order(pkg) for s, pkg in sides.items()}
        minima: dict[str, dict[str, float]] = {s: {} for s in sides}
        times = {(w, s): [] for w in workloads for s in sides}
        won = {(w, s): 0 for w in workloads for s in sides}
        for r in range(rounds):
            order = ("A", "B") if r % 2 == 0 else ("B", "A")
            for w, (count, work) in workloads.items():
                medians = {}
                for s in order:
                    pkg = sides[s]
                    batch = [timed(lambda: work(pkg)) for _ in range(count)]
                    times[w, s] += batch
                    medians[s] = statistics.median(batch)
                if medians["A"] != medians["B"]:
                    won[w, min(medians, key=medians.get)] += 1
            for s in order:
                for _ in range(runs):
                    for name, ms in stage_times(sides[s], orders[s]).items():
                        minima[s][name] = min(ms, minima[s].get(name, ms))
        for w in workloads:
            print(w)
            for s in sides:
                print(summary(s, times[w, s], won[w, s]))
        print(f"stage minima (ms, {rounds} rounds x {runs} fresh engines), A's largest first")
        names = minima["A"].keys() | minima["B"].keys()
        names = sorted(names, key=lambda n: -minima["A"].get(n, 0))
        for name in names:
            cells = [f"{minima[s][name]:9.3f}" if name in minima[s] else " " * 9 for s in sides]
            print(f"  {name:<22}  A {cells[0]}  B {cells[1]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
