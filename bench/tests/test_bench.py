"""Self-tests of the benchmark: its inputs, golden check and tracer.

Run from the repository root:

    python3 -m unittest discover -s bench/tests
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from itertools import islice
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from docs import MALFORMED_EVERY, load_golden, matches_golden, mutation_docs, scalar_entries  # noqa: E402
from kum3check import config, default_config, default_config_text, emit_json, run_suite, suites  # noqa: E402
from kum3check.engine import Engine  # noqa: E402
from kum3check.linalg import Matrix  # noqa: E402
import tracer  # noqa: E402
from tracer import Tracer, layer_metrics, stage_order  # noqa: E402

TEXT = default_config_text()


def first_docs(seed: int, n: int):
    return list(islice(mutation_docs(TEXT, seed), n))


def package_bindings() -> dict:
    out = {
        (name, key): value
        for name, module in sys.modules.items()
        if name == "kum3check" or name.startswith("kum3check.")
        for key, value in vars(module).items()
    }
    out.update({("Matrix", key): value for key, value in vars(Matrix).items()})
    return out


def traced_counts(suite: str) -> dict[str, float]:
    with Tracer() as traced:
        emit_json(run_suite(Engine(default_config()), suite))
    return {k: v for k, v in layer_metrics(traced.spans).items() if not k.endswith(".ms")}


class MutationDocsTest(unittest.TestCase):
    def test_same_seed_gives_same_documents(self):
        self.assertEqual(first_docs(5, 20), first_docs(5, 20))
        self.assertNotEqual(first_docs(5, 20), first_docs(6, 20))

    def test_each_walk_draws_each_entry_once_per_cycle(self):
        entries = [f"{p}.{k}" for p, k in scalar_entries(json.loads(TEXT))]
        for seed in (0, 1):
            docs = first_docs(seed, len(entries) * MALFORMED_EVERY)
            for malformed in (False, True):
                drawn = [doc.entry for doc in docs if doc.malformed == malformed][: len(entries)]
                self.assertEqual(sorted(drawn), sorted(entries), (seed, malformed))

    def test_perturbed_documents_parse_and_malformed_ones_mostly_do_not(self):
        for doc in first_docs(3, 24):
            if not doc.malformed:
                self.assertNotEqual(config.parse_config(doc.text), default_config(), doc.describe())
            elif doc.kind != "renamed-label":
                with self.assertRaises(config.ConfigError, msg=doc.describe()):
                    config.parse_config(doc.text)


class GoldenTest(unittest.TestCase):
    def test_one_byte_change_is_flagged(self):
        golden = load_golden()
        report = emit_json(run_suite(Engine(default_config()), "all")).encode()
        self.assertTrue(matches_golden(golden, "all", report))
        changed = bytearray(report)
        changed[len(changed) // 2] ^= 1
        self.assertFalse(matches_golden(golden, "all", bytes(changed)))


class TracerTest(unittest.TestCase):
    def test_restores_every_wrapped_function(self):
        before = package_bindings()
        with Tracer():
            self.assertIsNot(suites.rank, before[("kum3check.suites", "rank")])
            self.assertIsNot(Matrix.mat_vec, before[("Matrix", "mat_vec")])
        after = package_bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_restores_after_an_error(self):
        before = package_bindings()
        with self.assertRaises(RuntimeError), Tracer():
            raise RuntimeError("stop")
        self.assertTrue(all(package_bindings()[k] is v for k, v in before.items()))

    def test_names_the_package_lacks_are_reported_not_fatal(self):
        with mock.patch.dict(tracer.NAMED, {"linalg": ("rank", "no_such_function")}):
            with Tracer() as traced:
                run_suite(Engine(default_config()), "gram19")
        self.assertEqual(traced.missing, {"linalg.no_such_function"})
        self.assertEqual(layer_metrics(traced.spans)["linalg.rank.calls"], 1)

    def test_counts_repeat_and_match_the_seed(self):
        first, second = traced_counts("all"), traced_counts("all")
        self.assertEqual(first, second)
        seed_counts = {
            "linalg.rank.calls": 5,
            "linalg.kernel_basis.calls": 1,
            "linalg.mat_vec.calls": 15,
            "linalg.solve_linear.calls": 16,
            "linalg.elim_cells": 143332,
            "quadspace.sym2_pair.calls": 326,
            "quadspace.sym2_pair.terms": 37081,
        }
        self.assertEqual({k: first[k] for k in seed_counts}, seed_counts)

    def test_stage_order_lists_dependencies_first(self):
        order = stage_order(Engine, default_config(), "all", run_suite)
        self.assertLess(order.index("table"), order.index("relations"))
        self.assertLess(order.index("d_pairings"), order.index("d_gram"))
        self.assertEqual(stage_order(Engine, default_config(), "basis-lemma", run_suite), ["table", "relations"])


class WithoutProgramTest(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "verify-all", "--seed", "1", "--seconds", "1"],
                cwd=tmp,
                capture_output=True,
                timeout=60,
                check=False,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, b"")


if __name__ == "__main__":
    unittest.main()
