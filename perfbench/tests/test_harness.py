"""Self-test of the benchmark harness at a tiny geometry.

    python3 -m pytest perfbench/tests -q

Run from the repository root. Checks that both modes print every metric
BENCHMARK.json names, with its unit, that a fingerprint differing from the
committed one, or with none committed, counts as a failed operation, and
that the benchmark refuses to run outside a mortcast checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
from workloads import FP_SEEDS, Workload  # noqa: E402

#: 6 ages x 22 years with a 3-year hold-out; a two-model backtest of
#: 2 horizons x 2 windows keeps every layer busy in a few seconds
TINY = Workload("selftest-tiny", "mixed", (80, 85), (1990, 2011), 3,
                ("--models", "mixed,cbd", "--horizons", "1,2", "--windows", "2"))


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_fp():
    """The fingerprint of TINY's first operation at seed 0."""
    first = run.Runner(ROOT, TINY, 0, None)
    first.op("op0", 0, first.plain_cli)
    assert first.failed == 0, first.failures
    return first.fingerprints[0]


def _names_units(entries):
    return {e["name"]: e["unit"] for e in entries}


def test_metric_tables_match_benchmark_json(spec):
    assert _names_units(spec["end_to_end"]) == dict(run.END_TO_END)
    assert [(e["name"], e["unit"], e["better"]) for e in spec["per_layer"]] == layers.METRICS


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_its_unit(spec, trace, tiny_fp, monkeypatch):
    # seed FP_SEEDS is checked against the fingerprint committed for seed 0
    monkeypatch.setattr(run, "load_fingerprints", lambda: {TINY.name: {"0": tiny_fp}})
    result = run.run(TINY, seed=FP_SEEDS, seconds=0, trace=trace, root=ROOT)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    table = spec["per_layer"] if trace else spec["end_to_end"]
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == _names_units(table)
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_broken_fingerprint_is_a_failed_operation(tiny_fp):
    same = run.Runner(ROOT, TINY, 0, tiny_fp)
    same.op("op0", 0, same.plain_cli)
    assert (same.attempted, same.failed) == (3, 0)

    broken = dict(tiny_fp, fit_loglik=tiny_fp["fit_loglik"] + 1.0)
    bad = run.Runner(ROOT, TINY, 0, broken)
    bad.op("op0", 0, bad.plain_cli)
    assert (bad.attempted, bad.failed) == (3, 1)
    assert any("fingerprint fit_loglik" in f for f in bad.failures)


def test_missing_fingerprint_is_a_failed_operation(tiny_fp, monkeypatch):
    monkeypatch.setattr(run, "load_fingerprints", lambda: {TINY.name: {"1": tiny_fp}})
    result = run.run(TINY, seed=0, seconds=0, trace=False, root=ROOT)
    assert not result["correct"]
    # a zero-second run has one operation, on draw 0, and adds pairs to it:
    # every command reading draw 0 fails its check, and only the extra
    # pairs' backtests, on fresh draws with no fingerprint, pass
    extras = run.SHORT_MIN - 1
    assert result["attempted"] == 3 + 2 * extras
    assert result["failed"] == 3 + extras


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-paper", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
