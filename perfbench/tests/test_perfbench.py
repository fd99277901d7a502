"""Tests of the benchmark itself, at small batch sizes.

Run from the repository root:  python3 -m pytest -q perfbench/tests
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
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from tracing import Tracer, targets  # noqa: E402
from workloads import WORKLOADS, Runner  # noqa: E402

DEFAULT_SEED = 1  # run.py's default
HELD_OUT_SEED = 7919  # never used while the benchmark was tuned
SMALL = {"qsdc_honest": 20, "intercept_sweep": 25, "multiparty_k3": 20, "game_decoy": 200}
NAMES = sorted(WORKLOADS)


def _runner(name: str, seed: int, tmp_path: Path) -> Runner:
    return Runner(WORKLOADS[name], seed, tmp_path, trials=SMALL[name])


def _traced(runner: Runner):
    with Tracer() as tracer:
        batch = runner.run()
    return batch, tracer


@pytest.mark.parametrize("seed", [DEFAULT_SEED, HELD_OUT_SEED])
@pytest.mark.parametrize("name", NAMES)
def test_correctness_gate_passes(name, seed, tmp_path):
    runner = _runner(name, seed, tmp_path)
    batch = runner.run()
    assert batch.trials == SMALL[name] * (4 if name == "intercept_sweep" else 1)
    assert runner.check(batch) == []


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_same_report_hash(name, tmp_path):
    first = _runner(name, DEFAULT_SEED, tmp_path / "a").run()
    second = _runner(name, DEFAULT_SEED, tmp_path / "b").run()
    other = _runner(name, HELD_OUT_SEED, tmp_path / "c").run()
    assert first.sha256 == second.sha256
    assert first.sha256 != other.sha256


@pytest.mark.parametrize("name", NAMES)
def test_tracing_keeps_report_and_is_removed(name, tmp_path):
    originals = [(t.owner, t.attr, vars(t.owner)[t.attr]) for t in targets()]
    runner = _runner(name, DEFAULT_SEED, tmp_path)
    untraced = runner.run()
    traced, tracer = _traced(runner)
    assert traced.sha256 == untraced.sha256
    assert tracer.calls["cli.main"] == 1
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner}.{attr} still wrapped"


def test_wrappers_are_removed_when_the_batch_raises(tmp_path):
    from eprlink import qcore

    original = vars(qcore.QuantumRegister)["measure"]
    with pytest.raises(RuntimeError):
        with Tracer():
            assert qcore.QuantumRegister.measure is not original
            raise RuntimeError("batch failed")
    assert vars(qcore.QuantumRegister)["measure"] is original


@pytest.mark.parametrize("name", NAMES)
def test_counts_and_ratios_repeat_exactly(name, tmp_path):
    runner = _runner(name, DEFAULT_SEED, tmp_path)
    runs = []
    for _ in range(2):
        batch, tracer = _traced(runner)
        metrics = dict(tracer.metrics(batch.trials), **batch.ratios())
        runs.append({k: v for k, v in metrics.items() if k.endswith(("calls_per_trial", "_ratio"))})
    assert runs[0] and runs[0] == runs[1]


def test_layer_counts_match_the_protocol(tmp_path):
    # Per honest qsdc trial at m=10, n=10, check 0.3: 46 measurements and
    # 7 Bell readouts on the 2-qubit factors.
    batch, tracer = _traced(_runner("qsdc_honest", DEFAULT_SEED, tmp_path))
    m = tracer.metrics(batch.trials)
    assert m["qcore.measure.calls_per_trial"] == 46
    assert m["qcore.bell_measure.calls_per_trial"] == 7
    assert len(tracer.trial_s) == batch.trials


def test_predicted_zeros(tmp_path):
    seen = {}
    for name in NAMES:
        batch, tracer = _traced(_runner(name, DEFAULT_SEED, tmp_path / name))
        seen[name] = (tracer.metrics(batch.trials), tracer.calls, len(tracer.trial_s), batch)
    for name, (m, calls, trials_timed, batch) in seen.items():
        assert trials_timed == batch.trials
        adversary_calls = sum(n for k, n in calls.items() if k.startswith("adversaries."))
        assert (adversary_calls > 0) == (name == "intercept_sweep"), name
        assert (m["qcore.bell_measure.calls_per_trial"] > 0) == (name == "qsdc_honest"), name
        assert (calls["qcore.state_fidelity"] > 0) == (name == "multiparty_k3"), name
    game = seen["game_decoy"][0]
    stages = [k for k in game if k.startswith("stage.")]
    assert stages and all(game[k] == 0 for k in stages)
    assert game["protocol.self_ms_per_trial"] == 0
    assert game["qsdc.self_ms_per_trial"] == 0


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_declared_metric(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == NAMES
    out = _bench(ROOT, "--workload", "game_decoy", "--seed", "3", "--seconds", "0.5",
                 "--trace", trace)
    assert out.returncode == 0, out.stderr
    record, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert len(record["report_sha256"]) == 64
    assert {"nproc", "python", "numpy", "loadavg_start", "loadavg_end"} <= set(record["host"])
    assert record["cpu_s"] > 0 and record["wall_s"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _bench(tmp_path, "--workload", "qsdc_honest", "--seed", "1", "--seconds", "1")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
