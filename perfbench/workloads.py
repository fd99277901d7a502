"""The benchmark's workloads, how one batch of each runs, and its correctness gate.

A batch is one call of the user-facing entry point, ``eprlink.cli.main``, in
this process and on one thread, with a generated ``--config`` file.  Config
loading, the trial loop and report emission are all inside the timed call.
The report goes to a file so its bytes can be hashed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable, Dict, List

FIDELITY_FLOOR = 1.0 - 1e-10


@dataclass(frozen=True)
class Workload:
    """A named batch shape.

    ``command`` is the CLI subcommand, ``config`` the JSON config without its
    trial count, seed and output block, and ``trials`` the trials (game
    instances) per batch at full size; a sweep runs that many per point.
    """

    name: str
    command: str
    config: dict
    trials: int
    check: Callable[[List[dict]], List[str]]


def _check_qsdc_honest(reports: List[dict]) -> List[str]:
    r = reports[0]
    problems = []
    if r["delivered"] != r["trials"]:
        problems.append(f"delivered {r['delivered']} of {r['trials']} honest messages")
    if r["delivered_wrong"] != 0:
        problems.append(f"{r['delivered_wrong']} messages delivered with bit errors")
    return problems


def _check_multiparty(reports: List[dict]) -> List[str]:
    r = reports[0]
    problems = []
    if r["established"] != r["trials"]:
        problems.append(f"established {r['established']} of {r['trials']} honest runs")
    fid = r["min_pair_fidelity"]
    if fid is None or fid < FIDELITY_FLOOR:
        problems.append(f"min_pair_fidelity {fid} below {FIDELITY_FLOOR}")
    return problems


def _check_sweep(reports: List[dict]) -> List[str]:
    # Every report's own 3-sigma gate is already covered by the exit code.
    # Those four gates are statistical: for a correct program, the exact
    # binomial tails at 200 trials per point fail one of them at about 1.1%
    # of seeds (44 and 118 among seeds 0-149).  Such a seed reads as a
    # failed run; the gate is not widened to hide it.
    values = [r["n"] for r in reports]
    if values != list(SWEEP_VALUES):
        return [f"sweep reported n={values}, expected {list(SWEEP_VALUES)}"]
    return []


def _check_game(reports: List[dict]) -> List[str]:
    r = reports[0]
    if r["valid"] != r["instances"]:
        return [f"only {r['valid']} of {r['instances']} game instances were scored"]
    # A passive guess is a fair coin: successes ~ Binomial(valid, 1/2), so the
    # advantage |2s/v - 1| has standard deviation 1/sqrt(v).
    sigma3 = 3.0 / math.sqrt(r["valid"])
    if r["advantage"] > sigma3:
        return [f"passive advantage {r['advantage']:.4f} above 3 sigma ({sigma3:.4f})"]
    return []


SWEEP_VALUES = (1, 5, 10, 20)

# The four shapes stress different layers; BENCHMARK.json says why each is here.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="qsdc_honest",
            command="qsdc",
            config={
                "scenario": "qsdc",
                "cfg": {"m_pairs": 10, "n_decoys": 10, "check_fraction": 0.3},
            },
            trials=200,
            check=_check_qsdc_honest,
        ),
        Workload(
            name="intercept_sweep",
            command="sweep",
            config={
                "scenario": "establish",
                "cfg": {"m_pairs": 2, "n_decoys": 1, "check_fraction": 0.5},
                "attack": {"kind": "intercept_resend"},
                "measure_fidelity": False,
                "sweep": {"param": "n_decoys", "values": list(SWEEP_VALUES)},
            },
            trials=200,
            check=_check_sweep,
        ),
        Workload(
            name="multiparty_k3",
            command="multiparty",
            config={
                "scenario": "multiparty",
                "cfg": {"m_pairs": 10, "n_decoys": 10, "check_fraction": 0.3, "parties": 3},
                "measure_fidelity": True,
            },
            trials=200,
            check=_check_multiparty,
        ),
        Workload(
            name="game_decoy",
            command="game",
            config={
                "scenario": "game",
                "game": {"discussion": "decoy", "strategy": "passive", "challenge_len": 8},
            },
            trials=2000,
            check=_check_game,
        ),
    )
}


@dataclass
class Batch:
    """What one timed call of the CLI produced."""

    exit_code: int
    wall_s: float
    cpu_s: float
    report_bytes: bytes
    reports: List[dict]

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.report_bytes).hexdigest()

    @property
    def trials(self) -> int:
        return sum(r.get("trials", r.get("instances", 0)) for r in self.reports)

    @property
    def errors(self) -> int:
        return sum(r.get("errors", 0) for r in self.reports)

    def ratios(self) -> Dict[str, float]:
        """Useful outcomes per trial attempted, read from the reports (0 where absent)."""

        def share(key: str) -> float:
            return sum(r.get(key, 0) for r in self.reports) / self.trials

        return {
            "protocol.established_ratio": share("established"),
            "qsdc.delivered_ratio": share("delivered"),
            "adversaries.detected_ratio": share("detected"),
        }


class Runner:
    """Writes a workload's config once, then runs and checks batches of it."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, trials: int = 0) -> None:
        self.workload = workload
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = workdir / f"{workload.name}.config.json"
        self.report_path = workdir / f"{workload.name}.report.json"
        config = dict(workload.config)
        config.update(
            trials=trials or workload.trials,
            seed=seed,
            output={"path": str(self.report_path), "format": "json"},
        )
        self.config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")

    def argv(self) -> List[str]:
        return [self.workload.command, "--config", str(self.config_path)]

    def run(self) -> Batch:
        """One timed batch through ``eprlink.cli.main``; its chatter is discarded."""
        from eprlink import cli

        with contextlib.suppress(FileNotFoundError):
            os.remove(self.report_path)
        with contextlib.redirect_stdout(io.StringIO()):
            c0, t0 = process_time(), perf_counter()
            code = cli.main(self.argv())
            wall, cpu = perf_counter() - t0, process_time() - c0
        data = self.report_path.read_bytes() if self.report_path.exists() else b""
        doc = json.loads(data) if data else []
        reports = doc if isinstance(doc, list) else [doc]
        return Batch(code, wall, cpu, data, reports)

    def check(self, batch: Batch) -> List[str]:
        """Everything wrong with a batch's output; empty means it passed."""
        if batch.exit_code != 0:
            return [f"CLI exited {batch.exit_code} (a report failed its oracle gate)"]
        if not batch.reports:
            return ["no report was written"]
        if batch.errors:
            return [f"{batch.errors} of {batch.trials} trials raised"]
        return self.workload.check(batch.reports)
