"""eprlink benchmark: trials per second on four Monte Carlo workloads.

Run from the repository root:

    python3 perfbench/run.py --workload qsdc_honest --seed 1 --seconds 25 --trace 0

``--trace 0`` times batches of the workload through ``eprlink.cli.main`` with
tracing off and prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced batches and prints the per-layer metrics.  Every batch is
checked for correctness and must reproduce the same report bytes; a run with a
wrong batch prints ``"correct": false`` and no metrics, and exits 1.

``trials_per_s`` and ``setup_s`` are scaled to the host the benchmark was tuned
on, because a shared host's speed can shift by up to 1.7x, from one second
to the next and for minutes at a time (seen on a 2-core virtual machine).
Each batch is followed by a fixed calibration kernel and each setup probe by a
fresh interpreter that imports only numpy; the median ratio of the two times
is multiplied by the reference's time on the tuning host.  The unscaled
wall-time figures are in the run record.

Two JSON lines are printed: first the run record (report hash, host, load,
CPU and wall time), then, as the last line, the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 7
# A run measures at least this many batches, even past its --seconds.
MIN_BATCHES = 5

# A batch and the kernel timed right after it shift with the host together, so
# their ratio holds still.  CALIBRATION_REF_S is the kernel's median time on the
# tuning host (2 cores, Python 3.11.7, numpy 2.4.6).
CALIBRATION_ROUNDS = 6000
CALIBRATION_REF_S = 0.133

# Time from `import eprlink` until the config is built and validated, in a
# fresh interpreter.  The path entry is added before the clock starts.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import eprlink
from eprlink.harness import load_config
load_config(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""
# The reference for setup_s: setup time does not track the kernel, but it does
# track an import of numpy alone, whose median time on the tuning host is
# NUMPY_IMPORT_REF_S.
NUMPY_PROBE = """
import time
t0 = time.perf_counter()
import numpy
print(repr(time.perf_counter() - t0))
"""
NUMPY_IMPORT_REF_S = 0.105


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _host() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def _calibration_seconds() -> float:
    """Wall time of a fixed mix of small numpy calls and interpreter work.

    It uses nothing from eprlink, so no change to the program can move it.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    amps = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    tally: Dict[tuple, int] = {}
    t0 = perf_counter()
    for i in range(CALIBRATION_ROUNDS):
        turned = np.tensordot(hadamard, amps.reshape(2, 2), axes=([1], [0]))
        probs = np.abs(turned.reshape(4)) ** 2
        bit = int(rng.random() < float(probs[:2].sum()))
        tally[i % 7, bit] = tally.get((i % 7, bit), 0) + 1
    return perf_counter() - t0


def _probe_seconds(code: str, *args: str) -> float:
    """Run a timing probe in a fresh interpreter and read the seconds it prints."""
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(out.stdout.strip())


def _setup_seconds(config_path: Path) -> tuple:
    """(scaled, raw) median of SETUP_REPEATS fresh interpreters, after a warm-up.

    Each probe is followed by a fresh interpreter that only imports numpy, and
    the median ratio of the two is scaled by NUMPY_IMPORT_REF_S.
    """
    raw, ratios = [], []
    for i in range(SETUP_REPEATS + 1):
        setup = _probe_seconds(SETUP_PROBE, str(SRC), str(config_path))
        numpy_import = _probe_seconds(NUMPY_PROBE)
        if i:
            raw.append(setup)
            ratios.append(setup / numpy_import)
    return statistics.median(ratios) * NUMPY_IMPORT_REF_S, statistics.median(raw)


def _run(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple:
    from tracing import Tracer
    from workloads import Runner

    runner = Runner(workload, seed, workdir)
    record: Dict[str, object] = {"workload": workload.name, "seed": seed, "trace": int(trace)}
    metrics: Dict[str, dict] = {}
    if not trace:
        setup_s, record["wall_setup_s"] = _setup_seconds(runner.config_path)
    reference = runner.run()  # warm-up: imports, first-call caches
    problems = [f"warm-up: {p}" for p in runner.check(reference)]

    def checked(batch, label: str):
        problems.extend(f"{label}: {p}" for p in runner.check(batch))
        if batch.sha256 != reference.sha256:
            problems.append(f"{label}: report hash {batch.sha256} differs from the first batch")
        return batch

    untraced, traced, calibration = [], [], []
    started = perf_counter()
    while not problems and (perf_counter() - started < seconds or len(untraced) < MIN_BATCHES):
        gc.collect()
        untraced.append(checked(runner.run(), f"batch {len(untraced)}"))
        if not trace:
            calibration.append(_calibration_seconds())
        else:
            gc.collect()
            with Tracer() as tracer:
                batch = runner.run()
            traced.append((checked(batch, f"traced batch {len(traced)}"), tracer))

    timed = untraced + [b for b, _ in traced]
    record.update(
        report_sha256=reference.sha256,
        trials_per_batch=reference.trials,
        batches=len(timed),
        wall_s=sum(b.wall_s for b in timed),
        cpu_s=sum(b.cpu_s for b in timed),
        trial_error_rate=reference.errors / reference.trials if reference.trials else 0.0,
    )
    counts = (sum(b.trials for b in timed), sum(b.errors for b in timed))
    if problems:
        return record, problems, metrics, counts

    trials = reference.trials
    if not trace:
        walls = [b.wall_s for b in untraced]
        scaled = statistics.median(w / c for w, c in zip(walls, calibration))
        record.update(
            wall_trials_per_s=trials / statistics.median(walls),
            calibration_s=statistics.median(calibration),
        )
        metrics["trials_per_s"] = {
            "value": trials / (scaled * CALIBRATION_REF_S),
            "unit": "trials/s",
        }
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}
        return record, problems, metrics, counts

    per_batch = [tracer.metrics(trials) for _, tracer in traced]
    for name in per_batch[0]:
        metrics[name] = {
            "value": statistics.median(m[name] for m in per_batch),
            "unit": _layer_unit(name),
        }
    for name, value in reference.ratios().items():
        metrics[name] = {"value": value, "unit": "ratio"}
    overhead = statistics.median(b.wall_s for b, _ in traced) / statistics.median(
        b.wall_s for b in untraced
    )
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    return record, problems, metrics, counts


def _layer_unit(name: str) -> str:
    for suffix, unit in (
        ("calls_per_trial", "calls/trial"),
        ("ms_per_trial", "ms/trial"),
        ("us_per_call", "us"),
        ("_ms_p50", "ms"),
        ("_ms_p99", "ms"),
        ("report_ms", "ms"),
    ):
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eprlink" / "__init__.py").is_file():
        print(f"error: no eprlink sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import eprlink
    from workloads import WORKLOADS

    if Path(eprlink.__file__).resolve().parent != (SRC / "eprlink").resolve():
        print(f"error: imported eprlink from {eprlink.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    load_start = _loadavg()
    workdir = WORK / str(os.getpid())
    try:
        record, problems, metrics, (attempted, failed) = _run(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    record["host"] = dict(_host(), loadavg_start=load_start, loadavg_end=_loadavg())
    record["problems"] = problems
    print(json.dumps(record))
    result = {
        "correct": not problems,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {} if problems else metrics,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
