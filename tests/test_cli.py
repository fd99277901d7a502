"""The command line keeps its exit-code contract.

``-O`` strips ``assert`` statements, so the selftest checks run the command in
a fresh optimised interpreter: a healthy build must pass all checks, and a
build with a broken oracle must fail with exit code 1.  A configuration error
exits with code 2 before any trial runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eprlink.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def _run_optimised(args) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-O", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_selftest_passes_under_optimised_python():
    proc = _run_optimised(["-m", "eprlink.cli", "selftest"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "8/8 selftest checks passed" in proc.stdout


def test_selftest_fails_under_optimised_python_when_an_oracle_is_wrong():
    sabotage = (
        "import sys\n"
        "import eprlink.adversaries as adv\n"
        "adv.intercept_resend_detection = lambda n: 0.0\n"
        "from eprlink.cli import main\n"
        "sys.exit(main(['selftest']))\n"
    )
    proc = _run_optimised(["-c", sabotage])
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL - detection oracle values" in proc.stdout
    assert "7/8 selftest checks passed" in proc.stdout


@pytest.mark.parametrize(
    "args",
    [
        ["--param", "checked_count", "--values", "3,11", "--pairs", "10"],
        ["--param", "n_decoys", "--values", "2,-1"],
    ],
)
def test_sweep_rejects_a_bad_point_before_running_any(args, capsys):
    assert main(["sweep", *args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_config_rejects_a_seed_inside_cfg(tmp_path, capsys):
    """The batch seed is a top-level key; a seed under "cfg" would be ignored."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": "establish", "cfg": {"seed": 5}, "trials": 1}))
    assert main(["establish", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip() == "error: unknown cfg keys: ['seed']"


def _cnot_with(entry):
    """The CNOT matrix as JSON rows, with one of its ones replaced by ``entry``."""
    return [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, entry], [0, 0, 1, 0]]


_STRING_CNOT = [["1", 0, 0, 0], [0, "1", 0, 0], [0, 0, 0, "1"], [0, 0, "1", 0]]


@pytest.mark.parametrize(
    "config,key",
    [
        ({"measure_fidelity": "false"}, "measure_fidelity"),
        ({"measure_fidelity": 0}, "measure_fidelity"),
        ({"filters_enabled": "false"}, "filters_enabled"),
        ({"filters_enabled": None}, "filters_enabled"),
        ({"cfg": {"m_pairs": 2.9}}, "m_pairs"),
        ({"cfg": {"n_decoys": "3"}}, "n_decoys"),
        ({"cfg": {"parties": True}}, "parties"),
        ({"trials": 3.7}, "trials"),
        ({"trials": None}, "trials"),
        ({"seed": 1.5}, "seed"),
        ({"seed": False}, "seed"),
        ({"scenario": "game", "game": {"challenge_len": 8.0}}, "challenge_len"),
        ({"seed": -1}, "seed"),
        ({"cfg": {"check_fraction": "0.3"}}, "check_fraction"),
        ({"cfg": {"check_fraction": True}}, "check_fraction"),
        ({"cfg": {"check_fraction": None}}, "check_fraction"),
        ({"output": {"path": 7}}, "output path"),
        ({"attack": {"kind": "entangle_measure", "unitary": _STRING_CNOT}}, "unitary entries"),
        ({"attack": {"kind": "entangle_measure", "unitary": _cnot_with(True)}}, "unitary entries"),
        ({"attack": {"kind": "entangle_measure", "unitary": _cnot_with(["1", 0])}}, "unitary entries"),
        ({"attack": {"kind": "entangle_measure", "unitary": _cnot_with(None)}}, "unitary entries"),
        ({"attack": {"kind": "entangle_measure", "unitary": "cnot"}}, "unitary"),
        ({"output": 7}, "output"),
        ({"cfg": 5}, "cfg"),
        ({"attack": "intercept_resend"}, "attack"),
        ({"sweep": [1, 2]}, "sweep"),
        ({"scenario": "game", "game": 3}, "game"),
    ],
)
def test_config_rejects_values_it_would_coerce(tmp_path, capsys, config, key):
    """A flag must be a JSON boolean and a count a JSON integer: no truncation, no truthiness."""
    data = {"scenario": "establish", "trials": 1, **config}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    command = data["scenario"]
    assert main([command, "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {key} must be ") and "Traceback" not in err


def test_config_accepts_json_booleans_and_integers(tmp_path, capsys):
    path = tmp_path / "config.json"
    data = {
        "scenario": "establish",
        "cfg": {"m_pairs": 4, "n_decoys": 2, "parties": 2},
        "trials": 2,
        "seed": 3,
        "measure_fidelity": False,
        "filters_enabled": True,
        "output": {"path": str(tmp_path / "report.json")},
    }
    path.write_text(json.dumps(data))
    assert main(["establish", "--config", str(path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["trials"] == 2 and report["min_pair_fidelity"] is None


@pytest.mark.parametrize(
    "args",
    [
        ["establish", "--seed", "-1", "--trials", "1"],
        ["game", "--seed", "-5", "--trials", "1"],
        ["sweep", "--param", "n_decoys", "--values", "1", "--seed", "-2"],
    ],
)
def test_a_negative_seed_is_a_config_error(args, capsys):
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip() == "error: seed must be >= 0"


@pytest.mark.parametrize(
    "sweep,message",
    [
        ({"param": "n_decoys", "values": "12"}, "sweep values must be a JSON list, got '12'"),
        ({"param": "n_decoys", "values": 3}, "sweep values must be a JSON list, got 3"),
        ({"param": "n_decoys", "values": [2.5]}, "n_decoys sweep values must be integers, got 2.5"),
        ({"param": "n_decoys", "values": [1, True]}, "n_decoys sweep values must be integers, got True"),
        (
            {"param": "checked_count", "values": ["3"]},
            "checked_count sweep values must be integers, got '3'",
        ),
        (
            {"param": "check_fraction", "values": ["0.3"]},
            "check_fraction sweep values must be numbers, got '0.3'",
        ),
        (
            {"param": "check_fraction", "values": [0.3, False]},
            "check_fraction sweep values must be numbers, got False",
        ),
    ],
)
def test_config_sweep_values_must_be_a_list_of_numbers(tmp_path, capsys, sweep, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": "establish", "trials": 1, "sweep": sweep}))
    assert main(["sweep", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip() == f"error: {message}"


def test_config_sweep_accepts_numbers_for_check_fraction(tmp_path, capsys):
    path = tmp_path / "config.json"
    data = {
        "scenario": "establish",
        "cfg": {"m_pairs": 4, "n_decoys": 2, "check_fraction": 0.5},
        "trials": 2,
        "sweep": {"param": "check_fraction", "values": [0.25, 0.5]},
        "output": {"path": str(tmp_path / "report.json")},
    }
    path.write_text(json.dumps(data))
    assert main(["sweep", "--config", str(path)]) == 0
    reports = json.loads((tmp_path / "report.json").read_text())
    assert [r["c"] for r in reports] == [1, 2]


@pytest.mark.parametrize(
    "args,message",
    [
        (["--out", "missing/dir/x.json"], "error: output directory 'missing/dir' does not exist"),
        (["--out", "."], "error: output path '.' is a directory"),
        (["--out", ""], "error: output path must be a file name, got ''"),
    ],
)
def test_an_unwritable_output_path_is_rejected_before_any_trial(args, message, capsys):
    assert main(["establish", "--trials", "2", *args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip() == message

