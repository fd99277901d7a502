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

from eprlink import harness
from eprlink.cli import main
from eprlink.protocol import MAX_PARTIES

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
    assert "9/9 selftest checks passed" in proc.stdout


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
    assert "8/9 selftest checks passed" in proc.stdout


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


@pytest.mark.parametrize(
    "args,checked,pairs",
    [
        (["qsdc", "--pairs", "1"], 1, 1),
        (["sweep", "--scenario", "qsdc", "--param", "n_decoys", "--values", "1,2", "--pairs", "1"], 1, 1),
        (["sweep", "--scenario", "qsdc", "--param", "check_fraction", "--values", "0.3,0.9", "--pairs", "4"], 4, 4),
    ],
)
def test_a_qsdc_run_that_checks_every_pair_is_a_config_error(capsys, args, checked, pairs):
    """Every checked pair is consumed, so such a run would send an empty message."""
    assert main([*args, "--trials", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    message = f"cannot spot-check {checked} of {pairs} positions in a qsdc run"
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["establish", "multiparty"])
def test_a_run_that_checks_every_pair_is_a_config_error(capsys, command):
    """A run whose spot check takes its only pair would report it established with none kept."""
    assert main([command, "--pairs", "1", "--trials", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot spot-check 1 of 1 positions in a {command} run\n"


def test_config_rejects_a_seed_inside_cfg(tmp_path, capsys):
    """The batch seed is a top-level key; a seed under "cfg" would be ignored."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": "establish", "cfg": {"seed": 5}, "trials": 1}))
    assert main(["establish", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip() == "error: unknown cfg keys: ['seed']"


def test_config_rejects_game_queries(tmp_path, capsys):
    """The game plays its named strategies with every query; a grant list is not read."""
    path = tmp_path / "config.json"
    config = {"scenario": "game", "trials": 1, "game": {"queries": ["execute", "test"]}}
    path.write_text(json.dumps(config))
    assert main(["game", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: unknown game keys: ['queries']\n"


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
        ({"attack": {"kind": "entangle_measure", "unitary": [[1, 0], [0, 1]]}}, "unitary"),
        ({"attack": {"kind": "entangle_measure", "unitary": _cnot_with(2)}}, "unitary"),
        ({"attack": {"kind": "entangle_measure", "unitary": [[1, 0, 0, 0], [1]]}}, "unitary"),
        (
            {
                "attack": {
                    "kind": "intercept_resend",
                    "strategy": "all_slots",
                    "unitary": [[1, 0], [0, 1]],
                }
            },
            "strategy",
        ),
        ({"attack": {"kind": "intercept_resend", "unitary": _cnot_with(1)}}, "unitary"),
        ({"attack": {"kind": "dense_coding", "trojan": "invisible_photon"}}, "trojan"),
        ({"attack": {"kind": "trojan_horse", "strategy": "all_slots"}}, "strategy"),
        ({"attack": {"kind": "intercept_resend", "edge": 5}}, "edge"),
        ({"attack": {"kind": "intercept_resend", "edge": "ab"}}, "edge"),
        ({"attack": {"kind": "intercept_resend", "edge": ["tp1", 2]}}, "edge"),
        ({"attack": {"kind": "intercept_resend", "edge": {"tp1": "alice"}}}, "edge"),
        ({"scenario": "game", "game": {"discussion": 5}}, "discussion"),
        ({"scenario": "game", "game": {"challenge_len": True}}, "challenge_len"),
        ({"scenario": "game", "game": {"strategy": None}}, "strategy"),
        ({"scenario": "game", "game": {"strategy": ["passive"]}}, "strategy"),
        (
            {
                "attack": {
                    "kind": "entangle_measure",
                    "unitary": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1]],
                }
            },
            "unitary",
        ),
        ({"scenario": "game", "cfg": {"m_pairs": 4}}, "cfg"),
        ({"scenario": "game", "attack": {"kind": "intercept_resend"}}, "attack"),
        ({"scenario": "game", "filters_enabled": True}, "filters_enabled"),
        ({"scenario": "game", "measure_fidelity": False}, "measure_fidelity"),
        ({"scenario": "game", "sweep": {"param": "n_decoys", "values": [1]}}, "sweep"),
        ({"game": {"strategy": "fiat_clone"}}, "game"),
        ({"scenario": "qsdc", "game": {"discussion": "pair_check"}}, "game"),
        ({"scenario": "multiparty", "cfg": {"parties": 3}, "game": {}}, "game"),
        ({"scenario": "qsdc", "measure_fidelity": False}, "measure_fidelity"),
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


@pytest.mark.parametrize("rows", [[[1, 0, 0, 0], [1]], [[1, 0], [0, 1, 0, 0], [0, 0], [0, 0]]])
def test_ragged_unitary_rows_are_named_not_left_to_numpy(tmp_path, capsys, rows):
    path = tmp_path / "config.json"
    attack = {"kind": "entangle_measure", "unitary": rows}
    path.write_text(json.dumps({"scenario": "establish", "trials": 1, "attack": attack}))
    assert main(["establish", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lengths = sorted({len(row) for row in rows})
    assert err == f"error: unitary must be a list of rows of equal length, got row lengths {lengths}\n"


@pytest.mark.parametrize(
    "entry", [float("nan"), float("inf"), float("-inf"), [0.0, float("nan")], 10**400]
)
def test_non_finite_unitary_entries_are_config_errors(tmp_path, capsys, entry):
    rows = [[entry, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    attack = {"kind": "entangle_measure", "unitary": rows}
    config = {"scenario": "establish", "trials": 20, "cfg": {"m_pairs": 4, "n_decoys": 2}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config, "attack": attack}))  # NaN and Infinity as JSON writes them
    assert main(["establish", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: unitary entries must be finite, got ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"trials": 5, "trials": 7}', "repeated key 'trials' in config"),
        ('{"trials": 1, "cfg": {"m_pairs": 4, "n_decoys": 2, "n_decoys": 3}}',
         "repeated key 'n_decoys' in cfg"),
        # The first repeat in the file is the one named.
        ('{"trials": 5, "trials": 7, "cfg": {"m_pairs": 4, "n_decoys": 2, "n_decoys": 3}}',
         "repeated key 'trials' in config"),
        ('{"cfg": {"m_pairs": 4, "n_decoys": 2, "n_decoys": 3}, "trials": 5, "trials": 7}',
         "repeated key 'n_decoys' in cfg"),
        # Equal values are still an error.
        ('{"trials": 1, "attack": {"kind": "intercept_resend", "kind": "intercept_resend"}}',
         "repeated key 'kind' in attack"),
        ('{"trials": 1, "cfg": {"m_pairs": 4}, "cfg": {"m_pairs": 4}}',
         "repeated key 'cfg' in config"),
    ],
)
def test_a_repeated_config_key_is_an_error(tmp_path, capsys, text, message):
    path = tmp_path / "config.json"
    path.write_text('{"scenario": "establish", ' + text[1:])
    assert main(["establish", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_a_config_nested_too_deeply_is_a_config_error(tmp_path, capsys):
    depth = 100_000
    path = tmp_path / "config.json"
    path.write_text('{"trials": ' + "[" * depth + "]" * depth + "}")
    assert main(["establish", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: config nests too deeply\n"


@pytest.mark.parametrize(
    "config,key",
    [
        ({"trials": [0] * 100_000}, "trials"),
        ({"scenario": "game", "game": {"discussion": "x" * 50_000}}, "discussion"),
        ({"cfg": {"m_pairs": "7" * 50_000}}, "m_pairs"),
        ({"attack": {"kind": "entangle_measure", "unitary": _cnot_with("1" * 50_000)}}, "unitary"),
        ({"attack": {"kind": "k" * 50_000}}, "AttackKind"),
        ({"attack": {"kind": "trojan_horse", "trojan": "t" * 50_000}}, "TrojanKind"),
    ],
)
def test_a_config_error_echoes_a_long_value_cut_short(tmp_path, capsys, config, key):
    data = {"scenario": "establish", "trials": 1, **config}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main([data["scenario"], "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and key in err and err.count("\n") == 1
    assert len(err.encode()) <= 200 and "Traceback" not in err


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


@pytest.mark.parametrize("parties", [1, MAX_PARTIES + 1])
def test_a_party_count_out_of_bounds_is_a_config_error(capsys, parties):
    """A group holds 2**k amplitudes, so too many parties exits 2 instead of exhausting memory."""
    assert main(["multiparty", "--parties", str(parties), "--trials", "1", "--pairs", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: parties must be between 2 and {MAX_PARTIES}\n"



@pytest.mark.parametrize(
    "command,named",
    [("establish", "qsdc"), ("qsdc", "establish"), ("multiparty", "game"), ("game", "establish")],
)
def test_a_config_scenario_must_match_the_command(tmp_path, capsys, command, named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": named, "trials": 1}))
    assert main([command, "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    message = f"scenario must be {command!r} under the {command} command, got {named!r}"
    assert err == f"error: {message}\n"


def test_a_config_without_a_scenario_runs_the_command_scenario(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"cfg": {"m_pairs": 4, "n_decoys": 2}, "trials": 2}))
    assert main(["qsdc", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out.split("\n", 1)[1])["scenario"] == "qsdc"


@pytest.mark.parametrize(
    "args",
    [
        ["game", "--discussion", "pair_check", "--strategy", "fiat_clone", "--trials", "3"],
        ["game", "--discussion", "pair_check", "--config", "{config}"],
    ],
)
def test_the_cloner_on_the_pair_check_discussion_is_a_config_error(tmp_path, capsys, args):
    """The cloning reduction runs on the decoy discussion; no instance is played."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": "game", "game": {"strategy": "fiat_clone"}}))
    assert main([a.format(config=path) for a in args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: discussion must be 'decoy' for the fiat_clone strategy: "
        "the cloning reduction is demonstrated on the decoy discussion\n"
    )


@pytest.mark.parametrize(
    "config,flags,scenario,parties",
    [
        ({"scenario": "qsdc"}, [], "qsdc", 2),
        ({"scenario": "multiparty", "cfg": {"m_pairs": 4, "parties": 3}}, [], "multiparty", 3),
        ({"scenario": "qsdc"}, ["--scenario", "establish"], "establish", 2),
        ({}, [], "establish", 2),
    ],
)
def test_a_config_file_sweep_runs_the_files_scenario(tmp_path, config, flags, scenario, parties):
    """--scenario overrides the file only when it is given; the default stays establish."""
    data = {
        **config,
        "trials": 2,
        "sweep": {"param": "n_decoys", "values": [1, 2]},
        "output": {"path": str(tmp_path / "report.json")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["sweep", "--config", str(path), *flags]) == 0
    reports = json.loads((tmp_path / "report.json").read_text())
    assert [(r["scenario"], r["parties"], r["n"]) for r in reports] == [
        (scenario, parties, 1),
        (scenario, parties, 2),
    ]


def test_each_command_has_the_flags_of_its_config_keys():
    """Flags come from the config table; none is added or lost."""
    from eprlink.cli import _build_parser

    sub = next(a for a in _build_parser()._actions if a.dest == "command").choices
    common = {"-h", "--help", "--config", "--trials", "--seed", "--out", "--format"}
    run = common | {"--pairs", "--decoys", "--check-fraction", "--attack"}
    expected = {
        "establish": run,
        "qsdc": run,
        "multiparty": run | {"--parties"},
        "sweep": run | {"--scenario", "--param", "--values"},
        "game": common | {"--discussion", "--strategy", "--challenge-len"},
        "selftest": {"-h", "--help"},
    }
    got = {
        name: {s for a in parser._actions for s in a.option_strings} for name, parser in sub.items()
    }
    assert got == expected


_SWEEP_HINT = (
    "error: sweep values were given without a sweep param; a sweep needs "
    "--param and --values (or a config whose sweep block has both)\n"
)


@pytest.mark.parametrize("sweep", [{"values": [1, 2]}, {"param": None, "values": [1, 2]}])
@pytest.mark.parametrize("command", ["establish", "sweep"])
def test_sweep_values_without_a_param_are_a_config_error(tmp_path, capsys, sweep, command):
    """Values with no param would otherwise run one plain batch and drop them."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"trials": 3, "sweep": sweep}))
    assert main([command, "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == _SWEEP_HINT


def test_sweep_flag_values_without_a_param_are_a_config_error(capsys):
    assert main(["sweep", "--values", "1,2", "--trials", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == _SWEEP_HINT


@pytest.mark.parametrize("sweep", [{}, {"param": None}, {"param": None, "values": None}])
@pytest.mark.parametrize("command", ["establish", "sweep"])
def test_a_sweep_block_naming_nothing_is_a_config_error(tmp_path, capsys, sweep, command):
    """An empty block would otherwise run one plain batch and exit 0."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"trials": 3, "sweep": sweep}))
    assert main([command, "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: the sweep block names neither a param nor values; a sweep needs both, "
        "or leave the block out\n"
    )


def test_flags_fill_an_empty_sweep_block(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"trials": 3, "sweep": {}}))
    args = ["sweep", "--config", str(path), "--param", "n_decoys", "--values", "1,2"]
    assert main(args) == 0
    out, _ = capsys.readouterr()
    assert len(json.loads(out.split("\n", 2)[2])) == 2


def _run_into_a_closed_pipe(args) -> subprocess.CompletedProcess:
    """Run Python with ``args`` and stdout on a pipe whose read end is already closed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=300,
        )
    finally:
        os.close(write_end)


# The report gate fails once its oracle says no attack is ever caught.
_FAILING_REPORT = (
    "import sys\n"
    "import eprlink.harness as harness\n"
    "harness.detection_oracle = lambda *args: (0.0, 'closed_form')\n"
    "from eprlink.cli import main\n"
    "sys.exit(main(['establish', '--trials', '20', '--attack', 'intercept_resend']))\n"
)


@pytest.mark.parametrize(
    "args,code",
    [
        ("-m eprlink.cli sweep --param n_decoys --values 1,2 --trials 3".split(), 0),
        (["-c", _FAILING_REPORT], 1),
    ],
)
def test_a_closed_stdout_ends_quietly_with_the_exit_code_the_reports_earned(args, code):
    proc = _run_into_a_closed_pipe(args)
    assert proc.stderr == ""
    assert proc.returncode == code


def test_a_closed_stdout_still_gets_the_report_file_written(tmp_path):
    out = tmp_path / "report.json"
    args = ["-m", "eprlink.cli", "establish", "--trials", "3", "--out", str(out)]
    proc = _run_into_a_closed_pipe(args)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(out.read_text())["trials"] == 3


def _fresh_modules(probe: str, names) -> list:
    """Which of ``names`` are in ``sys.modules`` after ``probe`` runs in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = f"import json, sys\n{probe}\nprint(json.dumps([m for m in {names!r} if m in sys.modules]))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_the_setup_path_imports_neither_argparse_nor_the_cli():
    """Loading a config, as library callers do, must not pay for the command line."""
    probe = "import eprlink\nfrom eprlink.harness import load_config"
    assert _fresh_modules(probe, ["argparse", "eprlink.cli"]) == []


def test_a_multiparty_setup_loads_neither_hashlib_nor_csv(tmp_path):
    """In the package only a qsdc integrity tag needs ``hashlib`` (OpenSSL) and only a CSV report
    ``csv``: importing the package and loading a multiparty config leave both unloaded,
    unless an interpreter that imports only numpy and json already has them.

    (``numpy.random`` loads ``hashlib`` through ``secrets`` once a trial draws, so the
    setup, not the run, is what this pins.)
    """
    config = tmp_path / "multiparty.json"
    config.write_text(json.dumps({"scenario": "multiparty", "cfg": {"parties": 3}}))
    names = ["_hashlib", "hashlib", "csv"]
    baseline = _fresh_modules("import numpy, json", names)
    probe = f"import eprlink\nfrom eprlink.harness import load_config\nload_config({str(config)!r})"
    assert [m for m in _fresh_modules(probe, names) if m not in baseline] == []


def test_the_parser_is_built_once_and_reused():
    from eprlink.cli import _build_parser

    assert _build_parser() is _build_parser()
    assert main(["game", "--trials", "3"]) == main(["game", "--trials", "3"]) == 0


def test_a_failing_trial_is_named_in_the_summary_line(monkeypatch, capsys):
    from eprlink import harness

    real = harness._trial_qsdc

    def flaky(ec, cfg, rng, index):
        if index == 3:
            raise RuntimeError("stub failure")
        return real(ec, cfg, rng, index)

    monkeypatch.setattr(harness, "_trial_qsdc", flaky)
    code = main(["qsdc", "--trials", "5", "--seed", "1", "--pairs", "4", "--decoys", "2"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in err
    summary = out.splitlines()[0]
    assert summary.endswith(" pass=false first_error=#3 RuntimeError: stub failure")
    assert json.loads(out.split("\n", 1)[1])["errors"] == 1


def test_a_batch_where_every_trial_raised_prints_no_band(monkeypatch, capsys):
    def broken(ec, cfg, rng, index):
        raise RuntimeError("stub failure")

    monkeypatch.setattr(harness, "_trial_establish", broken)
    args = ["--trials", "2", "--pairs", "4", "--decoys", "2", "--attack", "intercept_resend"]
    code = main(["establish", *args])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert out.splitlines()[0] == (
        "establish intercept_resend n=2 c=2 trials=2 detected=0 expected=0.4375 "
        "pass=false first_error=#0 RuntimeError: stub failure"
    )


@pytest.mark.parametrize("bit_errors, code", [(0, 0), (1, 1)])
def test_a_qsdc_run_that_delivered_wrong_bits_exits_1(monkeypatch, capsys, bit_errors, code):
    def delivered(ec, index, rng=None):
        return harness.TrialReport(
            index=index, status="delivered", delivered=True, bit_errors=bit_errors
        )

    monkeypatch.setattr(harness, "run_trial", delivered)
    assert main(["qsdc", "--trials", "2"]) == code
    out, err = capsys.readouterr()
    report = json.loads(out.split("\n", 1)[1])
    assert report["delivered"] == 2 and report["delivered_wrong"] == 2 * bit_errors
    assert report["pass"] is (code == 0) and err == ""
