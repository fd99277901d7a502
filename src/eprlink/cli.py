"""Command-line front end: run batches, sweeps, games, and a quick selftest.

Exit status is 0 only when every emitted report carries a true pass flag, so
the tool can sit directly in CI pipelines.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache
from typing import List, Optional

import numpy as np

from .harness import (
    CONFIG_KEYS,
    RUN_SCENARIOS,
    ExperimentConfig,
    GameSpec,
    emit_report,
    load_config,
    run_experiment,
    run_sweep,
)
from .protocol import EstablishmentConfig
from .seeding import draw_below


# The subcommands that run batches, in help order.
_COMMANDS = (
    ("establish", "repeat pair establishment runs"),
    ("qsdc", "repeat direct-messaging runs"),
    ("multiparty", "repeat multi-receiver establishment runs"),
    ("game", "play the transcript-distinguishing game"),
    ("sweep", "repeat an experiment across parameter values"),
)


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused by later ones."""
    parser = argparse.ArgumentParser(
        prog="eprlink",
        description="Simulate relayed pair establishment and direct messaging, "
        "with a library of eavesdropping attacks and detection statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in _COMMANDS:
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON experiment description (flags override it)")
        for key in CONFIG_KEYS:
            if command not in key.commands:
                continue
            # A sweep runs the protocol, so its --scenario cannot name the game.
            choices = RUN_SCENARIOS if key.path == ("scenario",) else key.choices or None
            kind = {"integer": int, "number": float}.get(key.rule)
            p.add_argument(key.flag, dest=key.field, type=kind, choices=choices, help=key.help)
    sub.add_parser("selftest", help="run fast built-in invariant checks")
    return parser


def _build_experiment(args: argparse.Namespace) -> ExperimentConfig:
    flags = {}
    for key in CONFIG_KEYS:
        value = getattr(args, key.field, None)
        if value is not None:
            flags[key.path] = key.parse(value) if key.parse else value
    fixed = None if args.command == "sweep" else args.command
    ec = load_config(args.config, flags, fixed)
    if args.command == "sweep" and ec.sweep_param is None:
        raise ValueError("sweep needs --param and --values (or a config with a sweep block)")
    return ec


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "selftest":
        return selftest()
    try:
        ec = _build_experiment(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if ec.sweep_param is not None:
        reports = run_sweep(ec)
    else:
        reports = [run_experiment(ec)]

    # The report file is written first: a reader may close stdout early.
    text = emit_report(reports, ec.output_format, ec.output_path)
    lines = [report.summary_line() + "\n" for report in reports]
    lines.append(f"wrote {ec.output_path}\n" if ec.output_path is not None else text)
    _write_stdout(lines)

    all_passed = all(getattr(r, "passed", True) for r in reports)
    return 0 if all_passed else 1


def _write_stdout(chunks: List[str]) -> None:
    """Write to stdout; a reader that closed it early (``| head``) just ends the output."""
    try:
        for chunk in chunks:
            sys.stdout.write(chunk)
        sys.stdout.flush()
    except BrokenPipeError:
        # Send what is still buffered to the null device, so the interpreter's
        # final flush at exit does not raise the same error again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


# --- selftest -------------------------------------------------------------------


def _require(ok: bool, message: str) -> None:
    """Raise unless ``ok``; unlike ``assert``, this also runs under ``python -O``."""
    if not ok:
        raise AssertionError(message)


def _check_pair_correlations() -> None:
    from .qcore import BASIS_BY_BIT, QuantumRegister

    rng = np.random.default_rng(7)
    reg = QuantumRegister()
    for _ in range(300):
        qa, qb = reg.prepare_epr_pair()
        basis = BASIS_BY_BIT[draw_below(rng, 2)]
        a = reg.measure(qa, basis, rng).bit
        b = reg.measure(qb, basis, rng).bit
        _require(a == b, f"same-basis outcomes differ in {basis}")
        reg.discard(qa)
        reg.discard(qb)


def _check_coding_roundtrip() -> None:
    from .qcore import PauliCode, QuantumRegister

    rng = np.random.default_rng(11)
    reg = QuantumRegister()
    for code in PauliCode:
        qa, qb = reg.prepare_epr_pair()
        reg.apply_pauli(qa, code)
        outcome = reg.bell_measure(qa, qb, rng)
        _require(outcome.bits == code.bits, f"{code} decoded as {outcome.bits}")


def _check_probe_parity() -> None:
    from .qcore import Basis, PauliCode, QuantumRegister

    rng = np.random.default_rng(13)
    reg = QuantumRegister()
    for code in PauliCode:
        qa, qb = reg.prepare_epr_pair()
        probe = reg.prepare_single("0")
        reg.apply_cnot(qb, probe)
        reg.apply_pauli(qa, code)
        reg.apply_cnot(qa, probe)
        bit = reg.measure(probe, Basis.Z, rng).bit
        _require(bit == code.bits[0], f"probe read {bit} for {code}")
        outcome = reg.bell_measure(qa, qb, rng)
        _require(outcome.bits == code.bits, f"{code} not decodable after probing")
        reg.discard(probe)


def _check_clone_table() -> None:
    import math

    from .qcore import attempt_clone_unitary, cnot_matrix

    fids = attempt_clone_unitary(cnot_matrix(), ("0", "1", "+", "-"))
    expected = {"0": 1.0, "1": 1.0, "+": 0.5, "-": 0.0}
    for label, want in expected.items():
        _require(math.isclose(fids[label], want, abs_tol=1e-12), f"{label}: fidelity {fids[label]}")


def _check_oracle_values() -> None:
    import math

    from .adversaries import (
        dense_coding_detection,
        entanglement_swap_detection,
        intercept_resend_detection,
        modification_detection,
    )

    cases = (
        ("intercept_resend_detection(1)", intercept_resend_detection(1), 0.25),
        ("intercept_resend_detection(10)", intercept_resend_detection(10), 1 - 0.75**10),
        ("dense_coding_detection(3)", dense_coding_detection(3), 1 - 0.5**3),
        ("entanglement_swap_detection(4)", entanglement_swap_detection(4), 1 - 0.5**4),
        (
            "modification_detection('all_slots', 5, 7)",
            modification_detection("all_slots", 5, 7),
            1 - 0.5**5,
        ),
    )
    for name, got, want in cases:
        _require(math.isclose(got, want, abs_tol=1e-15), f"{name} = {got}, expected {want}")


def _check_honest_establishment(parties: int = 2, seed: int = 17) -> None:
    rng = np.random.default_rng(seed)
    from .protocol import ghz_target_vector, run_multiparty

    cfg = EstablishmentConfig(m_pairs=6, n_decoys=4, parties=parties)
    out = run_multiparty(cfg, rng=rng)
    _require(out.established, f"honest run aborted: {out.detail}")
    _require(out.pairs_established > 0, "honest run kept no group")
    target = ghz_target_vector(parties)
    reg = out.session.register
    for i in range(out.pairs_established):
        fid = reg.state_fidelity(out.pair_group(i), target)
        _require(fid >= 1 - 1e-10, f"group {i} fidelity {fid}")


def _check_honest_messaging() -> None:
    from .qsdc import run_qsdc

    rng = np.random.default_rng(19)
    cfg = EstablishmentConfig(m_pairs=6, n_decoys=4, check_fraction=0.5)
    out = run_qsdc(cfg, rng=rng)
    _require(out.delivered, f"honest message not delivered: {out.detail}")
    _require(out.decoded == out.message.bits, "decoded bits differ from the message")


def _check_game_extremes() -> None:
    from .harness import run_distinguishing_game

    clone = run_distinguishing_game(GameSpec(strategy="fiat_clone"), 200, seed=23)
    _require(clone.advantage > 0.9, f"cloner advantage only {clone.advantage}")
    passive = run_distinguishing_game(GameSpec(strategy="passive"), 400, seed=29)
    _require(passive.advantage < 0.2, f"passive advantage {passive.advantage}")


def selftest() -> int:
    """Fast invariant checks runnable without any test framework."""
    checks = (
        ("same-basis pair correlations", _check_pair_correlations),
        ("two-bit coding roundtrip", _check_coding_roundtrip),
        ("probe parity leak and decodability", _check_probe_parity),
        ("copier unitary fidelities", _check_clone_table),
        ("detection oracle values", _check_oracle_values),
        ("honest establishment", _check_honest_establishment),
        ("honest three-party establishment", lambda: _check_honest_establishment(3, 31)),
        ("honest messaging roundtrip", _check_honest_messaging),
        ("distinguishing game extremes", _check_game_extremes),
    )
    failures = 0
    for name, fn in checks:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            failures += 1
            print(f"FAIL - {name}: {exc}")
        else:
            print(f"ok   - {name}")
    print(f"{len(checks) - failures}/{len(checks)} selftest checks passed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
