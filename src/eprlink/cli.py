"""Command-line front end: run batches, sweeps, games, and a quick selftest.

Exit status is 0 only when every emitted report carries a true pass flag, so
the tool can sit directly in CI pipelines.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional

import numpy as np

from .harness import (
    ATTACK_NAMES,
    ExperimentConfig,
    GameSpec,
    attack_from_name,
    emit_report,
    load_config,
    run_experiment,
    run_sweep,
)
from .protocol import EstablishmentConfig


def _add_run_flags(p: argparse.ArgumentParser, with_attack: bool = True) -> None:
    p.add_argument("--config", help="JSON experiment description (flags override it)")
    p.add_argument("--seed", type=int, default=None, help="base seed for the batch")
    p.add_argument("--trials", type=int, default=None, help="number of independent runs")
    p.add_argument("--pairs", type=int, default=None, help="payload groups per run")
    p.add_argument("--decoys", type=int, default=None, help="decoys per channel use")
    p.add_argument(
        "--check-fraction", type=float, default=None, dest="check_fraction",
        help="fraction of payload positions spot-checked",
    )
    if with_attack:
        p.add_argument(
            "--attack", default=None,
            help="one of: " + ", ".join(ATTACK_NAMES) + ", or 'none'",
        )
    p.add_argument("--out", default=None, help="write the report to this path")
    p.add_argument("--format", default=None, choices=("json", "csv"), help="report format")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eprlink",
        description="Simulate relayed pair establishment and direct messaging, "
        "with a library of eavesdropping attacks and detection statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("establish", help="repeat pair establishment runs")
    _add_run_flags(p)

    p = sub.add_parser("qsdc", help="repeat direct-messaging runs")
    _add_run_flags(p)

    p = sub.add_parser("multiparty", help="repeat multi-receiver establishment runs")
    _add_run_flags(p)
    p.add_argument("--parties", type=int, default=None, help="number of end parties")

    p = sub.add_parser("game", help="play the transcript-distinguishing game")
    p.add_argument("--config", help="JSON experiment description (flags override it)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None, help="number of game instances")
    p.add_argument("--discussion", choices=("decoy", "pair_check"), default=None)
    p.add_argument("--strategy", choices=("passive", "fiat_clone", "fake_state"), default=None)
    p.add_argument("--challenge-len", type=int, default=None, dest="challenge_len")
    p.add_argument("--out", default=None)
    p.add_argument("--format", default=None, choices=("json", "csv"))

    p = sub.add_parser("sweep", help="repeat an experiment across parameter values")
    _add_run_flags(p)
    p.add_argument(
        "--scenario", choices=("establish", "qsdc", "multiparty"), default=None,
        help="which scenario to sweep (default: establish)",
    )
    p.add_argument(
        "--param", choices=("n_decoys", "checked_count", "check_fraction"), default=None,
    )
    p.add_argument("--values", default=None, help="comma-separated list, e.g. 1,5,10,20")

    sub.add_parser("selftest", help="run fast built-in invariant checks")
    return parser


def _scenario_for(args: argparse.Namespace) -> str:
    if args.command == "sweep":
        return args.scenario or "establish"
    return args.command


def _build_experiment(args: argparse.Namespace) -> ExperimentConfig:
    if getattr(args, "config", None):
        ec = load_config(args.config)
    else:
        ec = ExperimentConfig(scenario=_scenario_for(args))

    cfg_updates = {}
    for flag, name in (
        ("pairs", "m_pairs"),
        ("decoys", "n_decoys"),
        ("check_fraction", "check_fraction"),
        ("parties", "parties"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            cfg_updates[name] = value
    cfg = replace(ec.cfg, **cfg_updates) if cfg_updates else ec.cfg

    updates = {"scenario": _scenario_for(args), "cfg": cfg}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        updates["trials"] = args.trials
    if getattr(args, "out", None) is not None:
        updates["output_path"] = args.out
    if getattr(args, "format", None) is not None:
        updates["output_format"] = args.format
    if getattr(args, "attack", None) is not None:
        updates["attack"] = None if args.attack == "none" else attack_from_name(args.attack)

    if args.command == "game":
        game = ec.game or GameSpec()
        game_updates = {}
        if args.discussion is not None:
            game_updates["discussion"] = args.discussion
        if args.strategy is not None:
            game_updates["strategy"] = args.strategy
        if args.challenge_len is not None:
            game_updates["challenge_len"] = args.challenge_len
        if game_updates:
            game = replace(game, **game_updates)
        updates["game"] = game

    if args.command == "sweep":
        if args.param is not None:
            updates["sweep_param"] = args.param
        if args.values is not None:
            raw = [v.strip() for v in args.values.split(",") if v.strip()]
            if (updates.get("sweep_param") or ec.sweep_param) == "check_fraction":
                updates["sweep_values"] = tuple(float(v) for v in raw)
            else:
                updates["sweep_values"] = tuple(int(v) for v in raw)
        if updates.get("sweep_param") is None and ec.sweep_param is None:
            raise ValueError("sweep needs --param and --values (or a config with a sweep block)")

    return replace(ec, **updates)


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

    for report in reports:
        print(report.summary_line())
    text = emit_report(reports if len(reports) > 1 else reports[0], ec.output_format, ec.output_path)
    if ec.output_path is not None:
        print(f"wrote {ec.output_path}")
    else:
        sys.stdout.write(text)

    all_passed = all(getattr(r, "passed", True) for r in reports)
    return 0 if all_passed else 1


# --- selftest -------------------------------------------------------------------


def _require(ok: bool, message: str) -> None:
    """Raise unless ``ok``; unlike ``assert``, this also runs under ``python -O``."""
    if not ok:
        raise AssertionError(message)


def _check_pair_correlations() -> None:
    from .qcore import Basis, QuantumRegister

    rng = np.random.default_rng(7)
    reg = QuantumRegister()
    for _ in range(300):
        qa, qb = reg.prepare_epr_pair()
        basis = Basis.Z if int(rng.integers(2)) == 0 else Basis.X
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


def _check_honest_establishment() -> None:
    rng = np.random.default_rng(17)
    from .protocol import ghz_target_vector, run_establishment

    cfg = EstablishmentConfig(m_pairs=6, n_decoys=4)
    out = run_establishment(cfg, rng=rng)
    _require(out.established, f"honest run aborted: {out.detail}")
    target = ghz_target_vector(2)
    reg = out.session.register
    for i in range(out.pairs_established):
        fid = reg.state_fidelity(out.pair_group(i), target)
        _require(fid >= 1 - 1e-10, f"pair {i} fidelity {fid}")


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
