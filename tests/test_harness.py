"""Harness tests: oracle routing, experiment configs, the seeded trial loop,
reproducible reports, report serialization, config-file parsing, and the
distinguishing game."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from eprlink.adversaries import (
    Adversary,
    AttackKind,
    AttackSpec,
    swap_per_position_pass_probability,
)
from eprlink.channels import ALICE, BOB, EVE, TP1, TP2, TrojanKind
from eprlink.protocol import EstablishmentConfig
from eprlink import harness, seeding
from eprlink.harness import (
    ATTACK_NAMES,
    CSV_COLUMNS,
    GAME_CSV_COLUMNS,
    AggregateReport,
    ExperimentConfig,
    GameError,
    GameInstance,
    GameSpec,
    TrialReport,
    attack_from_name,
    attack_label,
    emit_report,
    load_config,
    parse_attack,
    run_distinguishing_game,
    run_experiment,
    run_sweep,
    strategy_fiat_clone,
)


SMALL = EstablishmentConfig(m_pairs=4, n_decoys=3, check_fraction=0.5)


# --- oracle routing ------------------------------------------------------------------


def test_analytic_detection_closed_forms():
    def oracle(kind, n_decoys, m_pairs=4, check_fraction=0.5):
        cfg = EstablishmentConfig(m_pairs=m_pairs, n_decoys=n_decoys, check_fraction=check_fraction)
        rate, source = harness.detection_oracle(AttackSpec(kind), cfg, True)
        assert source == "closed_form"
        return rate

    assert oracle(AttackKind.INTERCEPT_RESEND, 5) == pytest.approx(1 - 0.75**5)
    assert oracle(AttackKind.CORRELATION_ELICITATION, 4) == pytest.approx(1 - 0.75**4)
    assert oracle(AttackKind.DENSE_CODING, 3) == pytest.approx(1 - 0.5**3)
    # The corrupted source is caught by the spot check: 4 of 10 positions here.
    assert oracle(AttackKind.ENTANGLEMENT_SWAP, 0, 10, 0.4) == pytest.approx(1 - 0.5**4)


@pytest.mark.parametrize("name", ATTACK_NAMES)
def test_attack_from_name_covers_every_shorthand(name):
    spec = attack_from_name(name)
    assert isinstance(spec, AttackSpec)
    if name.startswith("modification_"):
        assert spec.kind is AttackKind.MODIFICATION
        assert spec.strategy == name[len("modification_"):]
    elif name.startswith("trojan_"):
        assert spec.kind is AttackKind.TROJAN_HORSE
        assert spec.trojan is TrojanKind(name[len("trojan_"):])
    else:
        assert spec.kind.value == name


def test_attack_from_name_rejects_unknown():
    with pytest.raises(ValueError, match="unknown attack name"):
        attack_from_name("blitz")


def test_attack_labels():
    assert attack_label(None) == ""
    assert attack_label(AttackSpec(kind=AttackKind.INTERCEPT_RESEND)) == "intercept_resend"
    assert (
        attack_label(AttackSpec(kind=AttackKind.MODIFICATION, strategy="all_slots"))
        == "modification:all_slots"
    )
    assert (
        attack_label(AttackSpec(kind=AttackKind.TROJAN_HORSE))
        == "trojan_horse:invisible_photon"
    )


# --- experiment configuration ---------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(scenario="teleport"), "scenario must be"),
        (dict(trials=0), "trials"),
        (dict(output_format="xml"), "output_format"),
        (
            dict(cfg=EstablishmentConfig(m_pairs=4, n_decoys=2, parties=3)),
            "two end parties",
        ),
        (
            dict(
                scenario="qsdc",
                cfg=EstablishmentConfig(m_pairs=4, n_decoys=2, parties=3),
            ),
            "two end parties",
        ),
        (
            dict(attack=AttackSpec(kind=AttackKind.MODIFICATION, strategy="single_slot")),
            "message relay",
        ),
        (
            dict(attack=AttackSpec(kind=AttackKind.MODIFICATION, strategy="tp2_decoy_aware")),
            "message relay",
        ),
        (
            dict(
                scenario="multiparty",
                cfg=EstablishmentConfig(m_pairs=4, n_decoys=2, parties=3),
                attack=AttackSpec(kind=AttackKind.ENTANGLEMENT_SWAP),
            ),
            "two-party pairs only",
        ),
        (dict(sweep_param="m_pairs", sweep_values=(1, 2)), "sweep_param"),
        (dict(sweep_param="n_decoys"), "sweep_values"),
        (dict(trials=2**32 + 1), "trials must be between 1 and 4294967296"),
        (dict(seed=-1), "seed must be >= 0"),
    ],
)
def test_experiment_config_rejects_bad_setups(kwargs, match):
    with pytest.raises(ValueError, match=match):
        ExperimentConfig(**kwargs)


def _attack_variants():
    """Every named attack, and each one moved onto each relay leg it may tap."""
    out = []
    for name in ATTACK_NAMES:
        spec = attack_from_name(name)
        out.append(pytest.param(spec, id=name))
        for edge in [(ALICE, TP2), (TP2, BOB)]:
            try:
                moved = replace(spec, actor=EVE, edge=edge)
            except ValueError:
                continue  # pinned to its own roles
            if moved != spec:
                out.append(pytest.param(moved, id=f"{name}@{edge[0]}-{edge[1]}"))
    return out


@pytest.mark.parametrize("spec", _attack_variants())
def test_relay_attacks_run_only_under_qsdc(spec):
    # Steps 2 and 3 end before establishment does; every later check guards the message relay.
    relay = spec.detection_site not in ("step2", "step3")
    for scenario, parties in (("establish", 2), ("multiparty", 3)):
        cfg = EstablishmentConfig(m_pairs=4, n_decoys=2, parties=parties)
        if relay:
            with pytest.raises(ValueError, match="message relay"):
                ExperimentConfig(scenario=scenario, cfg=cfg, attack=spec)
            continue
        try:
            ExperimentConfig(scenario=scenario, cfg=cfg, attack=spec)
        except ValueError as exc:  # the corrupted source makes two-party pairs only
            assert "message relay" not in str(exc)
    ExperimentConfig(scenario="qsdc", cfg=EstablishmentConfig(m_pairs=4, n_decoys=2), attack=spec)


def test_game_scenario_gets_a_default_game_spec():
    ec = ExperimentConfig(scenario="game")
    assert isinstance(ec.game, GameSpec)
    assert ec.game.discussion == "decoy"


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(discussion="parity"), "discussion"),
        (dict(strategy="bruteforce"), "unknown strategy"),
        (dict(challenge_len=0), "challenge_len"),
    ],
)
def test_game_spec_rejects_bad_setups(kwargs, match):
    with pytest.raises(ValueError, match=match):
        GameSpec(**kwargs)


# --- running experiments ---------------------------------------------------------------


def test_honest_establish_aggregate():
    ec = ExperimentConfig(scenario="establish", cfg=SMALL, trials=50, seed=5)
    agg = run_experiment(ec)
    assert agg.trials == 50 and agg.completed == 50 and agg.errors == 0
    assert agg.detection_rate == 0.0
    assert agg.oracle_rate == 0.0 and agg.oracle_source == "closed_form"
    assert agg.passed
    assert agg.status_counts == {"established": 50}
    assert agg.established == 50
    assert agg.min_pair_fidelity is not None and agg.min_pair_fidelity >= 1 - 1e-9


def test_honest_qsdc_aggregate():
    ec = ExperimentConfig(scenario="qsdc", cfg=SMALL, trials=40, seed=6)
    agg = run_experiment(ec)
    assert agg.delivered == 40 and agg.delivered_wrong == 0
    assert agg.passed and agg.detection_rate == 0.0


def test_a_qsdc_batch_that_delivered_wrong_bits_fails():
    ec = ExperimentConfig(scenario="qsdc", cfg=SMALL, trials=3, seed=6)

    def delivered(index, bit_errors):
        return TrialReport(index=index, status="delivered", delivered=True, bit_errors=bit_errors)

    right = harness._aggregate(ec, [delivered(i, 0) for i in range(3)])
    assert right.passed and right.delivered == 3 and right.delivered_wrong == 0
    wrong = harness._aggregate(ec, [delivered(0, 0), delivered(1, 2), delivered(2, 0)])
    assert wrong.delivered == 3 and wrong.delivered_wrong == 1
    assert wrong.detection_rate == wrong.oracle_rate == 0.0 and wrong.errors == 0
    assert not wrong.passed


def test_a_wrong_second_decoded_bit_is_a_bit_error(monkeypatch):
    """Every decoded bit is compared, the second of each pair too."""
    run_qsdc = harness.run_qsdc

    def second_bit_flipped(*args, **kwargs):
        out = run_qsdc(*args, **kwargs)
        if out.delivered:
            out.decoded = (out.decoded[0], 1 - out.decoded[1], *out.decoded[2:])
        return out

    monkeypatch.setattr(harness, "run_qsdc", second_bit_flipped)
    ec = ExperimentConfig(scenario="qsdc", cfg=SMALL, trials=3, seed=6)
    assert harness.run_trial(ec, 0).bit_errors == 1
    report = run_experiment(ec)
    assert report.delivered_wrong >= 1 and not report.passed


@pytest.mark.parametrize("fidelities", [(0.5, 1.0), (1.0, 0.5)])
def test_the_report_keeps_the_lowest_pair_fidelity(fidelities):
    ec = ExperimentConfig(scenario="establish", cfg=SMALL, trials=2, seed=5)
    reports = [
        TrialReport(index=i, status="established", min_pair_fidelity=f)
        for i, f in enumerate(fidelities)
    ]
    assert harness._aggregate(ec, reports).min_pair_fidelity == 0.5


def test_attacked_qsdc_counts_at_the_right_site():
    cfg = EstablishmentConfig(m_pairs=6, n_decoys=4, check_fraction=0.5)
    spec = AttackSpec(kind=AttackKind.MODIFICATION, strategy="tp2_decoy_aware")
    ec = ExperimentConfig(scenario="qsdc", cfg=cfg, attack=spec, trials=150, seed=7)
    agg = run_experiment(ec)
    assert agg.site == "mac"
    assert agg.attack == "modification:tp2_decoy_aware"
    assert agg.passed
    assert agg.detected_at_site == agg.status_counts.get("mac_rejected", 0)
    assert agg.delivered_wrong == 0


def test_site_scoped_counting_separates_compounded_aborts():
    # A measured distribution leg also ruins pairs, so some runs abort at the
    # later correlation check; only step-2 aborts may be held against the
    # per-decoy prediction.
    cfg = EstablishmentConfig(m_pairs=6, n_decoys=2, check_fraction=0.5)
    spec = AttackSpec(kind=AttackKind.INTERCEPT_RESEND)
    ec = ExperimentConfig(scenario="establish", cfg=cfg, attack=spec, trials=400, seed=8)
    agg = run_experiment(ec)
    assert agg.site == "step2"
    assert agg.site_counts.get("step3", 0) > 0
    assert agg.detected_any == agg.detected_at_site + agg.site_counts.get("step3", 0)
    assert agg.detected_at_site == agg.site_counts.get("step2", 0)
    assert agg.passed


@pytest.mark.parametrize("edge", [(TP1, ALICE), (TP1, BOB), (ALICE, TP2), (TP2, BOB)])
def test_decoy_counts_come_from_the_attacked_leg(edge):
    # Every other leg is honest, so each trial reaches the attacked leg's
    # discussion and compares all n of its decoys; a measure-and-resend in a
    # random basis fails each decoy with chance 1/4.
    cfg = EstablishmentConfig(m_pairs=6, n_decoys=3)
    spec = AttackSpec(kind=AttackKind.INTERCEPT_RESEND, actor=EVE, edge=edge)
    ec = ExperimentConfig(scenario="qsdc", cfg=cfg, attack=spec, trials=400, seed=31)
    agg = run_experiment(ec)
    assert agg.errors == 0
    assert agg.decoys_checked == ec.trials * cfg.n_decoys
    band = 3 * math.sqrt(0.25 * 0.75 / agg.decoys_checked)
    assert abs(agg.per_decoy_mismatch_rate - 0.25) <= band


def test_run_experiment_is_deterministic_per_seed():
    spec = AttackSpec(kind=AttackKind.INTERCEPT_RESEND)
    ec = ExperimentConfig(scenario="establish", cfg=SMALL, attack=spec, trials=60, seed=9)
    a = run_experiment(ec)
    b = run_experiment(ec)
    assert a.to_json_dict() == b.to_json_dict()
    assert [t.status for t in a.trial_reports] == [t.status for t in b.trial_reports]
    c = run_experiment(
        ExperimentConfig(scenario="establish", cfg=SMALL, attack=spec, trials=60, seed=10)
    )
    assert [t.status for t in a.trial_reports] != [t.status for t in c.trial_reports]


# --- the trial loop -------------------------------------------------------------------


SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 9, 2**130 + 77)


def _assert_same_generators(ours, seed: int, count: int) -> None:
    children = np.random.SeedSequence(seed).spawn(count)
    assert len(ours) == count
    for child, rng in zip(children, ours):
        reference = np.random.default_rng(child)
        assert rng.bit_generator.state == reference.bit_generator.state
        assert rng.random() == reference.random()
        assert rng.integers(4, size=5).tolist() == reference.integers(4, size=5).tolist()


@pytest.mark.parametrize("count", [0, 1, 300])
@pytest.mark.parametrize("seed", SEEDS)
def test_trial_generators_are_numpys_spawned_children(seed, count):
    _assert_same_generators(list(seeding.trial_rngs(seed, count)), seed, count)


@pytest.mark.parametrize("seed", SEEDS)
def test_sweep_point_seeds_match_numpy(seed):
    for i in (0, 1, 7, 2**32 + 3):
        expected = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
        assert seeding.sweep_seed(seed, i) == expected


def test_trial_generators_reject_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        next(seeding.trial_rngs(-1, 1))


def test_derived_child_words_only_seed_pcg64():
    row = seeding._child_states(5, 1)[0]
    words = seeding._child_words_type()(row)
    assert words.generate_state(4, np.uint64) is row
    with pytest.raises(ValueError):
        words.generate_state(8, np.uint32)


def test_a_trial_replays_from_its_batch_seed_and_index():
    spec = AttackSpec(kind=AttackKind.INTERCEPT_RESEND)
    ec = ExperimentConfig(scenario="establish", cfg=SMALL, attack=spec, trials=12, seed=41)
    batch = run_experiment(ec).trial_reports
    child = np.random.SeedSequence(41).spawn(12)[9]
    replayed = harness._trial_establish(ec, ec.cfg, np.random.default_rng(child), 9)
    assert replayed == batch[9]


def test_trial_rng_is_that_child_of_the_batch():
    for seed in SEEDS:
        batch = list(seeding.trial_rngs(seed, 40))
        children = np.random.SeedSequence(seed).spawn(40)
        for index in (0, 1, 17, 39):
            state = seeding.trial_rng(seed, index).bit_generator.state
            assert state == batch[index].bit_generator.state
            assert state == np.random.default_rng(children[index]).bit_generator.state
    last = seeding.MAX_TRIALS - 1
    child = np.random.SeedSequence(9, spawn_key=(last,))
    assert seeding.trial_rng(9, last).random() == np.random.default_rng(child).random()
    for index in (-1, seeding.MAX_TRIALS):
        with pytest.raises(ValueError, match="trial index"):
            seeding.trial_rng(9, index)


def _trial_seam_configs():
    out = []
    for scenario, parties in (("establish", 2), ("qsdc", 2), ("multiparty", 3)):
        cfg = EstablishmentConfig(m_pairs=4, n_decoys=2, check_fraction=0.5, parties=parties)
        for name in (None, *ATTACK_NAMES):
            attack = None if name is None else attack_from_name(name)
            try:
                ec = ExperimentConfig(scenario=scenario, cfg=cfg, attack=attack, trials=9, seed=23)
            except ValueError:
                continue  # not an attack this scenario runs
            out.append(pytest.param(ec, id=f"{scenario}-{name or 'honest'}"))
    return out


@pytest.mark.parametrize("ec", _trial_seam_configs())
def test_run_trial_is_that_trial_of_the_batch(ec):
    batch = run_experiment(ec).trial_reports
    for index in (0, 4, 8):
        assert harness.run_trial(ec, index) == batch[index]
    child = np.random.default_rng(np.random.SeedSequence(ec.seed).spawn(9)[5])
    assert harness.run_trial(ec, 5, child) == batch[5]


def test_run_trial_records_an_error_as_the_batch_does(monkeypatch):
    monkeypatch.setattr(harness, "build_adversary", lambda s: _JammedProbe(s.actor, s.edge))
    spec = AttackSpec(kind=AttackKind.ENTANGLE_MEASURE)
    ec = ExperimentConfig(scenario="establish", cfg=SMALL, attack=spec, trials=4, seed=11)
    batch = run_experiment(ec).trial_reports
    for index in range(4):
        report = harness.run_trial(ec, index)
        assert report == batch[index] and report.error == "RuntimeError: probe jammed"


def test_run_trial_calls_the_trial_runner_through_the_module(monkeypatch):
    calls = []
    for name in ("_trial_establish", "_trial_qsdc"):
        runner = getattr(harness, name)

        def counted(*args, _runner=runner, _name=name):
            calls.append(_name)
            return _runner(*args)

        monkeypatch.setattr(harness, name, counted)
    for scenario in ("establish", "qsdc", "multiparty"):
        parties = 3 if scenario == "multiparty" else 2
        cfg = EstablishmentConfig(m_pairs=4, n_decoys=2, parties=parties)
        ec = ExperimentConfig(scenario=scenario, cfg=cfg, trials=3, seed=2)
        calls.clear()
        harness.run_trial(ec, 1)
        run_experiment(ec)
        want = "_trial_qsdc" if scenario == "qsdc" else "_trial_establish"
        assert calls == [want] * 4
    with pytest.raises(ValueError, match="run_trial serves"):
        harness.run_trial(ExperimentConfig(scenario="game"), 0)


@pytest.mark.parametrize("scenario,parties", [("establish", 2), ("multiparty", 3)])
def test_each_group_reads_its_fidelity_once_and_an_honest_batch_computes_it_once(
    monkeypatch, scenario, parties
):
    from eprlink import qcore

    calls = []
    original = qcore.QuantumRegister.state_fidelity

    def counted(self, qubits, target):
        calls.append(len(qubits))
        return original(self, qubits, target)

    monkeypatch.setattr(qcore.QuantumRegister, "state_fidelity", counted)
    qcore._FIDELITY_CACHE.clear()
    cfg = EstablishmentConfig(m_pairs=10, n_decoys=10, check_fraction=0.3, parties=parties)
    agg = run_experiment(ExperimentConfig(scenario=scenario, cfg=cfg, trials=20, seed=3))
    assert agg.established == 20
    assert calls == [parties] * (20 * (cfg.m_pairs - cfg.checked_count))
    assert len(qcore._FIDELITY_CACHE) == 1
    qcore._FIDELITY_CACHE.clear()


# --- what each 3-sigma gate costs ---------------------------------------------------


def _oracle(kind, m, n, fraction):
    cfg = EstablishmentConfig(m_pairs=m, n_decoys=n, check_fraction=fraction)
    return harness.detection_oracle(AttackSpec(kind=kind), cfg, True)[0]


# (gate, p, trials, exact level, the level in percent as ROADMAP states it, if it does).
# Report gates read the report's oracle; the acceptance tests' own gates read the
# closed form those tests compare with.  Honest gates (p = 0) never fail by chance.
GATES = [
    *[
        (f"intercept_sweep n={n}", _oracle(AttackKind.INTERCEPT_RESEND, 2, n, 0.5), 200, level, text)
        for n, level, text in (
            (1, 0.0024876523625264064, "0.249"),
            (5, 0.0027295029011379724, "0.273"),
            (10, 0.0023105788429325183, "0.231"),
            (20, 0.003997566472979975, "0.400"),
        )
    ],
    *[
        (f"criterion 03 n={n}", _oracle(AttackKind.INTERCEPT_RESEND, 2, n, 0.5), 10_000, level,
         "0.26-0.29")
        for n, level in (
            (1, 0.0027828465279655305),
            (5, 0.002726610182202466),
            (10, 0.0025872758861190614),
            (20, 0.002930258090862034),
        )
    ],
    ("criterion 04 per decoy", 0.25, 10_000, 0.0027828465279655305, None),
    ("criterion 04 sequence", 1.0 - 0.75**10, 1000, 0.002574201646277316, None),
    *[
        (f"criterion 05 n={n}", 1.0 - 0.5**n, 4000, level, None)
        for n, level in (
            (1, 0.002800327819306062),
            (5, 0.0023858286742505126),
            (10, 0.006933513343570815),
        )
    ],
    ("criterion 06 per position", swap_per_position_pass_probability(), 10_000,
     0.002699352712164204, None),
    *[
        (f"criterion 06 c={c}", 1.0 - 0.5**c, 3000, level, None)
        for c, level in (
            (1, 0.002585506558726359),
            (4, 0.002581460198404684),
            (8, 0.0046859594336720965),
        )
    ],
    ("dense_coding n=10", _oracle(AttackKind.DENSE_CODING, 10, 10, 0.3), 1000,
     0.017526910909675984, "1.75"),
    ("entanglement_swap c=3", _oracle(AttackKind.ENTANGLEMENT_SWAP, 10, 10, 0.3), 1500,
     0.0030234472363709387, "0.30"),
]


def _exact_false_fail(p: float, n: int) -> Fraction:
    """The same mass in exact rational arithmetic, p read as its exact binary value."""
    p_exact, sigma3 = Fraction(p), 3.0 * math.sqrt(p * (1.0 - p) / n)
    return sum(
        math.comb(n, k) * p_exact**k * (1 - p_exact) ** (n - k)
        for k in range(n + 1)
        if not abs(k / n - p) <= sigma3
    )


@pytest.mark.parametrize("gate,p,trials,level,text", GATES, ids=[g[0] for g in GATES])
def test_each_gate_has_its_pinned_false_fail_level(gate, p, trials, level, text):
    got = harness.gate_false_fail(p, trials)
    assert got == pytest.approx(level, rel=1e-9)
    if text == "0.26-0.29":
        assert 0.26 <= round(100 * got, 2) <= 0.29
    elif text is not None:
        assert f"{100 * got:.{len(text) - 2}f}" == text
    if trials <= 200:
        assert got == pytest.approx(float(_exact_false_fail(p, trials)), rel=1e-10)


@pytest.mark.parametrize("p", [0.5, 0.1, 0.75, 0.999])
@pytest.mark.parametrize("n", [1, 2, 7, 30])
def test_gate_false_fail_is_the_exact_mass_outside_the_band(p, n):
    want = float(_exact_false_fail(p, n))
    assert harness.gate_false_fail(p, n) == pytest.approx(want, rel=1e-10)


def test_gate_false_fail_edges():
    assert harness.gate_false_fail(0.0, 50) == 0.0 == harness.gate_false_fail(1.0, 50)
    assert harness.gate_false_fail(0.5, 1) == 0.0  # either count is 0.5 from p, inside 1.5
    assert harness.gate_false_fail(0.5, 100) == pytest.approx(float(_exact_false_fail(0.5, 100)))
    for p, n in ((-0.1, 10), (1.5, 10), (0.5, 0), (math.nan, 10)):
        with pytest.raises(ValueError, match="gate_false_fail needs"):
            harness.gate_false_fail(p, n)


def test_loading_a_config_leaves_numpy_random_unimported(tmp_path):
    """Generators are built only when a batch runs, so setup never pays for numpy.random."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scenario": "game", "trials": 3, "seed": 2}))
    probe = (
        "import sys\n"
        "import eprlink\n"
        "from eprlink.harness import load_config\n"
        "load_config(sys.argv[1])\n"
        "print('numpy' in sys.modules, 'numpy.random' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(config)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]


class _JammedProbe(Adversary):
    def on_quantum_in_flight(self, net, edge, qubits):
        raise RuntimeError("probe jammed")


def test_failing_trials_are_recorded_not_raised(monkeypatch):
    monkeypatch.setattr(harness, "build_adversary", lambda s: _JammedProbe(s.actor, s.edge))
    spec = AttackSpec(kind=AttackKind.ENTANGLE_MEASURE)
    ec = ExperimentConfig(scenario="establish", cfg=SMALL, attack=spec, trials=5, seed=11)
    agg = run_experiment(ec)
    assert agg.errors == 5 and agg.completed == 0
    assert not agg.passed
    assert all(t.status == "error" and t.error for t in agg.trial_reports)


def test_trojan_oracle_follows_filter_switch():
    spec = AttackSpec(kind=AttackKind.TROJAN_HORSE)
    cfg = EstablishmentConfig(m_pairs=3, n_decoys=2, check_fraction=0.5)
    on = run_experiment(
        ExperimentConfig(scenario="qsdc", cfg=cfg, attack=spec, trials=20, seed=12)
    )
    assert on.oracle_rate == 1.0 and on.oracle_source == "deterministic"
    assert on.detection_rate == 1.0 and on.passed
    off = run_experiment(
        ExperimentConfig(
            scenario="qsdc", cfg=cfg, attack=spec, trials=20, seed=12, filters_enabled=False
        )
    )
    assert off.oracle_rate == 0.0 and off.detection_rate == 0.0 and off.passed
    assert off.delivered == 20


# --- sweeps ------------------------------------------------------------------------------


def test_sweep_over_decoy_count():
    spec = AttackSpec(kind=AttackKind.INTERCEPT_RESEND)
    ec = ExperimentConfig(
        scenario="establish",
        cfg=EstablishmentConfig(m_pairs=2, n_decoys=1, check_fraction=0.5),
        attack=spec,
        trials=300,
        seed=13,
        sweep_param="n_decoys",
        sweep_values=(1, 3, 6),
    )
    aggs = run_sweep(ec)
    assert [a.n_decoys for a in aggs] == [1, 3, 6]
    for a in aggs:
        assert a.analytic_rate == pytest.approx(1 - 0.75**a.n_decoys)
        assert a.passed


def test_sweep_over_checked_positions():
    spec = AttackSpec(kind=AttackKind.ENTANGLEMENT_SWAP)
    ec = ExperimentConfig(
        scenario="establish",
        cfg=EstablishmentConfig(m_pairs=10, n_decoys=1, check_fraction=0.5),
        attack=spec,
        trials=200,
        seed=14,
        sweep_param="checked_count",
        sweep_values=(2, 5),
    )
    aggs = run_sweep(ec)
    assert [a.checked_positions for a in aggs] == [2, 5]
    for a in aggs:
        assert a.analytic_rate == pytest.approx(1 - 0.5**a.checked_positions)
        assert a.passed


@pytest.mark.parametrize("target", [0, 10])
def test_sweep_checked_positions_must_be_feasible(target):
    kwargs = dict(
        scenario="establish",
        cfg=EstablishmentConfig(m_pairs=10, n_decoys=1),
        trials=5,
        sweep_param="checked_count",
    )
    # An infeasible point is rejected when the config is built, before any runs.
    with pytest.raises(ValueError, match="cannot spot-check"):
        ExperimentConfig(**kwargs, sweep_values=(target,))
    # run_sweep still checks each point of a config changed after it was built.
    ec = ExperimentConfig(**kwargs, sweep_values=(3,))
    ec.sweep_values = (target,)
    with pytest.raises(ValueError, match="cannot spot-check"):
        run_sweep(ec)


def test_sweep_requires_parameterization():
    with pytest.raises(ValueError, match="sweep requires"):
        run_sweep(ExperimentConfig(scenario="establish", cfg=SMALL, trials=5))


def test_sweep_emission_is_byte_stable():
    spec = AttackSpec(kind=AttackKind.INTERCEPT_RESEND)
    ec = ExperimentConfig(
        scenario="establish",
        cfg=EstablishmentConfig(m_pairs=2, n_decoys=1, check_fraction=0.5),
        attack=spec,
        trials=50,
        seed=15,
        sweep_param="n_decoys",
        sweep_values=(1, 2),
    )
    first = emit_report(run_sweep(ec), fmt="csv")
    second = emit_report(run_sweep(ec), fmt="csv")
    assert first == second


# --- report emission -----------------------------------------------------------------------


def _small_aggregate(**overrides) -> AggregateReport:
    ec = ExperimentConfig(scenario="establish", cfg=SMALL, trials=10, seed=16, **overrides)
    return run_experiment(ec)


def test_csv_columns_are_stable():
    assert CSV_COLUMNS == (
        "scenario",
        "attack",
        "n",
        "c",
        "trials",
        "detected",
        "detection_rate",
        "analytic_rate",
        "sigma3",
        "pass",
        "leakage_rate",
        "seed",
    )
    assert GAME_CSV_COLUMNS == (
        "scenario",
        "discussion",
        "strategy",
        "instances",
        "valid",
        "successes",
        "advantage",
        "seed",
    )
    text = emit_report(_small_aggregate(), fmt="csv")
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    assert len(lines[1].split(",")) == len(CSV_COLUMNS)


def test_enumerated_oracles_leave_analytic_column_empty():
    agg = _small_aggregate(attack=AttackSpec(kind=AttackKind.ENTANGLE_MEASURE))
    row = next(csv.DictReader(io.StringIO(emit_report(agg, fmt="csv"))))
    assert row["analytic_rate"] == ""
    assert agg.oracle_source == "enumerated"
    assert agg.oracle_rate == pytest.approx(1 - 0.75**SMALL.n_decoys)
    assert agg.to_json_dict()["analytic_rate"] is None


def test_json_emission_shapes():
    agg = _small_aggregate()
    single = json.loads(emit_report(agg, fmt="json"))
    assert isinstance(single, dict) and single["scenario"] == "establish"
    many = json.loads(emit_report([agg, agg], fmt="json"))
    assert isinstance(many, list) and len(many) == 2


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_one_report_list_is_written_as_that_report(fmt):
    agg = _small_aggregate()
    game = run_distinguishing_game(GameSpec(), instances=5, seed=17)
    for report in (agg, game):
        assert emit_report([report], fmt=fmt) == emit_report(report, fmt=fmt)


def test_emit_report_writes_the_same_bytes_to_disk(tmp_path):
    agg = _small_aggregate()
    path = tmp_path / "report.json"
    text = emit_report(agg, fmt="json", path=str(path))
    assert path.read_text(encoding="utf-8") == text


def test_emit_report_rejects_mixed_and_unknown_formats():
    agg = _small_aggregate()
    game = run_distinguishing_game(GameSpec(), instances=5, seed=17)
    with pytest.raises(ValueError, match="cannot mix"):
        emit_report([agg, game], fmt="csv")
    with pytest.raises(ValueError, match="format"):
        emit_report(agg, fmt="yaml")
    text = emit_report([game], fmt="csv")
    assert text.split("\n")[0] == ",".join(GAME_CSV_COLUMNS)


# --- config files ----------------------------------------------------------------------------


def _write(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_load_config_full_roundtrip(tmp_path):
    payload = {
        "scenario": "qsdc",
        "cfg": {"m_pairs": 6, "n_decoys": 4, "check_fraction": 0.5},
        "attack": {"kind": "modification", "strategy": "all_slots", "edge": ["tp2", "bob"]},
        "trials": 25,
        "seed": 99,
        "output": {"path": "out.csv", "format": "csv"},
        "filters_enabled": True,
    }
    ec = load_config(_write(tmp_path, payload))
    assert ec.scenario == "qsdc"
    assert ec.cfg == EstablishmentConfig(m_pairs=6, n_decoys=4, check_fraction=0.5)
    assert ec.attack.kind is AttackKind.MODIFICATION
    assert ec.attack.strategy == "all_slots"
    assert ec.attack.edge == (TP2, BOB)
    assert ec.trials == 25 and ec.seed == 99
    assert ec.output_path == "out.csv" and ec.output_format == "csv"


def test_load_config_game_and_sweep_sections(tmp_path):
    payload = {
        "scenario": "game",
        "game": {"discussion": "decoy", "strategy": "fiat_clone", "challenge_len": 6},
        "trials": 10,
    }
    ec = load_config(_write(tmp_path, payload))
    assert ec.game.strategy == "fiat_clone" and ec.game.challenge_len == 6
    payload = {
        "scenario": "establish",
        "attack": {"kind": "intercept_resend"},
        "sweep": {"param": "n_decoys", "values": [1, 2, 3]},
    }
    ec = load_config(_write(tmp_path, payload))
    assert ec.sweep_param == "n_decoys" and ec.sweep_values == (1, 2, 3)


@pytest.mark.parametrize(
    "payload,match",
    [
        ({"scenario": "establish", "mode": "fast"}, "unknown config keys"),
        ({"cfg": {"m_pairs": 4, "decoys": 2}}, "unknown cfg keys"),
        ({"attack": {"kind": "intercept_resend", "power": 2}}, "unknown attack keys"),
        ({"output": {"path": "x", "compression": "gz"}}, "unknown output keys"),
        (
            {"scenario": "game", "game": {"strategy": "passive", "rounds": 2}},
            "unknown game keys",
        ),
        ({"sweep": {"param": "n_decoys", "values": [1], "step": 1}}, "unknown sweep keys"),
        ({"attack": {"actor": "eve"}}, "attack needs a 'kind'"),
        ({"attack": {"kind": "intercept_resend", "actor": "mallory"}}, "unknown party"),
        (
            {"attack": {"kind": "intercept_resend", "edge": ["tp1"]}},
            "exactly two parties",
        ),
    ],
)
def test_load_config_rejects_unknown_structure(tmp_path, payload, match):
    with pytest.raises(ValueError, match=match):
        load_config(_write(tmp_path, payload))


def test_load_config_must_be_an_object(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ValueError, match="JSON object"):
        load_config(str(path))


def test_parse_attack_complex_matrix():
    u = [[[0.0, 1.0], 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    spec = parse_attack({"kind": "entangle_measure", "unitary": u})
    mat = np.asarray(spec.unitary, dtype=complex)
    assert mat[0, 0] == 1j and mat[1, 1] == 1
    with pytest.raises(ValueError, match="re, im"):
        parse_attack({"kind": "entangle_measure", "unitary": [[[1, 2, 3]]]})


@pytest.mark.parametrize(
    "value",
    [
        [0] * 7,
        {"tp1": "alice", "edge": [1, {"b": None, "a": True}]},
        "it's",
        -2.5e-300,
        "x" * 98,
    ],
)
def test_a_config_error_echoes_a_short_value_as_repr(value):
    assert harness._shown(value) == repr(value)


@pytest.mark.parametrize(
    "value", [[0] * 100_000, "x" * 50_000, [[[["deep"]]]] * 40, {"k" * 200: 1}]
)
def test_a_config_error_echoes_a_long_value_cut_to_100_characters(value):
    shown = harness._shown(value)
    assert len(shown) == 100 and shown.endswith("...")
    assert repr(value).startswith(shown[:-3])


# --- distinguishing game -----------------------------------------------------------------------


def test_game_is_deterministic_per_seed():
    spec = GameSpec(strategy="passive")
    a = run_distinguishing_game(spec, instances=50, seed=18)
    b = run_distinguishing_game(spec, instances=50, seed=18)
    assert a == b


def test_passive_strategy_has_no_advantage():
    result = run_distinguishing_game(GameSpec(strategy="passive"), instances=500, seed=19)
    assert result.valid == 500
    assert result.advantage <= 3.0 / math.sqrt(500)


def test_fake_state_strategy_has_no_advantage():
    result = run_distinguishing_game(
        GameSpec(strategy="fake_state", discussion="pair_check"), instances=400, seed=20
    )
    assert result.advantage <= 0.15


def test_fiat_cloning_wins_the_game():
    result = run_distinguishing_game(
        GameSpec(strategy="fiat_clone", challenge_len=8), instances=300, seed=21
    )
    assert result.valid == 300
    # Prediction is perfect; the only losses are random strings that collide
    # with the prediction, so the advantage sits near 1 - 2^-8.
    assert result.advantage > 0.9


def test_fiat_cloning_needs_the_decoy_discussion():
    spec = GameSpec(discussion="pair_check", strategy="passive", challenge_len=4)
    inst = GameInstance("pair_check", 4, np.random.default_rng(3))
    challenge = inst.test()
    with pytest.raises(GameError, match="decoy discussion"):
        strategy_fiat_clone(inst, challenge, np.random.default_rng(4))
    assert spec.discussion == "pair_check"


def test_game_challenge_is_issued_once():
    inst = GameInstance("decoy", 4, np.random.default_rng(5))
    inst.execute()
    challenge = inst.test()
    assert len(challenge) == 4
    with pytest.raises(GameError, match="already issued"):
        inst.test()


def test_judging_requires_a_fresh_tested_instance():
    inst = GameInstance("decoy", 4, np.random.default_rng(6))
    assert inst.judge(0) is None  # never brought to challenge
    inst.test()
    inst.reveal()  # freshness voided
    assert inst.judge(0) is None
    inst2 = GameInstance("decoy", 4, np.random.default_rng(7))
    inst2.test()
    assert inst2.judge(0) in (True, False)
    inst3 = GameInstance("decoy", 4, np.random.default_rng(8))
    inst3.test()
    inst3.corrupt()
    assert inst3.judge(1) is None


def test_stale_instances_are_excluded_from_the_tally(monkeypatch):
    def peeker(instance, challenge, rng):
        return 0 if challenge == instance.reveal() else 1

    monkeypatch.setitem(harness._STRATEGIES, "passive", peeker)
    result = run_distinguishing_game(GameSpec(strategy="passive"), instances=40, seed=22)
    assert result.valid == 0 and result.successes == 0
    assert result.advantage == 0.0
    assert result.strategy == "passive"


def test_game_view_excludes_the_outcome_string():
    for discussion in ("decoy", "pair_check"):
        inst = GameInstance(discussion, 5, np.random.default_rng(9))
        kinds = {event.kind for event in inst.execute()}
        assert "measurement_results" not in kinds
        assert "quantum_send" in kinds


def test_game_scenario_through_run_experiment():
    ec = ExperimentConfig(
        scenario="game",
        game=GameSpec(strategy="fiat_clone"),
        trials=100,
        seed=23,
    )
    result = run_experiment(ec)
    assert result.instances == 100
    assert result.advantage > 0.9
    row = next(csv.DictReader(io.StringIO(emit_report(result, fmt="csv"))))
    assert row["scenario"] == "game" and row["strategy"] == "fiat_clone"
