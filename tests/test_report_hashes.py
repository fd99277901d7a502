"""Byte-stability guard: small seeded batches must emit exactly the same report.

Each case hashes the JSON that ``emit_report`` writes for a small batch.  Most
chosen reports hold only counts and closed-form rates (no fidelities, no
timings), so the bytes do not depend on the host's floating-point libraries.
The two ``*_fidelity`` cases also pin ``min_pair_fidelity`` to the last bit
(0.9999999999999997, where |<t|psi>|^2 would give another value), so any
change to how a fidelity is computed shows; their bytes depend on numpy's
matrix-product rounding, so another numpy build may need them re-derived from
an unchanged tree.  The ``establish_entanglement_swap`` and
``qsdc_correlation_elicitation`` cases merge an adversary's qubits into the
relayed factors, and the first pins a ``min_pair_fidelity`` of
0.24999999999999983, so a change to how merged amplitudes are multiplied shows
in the last bit.  Honest runs always establish and deliver, so their cases pin the report layout
and counts; the attacked cases and the games count outcomes that depend on
every draw, so a change that consumes randomness in another order changes
their hashes.  Update a pinned value only for a change that is meant to alter
the random stream, and say so where it lands.

The ``establish_entangle_measure`` case pins an enumerated oracle's bits
(``oracle_rate`` 0.5781250000000002, from the probe coupling's scores), and
``establish_dense_coding`` the pair-substitution attack, whose substituted
halves meet the decoy and pair checks.

``CSV_CASES`` hash the CSV of a sweep and of a game, so a change to how a cell
is formatted shows.  The ``qsdc_intercept_resend_tp2_bob`` case pins the decoy
counts of the relay-out leg, TP2 to Bob.
"""

import hashlib

import pytest

from eprlink.channels import BOB, EVE, TP2
from eprlink.harness import (
    AttackKind,
    AttackSpec,
    ExperimentConfig,
    GameSpec,
    attack_from_name,
    emit_report,
    run_experiment,
    run_sweep,
)
from eprlink.protocol import EstablishmentConfig

CASES = {
    "qsdc_honest": (
        lambda: ExperimentConfig(scenario="qsdc", trials=40, seed=11),
        "6f1aa1a2928904187779639213b9d74874bc93f62c2aea824bf2f5e86505e170",
    ),
    "establish_intercept_resend": (
        lambda: ExperimentConfig(
            scenario="establish",
            attack=attack_from_name("intercept_resend"),
            cfg=EstablishmentConfig(m_pairs=10, n_decoys=3),
            measure_fidelity=False,
            trials=120,
            seed=12,
        ),
        "8e5614e4728d1f6a1c762f4ca5e40b9ab573e39a115135043d482c2b0246b782",
    ),
    "qsdc_modification_all_slots": (
        lambda: ExperimentConfig(
            scenario="qsdc",
            attack=attack_from_name("modification_all_slots"),
            cfg=EstablishmentConfig(m_pairs=10, n_decoys=2),
            trials=60,
            seed=16,
        ),
        "23cecf77365c2bad4911962b4be18b0380310fcc6fd29b59d7a7028bfcebbc31",
    ),
    "multiparty_k3_intercept_resend": (
        lambda: ExperimentConfig(
            scenario="multiparty",
            attack=attack_from_name("intercept_resend"),
            cfg=EstablishmentConfig(m_pairs=10, n_decoys=2, parties=3),
            measure_fidelity=False,
            trials=60,
            seed=17,
        ),
        "849967d309cae8731d67840d3afbe581461a049f347316277b37eb67dd829728",
    ),
    "multiparty_k3": (
        lambda: ExperimentConfig(
            scenario="multiparty",
            cfg=EstablishmentConfig(m_pairs=10, n_decoys=10, parties=3),
            measure_fidelity=False,
            trials=40,
            seed=13,
        ),
        "864e9bea0befc0acba6f1bf18eda53f6eeae7ddd65e83a3558b4e0fe505c15d9",
    ),
    "multiparty_k3_fidelity": (
        lambda: ExperimentConfig(
            scenario="multiparty",
            cfg=EstablishmentConfig(m_pairs=10, n_decoys=10, parties=3),
            measure_fidelity=True,
            trials=40,
            seed=18,
        ),
        "367f1f5a02fb8ca2983390aed7afbaf475c0ea993e7fc6d014558ca9434e7c39",
    ),
    "establish_fidelity": (
        lambda: ExperimentConfig(
            scenario="establish",
            cfg=EstablishmentConfig(m_pairs=10, n_decoys=10),
            measure_fidelity=True,
            trials=40,
            seed=19,
        ),
        "3f15ed196ab103faf73a3a14b60c2fafdd5d6cca5d840a977308343930ac79f5",
    ),
    "establish_entanglement_swap": (
        lambda: ExperimentConfig(
            scenario="establish",
            attack=attack_from_name("entanglement_swap"),
            cfg=EstablishmentConfig(m_pairs=10, n_decoys=3),
            measure_fidelity=True,
            trials=60,
            seed=22,
        ),
        "4bb5640702243c65dcbaa7ae9df6b20f8e73b6ff6d027195508f3ebc3e75f0ce",
    ),
    "qsdc_correlation_elicitation": (
        lambda: ExperimentConfig(
            scenario="qsdc",
            attack=attack_from_name("correlation_elicitation"),
            cfg=EstablishmentConfig(m_pairs=10, n_decoys=3),
            trials=60,
            seed=23,
        ),
        "1a22b761d30eca81f98a078f134563a5aaf9985b99a3e7b005184ab805e3965a",
    ),
    "qsdc_intercept_resend_tp2_bob": (
        lambda: ExperimentConfig(
            scenario="qsdc",
            attack=AttackSpec(kind=AttackKind.INTERCEPT_RESEND, actor=EVE, edge=(TP2, BOB)),
            cfg=EstablishmentConfig(m_pairs=6, n_decoys=3),
            trials=60,
            seed=24,
        ),
        "4a235ccc38afe71f580d3397ab60f917bdfb64f9a504cef928e84e11b0912bf9",
    ),
    "establish_entangle_measure": (
        lambda: ExperimentConfig(
            scenario="establish",
            attack=attack_from_name("entangle_measure"),
            cfg=EstablishmentConfig(m_pairs=10, n_decoys=3),
            measure_fidelity=False,
            trials=120,
            seed=27,
        ),
        "322849144654b8d88a3f6e26f472861ed65d5c5a3affbd9ecfb99bb8bd0c8212",
    ),
    "establish_dense_coding": (
        lambda: ExperimentConfig(
            scenario="establish",
            attack=attack_from_name("dense_coding"),
            cfg=EstablishmentConfig(m_pairs=10, n_decoys=3),
            measure_fidelity=False,
            trials=120,
            seed=28,
        ),
        "7ab6e4ef42e37488e5171d9e9fe05a72d6dc676adb465b7229dd984a296ba24f",
    ),
    "game_decoy": (
        lambda: ExperimentConfig(scenario="game", game=GameSpec(), trials=300, seed=14),
        "89404485c559e8bc4c34bbff54d9f76159a3fcda3b2432d6f2bd0a41ef612e52",
    ),
    "game_pair_check": (
        lambda: ExperimentConfig(
            scenario="game", game=GameSpec(discussion="pair_check"), trials=300, seed=15
        ),
        "51b4f78122c8a19e66383a891463d6271a34d73c1b72afb76e6e9428fb6a9e29",
    ),
}


# CSV reports: a sweep whose rows carry leakage rates, and a game.
CSV_CASES = {
    "qsdc_correlation_elicitation_sweep": (
        lambda: run_sweep(
            ExperimentConfig(
                scenario="qsdc",
                attack=attack_from_name("correlation_elicitation"),
                cfg=EstablishmentConfig(m_pairs=6, n_decoys=0),
                trials=40,
                seed=25,
                sweep_param="n_decoys",
                sweep_values=(0, 2),
            )
        ),
        "739a6ff1d44777e0fee9f5815ed3fcbf9d6d2de1862e8982749ed0641d1580f8",
    ),
    "game_fake_state": (
        lambda: run_experiment(
            ExperimentConfig(scenario="game", game=GameSpec(strategy="fake_state"), trials=200, seed=26)
        ),
        "284fb4db24118ab7d195155990870df11e96e183c87299e0e9f009effbbab73b",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_are_pinned(name):
    make, expected = CASES[name]
    text = emit_report(run_experiment(make()))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected


@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_csv_report_bytes_are_pinned(name):
    make, expected = CSV_CASES[name]
    text = emit_report(make(), fmt="csv")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected
