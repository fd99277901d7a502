"""Byte-stability guard: small seeded batches must emit exactly the same report.

Each case hashes the JSON that ``emit_report`` writes for a small batch.  The
chosen reports hold only counts and closed-form rates (no fidelities, no
timings), so the bytes do not depend on the host's floating-point libraries.
Honest runs always establish and deliver, so their cases pin the report layout
and counts; the attacked cases and the games count outcomes that depend on
every draw, so a change that consumes randomness in another order changes
their hashes.  Update a pinned value only for a change that is meant to alter
the random stream, and say so where it lands.
"""

import hashlib

import pytest

from eprlink.harness import (
    ExperimentConfig,
    GameSpec,
    attack_from_name,
    emit_report,
    run_experiment,
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_are_pinned(name):
    make, expected = CASES[name]
    text = emit_report(run_experiment(make()))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected
