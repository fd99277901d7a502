"""Byte-stability guard for transcripts: seeded runs must log exactly the same events.

Reports pin only counts and rates, so they cannot see a send that changed its
sender, its order or its summary text.  Each case here hashes the JSON-lines
transcripts of a few seeded qsdc runs, one case for the honest run and one per
attack name, with probe filters on so ``trojan_invisible_photon`` is caught by
the ``trojan_detected`` scan.  The game cases hash ``repr`` of the public view
(``GameInstance.execute()``) of seeded decoy and pair-check instances, which
holds the payload objects themselves.  Attacks that leave the public record
as an honest run leaves it (the decoy-avoiding modifications) share the honest
hash, and both probe-photon kinds are caught at the first scan.  Update a pinned value only for a change
that is meant to alter what a run logs, and say so where it lands.

The outcome cases pin how each of those runs ended rather than what it logged:
the status, the abort detail, ``QsdcOutcome.to_json()`` and the
establishment's ``to_json()`` and ``detected_by``.  Beside honest and every
attack name they cover a probe photon on each relay leg and an honest run with
the probe filters off.
"""

import hashlib

import pytest

from eprlink.adversaries import (
    ATTACK_NAMES,
    AttackKind,
    AttackSpec,
    attack_from_name,
    build_adversary,
)
from eprlink.channels import ALICE, BOB, TP2
from eprlink.harness import GameInstance
from eprlink.protocol import EstablishmentConfig
from eprlink.qsdc import run_qsdc
from eprlink.seeding import trial_rngs

CFG = EstablishmentConfig(m_pairs=4, n_decoys=2, check_fraction=0.5)
RUNS = 4

QSDC_CASES = {
    "honest": "4d68a82286a34c7576b2a0bd460d38b02aaceeaa5dfc8b28d013982f1f87c917",
    "intercept_resend": "477d91750d7c7fd6972756b722b1aa2fb20f94a672241d28bbdfd1ad0b192d43",
    "dense_coding": "f6ac9a6a8b384d07a4d86fc212ca4d347a94387a353ff37c129870d4931151e6",
    "entanglement_swap": "0a25b00503c8bf44ceb7aa6ad50d04bf560fa0da35b76515eb9778cba893c4c0",
    "entangle_measure": "ab48363d7126b030b6aa1babd63293f228fb3f518f6236af691f02127fd17cfe",
    "correlation_elicitation": "c0167ff7eb8b64f960cb074dd955af00327e9e540d78fd016deb58992fc99072",
    "modification_all_slots": "27728fb68ce7b5d7c797c3904031597a7940c3d8f107dc2d92fb4ffb5894da12",
    "modification_single_slot": "4d68a82286a34c7576b2a0bd460d38b02aaceeaa5dfc8b28d013982f1f87c917",
    "modification_tp2_decoy_aware": "4d68a82286a34c7576b2a0bd460d38b02aaceeaa5dfc8b28d013982f1f87c917",
    "trojan_invisible_photon": "dbd363b6f7fa2f00123b0d4d309fe3a2d435464483a5d8213dba1372260d5c41",
    "trojan_delay_photon": "dbd363b6f7fa2f00123b0d4d309fe3a2d435464483a5d8213dba1372260d5c41",
}

OUTCOME_CASES = {
    "honest": "67ee0b3a965871932e92beee804574a61dc5ecf62ea20e383772877c9799268c",
    "intercept_resend": "abae37a933388b77ec24953bf96ea7640c47bafc3eea3577442fa08d85eb48e9",
    "entangle_measure": "fc6b9598b228fe753e03977bec6873faa82b174b5172fbd975587507e3d77e94",
    "entanglement_swap": "a76299ab6e8c40a4042ffd1050e4933d8d1e697e7a0741694f20af5d66ab397f",
    "correlation_elicitation": "b9d7ca1337ba88a0a9ff3f4a09c7a6d96e3e6a1a16b96f7812d6db8652f56e91",
    "dense_coding": "cab7442b52b1654ea2207b8203f9ed99ae55cc25a05913ea85dcc011dfc72dff",
    "modification_all_slots": "a046c00652e370027bf1753cce1efdec7fb164b814f772d0a60d0aa240ea572e",
    "modification_single_slot": "6a9d7cc63fddbd39101f07e36d1615fdda01c855800d2853e8ecf11be7aa2815",
    "modification_tp2_decoy_aware": "c1cfa8f5cba25b73f9e190e22ba90ec8f5aa0c4f7ed280ce1ab3095192dd53b3",
    "trojan_invisible_photon": "143b97acc3826457b14c3d4fd942aa58d3c30578a957f76009a69b1afb994398",
    "trojan_delay_photon": "143b97acc3826457b14c3d4fd942aa58d3c30578a957f76009a69b1afb994398",
    "trojan_relay_in": "fbdb504f7ffa94b7968867595ddc93d6d3a20d3baa068ef0d85c87dd69795f11",
    "trojan_relay_out": "7a6148b93d0e87d4215c873618bbd655a08f937bef251046b01b28d30fc093ed",
    "honest_filters_off": "67ee0b3a965871932e92beee804574a61dc5ecf62ea20e383772877c9799268c",
}

# Outcome cases beyond the attack names: (attack spec, probe filters on).
_EXTRA_OUTCOME_RUNS = {
    "trojan_relay_in": (AttackSpec(kind=AttackKind.TROJAN_HORSE, edge=(ALICE, TP2)), True),
    "trojan_relay_out": (AttackSpec(kind=AttackKind.TROJAN_HORSE, edge=(TP2, BOB)), True),
    "honest_filters_off": (None, False),
}

GAME_CASES = {
    "decoy": "8030dc9596390e74bb7836f25c102cf2f829e8013a10b3637f02376535eda077",
    "pair_check": "0642c8aae2e6cee12e832a2fdcf6611b8f7d2fe03c86d6a4927711e6a98b3ca1",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _qsdc_transcripts(name: str) -> str:
    docs = []
    for rng in trial_rngs(31, RUNS):
        adversary = None if name == "honest" else build_adversary(attack_from_name(name))
        out = run_qsdc(CFG, None, adversary, rng, filters_enabled=True)
        docs.append(out.session.net.transcript.to_jsonl())
    return "\n\n".join(docs)


def test_every_attack_name_has_a_case():
    assert set(QSDC_CASES) == {"honest", *ATTACK_NAMES}


@pytest.mark.parametrize("name", sorted(QSDC_CASES))
def test_qsdc_transcript_bytes_are_pinned(name):
    text = _qsdc_transcripts(name)
    if name == "trojan_invisible_photon":
        assert '"kind": "trojan_detected"' in text
    assert _sha(text) == QSDC_CASES[name]


def _qsdc_outcomes(name: str) -> str:
    if name in _EXTRA_OUTCOME_RUNS:
        spec, filters = _EXTRA_OUTCOME_RUNS[name]
    else:
        spec, filters = (None if name == "honest" else attack_from_name(name)), True
    docs = []
    for rng in trial_rngs(31, RUNS):
        adversary = None if spec is None else build_adversary(spec)
        out = run_qsdc(CFG, None, adversary, rng, filters_enabled=filters)
        est = out.establishment
        docs.append(
            "\n".join(
                [out.status.value, out.detail, out.to_json(), est.to_json(), str(est.detected_by)]
            )
        )
    return "\n\n".join(docs)


def test_outcome_cases_cover_every_attack_name():
    assert set(OUTCOME_CASES) == {"honest", *ATTACK_NAMES, *_EXTRA_OUTCOME_RUNS}


@pytest.mark.parametrize("name", sorted(OUTCOME_CASES))
def test_qsdc_outcome_bytes_are_pinned(name):
    assert _sha(_qsdc_outcomes(name)) == OUTCOME_CASES[name]


@pytest.mark.parametrize("discussion", sorted(GAME_CASES))
def test_game_view_repr_is_pinned(discussion):
    views = [
        repr(GameInstance(discussion, 5, rng).execute()) for rng in trial_rngs(37, RUNS)
    ]
    assert _sha("\n".join(views)) == GAME_CASES[discussion]


def test_unfiltered_trojan_probes_ride_out_unseen_and_leak():
    """With the probe filters off, tags planted on the TP1 -> Alice leg ride back
    out on the step-5 leg: no scan logs them, so the transcript and the outcome
    are the honest run's bytes, and only the adversary's leak flag sees them."""
    spec = attack_from_name("trojan_invisible_photon")
    transcripts, outcomes = [], []
    for rng in trial_rngs(31, RUNS):
        adversary = build_adversary(spec)
        out = run_qsdc(CFG, None, adversary, rng, filters_enabled=False)
        assert adversary.leaked
        est = out.establishment
        transcripts.append(out.session.net.transcript.to_jsonl())
        outcomes.append(
            "\n".join(
                [out.status.value, out.detail, out.to_json(), est.to_json(), str(est.detected_by)]
            )
        )
    assert _sha("\n\n".join(transcripts)) == QSDC_CASES["honest"]
    assert _sha("\n\n".join(outcomes)) == OUTCOME_CASES["honest"]
