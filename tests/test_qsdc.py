"""Direct-messaging tests: delivery, integrity tag, aborts, transcript audits."""

import json

import numpy as np
import pytest

from eprlink.adversaries import Adversary, AttackKind, AttackSpec
from eprlink.channels import ALICE, BOB, EVE, TP1, TP2
from eprlink.protocol import EstablishmentConfig
from eprlink.qcore import PauliCode
from eprlink.qsdc import (
    HONEST_CLASSICAL_KINDS,
    Message,
    QsdcStatus,
    audit_classical_vocabulary,
    audit_whole_block_transmission,
    bits_to_hex,
    classical_event_kinds,
    expected_message_length,
    mac_protect,
    mac_verify,
    quantum_block_lengths,
    run_qsdc,
)


CFG = EstablishmentConfig(m_pairs=6, n_decoys=4, check_fraction=0.5)  # carries 6 bits


# --- message container ---------------------------------------------------------


def test_message_validation():
    with pytest.raises(ValueError):
        Message((0, 1, 1))  # odd length
    with pytest.raises(ValueError):
        Message((0, 2))
    msg = Message((1, 0, 1, 1))
    assert len(msg) == 4
    assert msg.to_hex() == "b"


@pytest.mark.parametrize(
    "bits,expected",
    [((), ""), ((0, 0, 0, 1), "1"), ((1, 1, 1, 1), "f"), ((1, 0, 0, 0, 0, 0), "20")],
)
def test_bits_to_hex(bits, expected):
    assert bits_to_hex(bits) == expected


def test_random_messages_are_seed_stable():
    a = Message.random(np.random.default_rng(3), 16)
    b = Message.random(np.random.default_rng(3), 16)
    assert a == b


def test_expected_length_tracks_survivors():
    assert expected_message_length(CFG) == 6
    assert expected_message_length(EstablishmentConfig(20, 1, check_fraction=0.2)) == 32


# --- integrity tag ----------------------------------------------------------------


def test_tag_detects_any_flip():
    bits = (1, 0, 1, 1, 0, 0)
    tag = mac_protect(bits)
    assert mac_verify(bits, tag)
    for i in range(len(bits)):
        tampered = list(bits)
        tampered[i] ^= 1
        assert not mac_verify(tuple(tampered), tag)


def test_tag_is_length_sensitive():
    assert mac_protect((0, 0)) != mac_protect((0, 0, 0, 0))


# --- honest delivery ----------------------------------------------------------------


def test_honest_run_delivers_exact_bits():
    out = run_qsdc(CFG, rng=np.random.default_rng(21))
    assert out.status is QsdcStatus.DELIVERED
    assert out.decoded == out.message.bits
    assert out.detected_step is None
    assert out.establishment.established


def test_explicit_message_roundtrip():
    msg = Message((1, 1, 0, 1, 0, 0))
    out = run_qsdc(CFG, message=msg, rng=np.random.default_rng(22))
    assert out.delivered
    assert out.decoded == msg.bits


def test_wrong_length_message_rejected_upfront():
    with pytest.raises(ValueError):
        run_qsdc(CFG, message=Message((0, 1)), rng=np.random.default_rng(23))


def test_outcome_json_schema():
    out = run_qsdc(CFG, rng=np.random.default_rng(24))
    doc = json.loads(out.to_json())
    assert set(doc) == {
        "status", "decoded_hex", "leak_bits_correct", "leak_bits_total", "detected_step",
    }
    assert doc["status"] == "delivered"
    assert doc["decoded_hex"] == bits_to_hex(out.decoded)


def test_honest_runs_deterministic_per_seed():
    a = run_qsdc(CFG, rng=np.random.default_rng(25))
    b = run_qsdc(CFG, rng=np.random.default_rng(25))
    assert a.message == b.message
    assert a.decoded == b.decoded
    text_a = a.session.net.transcript.to_jsonl()
    assert text_a == b.session.net.transcript.to_jsonl()


# --- transcript audits ----------------------------------------------------------------


def test_honest_vocabulary_is_minimal():
    out = run_qsdc(CFG, rng=np.random.default_rng(26))
    transcript = out.session.net.transcript
    assert audit_classical_vocabulary(transcript)
    assert classical_event_kinds(transcript) == HONEST_CLASSICAL_KINDS


def test_sequences_travel_as_whole_blocks():
    m, n, c = CFG.m_pairs, CFG.n_decoys, CFG.checked_count
    out = run_qsdc(CFG, rng=np.random.default_rng(27))
    transcript = out.session.net.transcript
    # distribution to each end party, then the two relay legs
    expected = [m + n, m + n, (m - c) + n, (m - c) + n]
    assert quantum_block_lengths(transcript) == expected
    assert audit_whole_block_transmission(transcript, expected)
    assert not audit_whole_block_transmission(transcript, expected[:-1])


# --- aborts and integrity rejection ------------------------------------------------------


class _FlipLeg(Adversary):
    """Flip every qubit on one leg; the next decoy discussion must catch it."""

    def __init__(self, edge):
        super().__init__(EVE, edge)

    def on_quantum_in_flight(self, net, edge, msg):
        for q in msg.qubits:
            net.register.apply_pauli(q, PauliCode.IY)
        return msg


def test_establishment_failure_maps_to_step2_status():
    out = run_qsdc(CFG, attack=_FlipLeg((TP1, ALICE)), rng=np.random.default_rng(28))
    assert out.status is QsdcStatus.ABORTED_STEP2
    assert out.detected_step == "step2"
    assert out.decoded is None


def test_tampered_first_relay_aborts_step5():
    out = run_qsdc(CFG, attack=_FlipLeg((ALICE, TP2)), rng=np.random.default_rng(29))
    assert out.status is QsdcStatus.ABORTED_STEP5
    assert out.detected_step == "step5"
    assert out.decoded is None


def test_tampered_second_relay_aborts_step7():
    out = run_qsdc(CFG, attack=_FlipLeg((TP2, BOB)), rng=np.random.default_rng(30))
    assert out.status is QsdcStatus.ABORTED_STEP7
    assert out.detected_step == "step7"


def _relay_events(attack):
    """Status, detail and every transcript event from the first integrity tag on."""
    out = run_qsdc(CFG, attack=attack, rng=np.random.default_rng(5))
    events = [(e.kind, e.frm, e.to, e.payload_summary) for e in out.session.net.transcript]
    start = next(i for i, e in enumerate(events) if e[0] == "mac_tag")
    return out.status, out.detail, events[start:]


_RELAY_IN_HEAD = [
    ("mac_tag", "Alice", "TP2", "mac tag"),
    ("quantum_send", "Alice", "TP2", "7 qubits"),
    ("quantum_deliver", "Alice", "TP2", "7 qubits"),
]
_RELAY_IN_CHECK = [
    ("ack", "TP2", "Alice", "ack"),
    ("positions_bases", "Alice", "TP2", "relay_in_check: 4 positions+bases"),
    ("measurement_results", "TP2", "Alice", "relay_in_check: 4 result bits"),
]
_RELAY_OUT_HEAD = [
    ("quantum_send", "TP2", "Bob", "7 qubits"),
    ("quantum_deliver", "TP2", "Bob", "7 qubits"),
]
_RELAY_OUT_CHECK = [
    ("ack", "Bob", "TP2", "ack"),
    ("positions_bases", "TP2", "Bob", "relay_out_check: 4 positions+bases"),
    ("measurement_results", "Bob", "TP2", "relay_out_check: 4 result bits"),
]


def test_relay_transcript_trojan_abort_at_tp2():
    spec = AttackSpec(AttackKind.TROJAN_HORSE, edge=(ALICE, TP2))
    assert _relay_events(spec) == (
        QsdcStatus.ABORTED_STEP5,
        "probe photons found at TP2",
        _RELAY_IN_HEAD
        + [
            ("trojan_detected", "TP2", "TP2", "7 probe tag(s)"),
            ("abort", "TP2", "Alice", "abort at relay_in_check: probe photons found"),
        ],
    )


def test_relay_transcript_trojan_abort_at_bob():
    spec = AttackSpec(AttackKind.TROJAN_HORSE, edge=(TP2, BOB))
    assert _relay_events(spec) == (
        QsdcStatus.ABORTED_STEP7,
        "probe photons found at Bob",
        _RELAY_IN_HEAD
        + _RELAY_IN_CHECK
        + _RELAY_OUT_HEAD
        + [
            ("trojan_detected", "Bob", "Bob", "7 probe tag(s)"),
            ("abort", "Bob", "TP2", "abort at relay_out_check: probe photons found"),
        ],
    )


def test_relay_transcript_decoy_mismatch_on_first_leg():
    assert _relay_events(_FlipLeg((ALICE, TP2))) == (
        QsdcStatus.ABORTED_STEP5,
        "decoy mismatch at slot 0",
        _RELAY_IN_HEAD
        + _RELAY_IN_CHECK
        + [("abort", "Alice", "TP2", "abort at relay_in_check: decoy mismatch at slot 0")],
    )


def test_relay_transcript_decoy_mismatch_on_second_leg():
    # TP2 tells Alice, not Bob, that the second leg failed.
    assert _relay_events(_FlipLeg((TP2, BOB))) == (
        QsdcStatus.ABORTED_STEP7,
        "decoy mismatch at slot 0",
        _RELAY_IN_HEAD
        + _RELAY_IN_CHECK
        + _RELAY_OUT_HEAD
        + _RELAY_OUT_CHECK
        + [("abort", "TP2", "Alice", "abort at relay_out_check: decoy mismatch at slot 0")],
    )


def test_relay_transcript_delivered_run():
    assert _relay_events(None) == (
        QsdcStatus.DELIVERED,
        "",
        _RELAY_IN_HEAD
        + _RELAY_IN_CHECK
        + _RELAY_OUT_HEAD
        + _RELAY_OUT_CHECK
        + [("mac_tag", "TP2", "Bob", "mac tag")],
    )


def test_decoy_aware_tampering_never_delivers_wrong_bits():
    """Relay tampering that spares every decoy is still stopped by the tag."""
    from eprlink.adversaries import AttackKind, AttackSpec

    spec = AttackSpec(AttackKind.MODIFICATION, strategy="tp2_decoy_aware")
    statuses = set()
    for seed in range(40):
        out = run_qsdc(CFG, attack=spec, rng=np.random.default_rng(seed))
        statuses.add(out.status)
        if out.status is QsdcStatus.DELIVERED:
            assert out.decoded == out.message.bits  # only untouched runs deliver
        else:
            assert out.status is QsdcStatus.MAC_REJECTED
            assert out.detected_step == "mac"
    assert QsdcStatus.MAC_REJECTED in statuses


def test_mac_rejection_still_reports_decoded_bits():
    from eprlink.adversaries import AttackKind, AttackSpec

    spec = AttackSpec(AttackKind.MODIFICATION, strategy="tp2_decoy_aware")
    for seed in range(40):
        out = run_qsdc(CFG, attack=spec, rng=np.random.default_rng(seed))
        if out.status is QsdcStatus.MAC_REJECTED:
            assert out.decoded is not None
            assert out.decoded != out.message.bits
            break
    else:
        pytest.fail("forty tampered runs never tripped the integrity tag")
