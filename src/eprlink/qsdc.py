"""Direct messaging over established pairs, relayed through the second node.

After establishment, Alice holds one half of each surviving pair and Bob the
other.  Alice writes two bits into each of her halves with one of the four
encoding operations, hides fresh decoys of her own in the outgoing sequence,
and sends it to TP2 (step 5).  TP2 verifies Alice's decoys, swaps in its own
decoys, and forwards the payload to Bob (step 6).  Bob verifies TP2's decoys,
then reads each pair with a joint Bell-basis measurement and checks an
integrity tag over the decoded bits (step 7).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .adversaries import Adversary
from .channels import (
    ALICE,
    BOB,
    STAGE_RELAY_IN,
    STAGE_RELAY_OUT,
    AbortNotice,
    MacTag,
    PartyId,
    Transcript,
    TP2,
)
from .protocol import (
    EstablishmentConfig,
    EstablishStatus,
    Session,
    _coerce_adversary,
    _run,
    strip_decoys,
)
from .qcore import PauliCode, QuantumRegister, QubitRef


class QsdcStatus(Enum):
    DELIVERED = "delivered"
    ABORTED_STEP2 = "aborted_step2"
    ABORTED_STEP3 = "aborted_step3"
    ABORTED_STEP5 = "aborted_step5"
    ABORTED_STEP7 = "aborted_step7"
    MAC_REJECTED = "mac_rejected"


_DETECTED_STEP = {
    QsdcStatus.DELIVERED: None,
    QsdcStatus.ABORTED_STEP2: "step2",
    QsdcStatus.ABORTED_STEP3: "step3",
    QsdcStatus.ABORTED_STEP5: "step5",
    QsdcStatus.ABORTED_STEP7: "step7",
    QsdcStatus.MAC_REJECTED: "mac",
}


@dataclass(frozen=True)
class Message:
    """A bit string to transmit; two bits ride on every surviving pair."""

    bits: Tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("message bits must be 0 or 1")
        if len(self.bits) % 2 != 0:
            raise ValueError("message length must be even")

    def __len__(self) -> int:
        return len(self.bits)

    def to_hex(self) -> str:
        return bits_to_hex(self.bits)

    @classmethod
    def random(cls, rng: np.random.Generator, length: int) -> "Message":
        return cls(tuple(int(b) for b in rng.integers(0, 2, size=length)))


def bits_to_hex(bits: Sequence[int]) -> str:
    if not bits:
        return ""
    value = int("".join(str(b) for b in bits), 2)
    return f"{value:0{math.ceil(len(bits) / 4)}x}"


def mac_protect(bits: Sequence[int]) -> str:
    """Integrity tag over a bit string (idealized: collision-free in practice)."""
    packed = bytes([len(bits) % 256]) + bytes(bits)
    return hashlib.sha256(packed).hexdigest()


def mac_verify(bits: Sequence[int], tag: str) -> bool:
    return mac_protect(bits) == tag


@dataclass
class QsdcOutcome:
    status: QsdcStatus
    decoded: Optional[Tuple[int, ...]]
    leak_bits_correct: int = 0
    leak_bits_total: int = 0
    leak_first_bit_correct: int = 0
    leak_second_bit_correct: int = 0
    leak_pairs_guessed: int = 0
    message: Optional[Message] = None
    establishment: Optional[object] = None
    detail: str = ""
    session: Optional[Session] = None

    @property
    def detected_step(self) -> Optional[str]:
        return _DETECTED_STEP[self.status]

    @property
    def delivered(self) -> bool:
        return self.status is QsdcStatus.DELIVERED

    def to_json(self) -> str:
        return json.dumps(
            {
                "status": self.status.value,
                "decoded_hex": None if self.decoded is None else bits_to_hex(self.decoded),
                "leak_bits_correct": self.leak_bits_correct,
                "leak_bits_total": self.leak_bits_total,
                "detected_step": self.detected_step,
            }
        )


def expected_message_length(cfg: EstablishmentConfig) -> int:
    """Bits one run can carry: two per pair that survives the spot check."""
    return 2 * (cfg.m_pairs - cfg.checked_count)


def encode_message(register: QuantumRegister, held: Sequence[QubitRef], message: Message) -> None:
    """Write message bits pairwise onto the sender's halves."""
    if len(message) != 2 * len(held):
        raise ValueError(
            f"message carries {len(message)} bits but {len(held)} pairs hold {2 * len(held)}"
        )
    for i, q in enumerate(held):
        register.apply_pauli(q, PauliCode.from_bits(message.bits[2 * i], message.bits[2 * i + 1]))


def decode_pairs(
    register: QuantumRegister,
    relayed: Sequence[QubitRef],
    held: Sequence[QubitRef],
    rng: np.random.Generator,
) -> Tuple[int, ...]:
    """Joint Bell-basis readout of each (relayed, held) pair, two bits apiece."""
    bits: List[int] = []
    for qa, qb in zip(relayed, held):
        outcome = register.bell_measure(qa, qb, rng)
        bits.extend(outcome.bits)
    return tuple(bits)


_EST_TO_QSDC = {
    EstablishStatus.ABORTED_STEP2: QsdcStatus.ABORTED_STEP2,
    EstablishStatus.ABORTED_STEP3: QsdcStatus.ABORTED_STEP3,
}


def run_qsdc(
    cfg: EstablishmentConfig,
    message: Optional[Message] = None,
    attack: Optional[object] = None,
    rng: Optional[np.random.Generator] = None,
    filters_enabled: bool = True,
) -> QsdcOutcome:
    """One full messaging attempt: establishment, encode, relay, decode, verify."""
    if cfg.parties != 2:
        raise ValueError("direct messaging runs between exactly two end parties")
    length = expected_message_length(cfg)
    if message is not None and len(message) != length:
        raise ValueError(f"this configuration carries {length} bits, got {len(message)}")
    session = Session(cfg, _coerce_adversary(attack), rng, filters_enabled=filters_enabled)
    adversary = session.adversary
    est = _run(session)

    def aborted(status: QsdcStatus, detail: str) -> QsdcOutcome:
        return QsdcOutcome(
            status, None, message=message, establishment=est, detail=detail, session=session
        )

    if not est.established:
        return aborted(_EST_TO_QSDC[est.status], est.detail)
    if message is None:
        message = Message.random(session.rng, length)
    net, reg = session.net, session.register
    alice_held = est.shared_pairs[ALICE]
    bob_held = est.shared_pairs[BOB]

    tag = mac_protect(message.bits)
    net.send_classical(ALICE, TP2, MacTag(tag))
    encode_message(reg, alice_held, message)

    # Step 5: Alice -> TP2, protected by decoys of Alice's own choosing.
    relay_payload, detail = _relay_leg(session, ALICE, TP2, STAGE_RELAY_IN, alice_held, TP2)
    if relay_payload is None:
        return aborted(QsdcStatus.ABORTED_STEP5, detail)
    if adversary is not None:
        adversary.on_relay_payload(net, relay_payload, list(est.surviving_indices))

    # Step 6: TP2 -> Bob behind fresh decoys chosen by TP2.
    delivered, detail = _relay_leg(session, TP2, BOB, STAGE_RELAY_OUT, relay_payload, ALICE)
    if delivered is None:
        return aborted(QsdcStatus.ABORTED_STEP7, detail)

    # Step 7: Bob reads the pairs and checks the integrity tag.
    net.send_classical(TP2, BOB, MacTag(tag))
    decoded = decode_pairs(reg, delivered, bob_held, session.rng)
    status = QsdcStatus.DELIVERED if mac_verify(decoded, tag) else QsdcStatus.MAC_REJECTED
    outcome = QsdcOutcome(status, decoded, message=message, establishment=est, session=session)
    return _finish_leak(outcome, adversary, message, est.pairs_established)


def _relay_leg(
    session: Session,
    sender: PartyId,
    receiver: PartyId,
    stage: str,
    payload: Sequence[QubitRef],
    mismatch_to: PartyId,
) -> Tuple[Optional[List[QubitRef]], str]:
    """Carry ``payload`` across one relay leg behind the sender's fresh decoys.

    Returns the payload as the receiver holds it, or ``None`` and why the leg
    aborted: the receiver's probe filter fired (it tells the sender), or the
    public decoy discussion found a mismatch (the sender tells
    ``mismatch_to``).
    """
    net = session.net
    sequence, records = session.build_decoyed_sequence(payload)
    msg = net.send_quantum(sender, receiver, sequence)
    if net.scan_trojan(receiver, msg):
        net.send_classical(receiver, sender, AbortNotice(stage, "probe photons found"))
        return None, f"probe photons found at {receiver}"
    bad = session.run_decoy_discussion(sender, receiver, stage, list(msg.qubits), records)
    if bad is not None:
        detail = f"decoy mismatch at slot {bad}"
        net.send_classical(sender, mismatch_to, AbortNotice(stage, detail))
        return None, detail
    return strip_decoys(msg.qubits, records), ""


def _finish_leak(
    outcome: QsdcOutcome,
    adversary: Optional[Adversary],
    message: Message,
    pairs: int,
) -> QsdcOutcome:
    """Score the adversary's message guesses on a run that reached decode."""
    guesses = adversary.guessed_bits() if adversary is not None else None
    for i, guess in enumerate((guesses or [])[:pairs]):
        if guess is None:
            continue
        actual = (message.bits[2 * i], message.bits[2 * i + 1])
        outcome.leak_pairs_guessed += 1
        outcome.leak_bits_total += 2
        if guess[0] == actual[0]:
            outcome.leak_bits_correct += 1
            outcome.leak_first_bit_correct += 1
        if guess[1] == actual[1]:
            outcome.leak_bits_correct += 1
            outcome.leak_second_bit_correct += 1
    return outcome


# --- transcript audits --------------------------------------------------------

_CLASSICAL_KINDS = {"ack", "positions_bases", "measurement_results", "abort", "mac_tag"}
HONEST_CLASSICAL_KINDS = {"ack", "positions_bases", "measurement_results", "mac_tag"}


def classical_event_kinds(transcript: Transcript) -> set:
    """Kinds of all classical payloads that appear in a transcript."""
    return {e.kind for e in transcript if e.kind in _CLASSICAL_KINDS}


def audit_classical_vocabulary(transcript: Transcript) -> bool:
    """True when every classical payload is one an honest run is allowed to send."""
    return classical_event_kinds(transcript) <= HONEST_CLASSICAL_KINDS


def quantum_block_lengths(transcript: Transcript) -> List[int]:
    """Qubit counts of every quantum send, in order."""
    lengths = []
    for e in transcript:
        if e.kind == "quantum_send":
            lengths.append(int(e.payload_summary.split()[0]))
    return lengths


def audit_whole_block_transmission(transcript: Transcript, expected_lengths: Sequence[int]) -> bool:
    """True when qubit sequences travel as whole blocks, one send per leg."""
    return quantum_block_lengths(transcript) == list(expected_lengths)
