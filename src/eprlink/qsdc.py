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

import json
import math
import numbers
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .adversaries import Adversary
from .channels import (
    ALICE,
    BOB,
    AbortNotice,
    Ack,
    MacTag,
    MeasurementResults,
    PartyId,
    PositionsBases,
    RunStatus,
    Transcript,
    TP2,
)
from .protocol import (
    Aborted,
    EstablishmentConfig,
    EstablishmentOutcome,
    Session,
    _coerce_adversary,
    _run,
    strip_decoys,
)
from .qcore import PauliCode, QuantumRegister, QubitRef
from .seeding import draw_below

# The members a trial compares against, bound once: on Python 3.11 a load from
# the enum class costs about ten times a global's.
_DELIVERED = RunStatus.DELIVERED
_MAC_REJECTED = RunStatus.MAC_REJECTED
_ABORTED_STEP5 = RunStatus.ABORTED_STEP5
_ABORTED_STEP7 = RunStatus.ABORTED_STEP7


@dataclass(frozen=True)
class Message:
    """A bit string to transmit; two bits ride on every surviving pair."""

    bits: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not _are_bits(self.bits):
            raise ValueError("message bits must be 0 or 1")
        if len(self.bits) % 2 != 0:
            raise ValueError("message length must be even")

    def __len__(self) -> int:
        return len(self.bits)

    def to_hex(self) -> str:
        return bits_to_hex(self.bits)

    @classmethod
    def random(cls, rng: np.random.Generator, length: int) -> "Message":
        return cls(tuple(draw_below(rng, 2, length)))


_BIT_VALUES = frozenset((0, 1))


def _are_bits(bits: Sequence) -> bool:
    """True when every entry is the integer 0 or 1, a Python or numpy integer but not a bool.

    ``True in (0, 1)`` and ``1.0 in (0, 1)`` both hold, so the types are checked
    first; all Python ints, as ``Message.random`` draws them, take the short way.
    """
    if not {int}.issuperset(map(type, bits)) and not all(
        type(b) is not bool and isinstance(b, numbers.Integral) for b in bits
    ):
        return False
    return _BIT_VALUES.issuperset(bits)


def bits_to_hex(bits: Sequence[int]) -> str:
    if not bits:
        return ""
    value = int("".join(str(b) for b in bits), 2)
    return f"{value:0{math.ceil(len(bits) / 4)}x}"


def mac_protect(bits: Sequence[int]) -> str:
    """Integrity tag over a bit string (idealized: collision-free in practice)."""
    import hashlib  # loaded at the first tag, not when the package is imported

    packed = bytes([len(bits) % 256]) + bytes(bits)
    return hashlib.sha256(packed).hexdigest()


def mac_verify(bits: Sequence[int], tag: str) -> bool:
    return mac_protect(bits) == tag


@dataclass
class QsdcOutcome:
    """How one messaging run ended, what Bob decoded, and what the adversary guessed right."""

    status: RunStatus
    decoded: Optional[Tuple[int, ...]]
    leak_bits_correct: int = 0
    leak_bits_total: int = 0
    leak_first_correct: int = 0
    leak_second_correct: int = 0
    leak_pairs: int = 0
    message: Optional[Message] = None
    establishment: Optional[EstablishmentOutcome] = None
    detail: str = ""
    session: Optional[Session] = None
    # The party whose check ended the run; None when the message was delivered.
    detected_by: Optional[PartyId] = None

    @property
    def delivered(self) -> bool:
        return self.status is _DELIVERED

    def to_json(self) -> str:
        return json.dumps(
            {
                "status": self.status.value,
                "decoded_hex": None if self.decoded is None else bits_to_hex(self.decoded),
                "leak_bits_correct": self.leak_bits_correct,
                "leak_bits_total": self.leak_bits_total,
                "detected_step": self.status.step,
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
    bits = message.bits
    apply_pauli, from_bits = register.apply_pauli, PauliCode.from_bits
    for q, first, second in zip(held, bits[0::2], bits[1::2]):
        apply_pauli(q, from_bits(first, second))


def decode_pairs(
    register: QuantumRegister,
    relayed: Sequence[QubitRef],
    held: Sequence[QubitRef],
    rng: np.random.Generator,
) -> Tuple[int, ...]:
    """Joint Bell-basis readout of each (relayed, held) pair, two bits apiece.

    Draws ``rng.random(k)`` once for the k pairs, which yields exactly the
    values and generator state of one ``rng.random()`` per pair.
    """
    if len(relayed) != len(held):
        raise ValueError(f"{len(relayed)} relayed qubits cannot pair with {len(held)} held ones")
    bell_measure = register.bell_measure
    draws = rng.random(len(held)).tolist()
    bits: List[int] = []
    for qa, qb, draw in zip(relayed, held, draws):
        bits.extend(bell_measure(qa, qb, rng, draw).bits)
    return tuple(bits)


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
    if length == 0:
        c, m = cfg.checked_count, cfg.m_pairs
        raise ValueError(f"cannot spot-check {c} of {m} positions in a qsdc run")
    if message is not None and len(message) != length:
        raise ValueError(f"this configuration carries {length} bits, got {len(message)}")
    session = Session(cfg, _coerce_adversary(attack), rng, filters_enabled=filters_enabled)
    est = _run(session)
    end = est  # what ended the run: the establishment, or a relay check's abort
    if est.established:
        if message is None:
            message = Message.random(session.rng, length)
        try:
            return _deliver(session, est, message)
        except Aborted as abort:
            end = abort
    return QsdcOutcome(
        end.status, None, message=message, establishment=est, detail=end.detail,
        session=session, detected_by=end.detected_by,
    )


def _deliver(session: Session, est: EstablishmentOutcome, message: Message) -> QsdcOutcome:
    """Steps 5 to 7 over established pairs; a failed relay-leg check raises :class:`Aborted`."""
    net, reg, adversary = session.net, session.register, session.adversary
    alice_held = est.shared_pairs[ALICE]
    bob_held = est.shared_pairs[BOB]

    tag = mac_protect(message.bits)
    mac = MacTag(tag)  # one immutable payload serves both hops
    net.send_classical(ALICE, TP2, mac)
    encode_message(reg, alice_held, message)

    # Step 5: Alice -> TP2, protected by decoys of Alice's own choosing.
    relay_payload = _relay_leg(session, ALICE, TP2, alice_held, TP2, _ABORTED_STEP5)
    if adversary is not None:
        adversary.on_relay_payload(net, relay_payload, list(est.surviving_indices))

    # Step 6: TP2 -> Bob behind fresh decoys chosen by TP2.
    delivered = _relay_leg(session, TP2, BOB, relay_payload, ALICE, _ABORTED_STEP7)

    # Step 7: Bob reads the pairs and checks the integrity tag.
    net.send_classical(TP2, BOB, mac)
    decoded = decode_pairs(reg, delivered, bob_held, session.rng)
    ok = mac_verify(decoded, tag)
    outcome = QsdcOutcome(
        _DELIVERED if ok else _MAC_REJECTED, decoded, message=message,
        establishment=est, session=session, detected_by=None if ok else BOB,
    )
    return _finish_leak(outcome, adversary, message, est.pairs_established)


def _relay_leg(
    session: Session,
    sender: PartyId,
    receiver: PartyId,
    payload: Sequence[QubitRef],
    mismatch_to: PartyId,
    status: RunStatus,
) -> List[QubitRef]:
    """Carry ``payload`` across one relay leg behind the sender's fresh decoys.

    Returns the payload as the receiver holds it.  Raises :class:`Aborted`
    with ``status``, the leg's check, when the receiver's probe filter fires
    (it tells the sender) or the public decoy discussion finds a mismatch (the
    sender tells ``mismatch_to``).
    """
    net, stage = session.net, status.stage
    sequence, record = session.build_decoyed_sequence(payload)
    held = net.send_quantum(sender, receiver, sequence)
    if net.scan_trojan(receiver, held):
        net.send_classical(receiver, sender, AbortNotice(stage, "probe photons found"))
        raise Aborted(status, f"probe photons found at {receiver}", receiver)
    bad = session.run_decoy_discussion(sender, receiver, stage, held, record)
    if bad is not None:
        detail = f"decoy mismatch at slot {bad}"
        net.send_classical(sender, mismatch_to, AbortNotice(stage, detail))
        raise Aborted(status, detail, sender)
    return strip_decoys(held, record)


def _finish_leak(
    outcome: QsdcOutcome,
    adversary: Optional[Adversary],
    message: Message,
    pairs: int,
) -> QsdcOutcome:
    """Score the adversary's message guesses on a run that reached decode."""
    guesses = adversary.guesses[:pairs] if adversary is not None else ()
    for i, guess in enumerate(guesses):
        actual = (message.bits[2 * i], message.bits[2 * i + 1])
        outcome.leak_pairs += 1
        outcome.leak_bits_total += 2
        if guess[0] == actual[0]:
            outcome.leak_bits_correct += 1
            outcome.leak_first_correct += 1
        if guess[1] == actual[1]:
            outcome.leak_bits_correct += 1
            outcome.leak_second_correct += 1
    return outcome


# --- transcript audits --------------------------------------------------------

HONEST_CLASSICAL_KINDS = {p.KIND for p in (Ack, PositionsBases, MeasurementResults, MacTag)}
_CLASSICAL_KINDS = HONEST_CLASSICAL_KINDS | {AbortNotice.KIND}


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
