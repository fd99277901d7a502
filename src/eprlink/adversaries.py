"""Attack library: in-flight interceptors, dishonest-node strategies, oracles.

Every attack comes in two halves: an executable implementation that plugs into
the network's interception seams, and a closed-form or enumerated oracle for
its detection probability.  The harness runs the implementation many times and
checks the empirical rate against the oracle.

Role restrictions are enforced at spec construction time: the pair source can
only be corrupted through TP1, correlation probes only through TP2 on the
TP1 -> Bob leg, and a single spec can never grant one adversary both relay
nodes at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .channels import (
    ALICE,
    BOB,
    EVE,
    STAGE_DECOY,
    STAGE_PAIR_CHECK,
    ClassicalMessage,
    Network,
    PartyId,
    PositionsBases,
    QuantumMessage,
    TP1,
    TP2,
    TrojanKind,
    TrojanTag,
)
from .qcore import (
    Basis,
    BellOutcome,
    PauliCode,
    SINGLE_STATE_LABELS,
    bell_vector,
    cnot_matrix,
    eigenstate_label,
    state_vector_for_label,
)

_PAULI_CHOICES = (PauliCode.I, PauliCode.Z, PauliCode.X, PauliCode.IY)


class AttackKind(Enum):
    INTERCEPT_RESEND = "intercept_resend"
    ENTANGLE_MEASURE = "entangle_measure"
    ENTANGLEMENT_SWAP = "entanglement_swap"
    CORRELATION_ELICITATION = "correlation_elicitation"
    DENSE_CODING = "dense_coding"
    MODIFICATION = "modification"
    TROJAN_HORSE = "trojan_horse"


MODIFICATION_STRATEGIES = ("all_slots", "single_slot", "tp2_decoy_aware")

# Where each attack is expected to trip an alarm, keyed by the attacked edge;
# the keys are every quantum channel an attack can tap.
_EDGE_TO_SITE = {
    (TP1, ALICE): "step2",
    (TP1, BOB): "step2",
    (ALICE, TP2): "step5",
    (TP2, BOB): "step7",
}


@dataclass(frozen=True)
class AttackSpec:
    """Declarative description of one adversary, safe to put in a config file."""

    kind: AttackKind
    actor: Optional[PartyId] = None
    edge: Optional[Tuple[PartyId, PartyId]] = None
    strategy: Optional[str] = None
    trojan: Optional[TrojanKind] = None
    unitary: Optional[tuple] = None

    def __post_init__(self) -> None:
        actor, edge = self.actor, self.edge
        kind = self.kind
        if kind is AttackKind.INTERCEPT_RESEND:
            actor = actor or TP2
            edge = edge or (TP1, ALICE)
        elif kind is AttackKind.ENTANGLE_MEASURE:
            actor = actor or EVE
            edge = edge or (TP1, ALICE)
        elif kind is AttackKind.ENTANGLEMENT_SWAP:
            actor = actor or TP1
            if actor != TP1:
                raise ValueError("only TP1 can corrupt the pair source")
            if edge is not None:
                raise ValueError("the corrupted source is not an edge attack")
        elif kind is AttackKind.CORRELATION_ELICITATION:
            actor = actor or TP2
            edge = edge or (TP1, BOB)
            if actor != TP2 or edge != (TP1, BOB):
                raise ValueError("correlation probes are a TP2 attack on the TP1->Bob leg")
        elif kind is AttackKind.DENSE_CODING:
            actor = actor or EVE
            edge = edge or (TP1, ALICE)
            if actor != EVE or edge != (TP1, ALICE):
                raise ValueError("the pair-substitution attack is Eve's, on the TP1->Alice leg")
        elif kind is AttackKind.MODIFICATION:
            strategy = self.strategy or "single_slot"
            if strategy not in MODIFICATION_STRATEGIES:
                raise ValueError(f"unknown modification strategy {strategy!r}")
            object.__setattr__(self, "strategy", strategy)
            if strategy == "tp2_decoy_aware":
                actor = actor or TP2
                if actor != TP2:
                    raise ValueError("the decoy-aware variant is TP2 tampering with the relay")
                if edge is not None:
                    raise ValueError("decoy-aware tampering happens inside the relay, not on an edge")
            else:
                actor = actor or EVE
                edge = edge or (ALICE, TP2)
                if edge not in ((ALICE, TP2), (TP2, BOB)):
                    raise ValueError("slot tampering targets a relay leg")
        elif kind is AttackKind.TROJAN_HORSE:
            actor = actor or EVE
            edge = edge or (TP1, ALICE)
            object.__setattr__(self, "trojan", self.trojan or TrojanKind.INVISIBLE_PHOTON)
        if edge is not None:
            if edge not in _EDGE_TO_SITE:
                raise ValueError(f"{edge[0]}->{edge[1]} is not a quantum channel")
            if actor in edge:
                raise ValueError("a channel endpoint cannot also tap that channel in flight")
        object.__setattr__(self, "actor", actor)
        object.__setattr__(self, "edge", edge)

    @property
    def detection_site(self) -> Optional[str]:
        """Which discussion (or the integrity tag) should catch this attack."""
        if self.kind is AttackKind.ENTANGLEMENT_SWAP:
            return "step3"
        if self.kind is AttackKind.MODIFICATION and self.strategy == "tp2_decoy_aware":
            return "mac"
        if self.edge is not None:
            return _EDGE_TO_SITE[self.edge]
        return None


class Adversary:
    """Base adversary: hears all public traffic, taps only its ``edge`` (if any), does nothing.

    Every interceptor subclasses it; the network and the protocol call each
    hook directly, so an attack overrides only the hooks it acts through.
    """

    # True when the adversary, not TP1, makes every payload group.
    supplies_source = False

    def __init__(self, actor: PartyId, edge: Optional[Tuple[PartyId, PartyId]] = None):
        self.actor = actor
        self.edge = edge
        # Two-bit guesses at the message, one per relayed pair, for attacks that read it.
        self._guesses: List[Optional[Tuple[int, int]]] = []

    def quantum_taps(self) -> List[Tuple[PartyId, PartyId]]:
        return [] if self.edge is None else [self.edge]

    def on_quantum_in_flight(
        self, net: Network, edge: Tuple[PartyId, PartyId], msg: QuantumMessage
    ) -> QuantumMessage:
        return msg

    def on_classical_observed(self, net: Network, msg: ClassicalMessage) -> None:
        pass

    def on_relay_payload(
        self, net: Network, payload: Sequence, surviving_indices: Sequence[int]
    ) -> None:
        pass

    def guessed_bits(self) -> Optional[List[Optional[Tuple[int, int]]]]:
        return self._guesses or None

    def ancilla_outcomes(self) -> Optional[List[int]]:
        return None

    def trojan_leak(self) -> bool:
        return False


class InterceptResend(Adversary):
    """Measure every in-flight qubit in a random basis and resend what was seen."""

    def __init__(self, actor: PartyId = TP2, edge: Tuple[PartyId, PartyId] = (TP1, ALICE)):
        super().__init__(actor, edge)
        self.observations: List[Tuple[Basis, int]] = []

    def on_quantum_in_flight(self, net, edge, msg):
        reg, rng = net.register, net.rng
        fakes = []
        for q in msg.qubits:
            basis = Basis.Z if int(rng.integers(2)) == 0 else Basis.X
            out = reg.measure(q, basis, rng)
            self.observations.append((basis, out.bit))
            fakes.append(reg.prepare_single(eigenstate_label(basis, out.bit)))
        return QuantumMessage(msg.sender, msg.receiver, tuple(fakes))


class EntangleMeasure(Adversary):
    """Couple a fresh probe qubit to every in-flight qubit with a fixed unitary.

    The probes are kept and can be measured after the public discussion; the
    information they carry is bounded by how much the coupling disturbs the
    carried states (see :func:`probe_interaction_scores`).
    """

    def __init__(
        self,
        unitary: Optional[np.ndarray] = None,
        actor: PartyId = EVE,
        edge: Tuple[PartyId, PartyId] = (TP1, ALICE),
    ):
        super().__init__(actor, edge)
        self.unitary = np.asarray(unitary if unitary is not None else cnot_matrix(), dtype=complex)
        self.probes: List = []
        self._outcomes: Optional[List[int]] = None

    def on_quantum_in_flight(self, net, edge, msg):
        reg = net.register
        for q in msg.qubits:
            probe = reg.prepare_single("0")
            reg.apply_two_qubit_unitary(self.unitary, q, probe)
            self.probes.append(probe)
        return msg

    def measure_probes(self, net: Network) -> List[int]:
        """Read all retained probes in the computational basis."""
        self._outcomes = [net.register.measure(p, Basis.Z, net.rng).bit for p in self.probes]
        return self._outcomes

    def ancilla_outcomes(self):
        return self._outcomes


class EntanglementSwapSource(Adversary):
    """TP1 hands out halves of two private pairs instead of one shared pair.

    For every payload position the corrupted source makes two pairs, sends one
    half of each to Alice and Bob, and keeps the other two halves.  When TP2
    announces the spot-check positions, TP1 joint-measures its retained halves
    first, steering the checked pair into a random maximally entangled state.
    Later, if the run survives, TP1 lifts the message by joint-measuring the
    encoded qubit in transit with its retained partner.
    """

    supplies_source = True

    def __init__(self, actor: PartyId = TP1):
        super().__init__(actor)
        self.retained: List[Tuple] = []
        self._sent_to_alice: Dict = {}
        self.swap_outcomes: Dict[int, BellOutcome] = {}
        self._acted = False

    def quantum_taps(self):
        return [(ALICE, TP2)]

    def make_payload_group(self, net: Network, parties: int):
        if parties != 2:
            raise ValueError("the corrupted source substitutes two-party pairs only")
        reg = net.register
        to_alice, keep_a = reg.prepare_epr_pair()
        to_bob, keep_b = reg.prepare_epr_pair()
        self._sent_to_alice[to_alice] = (len(self.retained), keep_a)
        self.retained.append((keep_a, keep_b))
        return (to_alice, to_bob)

    def on_classical_observed(self, net, msg):
        payload = msg.payload
        if (
            not self._acted
            and isinstance(payload, PositionsBases)
            and payload.stage == STAGE_PAIR_CHECK
            and msg.sender == TP2
        ):
            # Measure the retained halves before any holder responds.
            for pos in payload.positions:
                keep_a, keep_b = self.retained[pos]
                self.swap_outcomes[pos] = net.register.bell_measure(keep_a, keep_b, net.rng)
            self._acted = True

    def on_quantum_in_flight(self, net, edge, msg):
        for q in msg.qubits:
            entry = self._sent_to_alice.get(q)
            if entry is not None:
                _, keep_a = entry
                outcome = net.register.bell_measure(q, keep_a, net.rng)
                self._guesses.append(outcome.bits)
        return msg


class CorrelationElicitation(Adversary):
    """TP2 copies correlations out of Bob's sequence with controlled-NOT probes.

    In step 1 a fresh probe is CNOT-coupled to every slot headed for Bob.  In
    step 5, once TP2 legitimately holds the encoded sequence, a second CNOT
    from each encoded qubit onto the matching probe disentangles it again, and
    a computational-basis readout reveals whether the encoding flipped bits
    (the first bit of each two-bit group), while the phase bit stays hidden.
    """

    def __init__(self, actor: PartyId = TP2):
        super().__init__(actor)
        self._slot_probes: List = []
        self._bob_decoy_positions: Optional[Tuple[int, ...]] = None
        self._outcomes: List[int] = []

    def quantum_taps(self):
        return [(TP1, BOB)]

    def on_quantum_in_flight(self, net, edge, msg):
        reg = net.register
        for q in msg.qubits:
            probe = reg.prepare_single("0")
            reg.apply_cnot(q, probe)
            self._slot_probes.append(probe)
        return msg

    def on_classical_observed(self, net, msg):
        payload = msg.payload
        if (
            self._bob_decoy_positions is None
            and isinstance(payload, PositionsBases)
            and payload.stage == STAGE_DECOY
            and msg.receiver == BOB
        ):
            self._bob_decoy_positions = payload.positions

    def on_relay_payload(self, net, payload, surviving_indices):
        if self._bob_decoy_positions is None:
            return
        decoys = set(self._bob_decoy_positions)
        pair_probes = [p for i, p in enumerate(self._slot_probes) if i not in decoys]
        reg, rng = net.register, net.rng
        for q, idx in zip(payload, surviving_indices):
            probe = pair_probes[idx]
            reg.apply_cnot(q, probe)
            bit = reg.measure(probe, Basis.Z, rng).bit
            reg.discard(probe)
            self._outcomes.append(bit)
            # The probe only ever learns flip-or-not; the phase bit is a coin toss.
            self._guesses.append((bit, int(rng.integers(2))))

    def ancilla_outcomes(self):
        return self._outcomes or None


class DenseCodingSubstitution(Adversary):
    """Eve swaps Alice's incoming halves for halves of pairs Eve made herself.

    Whatever Alice later encodes lands on Eve's qubits; when the sequence
    travels to TP2, Eve joint-measures each substituted qubit with its retained
    partner and reads the two encoded bits directly.
    """

    def __init__(self, actor: PartyId = EVE):
        super().__init__(actor)
        self._partner: Dict = {}
        self.stolen: List = []

    def quantum_taps(self):
        return [(TP1, ALICE), (ALICE, TP2)]

    def on_quantum_in_flight(self, net, edge, msg):
        reg, rng = net.register, net.rng
        if edge == (TP1, ALICE):
            fakes = []
            for q in msg.qubits:
                mine, kept = reg.prepare_epr_pair()
                self._partner[mine] = kept
                self.stolen.append(q)
                fakes.append(mine)
            return QuantumMessage(msg.sender, msg.receiver, tuple(fakes))
        for q in msg.qubits:
            kept = self._partner.get(q)
            if kept is not None:
                outcome = reg.bell_measure(q, kept, rng)
                self._guesses.append(outcome.bits)
        return msg


class Modification(Adversary):
    """Scramble transmission slots with uniformly random encoding operations."""

    def __init__(
        self,
        strategy: str = "single_slot",
        actor: PartyId = EVE,
        edge: Tuple[PartyId, PartyId] = (ALICE, TP2),
    ):
        if strategy not in MODIFICATION_STRATEGIES:
            raise ValueError(f"unknown modification strategy {strategy!r}")
        super().__init__(actor, edge)
        self.strategy = strategy
        self.applied: List[Tuple[int, PauliCode]] = []

    def quantum_taps(self):
        if self.strategy == "tp2_decoy_aware":
            return []
        return [self.edge]

    def _random_pauli(self, rng) -> PauliCode:
        return _PAULI_CHOICES[int(rng.integers(4))]

    def on_quantum_in_flight(self, net, edge, msg):
        reg, rng = net.register, net.rng
        if self.strategy == "all_slots":
            for i, q in enumerate(msg.qubits):
                p = self._random_pauli(rng)
                reg.apply_pauli(q, p)
                self.applied.append((i, p))
        else:
            slot = int(rng.integers(len(msg.qubits)))
            p = self._random_pauli(rng)
            reg.apply_pauli(msg.qubits[slot], p)
            self.applied.append((slot, p))
        return msg

    def on_relay_payload(self, net, payload, surviving_indices):
        if self.strategy != "tp2_decoy_aware":
            return
        # TP2 knows every decoy position on its own legs, so it only ever
        # touches payload qubits and no discussion can catch it.
        for i, q in enumerate(payload):
            p = self._random_pauli(net.rng)
            net.register.apply_pauli(q, p)
            self.applied.append((i, p))


class TrojanHorse(Adversary):
    """Ride hidden probe photons along with a legitimate sequence."""

    def __init__(
        self,
        kind: TrojanKind = TrojanKind.INVISIBLE_PHOTON,
        actor: PartyId = EVE,
        edge: Tuple[PartyId, PartyId] = (TP1, ALICE),
    ):
        super().__init__(actor, edge)
        self.kind = kind
        self._leak = False

    def quantum_taps(self):
        return [self.edge, (ALICE, TP2)]

    def on_quantum_in_flight(self, net, edge, msg):
        if edge == self.edge:
            for q in msg.qubits:
                net.plant_tag(q, TrojanTag(self.kind, self.actor))
        elif net.tags_on(msg.qubits):
            # The probes survived the receiver's (missing) filter and are now
            # coming back out with the encoded sequence.
            self._leak = True
        return msg

    def trojan_leak(self):
        return self._leak


def build_adversary(spec: AttackSpec) -> Adversary:
    """Instantiate a fresh, run-confined adversary from its description."""
    kind = spec.kind
    if kind is AttackKind.INTERCEPT_RESEND:
        return InterceptResend(spec.actor, spec.edge)
    if kind is AttackKind.ENTANGLE_MEASURE:
        u = None if spec.unitary is None else np.asarray(spec.unitary, dtype=complex)
        return EntangleMeasure(u, spec.actor, spec.edge)
    if kind is AttackKind.ENTANGLEMENT_SWAP:
        return EntanglementSwapSource(spec.actor)
    if kind is AttackKind.CORRELATION_ELICITATION:
        return CorrelationElicitation(spec.actor)
    if kind is AttackKind.DENSE_CODING:
        return DenseCodingSubstitution(spec.actor)
    if kind is AttackKind.MODIFICATION:
        if spec.strategy == "tp2_decoy_aware":
            return Modification(spec.strategy, spec.actor)
        return Modification(spec.strategy, spec.actor, spec.edge)
    if kind is AttackKind.TROJAN_HORSE:
        return TrojanHorse(spec.trojan, spec.actor, spec.edge)
    raise ValueError(f"unknown attack kind {kind}")


# --- detection oracles ---------------------------------------------------------


def intercept_resend_detection(n_decoys: int) -> float:
    """Detection probability of measure-and-resend, or of CNOT probes, across n decoys.

    Measure-and-resend: a right-basis guess (half the time) passes for sure, a
    wrong-basis resend still passes half the time, so each decoy survives
    with probability 3/4.

    CNOT probes (the correlation-elicitation attack): computational-basis
    decoys commute with the probe coupling; diagonal-basis decoys (half of
    them) are flipped half the time, so each decoy again trips the alarm with
    probability 1/4.
    """
    return 1.0 - 0.75**n_decoys


def dense_coding_detection(n_decoys: int) -> float:
    """Detection probability of wholesale pair substitution across n decoys.

    A substituted half is maximally mixed, so every decoy comparison is a
    coin toss: each one passes with probability 1/2.
    """
    return 1.0 - 0.5**n_decoys


def entanglement_swap_detection(checked_positions: int) -> float:
    """Detection probability of the corrupted source across c checked positions."""
    p_pass = swap_per_position_pass_probability()
    return 1.0 - p_pass**checked_positions


def swap_check_pass_table() -> Dict[BellOutcome, Dict[Basis, float]]:
    """Pass probability of the step-3 comparison for each steered pair state.

    Enumerated directly from amplitudes: for a pair projected onto a given
    maximally entangled state, the spot check passes when both holders report
    equal bits in the announced basis.
    """
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    table: Dict[BellOutcome, Dict[Basis, float]] = {}
    for outcome in BellOutcome:
        vec = bell_vector(outcome)
        row: Dict[Basis, float] = {}
        for basis in (Basis.Z, Basis.X):
            if basis is Basis.X:
                v = (np.kron(hadamard, hadamard) @ vec).reshape(2, 2)
            else:
                v = vec.reshape(2, 2)
            equal = abs(v[0, 0]) ** 2 + abs(v[1, 1]) ** 2
            row[basis] = float(equal)
        table[outcome] = row
    return table


def swap_per_position_pass_probability() -> float:
    """Average pass rate per checked position under the corrupted source.

    The retained-half measurement steers the checked pair uniformly over the
    four maximally entangled states; the announced basis is a fair coin.
    """
    table = swap_check_pass_table()
    return float(np.mean([p for row in table.values() for p in row.values()]))


def pauli_disturbance_table() -> Dict[Tuple[PauliCode, str], float]:
    """Probability that each encoding operation breaks each decoy state."""
    out: Dict[Tuple[PauliCode, str], float] = {}
    for code in _PAULI_CHOICES:
        for label in SINGLE_STATE_LABELS:
            vec = state_vector_for_label(label)
            amp = np.vdot(vec, code.matrix @ vec)
            out[(code, label)] = 1.0 - float((amp * amp.conjugate()).real)
    return out


def uniform_pauli_decoy_miss() -> float:
    """Chance a uniformly random encoding operation disturbs a random decoy."""
    table = pauli_disturbance_table()
    return float(np.mean(list(table.values())))


def modification_detection(strategy: str, n_decoys: int, payload_len: int) -> float:
    """Composed catch probability of slot scrambling at its canonical catch point.

    Scrambling every slot or a random single slot is caught (if at all) by the
    next decoy discussion; each scrambled decoy survives comparison with the
    uniform-code miss probability.  The decoy-aware relay variant touches only
    message qubits, so no discussion ever flags it; it is caught by the
    integrity tag, which rejects unless every slot happened to draw the
    identity code.
    """
    detect_one = 1.0 - uniform_pauli_decoy_miss()
    if strategy == "all_slots":
        return 1.0 - (1.0 - detect_one) ** n_decoys
    if strategy == "single_slot":
        total = n_decoys + payload_len
        if total == 0:
            return 0.0
        return (n_decoys / total) * detect_one
    if strategy == "tp2_decoy_aware":
        return 1.0 - 0.25**payload_len
    raise ValueError(f"unknown modification strategy {strategy!r}")


def probe_decoy_detection(unitary: np.ndarray, n_decoys: int) -> float:
    """Enumerated detection rate of a probe coupling across n random decoys."""
    per_state = [probe_disturbance(unitary, label) for label in SINGLE_STATE_LABELS]
    pass_one = 1.0 - float(np.mean(per_state))
    return 1.0 - pass_one**n_decoys


# --- information / disturbance scoring -----------------------------------------


def probe_disturbance(unitary: np.ndarray, label: str, ancilla_label: str = "0") -> float:
    """Probability the holder's check fails on one decoy after probe coupling."""
    vec = state_vector_for_label(label)
    anc = state_vector_for_label(ancilla_label)
    out = (np.asarray(unitary, dtype=complex) @ np.kron(vec, anc)).reshape(2, 2)
    kept = vec.conj() @ out
    return 1.0 - float(np.sum(np.abs(kept) ** 2))


def _trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))


def probe_interaction_scores(
    unitary: np.ndarray, ancilla_label: str = "0"
) -> Tuple[float, float]:
    """Score one probe coupling: (worst disturbance, probe distinguishability).

    Disturbance is the largest per-decoy failure probability over the four
    preparation states.  Distinguishability is the largest trace distance
    between the probe's reduced states across those inputs; it is what upper
    bounds anything the adversary can later learn from the probe.  A coupling
    that never disturbs any decoy leaves all probe states identical.
    """
    u = np.asarray(unitary, dtype=complex)
    anc = state_vector_for_label(ancilla_label)
    disturbances = []
    probe_states = []
    for label in SINGLE_STATE_LABELS:
        vec = state_vector_for_label(label)
        out = (u @ np.kron(vec, anc)).reshape(2, 2)
        kept = vec.conj() @ out
        disturbances.append(1.0 - float(np.sum(np.abs(kept) ** 2)))
        probe_states.append(out.T @ out.conj())
    max_distance = 0.0
    for i in range(len(probe_states)):
        for j in range(i + 1, len(probe_states)):
            max_distance = max(max_distance, _trace_distance(probe_states[i], probe_states[j]))
    return max(disturbances), max_distance


def random_probe_unitary(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def passive_probe_unitary(rng: np.random.Generator) -> np.ndarray:
    """A coupling that only stirs the probe: zero disturbance by construction."""
    return np.kron(np.eye(2, dtype=complex), random_probe_unitary(rng, 2))


def partial_probe_unitary(theta: float) -> np.ndarray:
    """Interpolated probe coupling: identity at 0, full bit-copy at pi."""
    r = np.array(
        [
            [math.cos(theta / 2), -1j * math.sin(theta / 2)],
            [-1j * math.sin(theta / 2), math.cos(theta / 2)],
        ],
        dtype=complex,
    )
    u = np.zeros((4, 4), dtype=complex)
    u[:2, :2] = np.eye(2)
    u[2:, 2:] = r
    return u
