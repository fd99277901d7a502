"""Attack library: in-flight interceptors, dishonest-node strategies, oracles.

Every attack comes in two halves: an executable implementation that plugs into
the network's interception seams, and a closed-form or enumerated oracle for
its detection probability.  The harness runs the implementation many times and
checks the empirical rate against the oracle.

Each attack kind is defined in one place, its row in the attack table
(``_ATTACKS``): default roles and the rule restricting them, the one option
field it reads, its implementation, and its oracle.  Roles are checked at spec
construction time: the pair source can only be corrupted through TP1,
correlation probes only through TP2 on the TP1 -> Bob leg, and a single spec
can never grant one adversary both relay nodes at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .channels import (
    ALICE,
    BOB,
    EVE,
    STAGE_DECOY,
    STAGE_PAIR_CHECK,
    Network,
    PartyId,
    PositionsBases,
    RunStatus,
    TP1,
    TP2,
    TrojanKind,
)
from .qcore import (
    BASIS_BY_BIT,
    Basis,
    BellOutcome,
    PauliCode,
    SINGLE_STATE_LABELS,
    _HADAMARD,
    _PAULI_BY_CODE,
    _check_unitary,
    bell_vector,
    cnot_matrix,
    couple_probe,
    eigenstate_label,
    state_vector_for_label,
)
from .seeding import draw_below


class AttackKind(Enum):
    """The attacks the library implements, one row of the attack table each."""

    INTERCEPT_RESEND = "intercept_resend"
    ENTANGLE_MEASURE = "entangle_measure"
    ENTANGLEMENT_SWAP = "entanglement_swap"
    CORRELATION_ELICITATION = "correlation_elicitation"
    DENSE_CODING = "dense_coding"
    MODIFICATION = "modification"
    TROJAN_HORSE = "trojan_horse"


MODIFICATION_STRATEGIES = ("all_slots", "single_slot", "tp2_decoy_aware")

# The check that compares the decoys on each attacked edge; the keys are every
# quantum channel an attack can tap.
_EDGE_CHECK = {edge: status for status in RunStatus for edge in status.edges}

# Alice -> TP2, the leg that carries the encoded sequence out (step 5).
_STEP5_LEG = RunStatus.ABORTED_STEP5.edges[0]


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
        object.__setattr__(self, "kind", AttackKind(self.kind))
        row = _ATTACKS[self.kind]
        for name in ("strategy", "trojan", "unitary"):
            if name != row.option and getattr(self, name) is not None:
                raise ValueError(f"{name} must be left out: {self.kind.value} does not read it")
        if row.option is not None and getattr(self, row.option) is None:
            object.__setattr__(self, row.option, row.default)
        if self.strategy is not None and self.strategy not in MODIFICATION_STRATEGIES:
            raise ValueError(f"unknown modification strategy {self.strategy!r}")
        if self.unitary is not None:
            try:
                _check_unitary(self.unitary, 4)
            except ValueError as exc:
                raise ValueError(f"unitary must be a 4x4 unitary matrix: {exc}") from None
        row = _row(self)  # the strategy, known only now, may pick the decoy-aware variant
        actor = self.actor or row.actor
        edge = self.edge or row.edge
        if row.pinned and (actor, edge) != (row.actor, row.edge):
            raise ValueError(row.pinned)
        if edge is not None:
            if edge not in _EDGE_CHECK:
                raise ValueError(f"{edge[0]}->{edge[1]} is not a quantum channel")
            if row.relay_leg and _EDGE_CHECK[edge].before_establishment:
                raise ValueError(f"{self.kind.value} targets a relay leg")
            if actor in edge:
                raise ValueError("a channel endpoint cannot also tap that channel in flight")
        object.__setattr__(self, "actor", actor)
        object.__setattr__(self, "edge", edge)

    @property
    def detection_check(self) -> RunStatus:
        """The check that should catch this attack: a discussion or the integrity tag."""
        return _row(self).site or _EDGE_CHECK[self.edge]

    @property
    def detection_site(self) -> str:
        """The report's name for that check, its ``step``."""
        return self.detection_check.step


class Adversary:
    """Base adversary: taps only its ``edge`` (if any), does nothing.

    Every interceptor subclasses it; the network and the protocol call each
    hook directly, so an attack overrides only the hooks it acts through.  The
    network hands the qubits on an edge in ``taps`` to
    :meth:`on_quantum_in_flight`, and public traffic only to an adversary
    whose class overrides :meth:`on_classical_observed`.  Likewise the
    protocol takes the payload groups from an adversary, not TP1, only when
    its class overrides :meth:`make_payload_group`.
    """

    def __init__(self, actor: PartyId, edge: Optional[Tuple[PartyId, PartyId]] = None):
        self.actor = actor
        self.edge = edge
        # The quantum edges whose traffic this adversary sees in flight.
        self.taps: Tuple[Tuple[PartyId, PartyId], ...] = () if edge is None else (edge,)
        # Two-bit guesses at the message, one per relayed pair, for attacks that read it.
        self.guesses: List[Tuple[int, int]] = []

    def on_quantum_in_flight(
        self, net: Network, edge: Tuple[PartyId, PartyId], qubits: Tuple
    ) -> Tuple:
        """Act on the qubits crossing a tapped edge; returns the qubits that travel on."""
        return qubits

    def on_classical_observed(
        self, net: Network, edge: Tuple[PartyId, PartyId], payload: object
    ) -> None:
        pass

    @property
    def observes_classical(self) -> bool:
        """Whether the class overrides :meth:`on_classical_observed`; read once at registration."""
        return type(self).on_classical_observed is not Adversary.on_classical_observed

    def make_payload_group(self, net: Network, parties: int) -> Sequence:
        """One payload group, a qubit per end party: here TP1's honest shared state."""
        return net.register.prepare_ghz(parties)

    @property
    def supplies_source(self) -> bool:
        """Whether the class overrides :meth:`make_payload_group`, so the adversary, not
        TP1, makes every payload group; read once per distribution."""
        return type(self).make_payload_group is not Adversary.make_payload_group

    def on_relay_payload(
        self, net: Network, payload: Sequence, surviving_indices: Sequence[int]
    ) -> None:
        pass


class InterceptResend(Adversary):
    """Measure every in-flight qubit in a random basis and resend what was seen."""

    def __init__(self, spec: AttackSpec):
        super().__init__(spec.actor, spec.edge)

    def on_quantum_in_flight(self, net, edge, qubits):
        reg, rng = net.register, net.rng
        fakes = []
        for q in qubits:
            basis = BASIS_BY_BIT[draw_below(rng, 2)]
            out = reg.measure(q, basis, rng)
            fakes.append(reg.prepare_single(eigenstate_label(basis, out.bit)))
        return tuple(fakes)


class EntangleMeasure(Adversary):
    """Couple a fresh probe qubit to every in-flight qubit with a fixed unitary.

    The probes stay live in the register; the information they carry is bounded by how much the
    coupling disturbs the carried states (see :func:`probe_interaction_scores`).
    """

    def __init__(self, spec: AttackSpec):
        super().__init__(spec.actor, spec.edge)
        # Checked once here; every in-flight qubit gets the same rows.
        self.unitary = _check_unitary(spec.unitary, 4)
        self._rows = self.unitary.tolist()

    def on_quantum_in_flight(self, net, edge, qubits):
        reg = net.register
        for q in qubits:
            reg.apply_two_qubit_rows(self._rows, q, reg.prepare_single("0"))
        return qubits


class EntanglementSwapSource(Adversary):
    """TP1 hands out halves of two private pairs instead of one shared pair.

    For every payload position the corrupted source makes two pairs, sends one
    half of each to Alice and Bob, and keeps the other two halves.  When TP2
    announces the spot-check positions, TP1 joint-measures its retained halves
    first, steering the checked pair into a random maximally entangled state.
    Later, if the run survives, TP1 lifts the message by joint-measuring the
    encoded qubit in transit with its retained partner.
    """

    def __init__(self, spec: AttackSpec):
        super().__init__(spec.actor)
        self.taps += (_STEP5_LEG,)
        self.retained: List[Tuple] = []
        # Each half sent to Alice -> its retained partner.
        self._sent_to_alice: Dict = {}
        self._acted = False

    def make_payload_group(self, net: Network, parties: int):
        if parties != 2:
            raise ValueError("the corrupted source substitutes two-party pairs only")
        reg = net.register
        to_alice, keep_a = reg.prepare_epr_pair()
        to_bob, keep_b = reg.prepare_epr_pair()
        self._sent_to_alice[to_alice] = keep_a
        self.retained.append((keep_a, keep_b))
        return (to_alice, to_bob)

    def on_classical_observed(self, net, edge, payload):
        if (
            not self._acted
            and isinstance(payload, PositionsBases)
            and payload.stage == STAGE_PAIR_CHECK
            and edge[0] == TP2
        ):
            # Measure the retained halves before any holder responds; the
            # outcome is not needed, only the steering.
            for pos in payload.positions:
                keep_a, keep_b = self.retained[pos]
                net.register.bell_measure(keep_a, keep_b, net.rng)
            self._acted = True

    def on_quantum_in_flight(self, net, edge, qubits):
        for q in qubits:
            keep_a = self._sent_to_alice.get(q)
            if keep_a is not None:
                outcome = net.register.bell_measure(q, keep_a, net.rng)
                self.guesses.append(outcome.bits)
        return qubits


class CorrelationElicitation(Adversary):
    """TP2 copies correlations out of Bob's sequence with controlled-NOT probes.

    In step 1 a fresh probe is CNOT-coupled to every slot headed for Bob.  In
    step 5, once TP2 legitimately holds the encoded sequence, a second CNOT
    from each encoded qubit onto the matching probe disentangles it again, and
    a computational-basis readout reveals whether the encoding flipped bits
    (the first bit of each two-bit group), while the phase bit stays hidden.
    """

    def __init__(self, spec: AttackSpec):
        super().__init__(spec.actor, spec.edge)
        self._slot_probes: List = []
        self._bob_decoy_positions: Optional[Tuple[int, ...]] = None

    def on_quantum_in_flight(self, net, edge, qubits):
        reg = net.register
        for q in qubits:
            probe = reg.prepare_single("0")
            reg.apply_cnot(q, probe)
            self._slot_probes.append(probe)
        return qubits

    def on_classical_observed(self, net, edge, payload):
        if (
            self._bob_decoy_positions is None
            and isinstance(payload, PositionsBases)
            and payload.stage == STAGE_DECOY
            and edge[1] == BOB
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
            # The probe only ever learns flip-or-not; the phase bit is a coin toss.
            self.guesses.append((bit, draw_below(rng, 2)))


class DenseCodingSubstitution(Adversary):
    """Eve swaps Alice's incoming halves for halves of pairs Eve made herself.

    Whatever Alice later encodes lands on Eve's qubits; when the sequence
    travels to TP2, Eve joint-measures each substituted qubit with its retained
    partner and reads the two encoded bits directly.
    """

    def __init__(self, spec: AttackSpec):
        super().__init__(spec.actor, spec.edge)
        self.taps += (_STEP5_LEG,)
        self._partner: Dict = {}

    def on_quantum_in_flight(self, net, edge, qubits):
        reg, rng = net.register, net.rng
        if edge == self.edge:
            fakes = []
            for q in qubits:
                mine, kept = reg.prepare_epr_pair()
                self._partner[mine] = kept
                fakes.append(mine)
            return tuple(fakes)
        for q in qubits:
            kept = self._partner.get(q)
            if kept is not None:
                outcome = reg.bell_measure(q, kept, rng)
                self.guesses.append(outcome.bits)
        return qubits


class Modification(Adversary):
    """Scramble transmission slots with uniformly random encoding operations."""

    def __init__(self, spec: AttackSpec):
        super().__init__(spec.actor, spec.edge)
        self.strategy = spec.strategy

    def _random_pauli(self, rng) -> PauliCode:
        return _PAULI_BY_CODE[draw_below(rng, 4)]

    def on_quantum_in_flight(self, net, edge, qubits):
        reg, rng = net.register, net.rng
        if self.strategy == "all_slots":
            for q in qubits:
                reg.apply_pauli(q, self._random_pauli(rng))
        else:
            slot = int(rng.integers(len(qubits)))
            reg.apply_pauli(qubits[slot], self._random_pauli(rng))
        return qubits

    def on_relay_payload(self, net, payload, surviving_indices):
        if self.strategy != "tp2_decoy_aware":
            return
        # TP2 knows every decoy position on its own legs, so it only ever
        # touches payload qubits and no discussion can catch it.
        for q in payload:
            net.register.apply_pauli(q, self._random_pauli(net.rng))


class TrojanHorse(Adversary):
    """Ride hidden probe photons along with a legitimate sequence."""

    def __init__(self, spec: AttackSpec):
        super().__init__(spec.actor, spec.edge)
        self.taps += (_STEP5_LEG,)
        # True once planted probes come back out on the step-5 leg.
        self.leaked = False

    def on_quantum_in_flight(self, net, edge, qubits):
        if edge == self.edge:
            for q in qubits:
                net.plant_tag(q)
        elif net.tags_on(qubits):
            # The probes survived the receiver's (missing) filter and are now
            # coming back out with the encoded sequence.
            self.leaked = True
        return qubits


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
    table: Dict[BellOutcome, Dict[Basis, float]] = {}
    for outcome in BellOutcome:
        vec = bell_vector(outcome)
        row: Dict[Basis, float] = {}
        for basis in (Basis.Z, Basis.X):
            if basis is Basis.X:
                v = (np.kron(_HADAMARD, _HADAMARD) @ vec).reshape(2, 2)
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
    for code in PauliCode:
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


# --- the attack table: the one place an attack kind is defined -----------------


class AttackRow(NamedTuple):
    """Everything the package knows about one attack kind.

    ``rate(s, n, c, m, f)`` is the detection probability at the catch point of
    spec s, for n decoys per leg, c checked positions, m message pairs and the
    receivers' probe filters on (f true) or off.
    """

    actor: PartyId  # the default actor
    edge: Optional[Tuple[PartyId, PartyId]]  # the default tapped edge; None taps no edge
    adversary: type  # the Adversary subclass, built from the spec
    rate: Callable[..., float]
    source: str = "closed_form"  # or "enumerated" or "deterministic"
    option: Optional[str] = None  # the one optional spec field the kind reads
    default: object = None  # that field's value when the spec leaves it out
    pinned: str = ""  # if set, the error for overriding the default actor or edge
    relay_leg: bool = False  # the tapped edge must be a relay leg
    site: Optional[RunStatus] = None  # the catch point of a kind that taps no edge


_ATTACKS: Dict[AttackKind, AttackRow] = {
    AttackKind.INTERCEPT_RESEND: AttackRow(
        TP2, (TP1, ALICE), InterceptResend, lambda s, n, c, m, f: intercept_resend_detection(n)
    ),
    AttackKind.ENTANGLE_MEASURE: AttackRow(
        EVE, (TP1, ALICE), EntangleMeasure,
        lambda s, n, c, m, f: probe_decoy_detection(s.unitary, n),
        "enumerated", option="unitary", default=tuple(map(tuple, cnot_matrix().tolist())),
    ),
    AttackKind.ENTANGLEMENT_SWAP: AttackRow(
        TP1, None, EntanglementSwapSource, lambda s, n, c, m, f: entanglement_swap_detection(c),
        pinned="only TP1 can corrupt the pair source, which is not an edge attack",
        site=RunStatus.ABORTED_STEP3,
    ),
    AttackKind.CORRELATION_ELICITATION: AttackRow(
        TP2, (TP1, BOB), CorrelationElicitation,
        lambda s, n, c, m, f: intercept_resend_detection(n),
        pinned="correlation probes are a TP2 attack on the TP1->Bob leg",
    ),
    AttackKind.DENSE_CODING: AttackRow(
        EVE, (TP1, ALICE), DenseCodingSubstitution, lambda s, n, c, m, f: dense_coding_detection(n),
        pinned="the pair-substitution attack is Eve's, on the TP1->Alice leg",
    ),
    AttackKind.MODIFICATION: AttackRow(
        EVE, (ALICE, TP2), Modification,
        lambda s, n, c, m, f: modification_detection(s.strategy, n, m),
        option="strategy", default="single_slot", relay_leg=True,
    ),
    # Ideal probe filters flag every planted slot; without them, nothing does.
    AttackKind.TROJAN_HORSE: AttackRow(
        EVE, (TP1, ALICE), TrojanHorse, lambda s, n, c, m, f: 1.0 if f else 0.0,
        "deterministic", option="trojan", default=TrojanKind.INVISIBLE_PHOTON,
    ),
}

# TP2 scrambling only message slots inside the relay, caught by the integrity tag.
_DECOY_AWARE = _ATTACKS[AttackKind.MODIFICATION]._replace(
    actor=TP2, edge=None, site=RunStatus.MAC_REJECTED,
    pinned="the decoy-aware variant is TP2 tampering inside the relay, not on an edge",
)


def _row(spec: AttackSpec) -> AttackRow:
    return _DECOY_AWARE if spec.strategy == "tp2_decoy_aware" else _ATTACKS[spec.kind]


def build_adversary(spec: AttackSpec) -> Adversary:
    """Instantiate a fresh, run-confined adversary from its description."""
    return _row(spec).adversary(spec)


def detection_oracle(spec: Optional[AttackSpec], cfg, filters_enabled: bool) -> Tuple[float, str]:
    """(catch-point detection rate, how it was obtained) for runs of an EstablishmentConfig."""
    if spec is None:
        return 0.0, "closed_form"
    row = _row(spec)
    c = cfg.checked_count
    return row.rate(spec, cfg.n_decoys, c, cfg.m_pairs - c, filters_enabled), row.source


# Command-line short names, each with default roles: a kind's own name, or
# one name per modification strategy and per trojan photon kind.
_SHORT_NAMES: Dict[str, dict] = {
    **{k.value: {"kind": k} for k in AttackKind if _ATTACKS[k].option in (None, "unitary")},
    **{f"modification_{s}": {"kind": AttackKind.MODIFICATION, "strategy": s}
       for s in MODIFICATION_STRATEGIES},
    **{f"trojan_{t.value}": {"kind": AttackKind.TROJAN_HORSE, "trojan": t} for t in TrojanKind},
}
ATTACK_NAMES = tuple(_SHORT_NAMES)


def attack_from_name(name: str) -> AttackSpec:
    """Build the default-shaped attack for a short command-line name."""
    if name not in _SHORT_NAMES:
        raise ValueError(f"unknown attack name {name!r}; choose one of {', '.join(ATTACK_NAMES)}")
    return AttackSpec(**_SHORT_NAMES[name])


def attack_label(spec: Optional[AttackSpec]) -> str:
    """The report's attack name: the kind, and the named variant if it has one."""
    if spec is None:
        return ""
    variant = spec.strategy or (spec.trojan.value if spec.trojan else None)
    return spec.kind.value if variant is None else f"{spec.kind.value}:{variant}"


# --- information / disturbance scoring -----------------------------------------


def probe_disturbance(unitary: np.ndarray, label: str) -> float:
    """Probability the holder's check fails on one decoy after coupling a |0> probe."""
    kept = state_vector_for_label(label).conj() @ couple_probe(unitary, label)
    return 1.0 - float(np.sum(np.abs(kept) ** 2))


def _probe_state(unitary: np.ndarray, label: str) -> np.ndarray:
    """The probe's reduced density matrix after coupling to one decoy."""
    out = couple_probe(unitary, label)
    return out.T @ out.conj()


def _trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))


def probe_interaction_scores(unitary: np.ndarray) -> Tuple[float, float]:
    """Score one probe coupling: (worst disturbance, probe distinguishability).

    Disturbance is the largest per-decoy failure probability over the four
    preparation states.  Distinguishability is the largest trace distance
    between the probe's reduced states across those inputs; it is what upper
    bounds anything the adversary can later learn from the probe.  A coupling
    that never disturbs any decoy leaves all probe states identical.
    """
    disturbances = [probe_disturbance(unitary, label) for label in SINGLE_STATE_LABELS]
    probe_states = [_probe_state(unitary, label) for label in SINGLE_STATE_LABELS]
    pairs = itertools.combinations(probe_states, 2)
    return max(disturbances), max(_trace_distance(a, b) for a, b in pairs)


def probe_guessing(unitary: np.ndarray, basis: Basis) -> float:
    """Helstrom success of guessing a ``basis`` decoy's bit from its probe alone.

    The decoy is either of the basis's two states with equal odds and the probe
    starts in |0>; the best measurement of the probe's reduced states succeeds
    with probability 1/2 + 1/2 of their trace distance.  For four-state decoys
    it is at most 1/2 + sqrt(D(1 - D)), D the disturbance of the other basis's
    decoys (Fuchs et al., Phys. Rev. A 56, 1163 (1997)).
    """
    probes = [_probe_state(unitary, eigenstate_label(basis, bit)) for bit in (0, 1)]
    return 0.5 + 0.5 * _trace_distance(*probes)


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
