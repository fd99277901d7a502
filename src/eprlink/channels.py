"""Quantum and classical channels between the protocol parties.

The wiring mirrors the deployment this simulator targets: two relay nodes
(TP1, TP2) each share a quantum channel and an authenticated classical channel
with every end party, while the end parties share no direct link with each
other.  Classical traffic is public but tamper-proof; quantum traffic can be
tapped by registered interceptors while in flight.  Every send is appended to
a replayable transcript.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import permutations
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .qcore import Basis, QuantumRegister, QubitRef


class TopologyError(RuntimeError):
    """Raised when a send is attempted on a channel that does not exist."""


class ChannelContractError(RuntimeError):
    """Raised when code violates a channel guarantee (e.g. classical tampering)."""


class PartyId(NamedTuple):
    """Stable identity of a protocol participant or adversary.

    A one-field tuple, so hashing (dictionary keys, edge lookups) and ordering
    run at C speed.  It never compares equal to a plain tuple.
    """

    name: str

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PartyId) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


ALICE = PartyId("Alice")
BOB = PartyId("Bob")
TP1 = PartyId("TP1")
TP2 = PartyId("TP2")
EVE = PartyId("Eve")


def participant(k: int) -> PartyId:
    """End party number k of a multi-party run (1 is Alice, 2 is Bob)."""
    if k < 1:
        raise ValueError("participant index starts at 1")
    if k == 1:
        return ALICE
    if k == 2:
        return BOB
    return PartyId(f"P{k}")


@lru_cache(maxsize=None)  # one entry per party count a run uses
def end_party_tuple(k: int) -> Tuple[PartyId, ...]:
    """The k end parties of a run, in fixed order, built once per k and shared."""
    if k < 2:
        raise ValueError("a run needs at least two end parties")
    return tuple(participant(i + 1) for i in range(k))


def end_parties(k: int) -> List[PartyId]:
    """The k end parties of a run, in fixed order, as a fresh list."""
    return list(end_party_tuple(k))


class TrojanKind(Enum):
    INVISIBLE_PHOTON = "invisible_photon"
    DELAY_PHOTON = "delay_photon"


@dataclass(frozen=True)
class TrojanTag:
    """Marker for a probe hidden in a transmission slot."""

    kind: TrojanKind
    planted_by: PartyId


@dataclass(frozen=True)
class QuantumMessage:
    sender: PartyId
    receiver: PartyId
    qubits: Tuple[QubitRef, ...]


# --- classical payloads -----------------------------------------------------
#
# The payload vocabulary is deliberately tiny; a transcript audit checks that
# honest runs never send anything outside it.  Stage labels say which
# discussion a positions/results message belongs to.

STAGE_DECOY = "decoy_check"  # sender-chosen decoys verified after distribution
STAGE_PAIR_CHECK = "pair_check"  # correlation spot check on payload pairs
STAGE_RELAY_IN = "relay_in_check"  # decoy discussion on the Alice -> TP2 leg
STAGE_RELAY_OUT = "relay_out_check"  # decoy discussion on the TP2 -> Bob leg


class RunStatus(Enum):
    """How a run ended: established or delivered, or the check that failed first.

    The abort members are the table of checks.  Each names its stage label
    (None for the integrity tag), the quantum edges whose decoys it compares,
    and whether it runs before establishment ends.
    """

    def __new__(cls, value: str, stage=None, edges=(), before_establishment=False):
        member = object.__new__(cls)
        member._value_ = value
        member.stage = stage
        member.edges = edges
        member.before_establishment = before_establishment
        return member

    ESTABLISHED = ("established",)
    DELIVERED = ("delivered",)
    ABORTED_STEP2 = ("aborted_step2", STAGE_DECOY, ((TP1, ALICE), (TP1, BOB)), True)
    ABORTED_STEP3 = ("aborted_step3", STAGE_PAIR_CHECK, (), True)
    ABORTED_STEP5 = ("aborted_step5", STAGE_RELAY_IN, ((ALICE, TP2),))
    ABORTED_STEP7 = ("aborted_step7", STAGE_RELAY_OUT, ((TP2, BOB),))
    MAC_REJECTED = ("mac_rejected",)

    @property
    def step(self) -> Optional[str]:
        """The failed check, ``"step2"`` to ``"step7"`` or ``"mac"``; None on success."""
        if self is RunStatus.MAC_REJECTED:
            return "mac"
        return self.value.partition("aborted_")[2] or None


@dataclass(frozen=True)
class Ack:
    KIND = "ack"
    note: str = ""

    def summary(self) -> str:
        return "ack" if not self.note else f"ack ({self.note})"


# The plain acknowledgement.  Payloads are frozen, so one instance serves every send.
ACK = Ack()


@dataclass(frozen=True)
class PositionsBases:
    """Announcement of which slots to measure and in which bases."""

    KIND = "positions_bases"
    stage: str
    positions: Tuple[int, ...]
    bases: Tuple[Basis, ...]

    def summary(self) -> str:
        return f"{self.stage}: {len(self.positions)} positions+bases"


@dataclass(frozen=True)
class MeasurementResults:
    KIND = "measurement_results"
    stage: str
    bits: Tuple[int, ...]

    def summary(self) -> str:
        return f"{self.stage}: {len(self.bits)} result bits"


@dataclass(frozen=True)
class AbortNotice:
    KIND = "abort"
    stage: str
    reason: str

    def summary(self) -> str:
        return f"abort at {self.stage}: {self.reason}"


@dataclass(frozen=True)
class MacTag:
    KIND = "mac_tag"
    digest: str

    def summary(self) -> str:
        return "mac tag"


@dataclass(frozen=True)
class ClassicalMessage:
    """A classical send as interceptors observe it; built only when one is registered."""

    sender: PartyId
    receiver: PartyId
    payload: object


# --- transcript --------------------------------------------------------------


class Event(NamedTuple):
    """One transcript entry; ``payload`` is a summary string or a classical payload."""

    step: int
    kind: str
    frm: str
    to: str
    payload: object

    @property
    def payload_summary(self) -> str:
        """The payload's one-line summary, formatted when read.

        Payloads are frozen values, so the text is the same whenever it is read.
        """
        payload = self.payload
        return payload if isinstance(payload, str) else payload.summary()


class Transcript:
    """Append-only event log; replaying a seed reproduces it exactly."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def log(self, kind: str, frm: PartyId, to: PartyId, payload: object) -> int:
        """Append an event; ``payload`` is a summary string or an object with ``summary()``."""
        step = len(self.events)
        # The same tuple as Event(...), without the NamedTuple's Python-level __new__.
        self.events.append(tuple.__new__(Event, (step, kind, frm.name, to.name, payload)))
        return step

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def to_jsonl(self) -> str:
        lines = []
        for e in self.events:
            lines.append(
                json.dumps(
                    {
                        "step": e.step,
                        "kind": e.kind,
                        "from": e.frm,
                        "to": e.to,
                        "payload_summary": e.payload_summary,
                    }
                )
            )
        return "\n".join(lines)


# --- topology ----------------------------------------------------------------


def _ordered_pairs(edges: frozenset) -> frozenset:
    """Both orientations of every edge, so an edge lookup builds no set."""
    if any(len(e) != 2 for e in edges):
        raise ValueError("every link joins two distinct parties")
    return frozenset(pair for e in edges for pair in permutations(e, 2))


@dataclass(frozen=True)
class Topology:
    """Which undirected quantum/classical links exist."""

    quantum_edges: frozenset
    classical_edges: frozenset
    _quantum_pairs: frozenset = field(init=False, repr=False, compare=False)
    _classical_pairs: frozenset = field(init=False, repr=False, compare=False)
    # Every party at the end of a quantum link.
    quantum_parties: frozenset = field(init=False, repr=False, compare=False)
    # flood_route's answers, keyed by (origin, everyone).
    _flood_routes: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_quantum_pairs", _ordered_pairs(self.quantum_edges))
        object.__setattr__(self, "_classical_pairs", _ordered_pairs(self.classical_edges))
        object.__setattr__(
            self, "quantum_parties", frozenset(p for edge in self.quantum_edges for p in edge)
        )
        object.__setattr__(self, "_flood_routes", {})

    def has_quantum(self, a: PartyId, b: PartyId) -> bool:
        return (a, b) in self._quantum_pairs

    def has_classical(self, a: PartyId, b: PartyId) -> bool:
        return (a, b) in self._classical_pairs

    def flood_route(
        self, origin: PartyId, everyone: Tuple[PartyId, ...]
    ) -> Tuple[Tuple[PartyId, PartyId], ...]:
        """The classical sends, in order, that flood a notice from ``origin``.

        Hop by hop: each party told in the last round passes the notice on to
        every party of ``everyone`` not yet told, in that order, with which it
        shares a classical link.  A topology is immutable, so each (origin,
        everyone) route is worked out once.
        """
        key = (origin, everyone)
        route = self._flood_routes.get(key)
        if route is None:
            sends = []
            reached = {origin}
            frontier = [origin]
            while frontier:
                next_frontier = []
                for sender in frontier:
                    for p in everyone:
                        if p not in reached and self.has_classical(sender, p):
                            sends.append((sender, p))
                            reached.add(p)
                            next_frontier.append(p)
                frontier = next_frontier
            route = self._flood_routes[key] = tuple(sends)
        return route

    @classmethod
    def for_parties(cls, parties: Sequence[PartyId]) -> "Topology":
        """Star topology: each relay node linked to every end party, both media.

        Built once per party tuple and then shared, since a topology is immutable.
        """
        key = tuple(parties)
        topology = _STAR_TOPOLOGIES.get(key)
        if topology is None:
            edges = frozenset(frozenset((tp, p)) for tp in (TP1, TP2) for p in key)
            topology = _STAR_TOPOLOGIES[key] = cls(quantum_edges=edges, classical_edges=edges)
        return topology

    @classmethod
    def two_party(cls) -> "Topology":
        return cls.for_parties((ALICE, BOB))


_STAR_TOPOLOGIES: Dict[Tuple[PartyId, ...], Topology] = {}


# --- network -----------------------------------------------------------------


@lru_cache(maxsize=None)  # one entry per sequence length a run sends
def _qubits_summary(count: int) -> str:
    """A quantum event's summary, formatted once per sequence length."""
    return f"{count} qubits"


class Network:
    """Message fabric for one run: channels, transcript, interceptors, tags."""

    def __init__(
        self,
        topology: Topology,
        register: Optional[QuantumRegister] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.topology = topology
        self.register = register if register is not None else QuantumRegister()
        self.rng = rng if rng is not None else np.random.default_rng()
        self.transcript = Transcript()
        self.interceptors: List[object] = []
        # The interceptors that override the classical hook, the only ones it is called on.
        self.observers: List[object] = []
        # Parties equipped with ideal probe filters (photon-number split and
        # wavelength); scanning without a filter sees nothing.  A fresh set per
        # network, since a run may switch its filters off.
        self.filtered_parties: set = set(topology.quantum_parties)
        self._tags: Dict[QubitRef, TrojanTag] = {}

    def add_interceptor(self, adversary: object) -> None:
        """Register an ``Adversary``; its hooks run in registration order."""
        self.interceptors.append(adversary)
        if adversary.observes_classical:
            self.observers.append(adversary)

    # -- trojan bookkeeping -------------------------------------------------

    def plant_tag(self, qubit: QubitRef, tag: TrojanTag) -> None:
        self._tags[qubit] = tag

    def tags_on(self, qubits: Sequence[QubitRef]) -> List[TrojanTag]:
        return [self._tags[q] for q in qubits if q in self._tags]

    def scan_trojan(self, receiver: PartyId, msg: QuantumMessage) -> List[TrojanTag]:
        """Ideal probe detector; returns every tag riding on the message."""
        if not self._tags or receiver not in self.filtered_parties:
            return []
        found = self.tags_on(msg.qubits)
        if found:
            self.transcript.log("trojan_detected", receiver, receiver, f"{len(found)} probe tag(s)")
        return found

    # -- sends ----------------------------------------------------------------

    def send_quantum(
        self, sender: PartyId, receiver: PartyId, qubits: Sequence[QubitRef]
    ) -> QuantumMessage:
        """Ship a whole qubit sequence across one quantum link.

        Registered interceptors see (and may transform) the in-flight message
        in registration order; whatever comes out the far end is delivered.
        """
        if not self.topology.has_quantum(sender, receiver):
            raise TopologyError(f"no quantum channel between {sender} and {receiver}")
        msg = QuantumMessage(sender, receiver, tuple(qubits))
        self.transcript.log("quantum_send", sender, receiver, _qubits_summary(len(msg.qubits)))
        for adv in self.interceptors:
            if (sender, receiver) not in adv.quantum_taps():
                continue
            out = adv.on_quantum_in_flight(self, (sender, receiver), msg)
            if out is not None:
                msg = out
        self.transcript.log("quantum_deliver", sender, receiver, _qubits_summary(len(msg.qubits)))
        return msg

    def send_classical(self, sender: PartyId, receiver: PartyId, payload: object) -> None:
        """Deliver an authenticated classical payload verbatim.

        The content is public: every registered interceptor that overrides
        ``on_classical_observed`` observes it, but none can alter it (payloads
        are immutable values).  The send is one transcript event; a
        ``ClassicalMessage`` is built only for such observers.
        """
        if not self.topology.has_classical(sender, receiver):
            raise TopologyError(f"no classical channel between {sender} and {receiver}")
        kind = getattr(payload, "KIND", None)
        if kind is None:
            raise ChannelContractError("classical payload outside the protocol vocabulary")
        self.transcript.log(kind, sender, receiver, payload)
        if self.observers:
            msg = ClassicalMessage(sender, receiver, payload)
            for adv in self.observers:
                adv.on_classical_observed(self, msg)
