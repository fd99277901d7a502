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
from enum import Enum
from functools import lru_cache
from typing import Dict, Iterator, List, NamedTuple, Sequence, Set, Tuple

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


class TrojanKind(Enum):
    """The kind of hidden probe photon a trojan-horse attack plants."""

    INVISIBLE_PHOTON = "invisible_photon"
    DELAY_PHOTON = "delay_photon"


# --- classical payloads -----------------------------------------------------
#
# The payload vocabulary is deliberately tiny; a transcript audit checks that
# honest runs never send anything outside it.  Each payload is an immutable
# named tuple whose class ``KIND`` names it in the transcript.  Stage labels say
# which discussion a positions/results message belongs to.

STAGE_DECOY = "decoy_check"  # sender-chosen decoys verified after distribution
STAGE_PAIR_CHECK = "pair_check"  # correlation spot check on payload pairs
STAGE_RELAY_IN = "relay_in_check"  # decoy discussion on the Alice -> TP2 leg
STAGE_RELAY_OUT = "relay_out_check"  # decoy discussion on the TP2 -> Bob leg


class RunStatus(Enum):
    """How a run ended: established or delivered, or the check that failed first.

    The abort members are the table of checks.  Each names its stage label
    (None for the integrity tag), the quantum edges whose decoys it compares,
    and whether it runs before establishment ends.  ``step`` names the failed
    check, ``"step2"`` to ``"step7"`` or ``"mac"``, and is None on success.
    """

    def __new__(cls, value: str, stage=None, edges=(), before_establishment=False):
        member = object.__new__(cls)
        member._value_ = value
        member.stage = stage
        member.edges = edges
        member.before_establishment = before_establishment
        member.step = "mac" if value == "mac_rejected" else value.partition("aborted_")[2] or None
        return member

    ESTABLISHED = ("established",)
    DELIVERED = ("delivered",)
    ABORTED_STEP2 = ("aborted_step2", STAGE_DECOY, ((TP1, ALICE), (TP1, BOB)), True)
    ABORTED_STEP3 = ("aborted_step3", STAGE_PAIR_CHECK, (), True)
    ABORTED_STEP5 = ("aborted_step5", STAGE_RELAY_IN, ((ALICE, TP2),))
    ABORTED_STEP7 = ("aborted_step7", STAGE_RELAY_OUT, ((TP2, BOB),))
    MAC_REJECTED = ("mac_rejected",)


class Ack(NamedTuple):
    """Acknowledgement of a received sequence, with an optional note."""

    KIND = "ack"
    note: str = ""

    def summary(self) -> str:
        return "ack" if not self.note else f"ack ({self.note})"


# The plain acknowledgement.  Payloads are immutable, so one instance serves every send.
ACK = Ack()


class PositionsBases(NamedTuple):
    """Announcement of which slots to measure and in which bases."""

    KIND = "positions_bases"
    stage: str
    positions: Tuple[int, ...]
    bases: Tuple[Basis, ...]

    def summary(self) -> str:
        return f"{self.stage}: {len(self.positions)} positions+bases"


class MeasurementResults(NamedTuple):
    """A holder's report of the bits it read at the announced positions."""

    KIND = "measurement_results"
    stage: str
    bits: Tuple[int, ...]

    def summary(self) -> str:
        return f"{self.stage}: {len(self.bits)} result bits"


class AbortNotice(NamedTuple):
    """Word that a check failed, passed on until every participant has it."""

    KIND = "abort"
    stage: str
    reason: str

    def summary(self) -> str:
        return f"abort at {self.stage}: {self.reason}"


class MacTag(NamedTuple):
    """The integrity tag over the message bits, sent ahead of the relay."""

    KIND = "mac_tag"
    digest: str

    def summary(self) -> str:
        return "mac tag"


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

        Payloads are immutable values, so the text is the same whenever it is read.
        """
        payload = self.payload
        return payload if isinstance(payload, str) else payload.summary()


class Transcript:
    """Append-only log of sends; replaying a seed reproduces it exactly.

    Each send is kept as the ``(kind, sender, receiver, payload)`` tuple that
    :meth:`log` was given.  Its :class:`Event`, with the step index and the
    party names, is built only when ``events``, iteration or :meth:`to_jsonl`
    reads it, since most runs never read their transcript.
    """

    def __init__(self) -> None:
        self._sends: List[Tuple[str, PartyId, PartyId, object]] = []

    def log(self, kind: str, frm: PartyId, to: PartyId, payload: object) -> int:
        """Append a send and return its step; ``payload`` is a summary string or
        an object with ``summary()``."""
        sends = self._sends
        sends.append((kind, frm, to, payload))
        return len(sends) - 1

    @property
    def events(self) -> List[Event]:
        """Every send as an :class:`Event`, in order; a fresh list on each read."""
        # The same tuples as Event(...), without the NamedTuple's Python-level __new__.
        new = tuple.__new__
        return [
            new(Event, (step, kind, frm.name, to.name, payload))
            for step, (kind, frm, to, payload) in enumerate(self._sends)
        ]

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self._sends)

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


class Topology:
    """The star: each relay node linked to every end party, and no other link.

    One set of ordered (a, b) links serves both media, since every link of
    the deployment carries a quantum channel and a classical one.  The route
    of an abort flood from each participant is fixed when the star is built.
    """

    def __init__(self, parties: Tuple[PartyId, ...]) -> None:
        self.parties = parties
        self.links = frozenset(
            link for tp in (TP1, TP2) for p in parties for link in ((tp, p), (p, tp))
        )
        # A relay node tells every end party, and the first of them tells the
        # other relay node; an end party tells both relay nodes, and TP1 tells
        # every other end party.
        first = parties[0]
        self._routes: Dict[PartyId, Tuple[Tuple[PartyId, PartyId], ...]] = {
            TP1: (*((TP1, p) for p in parties), (first, TP2)),
            TP2: (*((TP2, p) for p in parties), (first, TP1)),
        }
        for p in parties:
            self._routes[p] = ((p, TP1), (p, TP2), *((TP1, q) for q in parties if q != p))

    def linked(self, a: PartyId, b: PartyId) -> bool:
        return (a, b) in self.links

    def flood_route(self, origin: PartyId) -> Tuple[Tuple[PartyId, PartyId], ...]:
        """The classical sends, in order, that pass a notice from ``origin`` to everyone else."""
        return self._routes[origin]

    @classmethod
    def for_parties(cls, parties: Sequence[PartyId]) -> "Topology":
        """The star over these end parties, built once per party tuple and then shared."""
        key = tuple(parties)
        topology = _STAR_TOPOLOGIES.get(key)
        if topology is None:
            topology = _STAR_TOPOLOGIES[key] = cls(key)
        return topology


_STAR_TOPOLOGIES: Dict[Tuple[PartyId, ...], Topology] = {}


# --- network -----------------------------------------------------------------


@lru_cache(maxsize=None)  # one entry per sequence length a run sends
def _qubits_summary(count: int) -> str:
    """A quantum event's summary, formatted once per sequence length."""
    return f"{count} qubits"


class Network:
    """Message fabric for one run: channels, transcript, interceptors, tags."""

    def __init__(
        self, topology: Topology, register: QuantumRegister, rng: np.random.Generator
    ) -> None:
        self.topology = topology
        self.register = register
        self.rng = rng
        self.transcript = Transcript()
        self.interceptors: List[object] = []
        # The interceptors that override the classical hook, the only ones it is called on.
        self.observers: List[object] = []
        # Parties equipped with ideal probe filters (photon-number split and
        # wavelength); scanning without a filter sees nothing.  A fresh set per
        # network, since a run may switch its filters off.
        self.filtered_parties: set = {TP1, TP2, *topology.parties}
        # The slots carrying a hidden probe photon.
        self._tags: Set[QubitRef] = set()

    def add_interceptor(self, adversary: object) -> None:
        """Register an ``Adversary``; its hooks run in registration order."""
        self.interceptors.append(adversary)
        if adversary.observes_classical:
            self.observers.append(adversary)

    # -- trojan bookkeeping -------------------------------------------------

    def plant_tag(self, qubit: QubitRef) -> None:
        self._tags.add(qubit)

    def tags_on(self, qubits: Sequence[QubitRef]) -> List[QubitRef]:
        """The tagged qubits of a sequence, in sequence order."""
        return [q for q in qubits if q in self._tags]

    def scan_trojan(self, receiver: PartyId, qubits: Sequence[QubitRef]) -> List[QubitRef]:
        """Ideal probe detector; returns every tagged qubit of the delivered sequence."""
        if not self._tags or receiver not in self.filtered_parties:
            return []
        found = self.tags_on(qubits)
        if found:
            self.transcript.log("trojan_detected", receiver, receiver, f"{len(found)} probe tag(s)")
        return found

    # -- sends ----------------------------------------------------------------

    def send_quantum(
        self, sender: PartyId, receiver: PartyId, qubits: Sequence[QubitRef]
    ) -> Tuple[QubitRef, ...]:
        """Ship a whole qubit sequence across one quantum link.

        Each registered interceptor that taps the link gets the sequence in
        flight, in registration order, and returns the sequence that travels
        on; the last one returned is delivered, and returned here.
        """
        if not self.topology.linked(sender, receiver):
            raise TopologyError(f"no quantum channel between {sender} and {receiver}")
        qubits = tuple(qubits)
        self.transcript.log("quantum_send", sender, receiver, _qubits_summary(len(qubits)))
        edge = (sender, receiver)
        for adv in self.interceptors:
            if edge in adv.taps:
                qubits = adv.on_quantum_in_flight(self, edge, qubits)
        self.transcript.log("quantum_deliver", sender, receiver, _qubits_summary(len(qubits)))
        return qubits

    def send_classical(self, sender: PartyId, receiver: PartyId, payload: object) -> None:
        """Deliver an authenticated classical payload verbatim.

        The content is public: every registered interceptor that overrides
        ``on_classical_observed`` gets the edge and the payload itself, but
        none can alter it (payloads are immutable values).  The send is one
        transcript event.
        """
        if not self.topology.linked(sender, receiver):
            raise TopologyError(f"no classical channel between {sender} and {receiver}")
        kind = getattr(payload, "KIND", None)
        if kind is None:
            raise ChannelContractError("classical payload outside the protocol vocabulary")
        self.transcript.log(kind, sender, receiver, payload)
        if self.observers:
            edge = (sender, receiver)
            for adv in self.observers:
                adv.on_classical_observed(self, edge, payload)
