"""Entanglement establishment between strangers through two relay nodes.

One run:
  1. TP1 prepares shared pairs (or k-party shared states), hides fresh decoy
     photons at secret positions in each outgoing half-sequence, and ships one
     sequence per end party.
  2. Each receiver acknowledges; TP1 reveals decoy positions and bases; the
     receiver measures and reports; TP1 compares against what it prepared.
     Any mismatch aborts the run.
  3. TP2 picks a random subset of payload positions and one random basis per
     position, announces them to every holder, and verifies the reported
     outcomes are correlated the way a shared state forces them to be.
  4. Checked positions are consumed; the surviving pairs are the product.

The first failed check ends the run: it raises :class:`Aborted`, which the
entry point turns into the outcome.  Retry loops live in the harness.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, NamedTuple, NoReturn, Optional, Sequence, Tuple

import numpy as np

from .adversaries import Adversary, AttackSpec, build_adversary
from .channels import (
    ACK,
    STAGE_PAIR_CHECK,
    AbortNotice,
    MeasurementResults,
    Network,
    PartyId,
    PositionsBases,
    RunStatus,
    Topology,
    TP1,
    TP2,
    end_party_tuple,
)
from .qcore import (
    BASIS_BY_BIT,
    SINGLE_STATE_LABELS,
    Basis,
    QuantumRegister,
    QubitRef,
    ghz_vector,
)
from .seeding import draw_below

# The members a trial compares against, bound once: on Python 3.11 a load from
# the enum class costs about ten times a global's.
_BASIS_Z = Basis.Z
_ESTABLISHED = RunStatus.ESTABLISHED
_ABORTED_STEP2 = RunStatus.ABORTED_STEP2
_ABORTED_STEP3 = RunStatus.ABORTED_STEP3


class DecoyRecord(NamedTuple):
    """Sender-side note of one sequence's hidden decoys, in ascending position:
    where each is, the basis it is read in and the bit it must read."""

    positions: Tuple[int, ...]
    bases: Tuple[Basis, ...]
    expected: Tuple[int, ...]


class Aborted(Exception):
    """A failed check; the run's entry point turns it into the outcome."""

    def __init__(self, status: RunStatus, detail: str, detected_by: PartyId) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail
        self.detected_by = detected_by


# Each k-party group is a dense list of 2**k amplitudes, and a fidelity read of
# one builds its 2**k x 2**k density matrix: 16 MB at k = 10, four times that
# per further party.
MAX_PARTIES = 10


@dataclass(frozen=True)
class EstablishmentConfig:
    """Knobs of one establishment run; immutable, so derived counts are worked out once."""

    m_pairs: int
    n_decoys: int
    check_fraction: float = 0.3
    parties: int = 2

    def __post_init__(self) -> None:
        if self.m_pairs < 1:
            raise ValueError("m_pairs must be >= 1")
        if self.n_decoys < 0:
            raise ValueError("n_decoys must be >= 0")
        if not 0.0 < self.check_fraction < 1.0:
            raise ValueError("check_fraction must lie strictly between 0 and 1")
        if not 2 <= self.parties <= MAX_PARTIES:
            raise ValueError(f"parties must be between 2 and {MAX_PARTIES}")

    @cached_property
    def checked_count(self) -> int:
        # Round before taking the ceiling so that fractions like 0.4 * 10,
        # which float arithmetic can nudge just above the intended integer,
        # do not reserve one position too many.
        return math.ceil(round(self.check_fraction * self.m_pairs, 9))


class CheckEntry(NamedTuple):
    """One spot-checked payload position and how the outcomes compared."""

    position: int
    basis: Basis
    outcomes: Tuple[int, ...]
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "position": self.position,
            "basis": self.basis.value,
            "outcomes": list(self.outcomes),
            "pass": self.passed,
        }


@dataclass
class EstablishmentOutcome:
    """How one establishment run ended, and the shared groups it left when it succeeded."""

    status: RunStatus
    detected_by: Optional[PartyId]
    shared_pairs: Dict[PartyId, List[QubitRef]]
    check_log: List[CheckEntry]
    surviving_indices: List[int] = field(default_factory=list)
    detail: str = ""
    session: Optional["Session"] = None

    @property
    def established(self) -> bool:
        return self.status is _ESTABLISHED

    @property
    def pairs_established(self) -> int:
        return len(self.surviving_indices) if self.established else 0

    def pair_group(self, i: int) -> List[QubitRef]:
        """The i-th surviving shared group, one qubit per end party."""
        return [self.shared_pairs[p][i] for p in self.shared_pairs]

    def to_json(self) -> str:
        return json.dumps(
            {
                "status": self.status.value,
                "detected_by": None if self.detected_by is None else str(self.detected_by),
                "step": self.status.step,
                "pairs_established": self.pairs_established,
                "check_log": [e.to_json_dict() for e in self.check_log],
            }
        )


class Session:
    """Wiring of one run: config, parties, network, register, rng, adversary.

    All randomness comes from ``rng``, which must be passed explicitly: a run
    without a generator raises ``TypeError`` before it draws anything.
    """

    def __init__(
        self,
        cfg: EstablishmentConfig,
        adversary: Optional[Adversary] = None,
        rng: Optional[np.random.Generator] = None,
        filters_enabled: bool = True,
    ) -> None:
        if rng is None:
            raise TypeError("a run needs an explicit numpy Generator as rng")
        self.cfg = cfg
        self.parties = end_party_tuple(cfg.parties)
        self.rng = rng
        self.register = QuantumRegister()
        self.net = Network(Topology.for_parties(self.parties), self.register, self.rng)
        if not filters_enabled:
            self.net.filtered_parties = set()
        self.adversary = adversary
        if adversary is not None:
            self.net.add_interceptor(adversary)
        # (checker, holder) -> [decoys compared, mismatches]; fed by discussions.
        # The checker sent the decoys, so the key is the quantum edge, as in AttackSpec.edge.
        self.decoy_counts: Dict[Tuple[PartyId, PartyId], List[int]] = {}
        # The step-3 spot check's entries, also read when that check aborts.
        self.check_log: List[CheckEntry] = []

    # -- helpers -------------------------------------------------------------

    def build_decoyed_sequence(
        self, payload: Sequence[QubitRef]
    ) -> Tuple[List[QubitRef], DecoyRecord]:
        """Insert fresh random decoys at secret positions, payload order kept."""
        n = self.cfg.n_decoys
        rng = self.rng
        positions = sorted(rng.choice(len(payload) + n, size=n, replace=False).tolist())
        codes = draw_below(rng, 4, n)
        prepare = self.register.prepare_single
        sequence = list(payload)
        # Ascending inserts: every decoy lands on its final slot.
        for pos, c in zip(positions, codes):
            sequence.insert(pos, prepare(SINGLE_STATE_LABELS[c]))
        bases = tuple([BASIS_BY_BIT[c >> 1] for c in codes])
        return sequence, DecoyRecord(tuple(positions), bases, tuple([c & 1 for c in codes]))

    def run_decoy_discussion(
        self,
        checker: PartyId,
        holder: PartyId,
        stage: str,
        holder_sequence: Sequence[QubitRef],
        record: DecoyRecord,
    ) -> Optional[int]:
        """Publicly compare decoy outcomes; returns the first bad slot or None.

        The checker is whichever side prepared the decoys; the holder measures
        the announced positions in the announced bases and reports the bits.
        Measured decoys are consumed afterwards.
        """
        net, reg = self.net, self.register
        positions, bases, expected = record
        net.send_classical(holder, checker, ACK)
        net.send_classical(checker, holder, PositionsBases(stage, positions, bases))
        measured = [holder_sequence[pos] for pos in positions]
        bits = reg.measure_all(measured, bases, self.rng)
        net.send_classical(holder, checker, MeasurementResults(stage, tuple(bits)))
        bad = [pos for pos, want, bit in zip(positions, expected, bits) if bit != want]
        counts = self.decoy_counts.setdefault((checker, holder), [0, 0])
        counts[0] += len(positions)
        counts[1] += len(bad)
        for q in measured:
            reg.discard(q)
        return bad[0] if bad else None


def _abort(session: Session, status: RunStatus, detected_by: PartyId, reason: str) -> NoReturn:
    # Flood the notice hop by hop: there is no direct link between the two
    # relay nodes, nor between end parties, so whoever hears it first passes
    # it on until every participant has been told.
    notice = AbortNotice(status.stage, reason)
    net = session.net
    for sender, receiver in net.topology.flood_route(detected_by):
        net.send_classical(sender, receiver, notice)
    raise Aborted(status, reason, detected_by)


def _distribute(
    session: Session,
) -> Tuple[Dict[PartyId, Sequence[QubitRef]], Dict[PartyId, DecoyRecord]]:
    """Step 1: make payload states, hide decoys, ship one sequence per party."""
    cfg, reg = session.cfg, session.register
    k = len(session.parties)
    adversary = session.adversary
    if adversary is not None and adversary.supplies_source:
        groups = [adversary.make_payload_group(session.net, k) for _ in range(cfg.m_pairs)]
    else:
        groups = [reg.prepare_ghz(k) for _ in range(cfg.m_pairs)]
    holder_seqs: Dict[PartyId, Sequence[QubitRef]] = {}
    records: Dict[PartyId, DecoyRecord] = {}
    for j, p in enumerate(session.parties):
        halves = [g[j] for g in groups]
        sequence, record = session.build_decoyed_sequence(halves)
        held = session.net.send_quantum(TP1, p, sequence)
        if session.net.scan_trojan(p, held):
            _abort(session, _ABORTED_STEP2, p, "probe photons found in incoming sequence")
        holder_seqs[p] = held
        records[p] = record
    return holder_seqs, records


def _decoy_discussions(
    session: Session,
    holder_seqs: Dict[PartyId, Sequence[QubitRef]],
    records: Dict[PartyId, DecoyRecord],
) -> None:
    """Step 2: per-channel public decoy comparison, TP1 checking."""
    status = _ABORTED_STEP2
    for p in session.parties:
        bad = session.run_decoy_discussion(TP1, p, status.stage, holder_seqs[p], records[p])
        if bad is not None:
            _abort(session, status, TP1, f"decoy mismatch on the {p} channel at slot {bad}")


def strip_decoys(sequence: Sequence[QubitRef], record: DecoyRecord) -> List[QubitRef]:
    """The payload a decoyed sequence carries: every slot but the decoys', in order.

    ``record.positions`` ascend, as :meth:`Session.build_decoyed_sequence`
    builds them, so deleting the highest position first leaves every lower
    position where it was.
    """
    payload = list(sequence)
    for position in reversed(record.positions):
        del payload[position]
    return payload


def _pair_check(session: Session, payload: Dict[PartyId, List[QubitRef]]) -> List[int]:
    """Step 3: TP2 spot-checks random payload positions in random bases.

    Returns the checked positions and logs each comparison in ``session.check_log``.
    """
    cfg, net, reg, rng = session.cfg, session.net, session.register, session.rng
    m, c = cfg.m_pairs, cfg.checked_count
    positions = sorted(rng.choice(m, size=c, replace=False).tolist())
    bases = [BASIS_BY_BIT[b] for b in draw_below(rng, 2, c)]
    announce = PositionsBases(STAGE_PAIR_CHECK, tuple(positions), tuple(bases))
    # Everyone hears the challenge before anyone answers.
    for p in session.parties:
        net.send_classical(TP2, p, announce)
    # Each party's bits, in party order; zip(*reported) gives each position's outcomes.
    reported: List[List[int]] = []
    for p in session.parties:
        bits = reg.measure_all([payload[p][pos] for pos in positions], bases, rng)
        net.send_classical(p, TP2, MeasurementResults(STAGE_PAIR_CHECK, tuple(bits)))
        reported.append(bits)
    check_log = session.check_log
    first_bad: Optional[int] = None
    for pos, b, outcomes in zip(positions, bases, zip(*reported)):
        if b is _BASIS_Z:
            ok = len(set(outcomes)) == 1
        else:
            # A shared all-zero/all-one superposition only ever shows an even
            # number of minus outcomes in the diagonal basis.
            ok = sum(outcomes) % 2 == 0
        check_log.append(CheckEntry(pos, b, outcomes, ok))
        if not ok and first_bad is None:
            first_bad = pos
    for p in session.parties:
        for pos in positions:
            reg.discard(payload[p][pos])
    if first_bad is not None:
        reason = f"uncorrelated outcomes at payload position {first_bad}"
        _abort(session, _ABORTED_STEP3, TP2, reason)
    return positions


def _run(session: Session) -> EstablishmentOutcome:
    try:
        holder_seqs, records = _distribute(session)
        _decoy_discussions(session, holder_seqs, records)
        payload = {p: strip_decoys(seq, records[p]) for p, seq in holder_seqs.items()}
        checked = set(_pair_check(session, payload))
    except Aborted as abort:
        return EstablishmentOutcome(
            status=abort.status,
            detected_by=abort.detected_by,
            shared_pairs={},
            check_log=session.check_log,
            detail=abort.detail,
            session=session,
        )
    surviving = [i for i in range(session.cfg.m_pairs) if i not in checked]
    shared = {p: [payload[p][i] for i in surviving] for p in session.parties}
    return EstablishmentOutcome(
        status=_ESTABLISHED,
        detected_by=None,
        shared_pairs=shared,
        check_log=session.check_log,
        surviving_indices=surviving,
        session=session,
    )


def _coerce_adversary(attack: Optional[object]) -> Optional[Adversary]:
    if attack is None or isinstance(attack, Adversary):
        return attack
    if isinstance(attack, AttackSpec):
        return build_adversary(attack)
    raise TypeError("attack must be an AttackSpec or an Adversary instance")


def run_establishment(
    cfg: EstablishmentConfig,
    attack: Optional[object] = None,
    rng: Optional[np.random.Generator] = None,
    filters_enabled: bool = True,
) -> EstablishmentOutcome:
    """Run one two-party establishment attempt end to end."""
    if cfg.parties != 2:
        raise ValueError("run_establishment is the two-party entry point; use run_multiparty")
    return run_multiparty(cfg, attack, rng, filters_enabled)


def run_multiparty(
    cfg: EstablishmentConfig,
    attack: Optional[object] = None,
    rng: Optional[np.random.Generator] = None,
    filters_enabled: bool = True,
) -> EstablishmentOutcome:
    """Run one establishment attempt among cfg.parties end parties.

    With parties=2 this is byte-for-byte the two-party run: the shared state
    of size two is the usual maximally entangled pair and the diagonal-basis
    parity rule degenerates to outcome equality.
    """
    session = Session(cfg, _coerce_adversary(attack), rng, filters_enabled=filters_enabled)
    return _run(session)


def ghz_target_vector(k: int) -> np.ndarray:
    """Reference amplitudes for a surviving k-party shared group."""
    return ghz_vector(k)
