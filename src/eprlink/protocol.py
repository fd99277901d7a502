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

Abort always ends the run; retry loops live in the harness.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .adversaries import Adversary, AttackSpec, build_adversary
from .channels import (
    STAGE_DECOY,
    STAGE_PAIR_CHECK,
    AbortNotice,
    Ack,
    MeasurementResults,
    Network,
    PartyId,
    PositionsBases,
    Topology,
    TP1,
    TP2,
    end_parties,
)
from .qcore import BASIS_BY_BIT, Basis, QuantumRegister, QubitRef, ghz_vector

# Decoy photons are drawn uniformly from the four single-qubit states; the
# label fixes both the preparation basis and the expected measurement bit.
DECOY_LABELS = ("0", "1", "+", "-")
LABEL_EXPECTATION = {
    "0": (Basis.Z, 0),
    "1": (Basis.Z, 1),
    "+": (Basis.X, 0),
    "-": (Basis.X, 1),
}


class DecoyRecord(NamedTuple):
    """Sender-side note of one hidden decoy: where it is and what it must read."""

    position: int
    basis: Basis
    expected_bit: int


class EstablishStatus(Enum):
    ESTABLISHED = "established"
    ABORTED_STEP2 = "aborted_step2"
    ABORTED_STEP3 = "aborted_step3"


_STATUS_TO_STEP = {
    EstablishStatus.ESTABLISHED: None,
    EstablishStatus.ABORTED_STEP2: "step2",
    EstablishStatus.ABORTED_STEP3: "step3",
}


@dataclass
class EstablishmentConfig:
    """Knobs of one establishment run."""

    m_pairs: int
    n_decoys: int
    check_fraction: float = 0.3
    parties: int = 2
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.m_pairs < 1:
            raise ValueError("m_pairs must be >= 1")
        if self.n_decoys < 0:
            raise ValueError("n_decoys must be >= 0")
        if not 0.0 < self.check_fraction < 1.0:
            raise ValueError("check_fraction must lie strictly between 0 and 1")
        if self.parties < 2:
            raise ValueError("parties must be >= 2")

    @property
    def checked_count(self) -> int:
        # Round before taking the ceiling so that fractions like 0.4 * 10,
        # which float arithmetic can nudge just above the intended integer,
        # do not reserve one position too many.
        return math.ceil(round(self.check_fraction * self.m_pairs, 9))


@dataclass(frozen=True)
class CheckEntry:
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
    status: EstablishStatus
    detected_by: Optional[PartyId]
    shared_pairs: Dict[PartyId, List[QubitRef]]
    check_log: List[CheckEntry]
    surviving_indices: List[int] = field(default_factory=list)
    detail: str = ""
    session: Optional["Session"] = None

    @property
    def established(self) -> bool:
        return self.status is EstablishStatus.ESTABLISHED

    @property
    def step(self) -> Optional[str]:
        return _STATUS_TO_STEP[self.status]

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
                "step": self.step,
                "pairs_established": self.pairs_established,
                "check_log": [e.to_json_dict() for e in self.check_log],
            }
        )


class Session:
    """Wiring of one run: config, parties, network, register, rng, adversary."""

    def __init__(
        self,
        cfg: EstablishmentConfig,
        adversary: Optional[Adversary] = None,
        rng: Optional[np.random.Generator] = None,
        filters_enabled: bool = True,
    ) -> None:
        self.cfg = cfg
        self.parties = end_parties(cfg.parties)
        self.rng = rng if rng is not None else np.random.default_rng(cfg.seed)
        self.register = QuantumRegister()
        self.net = Network(Topology.for_parties(self.parties), self.register, self.rng)
        if not filters_enabled:
            self.net.filtered_parties = set()
        self.adversary = adversary
        if adversary is not None:
            self.net.add_interceptor(adversary)
        # (stage, holder) -> [decoys compared, mismatches]; fed by discussions.
        self.decoy_counts: Dict[Tuple[str, PartyId], List[int]] = {}

    # -- helpers -------------------------------------------------------------

    def build_decoyed_sequence(
        self, payload: Sequence[QubitRef]
    ) -> Tuple[List[QubitRef], List[DecoyRecord]]:
        """Insert fresh random decoys at secret positions, payload order kept."""
        n = self.cfg.n_decoys
        if not n:
            return list(payload), []
        rng = self.rng
        positions = sorted(rng.choice(len(payload) + n, size=n, replace=False).tolist())
        labels = [DECOY_LABELS[i] for i in rng.integers(4, size=n).tolist()]
        prepare = self.register.prepare_single
        decoys = [prepare(lab) for lab in labels]
        records = [DecoyRecord(pos, *LABEL_EXPECTATION[lab]) for pos, lab in zip(positions, labels)]
        sequence: List[QubitRef] = []
        rest = iter(payload)
        for pos, q in zip(positions, decoys):
            sequence.extend(islice(rest, pos - len(sequence)))
            sequence.append(q)
        sequence.extend(rest)
        return sequence, records

    def run_decoy_discussion(
        self,
        checker: PartyId,
        holder: PartyId,
        stage: str,
        holder_sequence: Sequence[QubitRef],
        records: Sequence[DecoyRecord],
    ) -> Optional[int]:
        """Publicly compare decoy outcomes; returns the first bad slot or None.

        The checker is whichever side prepared the decoys; the holder measures
        the announced positions in the announced bases and reports the bits.
        Measured decoys are consumed afterwards.
        """
        net = self.net
        net.send_classical(holder, checker, Ack())
        announce = PositionsBases(
            stage,
            tuple(r.position for r in records),
            tuple(r.basis for r in records),
        )
        net.send_classical(checker, holder, announce)
        bits = self.register.measure_all(
            [holder_sequence[r.position] for r in records], announce.bases, self.rng
        )
        net.send_classical(holder, checker, MeasurementResults(stage, tuple(bits)))
        failed: Optional[int] = None
        mismatches = 0
        for r, bit in zip(records, bits):
            if bit != r.expected_bit:
                mismatches += 1
                if failed is None:
                    failed = r.position
        counts = self.decoy_counts.setdefault((stage, holder), [0, 0])
        counts[0] += len(records)
        counts[1] += mismatches
        for r in records:
            self.register.discard(holder_sequence[r.position])
        return failed


def _abort(
    session: Session,
    status: EstablishStatus,
    detected_by: PartyId,
    stage: str,
    reason: str,
    check_log: Optional[List[CheckEntry]] = None,
) -> EstablishmentOutcome:
    # Flood the notice hop by hop: there is no direct link between the two
    # relay nodes, nor between end parties, so whoever hears it first passes
    # it on until every participant has been told.
    notice = AbortNotice(stage, reason)
    everyone = [TP1, TP2, *session.parties]
    topo = session.net.topology
    reached = {detected_by}
    frontier = [detected_by]
    while frontier:
        next_frontier = []
        for sender in frontier:
            for p in everyone:
                if p not in reached and topo.has_classical(sender, p):
                    session.net.send_classical(sender, p, notice)
                    reached.add(p)
                    next_frontier.append(p)
        frontier = next_frontier
    return EstablishmentOutcome(
        status=status,
        detected_by=detected_by,
        shared_pairs={},
        check_log=check_log or [],
        surviving_indices=[],
        detail=reason,
        session=session,
    )


def _distribute(session: Session) -> Tuple[Optional[EstablishmentOutcome], dict, dict]:
    """Step 1: make payload states, hide decoys, ship one sequence per party."""
    cfg, reg = session.cfg, session.register
    k = len(session.parties)
    adversary = session.adversary
    groups: List[List[QubitRef]] = []
    for _ in range(cfg.m_pairs):
        if adversary is not None and adversary.supplies_source:
            groups.append(list(adversary.make_payload_group(session.net, k)))
        else:
            groups.append(reg.prepare_ghz(k))
    holder_seqs: Dict[PartyId, List[QubitRef]] = {}
    records: Dict[PartyId, List[DecoyRecord]] = {}
    for j, p in enumerate(session.parties):
        halves = [g[j] for g in groups]
        sequence, recs = session.build_decoyed_sequence(halves)
        msg = session.net.send_quantum(TP1, p, sequence)
        tags = session.net.scan_trojan(p, msg)
        if tags:
            return (
                _abort(
                    session,
                    EstablishStatus.ABORTED_STEP2,
                    p,
                    STAGE_DECOY,
                    "probe photons found in incoming sequence",
                ),
                {},
                {},
            )
        holder_seqs[p] = list(msg.qubits)
        records[p] = recs
    return None, holder_seqs, records


def _decoy_discussions(
    session: Session,
    holder_seqs: Dict[PartyId, List[QubitRef]],
    records: Dict[PartyId, List[DecoyRecord]],
) -> Optional[EstablishmentOutcome]:
    """Step 2: per-channel public decoy comparison, TP1 checking."""
    for p in session.parties:
        bad = session.run_decoy_discussion(TP1, p, STAGE_DECOY, holder_seqs[p], records[p])
        if bad is not None:
            return _abort(
                session,
                EstablishStatus.ABORTED_STEP2,
                TP1,
                STAGE_DECOY,
                f"decoy mismatch on the {p} channel at slot {bad}",
            )
    return None


def strip_decoys(sequence: Sequence[QubitRef], records: Sequence[DecoyRecord]) -> List[QubitRef]:
    """The payload a decoyed sequence carries: every slot but the decoys', in order."""
    drop = {r.position for r in records}
    return [q for i, q in enumerate(sequence) if i not in drop]


def _pair_check(
    session: Session, payload: Dict[PartyId, List[QubitRef]]
) -> Tuple[Optional[EstablishmentOutcome], List[CheckEntry], List[int]]:
    """Step 3: TP2 spot-checks random payload positions in random bases."""
    cfg, net, reg, rng = session.cfg, session.net, session.register, session.rng
    m, c = cfg.m_pairs, cfg.checked_count
    positions = sorted(int(p) for p in rng.choice(m, size=c, replace=False))
    bases = [BASIS_BY_BIT[b] for b in rng.integers(2, size=c).tolist()]
    announce = PositionsBases(STAGE_PAIR_CHECK, tuple(positions), tuple(bases))
    # Everyone hears the challenge before anyone answers.
    for p in session.parties:
        net.send_classical(TP2, p, announce)
    reported: Dict[PartyId, List[int]] = {}
    for p in session.parties:
        bits = reg.measure_all([payload[p][pos] for pos in positions], bases, rng)
        net.send_classical(p, TP2, MeasurementResults(STAGE_PAIR_CHECK, tuple(bits)))
        reported[p] = bits
    check_log: List[CheckEntry] = []
    first_bad: Optional[int] = None
    for i, (pos, b) in enumerate(zip(positions, bases)):
        outcomes = tuple(reported[p][i] for p in session.parties)
        if b is Basis.Z:
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
        return (
            _abort(
                session,
                EstablishStatus.ABORTED_STEP3,
                TP2,
                STAGE_PAIR_CHECK,
                f"uncorrelated outcomes at payload position {first_bad}",
                check_log,
            ),
            check_log,
            positions,
        )
    return None, check_log, positions


def _run(session: Session) -> EstablishmentOutcome:
    failure, holder_seqs, records = _distribute(session)
    if failure is not None:
        return failure
    failure = _decoy_discussions(session, holder_seqs, records)
    if failure is not None:
        return failure
    payload = {p: strip_decoys(seq, records[p]) for p, seq in holder_seqs.items()}
    failure, check_log, checked = _pair_check(session, payload)
    if failure is not None:
        return failure
    checked_set = set(checked)
    surviving = [i for i in range(session.cfg.m_pairs) if i not in checked_set]
    shared = {p: [payload[p][i] for i in surviving] for p in session.parties}
    return EstablishmentOutcome(
        status=EstablishStatus.ESTABLISHED,
        detected_by=None,
        shared_pairs=shared,
        check_log=check_log,
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
