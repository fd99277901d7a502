"""Monte Carlo and security-game harness.

Repeats protocol runs under a configured adversary, tallies where alarms
fired, and gates the empirical detection rate against the model's predicted
rate with a three-sigma band.  Detection is counted *at the attack's canonical
catch point*: an intercepted distribution leg is scored by step-2 aborts, a
corrupted source by step-3 aborts, relay tampering by the relay discussions or
the integrity tag.  Whole-run abort rates compound across steps (a measured
pair also fails the later correlation check), so scoring at the catch point is
what makes the per-step predictions directly testable.

Also hosts a transcript-distinguishing game: can an adversary tell a real
discussion outcome string from a uniformly random one?  A passive observer
cannot do better than a coin flip, while a (physically impossible) by-fiat
cloner of the in-flight qubits wins almost always — which is exactly why
forgery reduces to cloning.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import os
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .adversaries import (
    AttackKind,
    AttackSpec,
    build_adversary,
    dense_coding_detection,
    entanglement_swap_detection,
    intercept_resend_detection,
    modification_detection,
    probe_decoy_detection,
)
from .channels import (
    ALICE,
    BOB,
    EVE,
    TP1,
    TP2,
    Ack,
    MeasurementResults,
    Network,
    PartyId,
    PositionsBases,
    STAGE_DECOY,
    STAGE_PAIR_CHECK,
    STAGE_RELAY_IN,
    STAGE_RELAY_OUT,
    Topology,
    TrojanKind,
)
from .protocol import (
    DECOY_LABELS,
    EstablishmentConfig,
    LABEL_EXPECTATION,
    ghz_target_vector,
    run_establishment,
    run_multiparty,
)
from .qcore import BASIS_BY_BIT, QuantumRegister, cnot_matrix
from .qsdc import run_qsdc
from .seeding import MAX_TRIALS, sweep_seed, trial_rngs

SCENARIOS = ("establish", "qsdc", "multiparty", "game")

# Fixed column order of tabular reports.
CSV_COLUMNS = (
    "scenario",
    "attack",
    "n",
    "c",
    "trials",
    "detected",
    "detection_rate",
    "analytic_rate",
    "sigma3",
    "pass",
    "leakage_rate",
    "seed",
)

GAME_CSV_COLUMNS = (
    "scenario",
    "discussion",
    "strategy",
    "instances",
    "valid",
    "successes",
    "advantage",
    "seed",
)


class NoAnalyticOracle(ValueError):
    """The requested attack has no closed-form detection rate.

    Probe couplings with an arbitrary unitary are scored by brute-force
    enumeration over the four decoy states (``probe_decoy_detection``), and
    slot scrambling by composing the enumerated single-code table
    (``modification_detection``).  Probe photons hidden in transmission slots
    are flagged deterministically by ideal filters, so sampling statistics do
    not apply.
    """


def analytic_detection(
    attack: Union[AttackSpec, AttackKind, str],
    n_decoys: int,
    checked_positions: Optional[int] = None,
) -> float:
    """Closed-form detection probability for the standard attacks.

    ``n_decoys`` feeds the per-channel decoy discussions; the corrupted-source
    attack is instead caught by the correlation spot check and needs
    ``checked_positions``.  Raises :class:`NoAnalyticOracle` for attacks whose
    rate is obtained by enumeration rather than a closed form.
    """
    kind = _resolve_kind(attack)
    if kind in (AttackKind.INTERCEPT_RESEND, AttackKind.CORRELATION_ELICITATION):
        return intercept_resend_detection(n_decoys)
    if kind is AttackKind.DENSE_CODING:
        return dense_coding_detection(n_decoys)
    if kind is AttackKind.ENTANGLEMENT_SWAP:
        if checked_positions is None:
            raise ValueError(
                "the corrupted-source rate depends on the number of spot-checked positions"
            )
        return entanglement_swap_detection(checked_positions)
    raise NoAnalyticOracle(
        f"no closed-form detection rate for {kind.value}; "
        "use probe_decoy_detection / modification_detection instead"
    )


def _resolve_kind(attack: Union[AttackSpec, AttackKind, str]) -> AttackKind:
    if isinstance(attack, AttackSpec):
        return attack.kind
    if isinstance(attack, AttackKind):
        return attack
    return AttackKind(attack)


ATTACK_NAMES = (
    "intercept_resend",
    "entangle_measure",
    "entanglement_swap",
    "correlation_elicitation",
    "dense_coding",
    "modification_all_slots",
    "modification_single_slot",
    "modification_tp2_decoy_aware",
    "trojan_invisible_photon",
    "trojan_delay_photon",
)


def attack_from_name(name: str) -> AttackSpec:
    """Build the default-shaped attack for a short command-line name."""
    if name in ("intercept_resend", "entangle_measure", "entanglement_swap",
                "correlation_elicitation", "dense_coding"):
        return AttackSpec(AttackKind(name))
    if name.startswith("modification_"):
        return AttackSpec(AttackKind.MODIFICATION, strategy=name[len("modification_"):])
    if name.startswith("trojan_"):
        return AttackSpec(AttackKind.TROJAN_HORSE, trojan=TrojanKind(name[len("trojan_"):]))
    raise ValueError(f"unknown attack name {name!r}; choose one of {', '.join(ATTACK_NAMES)}")


def attack_label(spec: Optional[AttackSpec]) -> str:
    if spec is None:
        return ""
    if spec.kind is AttackKind.MODIFICATION:
        return f"modification:{spec.strategy}"
    if spec.kind is AttackKind.TROJAN_HORSE:
        return f"trojan_horse:{spec.trojan.value}"
    return spec.kind.value


# --- experiment configuration ----------------------------------------------------


def _default_cfg() -> EstablishmentConfig:
    return EstablishmentConfig(m_pairs=10, n_decoys=10)


@dataclass
class GameSpec:
    """Parameters of one transcript-distinguishing game."""

    discussion: str = "decoy"  # "decoy" or "pair_check"
    strategy: str = "passive"  # "passive" | "fiat_clone" | "fake_state"
    queries: Tuple[str, ...] = ("execute", "send", "test")
    challenge_len: int = 8

    def __post_init__(self) -> None:
        if self.discussion not in ("decoy", "pair_check"):
            raise ValueError("discussion must be 'decoy' or 'pair_check'")
        if self.strategy not in _STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        self.queries = tuple(q.lower() for q in self.queries)
        bad = set(self.queries) - set(GAME_QUERIES)
        if bad:
            raise ValueError(f"unknown game queries: {sorted(bad)}")
        for required in ("execute", "test"):
            if required not in self.queries:
                raise ValueError(f"every game needs the {required!r} query granted")
        if self.strategy == "fiat_clone" and "send" not in self.queries:
            raise ValueError("the by-fiat cloner needs the 'send' query granted")
        if self.challenge_len < 1:
            raise ValueError("challenge_len must be >= 1")


@dataclass
class ExperimentConfig:
    """Everything one batch of runs needs; mirrors the JSON config layout."""

    scenario: str = "establish"
    cfg: EstablishmentConfig = field(default_factory=_default_cfg)
    attack: Optional[AttackSpec] = None
    trials: int = 1000
    seed: int = 0
    output_path: Optional[str] = None
    output_format: str = "json"
    game: Optional[GameSpec] = None
    filters_enabled: bool = True
    measure_fidelity: bool = True
    sweep_param: Optional[str] = None
    sweep_values: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ValueError(f"trials must be between 1 and {MAX_TRIALS}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.output_format not in ("json", "csv"):
            raise ValueError("output_format must be 'json' or 'csv'")
        if self.output_path is not None:
            _check_output_path(self.output_path)
        if self.scenario in ("establish", "qsdc") and self.cfg.parties != 2:
            raise ValueError(f"the {self.scenario} scenario runs between two end parties")
        if self.scenario == "game" and self.game is None:
            self.game = GameSpec()
        if self.attack is not None:
            site = self.attack.detection_site
            if site in ("step5", "step7", "mac") and self.scenario != "qsdc":
                raise ValueError(
                    f"{attack_label(self.attack)} acts on the message relay; "
                    "run it under the qsdc scenario"
                )
            if self.attack.kind is AttackKind.ENTANGLEMENT_SWAP and self.cfg.parties != 2:
                raise ValueError("the corrupted source substitutes two-party pairs only")
        if self.sweep_param is not None:
            if self.sweep_param not in ("n_decoys", "checked_count", "check_fraction"):
                raise ValueError(
                    "sweep_param must be 'n_decoys', 'checked_count' or 'check_fraction'"
                )
            if not self.sweep_values:
                raise ValueError("sweep_values must be a non-empty list")
            # Reject a bad point before any point of the sweep runs.
            for value in self.sweep_values:
                _sweep_point_cfg(self, value)


def _check_output_path(path) -> None:
    """Reject a report path that cannot be written, before any trial runs."""
    if not isinstance(path, str) or not path:
        raise ValueError(f"output path must be a file name, got {path!r}")
    if os.path.isdir(path):
        raise ValueError(f"output path {path!r} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"output directory {parent!r} does not exist")


# --- per-trial and aggregate records ----------------------------------------------


@dataclass
class TrialReport:
    """One run, reduced to what the aggregate statistics need."""

    index: int
    status: str = "error"
    detected: bool = False
    detected_at: Optional[str] = None
    error: Optional[str] = None
    min_pair_fidelity: Optional[float] = None
    decoys_checked: int = 0  # on the attacked leg only
    decoy_mismatches: int = 0
    positions_checked: int = 0
    position_failures: int = 0
    delivered: Optional[bool] = None
    bit_errors: Optional[int] = None
    leak_bits_correct: int = 0
    leak_bits_total: int = 0
    leak_first_correct: int = 0
    leak_second_correct: int = 0
    leak_pairs: int = 0


# The per-trial counters an aggregate report carries as batch totals.
_SUMMED_COUNTS = tuple(f.name for f in fields(TrialReport) if f.type == "int" and f.name != "index")


@dataclass
class AggregateReport:
    """Batch statistics plus the oracle comparison that gates `passed`."""

    scenario: str
    attack: str
    n_decoys: int
    checked_positions: int
    m_pairs: int
    parties: int
    trials: int
    seed: int
    completed: int
    errors: int
    site: Optional[str]
    detected_at_site: int
    detected_any: int
    detection_rate: float
    oracle_rate: Optional[float]
    oracle_source: str
    sigma3: Optional[float]
    passed: bool
    status_counts: Dict[str, int]
    site_counts: Dict[str, int]
    established: int
    delivered: int
    delivered_wrong: int
    min_pair_fidelity: Optional[float]
    decoys_checked: int
    decoy_mismatches: int
    positions_checked: int
    position_failures: int
    leak_bits_correct: int
    leak_bits_total: int
    leak_first_correct: int
    leak_second_correct: int
    leak_pairs: int
    filters_enabled: bool = True
    trial_reports: List[TrialReport] = field(default_factory=list, repr=False)

    @property
    def leakage_rate(self) -> Optional[float]:
        if self.leak_bits_total == 0:
            return None
        return self.leak_bits_correct / self.leak_bits_total

    @property
    def analytic_rate(self) -> Optional[float]:
        """The prediction as printed in tabular reports (closed forms only)."""
        if self.oracle_source == "closed_form":
            return self.oracle_rate
        return None

    @property
    def per_decoy_mismatch_rate(self) -> Optional[float]:
        if self.decoys_checked == 0:
            return None
        return self.decoy_mismatches / self.decoys_checked

    @property
    def per_position_failure_rate(self) -> Optional[float]:
        if self.positions_checked == 0:
            return None
        return self.position_failures / self.positions_checked

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "attack": self.attack,
            "n": self.n_decoys,
            "c": self.checked_positions,
            "m": self.m_pairs,
            "parties": self.parties,
            "trials": self.trials,
            "completed": self.completed,
            "errors": self.errors,
            "site": self.site,
            "detected": self.detected_at_site,
            "detected_any": self.detected_any,
            "detection_rate": self.detection_rate,
            "analytic_rate": self.analytic_rate,
            "oracle_rate": self.oracle_rate,
            "oracle_source": self.oracle_source,
            "sigma3": self.sigma3,
            "pass": self.passed,
            "status_counts": dict(sorted(self.status_counts.items())),
            "site_counts": dict(sorted(self.site_counts.items())),
            "established": self.established,
            "delivered": self.delivered,
            "delivered_wrong": self.delivered_wrong,
            "min_pair_fidelity": self.min_pair_fidelity,
            "decoys_checked": self.decoys_checked,
            "decoy_mismatches": self.decoy_mismatches,
            "per_decoy_mismatch_rate": self.per_decoy_mismatch_rate,
            "positions_checked": self.positions_checked,
            "position_failures": self.position_failures,
            "per_position_failure_rate": self.per_position_failure_rate,
            "leak_bits_correct": self.leak_bits_correct,
            "leak_bits_total": self.leak_bits_total,
            "leak_first_correct": self.leak_first_correct,
            "leak_second_correct": self.leak_second_correct,
            "leak_pairs": self.leak_pairs,
            "leakage_rate": self.leakage_rate,
            "filters_enabled": self.filters_enabled,
            "seed": self.seed,
        }

    def csv_row(self) -> List[str]:
        return [
            self.scenario,
            self.attack,
            str(self.n_decoys),
            str(self.checked_positions),
            str(self.trials),
            str(self.detected_at_site),
            _fmt(self.detection_rate),
            _fmt(self.analytic_rate),
            _fmt(self.sigma3),
            "true" if self.passed else "false",
            _fmt(self.leakage_rate),
            str(self.seed),
        ]

    def summary_line(self) -> str:
        rate = _fmt(self.detection_rate)
        if self.oracle_rate is None:
            expect = "expected=?"
        else:
            expect = f"expected={_fmt(self.oracle_rate)}±{_fmt(self.sigma3)}"
        leak = "" if self.leakage_rate is None else f" leak={_fmt(self.leakage_rate)}"
        label = self.attack or "honest"
        return (
            f"{self.scenario} {label} n={self.n_decoys} c={self.checked_positions} "
            f"trials={self.trials} detected={rate} {expect}{leak} "
            f"pass={'true' if self.passed else 'false'}"
        )


def _fmt(x: Optional[float]) -> str:
    if x is None:
        return ""
    return format(float(x), ".10g")


# --- oracle routing ---------------------------------------------------------------


def _oracle_for(ec: ExperimentConfig) -> Tuple[float, str]:
    """(expected site-detection rate, how it was obtained) for this experiment."""
    spec, cfg = ec.attack, ec.cfg
    if spec is None:
        return 0.0, "closed_form"
    kind, n = spec.kind, cfg.n_decoys
    if kind is AttackKind.MODIFICATION:
        payload = cfg.m_pairs - cfg.checked_count
        return modification_detection(spec.strategy, n, payload), "closed_form"
    if kind is AttackKind.ENTANGLE_MEASURE:
        u = cnot_matrix() if spec.unitary is None else np.asarray(spec.unitary, dtype=complex)
        return probe_decoy_detection(u, n), "enumerated"
    if kind is AttackKind.TROJAN_HORSE:
        # Ideal probe filters flag every planted slot; without them, nothing does.
        return (1.0 if ec.filters_enabled else 0.0), "deterministic"
    return analytic_detection(kind, n, cfg.checked_count), "closed_form"


# The decoy discussion behind each edge attack's detection site.
_SITE_STAGE = {"step2": STAGE_DECOY, "step5": STAGE_RELAY_IN, "step7": STAGE_RELAY_OUT}


def _attacked_leg(spec: Optional[AttackSpec]) -> Optional[Tuple[str, PartyId]]:
    """(stage, holder) of the discussion that grades the attacked edge."""
    if spec is None or spec.edge is None:
        return None
    return _SITE_STAGE[spec.detection_site], spec.edge[1]


# --- the trial loop ----------------------------------------------------------------


def _trials(seed: int, count: int, fn: Callable[[object, int], object]) -> list:
    """``fn(rng, index)`` for every trial of a batch, in index order."""
    return [fn(rng, index) for index, rng in enumerate(trial_rngs(seed, count))]


# --- trial runners -----------------------------------------------------------------


def _collect_establishment(tr: TrialReport, out, ec: ExperimentConfig) -> None:
    tr.positions_checked = len(out.check_log)
    tr.position_failures = sum(1 for e in out.check_log if not e.passed)
    leg = _attacked_leg(ec.attack)
    if leg is not None and out.session is not None:
        counts = out.session.decoy_counts.get(leg)
        if counts is not None:
            tr.decoys_checked, tr.decoy_mismatches = counts[0], counts[1]


def _trial_establish(ec: ExperimentConfig, cfg: EstablishmentConfig, rng, index: int) -> TrialReport:
    adversary = build_adversary(ec.attack) if ec.attack is not None else None
    runner = run_multiparty if ec.scenario == "multiparty" else run_establishment
    out = runner(cfg, adversary, rng, filters_enabled=ec.filters_enabled)
    tr = TrialReport(
        index=index,
        status=out.status.value,
        detected=not out.established,
        detected_at=out.step,
    )
    _collect_establishment(tr, out, ec)
    if out.established and ec.measure_fidelity:
        target = ghz_target_vector(cfg.parties)
        reg = out.session.register
        fids = [
            reg.state_fidelity(out.pair_group(i), target)
            for i in range(out.pairs_established)
        ]
        if fids:
            tr.min_pair_fidelity = float(min(fids))
    return tr


def _trial_qsdc(ec: ExperimentConfig, cfg: EstablishmentConfig, rng, index: int) -> TrialReport:
    adversary = build_adversary(ec.attack) if ec.attack is not None else None
    out = run_qsdc(cfg, None, adversary, rng, filters_enabled=ec.filters_enabled)
    tr = TrialReport(
        index=index,
        status=out.status.value,
        detected=out.detected_step is not None,
        detected_at=out.detected_step,
        delivered=out.delivered,
        leak_bits_correct=out.leak_bits_correct,
        leak_bits_total=out.leak_bits_total,
        leak_first_correct=out.leak_first_bit_correct,
        leak_second_correct=out.leak_second_bit_correct,
        leak_pairs=out.leak_pairs_guessed,
    )
    if out.establishment is not None:
        _collect_establishment(tr, out.establishment, ec)
    if out.delivered and out.decoded is not None and out.message is not None:
        tr.bit_errors = sum(1 for d, m in zip(out.decoded, out.message.bits) if d != m)
    return tr


def run_experiment(ec: ExperimentConfig) -> Union["AggregateReport", "GameResult"]:
    """Run the configured batch and aggregate it.

    Trial i draws from the i-th spawned child of ``SeedSequence(ec.seed)`` and
    gets a freshly built adversary, so batches are reproducible and trials are
    statistically independent.  A trial that raises is recorded as a failed
    trial rather than aborting the batch.
    """
    if ec.scenario == "game":
        return run_distinguishing_game(ec.game, ec.trials, ec.seed)
    trial_fn = _trial_qsdc if ec.scenario == "qsdc" else _trial_establish

    def trial(rng, index: int) -> TrialReport:
        try:
            return trial_fn(ec, ec.cfg, rng, index)
        except Exception as exc:  # noqa: BLE001 - a bad trial must not kill the batch
            return TrialReport(index=index, error=f"{type(exc).__name__}: {exc}")

    return _aggregate(ec, _trials(ec.seed, ec.trials, trial))


def _aggregate(ec: ExperimentConfig, reports: List[TrialReport]) -> AggregateReport:
    ok = [r for r in reports if r.error is None]
    errors = len(reports) - len(ok)
    site = ec.attack.detection_site if ec.attack is not None else None
    detected_any = sum(1 for r in ok if r.detected)
    if site is None:
        detected_site = detected_any
    else:
        detected_site = sum(1 for r in ok if r.detected_at == site)
    completed = len(ok)
    detection_rate = detected_site / completed if completed else 0.0

    oracle, source = _oracle_for(ec)
    sigma3: Optional[float] = None
    passed = errors == 0 and completed > 0
    if completed:
        sigma3 = 3.0 * math.sqrt(oracle * (1.0 - oracle) / completed)
        passed = passed and abs(detection_rate - oracle) <= sigma3

    fids = [r.min_pair_fidelity for r in ok if r.min_pair_fidelity is not None]
    return AggregateReport(
        scenario=ec.scenario,
        attack=attack_label(ec.attack),
        n_decoys=ec.cfg.n_decoys,
        checked_positions=ec.cfg.checked_count,
        m_pairs=ec.cfg.m_pairs,
        parties=ec.cfg.parties,
        trials=len(reports),
        seed=ec.seed,
        completed=completed,
        errors=errors,
        site=site,
        detected_at_site=detected_site,
        detected_any=detected_any,
        detection_rate=detection_rate,
        oracle_rate=oracle,
        oracle_source=source,
        sigma3=sigma3,
        passed=passed,
        status_counts=dict(Counter(r.status for r in ok)),
        site_counts=dict(Counter(r.detected_at for r in ok if r.detected_at is not None)),
        established=sum(1 for r in ok if r.status not in ("aborted_step2", "aborted_step3")),
        delivered=sum(1 for r in ok if r.delivered),
        delivered_wrong=sum(1 for r in ok if r.delivered and (r.bit_errors or 0) > 0),
        min_pair_fidelity=float(min(fids)) if fids else None,
        filters_enabled=ec.filters_enabled,
        trial_reports=reports,
        **{name: sum(getattr(r, name) for r in ok) for name in _SUMMED_COUNTS},
    )


def _sweep_point_cfg(ec: ExperimentConfig, value) -> EstablishmentConfig:
    """The run configuration of one sweep point; raises ValueError if invalid."""
    if ec.sweep_param == "check_fraction":
        kind, wanted = "numbers", numbers.Real
    else:
        kind, wanted = "integers", numbers.Integral
    if isinstance(value, bool) or not isinstance(value, wanted):
        raise ValueError(f"{ec.sweep_param} sweep values must be {kind}, got {value!r}")
    if ec.sweep_param == "n_decoys":
        return replace(ec.cfg, n_decoys=int(value))
    if ec.sweep_param == "check_fraction":
        return replace(ec.cfg, check_fraction=float(value))
    # checked_count: express the target count as a fraction of m
    target, m = int(value), ec.cfg.m_pairs
    cfg = replace(ec.cfg, check_fraction=target / m) if 0 < target < m else None
    if cfg is None or cfg.checked_count != target:
        raise ValueError(f"cannot spot-check {target} of {m} positions")
    return cfg


def run_sweep(ec: ExperimentConfig) -> List[AggregateReport]:
    """Repeat the experiment across the configured parameter values."""
    if ec.sweep_param is None or not ec.sweep_values:
        raise ValueError("sweep requires sweep_param and sweep_values")
    out: List[AggregateReport] = []
    for i, value in enumerate(ec.sweep_values):
        cfg = _sweep_point_cfg(ec, value)
        point_seed = sweep_seed(ec.seed, i)
        point = replace(ec, cfg=cfg, seed=point_seed, sweep_param=None, sweep_values=None)
        out.append(run_experiment(point))
    return out


# --- transcript-distinguishing game -------------------------------------------------


GAME_QUERIES = ("execute", "send", "reveal", "corrupt", "test")


class GameError(RuntimeError):
    """A strategy used a query it was not granted, or broke query rules."""


class GameInstance:
    """One challenge: a real discussion ran; can you spot its outcome string?

    The adversary's `execute` view contains every public message *except* the
    holder's result string.  `test` issues the challenge once: the true result
    string or a uniformly random one, with equal probability.  `reveal` and
    `corrupt` hand over session respectively source secrets but mark the
    instance stale, excluding it from the advantage tally — the standard
    freshness bookkeeping.
    """

    def __init__(
        self,
        discussion: str,
        challenge_len: int,
        rng: np.random.Generator,
        allowed: Sequence[str] = GAME_QUERIES,
    ) -> None:
        if discussion not in ("decoy", "pair_check"):
            raise ValueError("discussion must be 'decoy' or 'pair_check'")
        self.discussion = discussion
        self._rng = rng
        self._allowed = frozenset(q.lower() for q in allowed)
        self.fresh = True
        self._tested = False
        self._b: Optional[int] = None
        reg = QuantumRegister()
        net = Network(Topology.two_party(), reg, rng)
        L = challenge_len
        if discussion == "decoy":
            labels = tuple(DECOY_LABELS[i] for i in rng.integers(4, size=L).tolist())
            qubits = [reg.prepare_single(lab) for lab in labels]
            net.send_quantum(TP1, ALICE, qubits)
            net.send_classical(ALICE, TP1, Ack())
            bases = tuple(LABEL_EXPECTATION[lab][0] for lab in labels)
            net.send_classical(
                TP1, ALICE, PositionsBases(STAGE_DECOY, tuple(range(L)), bases)
            )
            bits = tuple(reg.measure_all(qubits, bases, rng))
            net.send_classical(ALICE, TP1, MeasurementResults(STAGE_DECOY, bits))
            self._secret = labels
            self._results = bits
            self.announced_bases = bases
        else:
            a_qubits, b_qubits = [], []
            for _ in range(L):
                qa, qb = reg.prepare_epr_pair()
                a_qubits.append(qa)
                b_qubits.append(qb)
            net.send_quantum(TP1, ALICE, a_qubits)
            net.send_quantum(TP1, BOB, b_qubits)
            bases = tuple(BASIS_BY_BIT[b] for b in rng.integers(2, size=L).tolist())
            announce = PositionsBases(STAGE_PAIR_CHECK, tuple(range(L)), bases)
            net.send_classical(TP2, ALICE, announce)
            net.send_classical(TP2, BOB, announce)
            a_bits = tuple(reg.measure_all(a_qubits, bases, rng))
            b_bits = tuple(reg.measure_all(b_qubits, bases, rng))
            net.send_classical(ALICE, TP2, MeasurementResults(STAGE_PAIR_CHECK, a_bits))
            net.send_classical(BOB, TP2, MeasurementResults(STAGE_PAIR_CHECK, b_bits))
            # Honest halves always agree in both bases; the challenge string is
            # the single shared outcome, so its internal structure gives a
            # passive adversary nothing to key on.
            self._secret = ("phi+",) * L
            self._results = a_bits
            self.announced_bases = bases
        self._view = tuple(e for e in net.transcript if e.kind != "measurement_results")

    # -- queries ---------------------------------------------------------------

    def _use(self, name: str) -> None:
        if name not in self._allowed:
            raise GameError(f"the {name!r} query was not granted in this game")

    def execute(self):
        """The adversary's view: all public traffic minus the result string."""
        self._use("execute")
        return self._view

    def send_clone_request(self) -> Tuple[str, ...]:
        """By-fiat perfect copies of the in-flight qubits (not physical!)."""
        self._use("send")
        return self._secret

    def reveal(self) -> Tuple[int, ...]:
        """Hand over the session outcome string; the instance goes stale."""
        self._use("reveal")
        self.fresh = False
        return self._results

    def corrupt(self) -> Tuple[str, ...]:
        """Hand over the preparer's secrets; the instance goes stale."""
        self._use("corrupt")
        self.fresh = False
        return self._secret

    def test(self) -> Tuple[int, ...]:
        """Issue the challenge (once): real outcome string or uniform noise."""
        self._use("test")
        if self._tested:
            raise GameError("the challenge for this instance was already issued")
        self._tested = True
        self._b = int(self._rng.integers(2))
        if self._b == 0:
            return self._results
        return tuple(int(x) for x in self._rng.integers(0, 2, size=len(self._results)))

    def judge(self, guess: int) -> Optional[bool]:
        """Score a guess; None if the instance is stale or was never tested."""
        if not self.fresh or not self._tested:
            return None
        return int(guess) == self._b


def strategy_passive(instance: GameInstance, challenge, rng) -> int:
    """Look at the public view, then flip a coin."""
    instance.execute()
    return int(rng.integers(2))


def strategy_fiat_clone(instance: GameInstance, challenge, rng) -> int:
    """Win with by-fiat clones: predict the result string and compare."""
    if instance.discussion != "decoy":
        raise GameError("the cloning reduction is demonstrated on the decoy discussion")
    instance.execute()
    labels = instance.send_clone_request()
    predicted = tuple(LABEL_EXPECTATION[lab][1] for lab in labels)
    return 0 if tuple(challenge) == predicted else 1


def strategy_fake_state(instance: GameInstance, challenge, rng) -> int:
    """Measure self-made qubits in the announced bases; no better than chance."""
    instance.execute()
    reg = QuantumRegister()
    bits = []
    for basis in instance.announced_bases:
        mine, _partner = reg.prepare_epr_pair()
        bits.append(reg.measure(mine, basis, rng).bit)
    return 0 if tuple(challenge) == tuple(bits) else 1


_STRATEGIES: Dict[str, Callable] = {
    "passive": strategy_passive,
    "fiat_clone": strategy_fiat_clone,
    "fake_state": strategy_fake_state,
}


@dataclass
class GameResult:
    discussion: str
    strategy: str
    instances: int
    valid: int
    successes: int
    advantage: float
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "scenario": "game",
            "discussion": self.discussion,
            "strategy": self.strategy,
            "instances": self.instances,
            "valid": self.valid,
            "successes": self.successes,
            "advantage": self.advantage,
            "seed": self.seed,
        }

    def csv_row(self) -> List[str]:
        return [
            "game",
            self.discussion,
            self.strategy,
            str(self.instances),
            str(self.valid),
            str(self.successes),
            _fmt(self.advantage),
            str(self.seed),
        ]

    def summary_line(self) -> str:
        return (
            f"game {self.discussion} strategy={self.strategy} "
            f"instances={self.instances} valid={self.valid} "
            f"advantage={_fmt(self.advantage)}"
        )


def run_distinguishing_game(
    spec: GameSpec,
    instances: int,
    seed: int = 0,
    strategy: Optional[Callable] = None,
) -> GameResult:
    """Play many independent instances and report the distinguishing advantage.

    Instances whose freshness was voided (by reveal/corrupt) are excluded from
    the tally, as are instances the strategy never brought to challenge.
    """
    fn = strategy if strategy is not None else _STRATEGIES[spec.strategy]

    def play(rng, index: int) -> Optional[bool]:
        inst = GameInstance(spec.discussion, spec.challenge_len, rng, spec.queries)
        challenge = inst.test()
        return inst.judge(fn(inst, challenge, rng))

    verdicts = [v for v in _trials(seed, instances, play) if v is not None]
    valid, successes = len(verdicts), sum(verdicts)
    advantage = abs(2.0 * successes / valid - 1.0) if valid else 0.0
    label = spec.strategy if strategy is None else getattr(strategy, "__name__", "custom")
    return GameResult(
        discussion=spec.discussion,
        strategy=label,
        instances=instances,
        valid=valid,
        successes=successes,
        advantage=advantage,
        seed=seed,
    )


# --- report emission ----------------------------------------------------------------


Report = Union[AggregateReport, GameResult]


def emit_report(
    reports: Union[Report, Sequence[Report]],
    fmt: str = "json",
    path: Optional[str] = None,
) -> str:
    """Serialize one report or a sweep of them; same inputs, same bytes out."""
    items: List[Report] = list(reports) if isinstance(reports, (list, tuple)) else [reports]
    if fmt == "json":
        payload = [r.to_json_dict() for r in items]
        doc = payload[0] if len(payload) == 1 else payload
        text = json.dumps(doc, indent=2) + "\n"
    elif fmt == "csv":
        games = [isinstance(r, GameResult) for r in items]
        if any(games) and not all(games):
            raise ValueError("cannot mix run reports and game reports in one CSV")
        columns = GAME_CSV_COLUMNS if all(games) else CSV_COLUMNS
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for r in items:
            writer.writerow(r.csv_row())
        text = buf.getvalue()
    else:
        raise ValueError("format must be 'json' or 'csv'")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


# --- config files -------------------------------------------------------------------


_PARTY_NAMES = {
    "alice": ALICE,
    "bob": BOB,
    "tp1": TP1,
    "tp2": TP2,
    "eve": EVE,
}


def _parse_party(name: str) -> PartyId:
    try:
        return _PARTY_NAMES[str(name).lower()]
    except KeyError:
        raise ValueError(f"unknown party {name!r}") from None


def _check_keys(mapping: dict, allowed: Sequence[str], where: str) -> None:
    if not isinstance(mapping, dict):
        raise ValueError(f"{where} must be a JSON object, got {mapping!r}")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")


def _json_int(data: dict, key: str, default: int) -> int:
    """An integer config value; a float, string or JSON boolean is an error, not truncated."""
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _json_number(data: dict, key: str, default: float) -> float:
    """A JSON number config value; a string such as ``"0.3"`` or a boolean is an error."""
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _json_bool(data: dict, key: str, default: bool) -> bool:
    """A JSON boolean config value; ``"false"`` or 0 is an error, not coerced."""
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


def _parse_matrix(rows) -> tuple:
    """Nested lists of JSON numbers or [re, im] pairs of them -> nested tuples of complex.

    A string or boolean entry is an error, never coerced.
    """

    def number(x) -> float:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ValueError(f"unitary entries must be numbers or [re, im] pairs, got {x!r}")
        return float(x)

    def cell(x) -> complex:
        if isinstance(x, list) and len(x) == 2:
            return complex(number(x[0]), number(x[1]))
        return complex(number(x))

    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError(f"unitary must be a list of rows, got {rows!r}")
    return tuple(tuple(cell(x) for x in row) for row in rows)


def parse_attack(data: dict) -> AttackSpec:
    """Build an attack description from its JSON form."""
    _check_keys(data, ("kind", "actor", "edge", "strategy", "trojan", "unitary"), "attack")
    if "kind" not in data:
        raise ValueError("attack needs a 'kind'")
    kind = AttackKind(data["kind"])
    actor = _parse_party(data["actor"]) if data.get("actor") is not None else None
    edge = None
    if data.get("edge") is not None:
        raw = data["edge"]
        if len(raw) != 2:
            raise ValueError("edge must name exactly two parties")
        edge = (_parse_party(raw[0]), _parse_party(raw[1]))
    trojan = TrojanKind(data["trojan"]) if data.get("trojan") is not None else None
    unitary = _parse_matrix(data["unitary"]) if data.get("unitary") is not None else None
    return AttackSpec(
        kind=kind,
        actor=actor,
        edge=edge,
        strategy=data.get("strategy"),
        trojan=trojan,
        unitary=unitary,
    )


def load_config(path: str) -> ExperimentConfig:
    """Read an experiment description from JSON; unknown keys are an error."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    _check_keys(
        data,
        (
            "scenario",
            "cfg",
            "attack",
            "trials",
            "seed",
            "output",
            "game",
            "filters_enabled",
            "measure_fidelity",
            "sweep",
        ),
        "config",
    )
    cfg_data = data.get("cfg", {})
    _check_keys(cfg_data, ("m_pairs", "n_decoys", "check_fraction", "parties"), "cfg")
    cfg = EstablishmentConfig(
        m_pairs=_json_int(cfg_data, "m_pairs", 10),
        n_decoys=_json_int(cfg_data, "n_decoys", 10),
        check_fraction=_json_number(cfg_data, "check_fraction", 0.3),
        parties=_json_int(cfg_data, "parties", 2),
    )
    attack = parse_attack(data["attack"]) if data.get("attack") is not None else None
    out_data = data.get("output", {})
    _check_keys(out_data, ("path", "format"), "output")
    game = None
    if data.get("game") is not None:
        game_data = data["game"]
        _check_keys(game_data, ("discussion", "strategy", "queries", "challenge_len"), "game")
        game = GameSpec(
            discussion=game_data.get("discussion", "decoy"),
            strategy=game_data.get("strategy", "passive"),
            queries=tuple(game_data.get("queries", ("execute", "send", "test"))),
            challenge_len=_json_int(game_data, "challenge_len", 8),
        )
    sweep_param = None
    sweep_values: Optional[Tuple[float, ...]] = None
    if data.get("sweep") is not None:
        sweep_data = data["sweep"]
        _check_keys(sweep_data, ("param", "values"), "sweep")
        sweep_param = sweep_data.get("param")
        values = sweep_data.get("values", [])
        if not isinstance(values, list):
            raise ValueError(f"sweep values must be a JSON list, got {values!r}")
        sweep_values = tuple(values)
    return ExperimentConfig(
        scenario=data.get("scenario", "establish"),
        cfg=cfg,
        attack=attack,
        trials=_json_int(data, "trials", 1000),
        seed=_json_int(data, "seed", 0),
        output_path=out_data.get("path"),
        output_format=out_data.get("format", "json"),
        game=game,
        filters_enabled=_json_bool(data, "filters_enabled", True),
        measure_fidelity=_json_bool(data, "measure_fidelity", True),
        sweep_param=sweep_param,
        sweep_values=sweep_values,
    )
