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

import io
import json
import math
import numbers
import os
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Collection, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .adversaries import (
    ATTACK_NAMES,
    AttackKind,
    AttackSpec,
    attack_from_name,
    attack_label,
    build_adversary,
    detection_oracle,
)
from .channels import (
    ACK,
    ALICE,
    BOB,
    EVE,
    TP1,
    TP2,
    MeasurementResults,
    Network,
    PartyId,
    PositionsBases,
    RunStatus,
    STAGE_DECOY,
    STAGE_PAIR_CHECK,
    Topology,
    TrojanKind,
)
from .protocol import EstablishmentConfig, ghz_target_vector, run_establishment, run_multiparty
from .qcore import BASIS_BY_BIT, LABEL_EXPECTATION, SINGLE_STATE_LABELS, QuantumRegister
from .qsdc import run_qsdc
from .seeding import MAX_TRIALS, draw_below, sweep_seed, trial_rng, trial_rngs

SCENARIOS = ("establish", "qsdc", "multiparty", "game")
RUN_SCENARIOS = SCENARIOS[:3]  # the scenarios that run the protocol: all but the game

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


# --- per-trial and aggregate records ----------------------------------------------


@dataclass
class TrialReport:
    """One run, reduced to what the aggregate statistics need."""

    index: int
    status: str = "error"
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
# The adversary's message-guess counters, named alike on QsdcOutcome.
_LEAK_COUNTS = tuple(name for name in _SUMMED_COUNTS if name.startswith("leak_"))
# The status values of runs that ended before establishment, read per report.
_BEFORE_ESTABLISHMENT = frozenset(s.value for s in RunStatus if s.before_establishment)


# The JSON keys that differ from their field names.
_JSON_KEYS = {
    "n_decoys": "n",
    "checked_positions": "c",
    "m_pairs": "m",
    "detected_at_site": "detected",
    "passed": "pass",
}


def _json_record(report: Report) -> dict:
    """A report's JSON object: its fields in declaration order, renamed through
    ``_JSON_KEYS``, without the per-trial reports."""
    return {
        _JSON_KEYS.get(f.name, f.name): getattr(report, f.name)
        for f in fields(report)
        if f.name != "trial_reports"
    }


@dataclass
class AggregateReport:
    """Batch statistics plus what gates `passed`: no failed trial, the rate within
    3 sigma of the oracle, and no delivered message with wrong bits.

    The fields are declared in the JSON report's key order; the four rates
    derived from other fields are set once, when the report is built.
    """

    scenario: str
    attack: str
    n_decoys: int
    checked_positions: int
    m_pairs: int
    parties: int
    trials: int
    completed: int
    errors: int
    site: Optional[str]
    detected_at_site: int
    detected_any: int
    detection_rate: float
    analytic_rate: Optional[float] = field(init=False)  # the oracle, if a closed form
    oracle_rate: float
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
    per_decoy_mismatch_rate: Optional[float] = field(init=False)
    positions_checked: int
    position_failures: int
    per_position_failure_rate: Optional[float] = field(init=False)
    leak_bits_correct: int
    leak_bits_total: int
    leak_first_correct: int
    leak_second_correct: int
    leak_pairs: int
    leakage_rate: Optional[float] = field(init=False)
    filters_enabled: bool
    seed: int
    trial_reports: List[TrialReport] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        self.analytic_rate = self.oracle_rate if self.oracle_source == "closed_form" else None
        self.per_decoy_mismatch_rate = (
            self.decoy_mismatches / self.decoys_checked if self.decoys_checked else None
        )
        self.per_position_failure_rate = (
            self.position_failures / self.positions_checked if self.positions_checked else None
        )
        self.leakage_rate = (
            self.leak_bits_correct / self.leak_bits_total if self.leak_bits_total else None
        )

    to_json_dict = _json_record

    def summary_line(self) -> str:
        band = "" if self.sigma3 is None else f"±{_fmt(self.sigma3)}"
        leak = "" if self.leakage_rate is None else f" leak={_fmt(self.leakage_rate)}"
        label = self.attack or "honest"
        line = (
            f"{self.scenario} {label} n={self.n_decoys} c={self.checked_positions} "
            f"trials={self.trials} detected={_fmt(self.detection_rate)} "
            f"expected={_fmt(self.oracle_rate)}{band}{leak} "
            f"pass={'true' if self.passed else 'false'}"
        )
        if self.errors:
            first = next(r for r in self.trial_reports if r.error is not None)
            line += f" first_error=#{first.index} {first.error}"
        return line


def _fmt(x: Optional[float]) -> str:
    if x is None:
        return ""
    return format(float(x), ".10g")


def _cell(x) -> str:
    """One CSV cell of a JSON report value."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None or isinstance(x, float):
        return _fmt(x)
    return str(x)


# --- the trial loop ----------------------------------------------------------------


def _trials(seed: int, count: int, fn: Callable[[object, int], object]) -> list:
    """``fn(rng, index)`` for every trial of a batch, in index order."""
    return [fn(rng, index) for index, rng in enumerate(trial_rngs(seed, count))]


# --- trial runners -----------------------------------------------------------------


def _collect_establishment(tr: TrialReport, out, ec: ExperimentConfig) -> None:
    tr.positions_checked = len(out.check_log)
    tr.position_failures = sum(1 for e in out.check_log if not e.passed)
    if ec.attack is not None:
        # The discussion that grades the attacked edge is keyed by that edge.
        counts = out.session.decoy_counts.get(ec.attack.edge)
        if counts is not None:
            tr.decoys_checked, tr.decoy_mismatches = counts


def _trial_establish(ec: ExperimentConfig, cfg: EstablishmentConfig, rng, index: int) -> TrialReport:
    adversary = build_adversary(ec.attack) if ec.attack is not None else None
    runner = run_multiparty if ec.scenario == "multiparty" else run_establishment
    out = runner(cfg, adversary, rng, filters_enabled=ec.filters_enabled)
    tr = TrialReport(index=index, status=out.status.value, detected_at=out.status.step)
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
        detected_at=out.status.step,
        delivered=out.delivered,
        **{name: getattr(out, name) for name in _LEAK_COUNTS},
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
    return _aggregate(ec, _trials(ec.seed, ec.trials, lambda rng, index: run_trial(ec, index, rng)))


def run_trial(ec: ExperimentConfig, index: int, rng=None) -> TrialReport:
    """Trial ``index`` of ``ec``'s batch on its own, as :func:`run_experiment` records it.

    With ``rng`` None the trial draws from child ``index`` of
    ``SeedSequence(ec.seed)``, so it replays that trial of the batch exactly.
    A trial that raises is recorded as a failed trial.  The game scenario has
    no trial reports and is not served here.
    """
    if ec.scenario == "game":
        raise ValueError("run_trial serves the establish, qsdc and multiparty scenarios")
    if rng is None:
        rng = trial_rng(ec.seed, index)
    # Read through the module globals at each call, so wrappers installed
    # around the trial runners see every trial.
    trial_fn = _trial_qsdc if ec.scenario == "qsdc" else _trial_establish
    try:
        return trial_fn(ec, ec.cfg, rng, index)
    except Exception as exc:  # noqa: BLE001 - a bad trial must not kill the batch
        return TrialReport(index=index, error=f"{type(exc).__name__}: {exc}")


def _aggregate(ec: ExperimentConfig, reports: List[TrialReport]) -> AggregateReport:
    ok = [r for r in reports if r.error is None]
    errors = len(reports) - len(ok)
    site = ec.attack.detection_site if ec.attack is not None else None
    sites = [r.detected_at for r in ok if r.detected_at is not None]
    detected_any = len(sites)
    detected_site = detected_any if site is None else sites.count(site)
    completed = len(ok)
    detection_rate = detected_site / completed if completed else 0.0

    oracle, source = detection_oracle(ec.attack, ec.cfg, ec.filters_enabled)
    sigma3: Optional[float] = None
    # A delivered message with wrong bits fails the batch, whatever the rate.
    delivered_wrong = sum(1 for r in ok if r.delivered and (r.bit_errors or 0) > 0)
    passed = errors == 0 and completed > 0 and delivered_wrong == 0
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
        status_counts=dict(sorted(Counter(r.status for r in ok).items())),
        site_counts=dict(sorted(Counter(sites).items())),
        established=sum(1 for r in ok if r.status not in _BEFORE_ESTABLISHMENT),
        delivered=sum(1 for r in ok if r.delivered),
        delivered_wrong=delivered_wrong,
        min_pair_fidelity=float(min(fids)) if fids else None,
        filters_enabled=ec.filters_enabled,
        seed=ec.seed,
        trial_reports=reports,
        **{name: sum(getattr(r, name) for r in ok) for name in _SUMMED_COUNTS},
    )


def gate_false_fail(p: float, n: int) -> float:
    """The chance that a correct program fails the 3-sigma gate of a report.

    That is the exact Binomial(n, p) mass of the counts k whose rate fails the
    report's own float comparison ``abs(k / n - p) <= 3 sigma`` (see
    :func:`_aggregate`), summed with ``math.lgamma`` terms.  The normal
    band's nominal level is 0.27 %; near p = 0 or 1 the exact level is not.
    """
    if not 0.0 <= p <= 1.0 or n < 1:
        raise ValueError("gate_false_fail needs 0 <= p <= 1 and n >= 1")
    if p in (0.0, 1.0):  # all the mass is on k = n * p, whose rate is exactly p
        return 0.0
    sigma3 = 3.0 * math.sqrt(p * (1.0 - p) / n)
    log_p, log_q, log_n = math.log(p), math.log1p(-p), math.lgamma(n + 1)
    return math.fsum(
        math.exp(log_n - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * log_p + (n - k) * log_q)
        for k in range(n + 1)
        if not abs(k / n - p) <= sigma3
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
DISCUSSIONS = ("decoy", "pair_check")


class GameError(RuntimeError):
    """A strategy used a query it was not granted, or broke query rules."""


class GameInstance:
    """One challenge: a real discussion ran; can you spot its outcome string?

    The adversary's `execute` view is every event logged before the result
    strings are sent, the discussion's last sends: all public traffic except
    the holder's result string.  `test` issues the challenge once: the true
    result string or a uniformly random one, with equal probability.
    `reveal` and `corrupt` hand over session respectively source secrets but
    mark the instance stale, excluding it from the advantage tally — the
    standard freshness bookkeeping.  ``allowed`` holds the granted query names
    in lower case, as ``GameSpec.queries`` does.
    """

    def __init__(
        self,
        discussion: str,
        challenge_len: int,
        rng: np.random.Generator,
        allowed: Collection[str] = GAME_QUERIES,
    ) -> None:
        self.discussion = discussion
        self._rng = rng
        self._allowed = allowed
        self.fresh = True
        self._tested = False
        self._b: Optional[int] = None
        reg = QuantumRegister()
        net = Network(Topology.for_parties((ALICE, BOB)), reg, rng)
        L = challenge_len
        if discussion == "decoy":
            codes = draw_below(rng, 4, L)
            labels = tuple([SINGLE_STATE_LABELS[c] for c in codes])
            qubits = [reg.prepare_single(lab) for lab in labels]
            net.send_quantum(TP1, ALICE, qubits)
            net.send_classical(ALICE, TP1, ACK)
            bases = tuple([BASIS_BY_BIT[c >> 1] for c in codes])
            net.send_classical(
                TP1, ALICE, PositionsBases(STAGE_DECOY, tuple(range(L)), bases)
            )
            bits = tuple(reg.measure_all(qubits, bases, rng))
            self._view = tuple(net.transcript.events)
            net.send_classical(ALICE, TP1, MeasurementResults(STAGE_DECOY, bits))
            self._secret = labels
            self._results = bits
            self.announced_bases = bases
        elif discussion == "pair_check":
            a_qubits, b_qubits = [], []
            for _ in range(L):
                qa, qb = reg.prepare_epr_pair()
                a_qubits.append(qa)
                b_qubits.append(qb)
            net.send_quantum(TP1, ALICE, a_qubits)
            net.send_quantum(TP1, BOB, b_qubits)
            bases = tuple([BASIS_BY_BIT[b] for b in draw_below(rng, 2, L)])
            announce = PositionsBases(STAGE_PAIR_CHECK, tuple(range(L)), bases)
            net.send_classical(TP2, ALICE, announce)
            net.send_classical(TP2, BOB, announce)
            a_bits = tuple(reg.measure_all(a_qubits, bases, rng))
            b_bits = tuple(reg.measure_all(b_qubits, bases, rng))
            self._view = tuple(net.transcript.events)
            net.send_classical(ALICE, TP2, MeasurementResults(STAGE_PAIR_CHECK, a_bits))
            net.send_classical(BOB, TP2, MeasurementResults(STAGE_PAIR_CHECK, b_bits))
            # Honest halves always agree in both bases; the challenge string is
            # the single shared outcome, so its internal structure gives a
            # passive adversary nothing to key on.
            self._secret = ("phi+",) * L
            self._results = a_bits
            self.announced_bases = bases
        else:
            _key("game", "discussion").check(discussion)  # raises: no such discussion

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
        self._b = draw_below(self._rng, 2)
        if self._b == 0:
            return self._results
        return tuple(draw_below(self._rng, 2, len(self._results)))

    def judge(self, guess: int) -> Optional[bool]:
        """Score a guess; None if the instance is stale or was never tested."""
        if not self.fresh or not self._tested:
            return None
        return int(guess) == self._b


def strategy_passive(instance: GameInstance, challenge, rng) -> int:
    """Look at the public view, then flip a coin."""
    instance.execute()
    return draw_below(rng, 2)


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
    """One distinguishing game's tally: valid instances, successes and the advantage.

    The fields are declared in the JSON report's key order.
    """

    scenario: str = field(init=False, default="game")
    discussion: str
    strategy: str
    instances: int
    valid: int
    successes: int
    advantage: float
    seed: int

    to_json_dict = _json_record

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
    granted = frozenset(spec.queries)

    def play(rng, index: int) -> Optional[bool]:
        inst = GameInstance(spec.discussion, spec.challenge_len, rng, granted)
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
        import csv  # loaded by the first CSV report only

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for r in items:
            doc = r.to_json_dict()
            writer.writerow([_cell(doc[c]) for c in columns])
        text = buf.getvalue()
    else:
        _key("output", "format").check(fmt)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


# --- experiment configuration ---------------------------------------------------------


_PARTY_NAMES = {p.name.lower(): p for p in (ALICE, BOB, TP1, TP2, EVE)}


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


def _parse_matrix(rows) -> tuple:
    """Nested lists of JSON numbers or [re, im] pairs of them -> nested tuples of complex.

    A string or boolean entry is an error, never coerced; so is a non-finite one
    (JSON's NaN and Infinity, or an integer too large for a float).
    """

    def number(x) -> float:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ValueError(f"unitary entries must be numbers or [re, im] pairs, got {x!r}")
        try:
            value = float(x)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"unitary entries must be finite, got {x!r}")
        return value

    def cell(x) -> complex:
        if isinstance(x, list) and len(x) == 2:
            return complex(number(x[0]), number(x[1]))
        return complex(number(x))

    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError(f"unitary must be a list of rows, got {rows!r}")
    lengths = sorted({len(row) for row in rows})
    if len(lengths) > 1:
        raise ValueError(
            f"unitary must be a list of rows of equal length, got row lengths {lengths}"
        )
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
        if not isinstance(raw, list) or len(raw) != 2 or not all(isinstance(p, str) for p in raw):
            raise ValueError(f"edge must be a JSON list naming exactly two parties, got {raw!r}")
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


# Each JSON type rule: the test a file value must pass, what an error says it
# must be, and how the value is kept (None: as read).  Nothing is coerced: "0.3"
# is not a number, 2.9 not an integer, 0 not a boolean.
_RULES: Dict[str, Tuple[Callable[[object], bool], str, Optional[Callable]]] = {
    "integer": (lambda v: type(v) is int, "an integer", None),
    "number": (lambda v: type(v) in (int, float), "a number", float),
    "boolean": (lambda v: isinstance(v, bool), "true or false", None),
    "string": (lambda v: isinstance(v, str), "a string", None),
    "list of strings": (
        lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
        "a JSON list of strings",
        tuple,
    ),
    "list": (lambda v: isinstance(v, list), "a JSON list", tuple),
    "attack object": (lambda v: isinstance(v, dict), "a JSON object", parse_attack),
}

# Sections whose keys fill a nested dataclass rather than ExperimentConfig itself.
_NESTED = ("cfg", "game")


class ConfigKey(NamedTuple):
    """One experiment config key: its place in the JSON, how it is read, and its CLI flag.

    A named tuple, not a frozen dataclass, which would take about 1.5 ms more to
    create at every import (Python 3.11 on a 2-core x86_64 host).
    """

    path: Tuple[str, ...]  # e.g. ("cfg", "m_pairs")
    rule: str  # the JSON type a file value must have, a key of _RULES
    default: object  # a None default also admits JSON null
    scenarios: Tuple[str, ...]  # the runs that read it; any other rejects it
    flag: Optional[str] = None
    commands: Tuple[str, ...] = ()  # the CLI subcommands that have the flag
    help: Optional[str] = None  # the flag's help text
    choices: Tuple[str, ...] = ()  # the values an enumerated key may take
    parse: Optional[Callable[[str], object]] = None  # flag text -> value, past argparse's type

    @property
    def name(self) -> Tuple[str, ...]:
        """Its path below a nested section: ("m_pairs",) for cfg.m_pairs, ("output", "path")."""
        return self.path[1:] if self.path[0] in _NESTED else self.path

    @property
    def field(self) -> str:
        """The dataclass field it fills: ``m_pairs``, ``output_path``."""
        return "_".join(self.name)

    def check(self, value) -> None:
        """Reject a value outside ``choices``."""
        if value not in self.choices:
            *rest, last = map(repr, self.choices)
            raise ValueError(
                f"{self.field} must be {', '.join(rest)} or {last}; unknown {self.field} {value!r}"
            )

    def read(self, value):
        """A file value as the type rule reads it."""
        if value is None and self.default is None:
            return None
        test, kind, keep = _RULES[self.rule]
        if not test(value):
            raise ValueError(f"{' '.join(self.name)} must be {kind}, got {value!r}")
        return value if keep is None else keep(value)


def _number(text: str):
    """One ``--values`` item, an integer if it reads as one; ``_sweep_point_cfg`` checks it."""
    try:
        return int(text)
    except ValueError:
        return float(text)


# The game, and the CLI commands that run the protocol or anything.
_GAME, _RUN_COMMANDS, _ALL_COMMANDS = ("game",), (*RUN_SCENARIOS, "sweep"), (*SCENARIOS, "sweep")
_CFG_DEFAULTS = {f.name: f.default for f in fields(EstablishmentConfig)}

# Every experiment config key.  The JSON reader, the dataclass checks, the CLI
# flags and the README's config list all follow this table.
CONFIG_KEYS = (
    ConfigKey(("scenario",), "string", "establish", SCENARIOS, "--scenario", ("sweep",),
              "which scenario to sweep (default: establish)", choices=SCENARIOS),
    ConfigKey(("cfg", "m_pairs"), "integer", 10, RUN_SCENARIOS, "--pairs", _RUN_COMMANDS,
              "payload groups per run"),
    ConfigKey(("cfg", "n_decoys"), "integer", 10, RUN_SCENARIOS, "--decoys", _RUN_COMMANDS,
              "decoys per channel use"),
    ConfigKey(("cfg", "check_fraction"), "number", _CFG_DEFAULTS["check_fraction"], RUN_SCENARIOS,
              "--check-fraction", _RUN_COMMANDS, "fraction of payload positions spot-checked"),
    ConfigKey(("cfg", "parties"), "integer", _CFG_DEFAULTS["parties"], RUN_SCENARIOS,
              "--parties", ("multiparty",), "number of end parties"),
    ConfigKey(("attack",), "attack object", None, RUN_SCENARIOS, "--attack", _RUN_COMMANDS,
              "one of: " + ", ".join(ATTACK_NAMES) + ", or 'none'",
              parse=lambda name: None if name == "none" else attack_from_name(name)),
    ConfigKey(("trials",), "integer", 1000, SCENARIOS, "--trials", _ALL_COMMANDS,
              "number of independent runs (game instances)"),
    ConfigKey(("seed",), "integer", 0, SCENARIOS, "--seed", _ALL_COMMANDS,
              "base seed for the batch"),
    ConfigKey(("output", "path"), "string", None, SCENARIOS, "--out", _ALL_COMMANDS,
              "write the report to this path"),
    ConfigKey(("output", "format"), "string", "json", SCENARIOS, "--format", _ALL_COMMANDS,
              "report format", choices=("json", "csv")),
    ConfigKey(("game", "discussion"), "string", "decoy", _GAME, "--discussion", _GAME,
              choices=DISCUSSIONS),
    ConfigKey(("game", "strategy"), "string", "passive", _GAME, "--strategy", _GAME,
              choices=tuple(_STRATEGIES)),
    ConfigKey(("game", "queries"), "list of strings", ("execute", "send", "test"), _GAME,
              choices=GAME_QUERIES),
    ConfigKey(("game", "challenge_len"), "integer", 8, _GAME, "--challenge-len", _GAME),
    ConfigKey(("filters_enabled",), "boolean", True, RUN_SCENARIOS),
    ConfigKey(("measure_fidelity",), "boolean", True, ("establish", "multiparty")),
    ConfigKey(("sweep", "param"), "string", None, RUN_SCENARIOS, "--param", ("sweep",),
              choices=("n_decoys", "checked_count", "check_fraction")),
    ConfigKey(("sweep", "values"), "list", None, RUN_SCENARIOS, "--values", ("sweep",),
              "comma-separated list, e.g. 1,5,10,20",
              parse=lambda text: tuple(_number(v) for v in map(str.strip, text.split(",")) if v)),
)

_KEYS: Dict[Tuple[str, ...], ConfigKey] = {key.path: key for key in CONFIG_KEYS}

# The scenarios that read each top-level key of a config file.
_READERS: Dict[str, set] = {
    k.path[0]: {s for j in CONFIG_KEYS if j.path[0] == k.path[0] for s in j.scenarios}
    for k in CONFIG_KEYS
}


def _key(*path: str) -> ConfigKey:
    return _KEYS[path]


def _fields(section: Optional[str], values: dict) -> dict:
    """Keyword arguments for the dataclass a section fills (None: ExperimentConfig)."""
    return {
        k.field: values.get(k.path, k.default)
        for k in CONFIG_KEYS
        if (k.path[0] if k.path[0] in _NESTED else None) == section
    }


@dataclass
class GameSpec:
    """Parameters of one transcript-distinguishing game."""

    discussion: str = _key("game", "discussion").default
    strategy: str = _key("game", "strategy").default
    queries: Tuple[str, ...] = _key("game", "queries").default
    challenge_len: int = _key("game", "challenge_len").default

    def __post_init__(self) -> None:
        _key("game", "discussion").check(self.discussion)
        _key("game", "strategy").check(self.strategy)
        if self.strategy == "fiat_clone" and self.discussion != "decoy":
            raise ValueError(
                "discussion must be 'decoy' for the fiat_clone strategy: "
                "the cloning reduction is demonstrated on the decoy discussion"
            )
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

    scenario: str = _key("scenario").default
    cfg: EstablishmentConfig = field(
        default_factory=lambda: EstablishmentConfig(**_fields("cfg", {}))
    )
    attack: Optional[AttackSpec] = None
    trials: int = _key("trials").default
    seed: int = _key("seed").default
    output_path: Optional[str] = None
    output_format: str = _key("output", "format").default
    game: Optional[GameSpec] = None
    filters_enabled: bool = _key("filters_enabled").default
    measure_fidelity: bool = _key("measure_fidelity").default
    sweep_param: Optional[str] = None
    sweep_values: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        _key("scenario").check(self.scenario)
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ValueError(f"trials must be between 1 and {MAX_TRIALS}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        _key("output", "format").check(self.output_format)
        if self.output_path is not None:
            _check_output_path(self.output_path)
        if self.scenario in ("establish", "qsdc") and self.cfg.parties != 2:
            raise ValueError(f"the {self.scenario} scenario runs between two end parties")
        if self.scenario == "game" and self.game is None:
            self.game = GameSpec()
        if self.attack is not None:
            if not self.attack.detection_check.before_establishment and self.scenario != "qsdc":
                raise ValueError(
                    f"{attack_label(self.attack)} acts on the message relay; "
                    "run it under the qsdc scenario"
                )
            if self.attack.kind is AttackKind.ENTANGLEMENT_SWAP and self.cfg.parties != 2:
                raise ValueError("the corrupted source substitutes two-party pairs only")
        if self.sweep_param is None and self.sweep_values is not None:
            raise ValueError(
                "sweep values were given without a sweep param; a sweep needs "
                "--param and --values (or a config whose sweep block has both)"
            )
        points = [self.cfg]
        if self.sweep_param is not None:
            _key("sweep", "param").check(self.sweep_param)
            if not self.sweep_values:
                raise ValueError("sweep_values must be a non-empty list")
            # Reject a bad point before any point of the sweep runs.
            points += [_sweep_point_cfg(self, value) for value in self.sweep_values]
        if self.scenario in RUN_SCENARIOS:
            # Checked pairs are consumed, so a run must keep at least one unchecked pair.
            for point in points:
                c, m = point.checked_count, point.m_pairs
                if c >= m:
                    raise ValueError(
                        f"cannot spot-check {c} of {m} positions in a {self.scenario} run"
                    )


def _check_output_path(path) -> None:
    """Reject a report path that cannot be written, before any trial runs."""
    if not isinstance(path, str) or not path:
        raise ValueError(f"output path must be a file name, got {path!r}")
    if os.path.isdir(path):
        raise ValueError(f"output path {path!r} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"output directory {parent!r} does not exist")


def _read_json_config(fh) -> object:
    """``json.load``, except that a key given twice in one object is a ValueError,
    and so is nesting too deep for the parser.

    The error names the key and the section it sits in (``config`` for the top
    level).  Objects are built innermost first, so a section's repeat is held
    until the object around it names the section.
    """
    held: Dict[int, Tuple[dict, str]] = {}  # id of an object with a repeat -> (it, the key)

    def build(pairs: List[Tuple[str, object]]) -> dict:
        obj: dict = {}
        for key, value in pairs:
            inner = held.pop(id(value), None)
            if inner is not None and id(obj) not in held:  # else obj's own repeat came first
                raise ValueError(f"repeated key {inner[1]!r} in {key}")
            if key in obj and id(obj) not in held:
                held[id(obj)] = (obj, key)
            obj[key] = value
        return obj

    try:
        data = json.load(fh, object_pairs_hook=build)
    except RecursionError:
        raise ValueError("config nests too deeply") from None
    if held:
        _, key = next(iter(held.values()))
        raise ValueError(f"repeated key {key!r} in config")
    return data


def load_config(
    path: Optional[str],
    flags: Optional[Dict[Tuple[str, ...], object]] = None,
    scenario: Optional[str] = None,
) -> ExperimentConfig:
    """Build an experiment from a JSON file, flag values laid over it, or both.

    ``flags`` maps ``CONFIG_KEYS`` paths to values that override the file's.
    ``scenario`` is the scenario a CLI command fixes, if any; a file naming
    another is an error.  So are unknown keys, a key given twice in one
    object, values of the wrong JSON type, and keys that the run's scenario
    does not read.
    """
    data, flags = {}, flags or {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            data = _read_json_config(fh)
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
    _check_keys(data, _READERS, "config")
    values: Dict[Tuple[str, ...], object] = {}
    for name, value in data.items():
        if (name,) in _KEYS:
            values[(name,)] = _KEYS[(name,)].read(value)
            continue
        _check_keys(value, [p[1] for p in _KEYS if p[0] == name], name)
        for sub, item in value.items():
            values[(name, sub)] = _KEYS[(name, sub)].read(item)
    named = values.get(("scenario",), scenario)
    if scenario is not None and named != scenario:
        raise ValueError(
            f"scenario must be {scenario!r} under the {scenario} command, got {named!r}"
        )
    values.update(flags)
    run = values.setdefault(("scenario",), scenario or _key("scenario").default)
    _key("scenario").check(run)
    for name in dict.fromkeys([*data, *(p[0] for p in flags)]):
        if run not in _READERS[name]:
            raise ValueError(f"{name} must be left out: the {run} scenario does not read it")
    sweep = [values.get(("sweep", sub)) for sub in ("param", "values")]
    if "sweep" in data and sweep == [None, None]:
        raise ValueError(
            "the sweep block names neither a param nor values; a sweep needs both, "
            "or leave the block out"
        )
    return ExperimentConfig(
        **_fields(None, values),
        cfg=EstablishmentConfig(**_fields("cfg", values)),
        game=GameSpec(**_fields("game", values)) if run == "game" else None,
    )
