"""Per-layer tracing for the eprlink benchmark, installed from outside the package.

The layers are the package's modules: qcore, channels, protocol, qsdc,
adversaries, harness and cli.  A traced run replaces each public call into a
layer with a wrapper that opens a span around it, then puts every original
back.  Nothing under ``src/`` is edited, and the wrappers read only the clock,
so a traced run draws the same random numbers as an untraced one.

Spans are not stored.  Each one adds its duration to its parent's child time
when it closes, so a layer's self time (its spans minus the part their child
spans cover) is known when the run ends without keeping a span list in memory.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Union

LAYERS = ("qcore", "channels", "protocol", "qsdc", "adversaries", "harness", "cli")

# Trial boundaries: a span that is one whole trial, or the first and last call
# of a game instance.
TRIAL_WHOLE, TRIAL_BEGIN, TRIAL_END = "whole", "begin", "end"

_QCORE_METHODS = (
    "__init__",
    "prepare_single",
    "prepare_epr_pair",
    "prepare_ghz",
    "apply_pauli",
    "apply_hadamard",
    "apply_cnot",
    "apply_two_qubit_unitary",
    "measure",
    "bell_measure",
    "discard",
    "reduced_density",
    "state_fidelity",
    "is_live",
    "live_qubits",
)
_CHANNEL_METHODS = (
    "__init__",
    "add_interceptor",
    "plant_tag",
    "tags_on",
    "scan_trojan",
    "send_quantum",
    "send_classical",
)
_ADVERSARY_METHODS = (
    "__init__",
    "quantum_taps",
    "on_quantum_in_flight",
    "on_classical_observed",
    "on_relay_payload",
    "make_payload_group",
    "guessed_bits",
    "ancilla_outcomes",
    "trojan_leak",
    "measure_probes",
)


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` is a call into ``layer``.

    ``span`` names the span; a callable derives the name from the call's
    arguments (the protocol stages are keyed by their ``stage`` argument).
    """

    owner: object
    attr: str
    layer: str
    span: Union[str, Callable[..., str]]
    trial: Optional[str] = None


def _stage_span(self, checker, holder, stage, *args, **kwargs) -> str:
    return "stage." + stage


def targets() -> List[Target]:
    """Every public call into a layer, bound where its callers look it up.

    A function imported by name into another module is wrapped in that
    module's namespace, because that is the binding its caller reads.
    """
    from eprlink import adversaries, channels, cli, harness, protocol, qcore, qsdc

    out = [
        Target(cli, "main", "cli", "cli.main"),
        Target(cli, "emit_report", "cli", "cli.report"),
        Target(cli, "load_config", "harness", "harness.load_config"),
        Target(cli, "run_experiment", "harness", "harness.run_experiment"),
        Target(cli, "run_sweep", "harness", "harness.run_sweep"),
        Target(harness, "run_experiment", "harness", "harness.run_experiment"),
        Target(harness, "_trial_establish", "harness", "harness.trial", TRIAL_WHOLE),
        Target(harness, "_trial_qsdc", "harness", "harness.trial", TRIAL_WHOLE),
        Target(harness.GameInstance, "__init__", "harness", "harness.game_instance", TRIAL_BEGIN),
        Target(harness.GameInstance, "judge", "harness", "harness.game_judge", TRIAL_END),
        Target(harness, "build_adversary", "adversaries", "adversaries.build_adversary"),
        Target(harness, "run_establishment", "protocol", "protocol.run_establishment"),
        Target(harness, "run_multiparty", "protocol", "protocol.run_multiparty"),
        Target(harness, "ghz_target_vector", "protocol", "protocol.ghz_target_vector"),
        Target(harness, "run_qsdc", "qsdc", "qsdc.run_qsdc"),
        Target(qsdc, "_run", "protocol", "protocol.run"),
        Target(qsdc, "encode_message", "qsdc", "stage.encode"),
        Target(qsdc, "decode_pairs", "qsdc", "stage.decode"),
        Target(protocol.Session, "__init__", "protocol", "protocol.session"),
        Target(
            protocol.Session,
            "build_decoyed_sequence",
            "protocol",
            "protocol.build_decoyed_sequence",
        ),
        Target(protocol.Session, "run_decoy_discussion", "protocol", _stage_span),
    ]
    out += [
        Target(qcore.QuantumRegister, name, "qcore", "qcore." + name.strip("_"))
        for name in _QCORE_METHODS
    ]
    out += [
        Target(channels.Network, name, "channels", "channels." + name.strip("_"))
        for name in _CHANNEL_METHODS
    ]
    for cls in [adversaries.Adversary, *adversaries.Adversary.__subclasses__()]:
        out += [
            Target(cls, name, "adversaries", "adversaries." + name.strip("_"))
            for name in _ADVERSARY_METHODS
            if name in vars(cls)
        ]
    return out


class Tracer:
    """Span accounting for one traced batch.

    Use as a context manager: entering installs the wrappers, leaving puts
    every original attribute back, even when the batch raised.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.trial_s: List[float] = []
        self._stack: List[List[float]] = [[0.0]]
        self._trial_t0 = 0.0
        self._saved: List[tuple] = []

    def __enter__(self) -> "Tracer":
        for t in targets():
            original = vars(t.owner)[t.attr]
            self._saved.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, self._wrap(original, t))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn: Callable, t: Target) -> Callable:
        stack, self_s, calls, total_s = self._stack, self.self_s, self.calls, self.total_s
        layer, span, trial = t.layer, t.span, t.trial
        named = isinstance(span, str)

        def traced(*args, **kwargs):
            name = span if named else span(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            if trial == TRIAL_BEGIN:
                self._trial_t0 = t0
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                d = t1 - t0
                stack.pop()
                stack[-1][0] += d
                self_s[layer] += d - frame[0]
                calls[name] += 1
                total_s[name] += d
                if trial == TRIAL_WHOLE:
                    self.trial_s.append(d)
                elif trial == TRIAL_END:
                    self.trial_s.append(t1 - self._trial_t0)

        traced.__wrapped__ = fn
        return traced

    def metrics(self, trials: int) -> Dict[str, float]:
        """Per-layer numbers for a batch of ``trials`` trials (or game instances)."""
        calls, total_s = self.calls, self.total_s

        def per_trial(name: str) -> float:
            return calls[name] / trials

        def us_per_call(name: str) -> float:
            return 1e6 * total_s[name] / calls[name] if calls[name] else 0.0

        def ms_per_trial(name: str) -> float:
            return 1e3 * total_s[name] / trials

        out = {f"{layer}.self_ms_per_trial": 1e3 * self.self_s[layer] / trials for layer in LAYERS}
        trial_ms = sorted(1e3 * s for s in self.trial_s)
        out.update(
            {
                "qcore.measure.calls_per_trial": per_trial("qcore.measure"),
                "qcore.measure.us_per_call": us_per_call("qcore.measure"),
                "qcore.discard.us_per_call": us_per_call("qcore.discard"),
                "qcore.prepare.calls_per_trial": sum(
                    per_trial(n)
                    for n in ("qcore.prepare_single", "qcore.prepare_epr_pair", "qcore.prepare_ghz")
                ),
                "qcore.bell_measure.calls_per_trial": per_trial("qcore.bell_measure"),
                "qcore.bell_measure.us_per_call": us_per_call("qcore.bell_measure"),
                "qcore.state_fidelity.us_per_call": us_per_call("qcore.state_fidelity"),
                "channels.send_quantum.calls_per_trial": per_trial("channels.send_quantum"),
                "channels.send_classical.calls_per_trial": per_trial("channels.send_classical"),
                "protocol.build_decoyed_sequence.us_per_call": us_per_call(
                    "protocol.build_decoyed_sequence"
                ),
                "stage.decoy_check.ms_per_trial": ms_per_trial("stage.decoy_check"),
                "stage.relay_in_check.ms_per_trial": ms_per_trial("stage.relay_in_check"),
                "stage.relay_out_check.ms_per_trial": ms_per_trial("stage.relay_out_check"),
                "stage.encode.ms_per_trial": ms_per_trial("stage.encode"),
                "stage.decode.ms_per_trial": ms_per_trial("stage.decode"),
                "adversaries.on_quantum_in_flight.calls_per_trial": per_trial(
                    "adversaries.on_quantum_in_flight"
                ),
                "harness.trial_ms_p50": statistics.median(trial_ms) if trial_ms else 0.0,
                "harness.trial_ms_p99": _percentile(trial_ms, 0.99),
                "cli.report_ms": 1e3 * total_s["cli.report"],
            }
        )
        return out


def _percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[rank - 1]
