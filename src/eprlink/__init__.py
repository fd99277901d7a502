"""Simulator for mediated entanglement establishment and direct quantum messaging.

Two relay nodes (TP1, TP2) help two strangers (Alice, Bob) end up holding
shared maximally entangled pairs, verified by decoy-photon discussions and a
correlation spot check.  On top of the established pairs rides a dense-coding
message relay.  The package also ships an adversary library and a Monte Carlo
harness that compares empirical eavesdropping-detection rates against the
closed-form values.
"""

from .qcore import (
    Basis,
    BellOutcome,
    MeasurementOutcome,
    PauliCode,
    QuantumRegister,
    QubitRef,
    StateVector,
    attempt_clone_unitary,
    is_bell_product,
)
from .channels import (
    ALICE,
    BOB,
    EVE,
    TP1,
    TP2,
    ClassicalMessage,
    Network,
    PartyId,
    QuantumMessage,
    Topology,
    Transcript,
    TrojanTag,
    participant,
)
from .protocol import (
    EstablishmentConfig,
    EstablishmentOutcome,
    RunStatus,
    run_establishment,
    run_multiparty,
)
from .qsdc import Message, QsdcOutcome, mac_protect, mac_verify, run_qsdc
from .adversaries import (
    AttackKind,
    AttackSpec,
    NoAnalyticOracle,
    analytic_detection,
    build_adversary,
)
from .harness import (
    AggregateReport,
    ExperimentConfig,
    GameError,
    GameInstance,
    GameResult,
    GameSpec,
    TrialReport,
    attack_from_name,
    emit_report,
    gate_false_fail,
    load_config,
    run_distinguishing_game,
    run_experiment,
    run_sweep,
    run_trial,
)

__version__ = "0.1.0"
