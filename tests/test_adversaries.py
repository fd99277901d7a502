"""Attack-library tests: descriptor validation, detection oracles, probe scoring,
and empirical detection rates checked against the oracles at three standard errors."""

import math
import warnings

import numpy as np
import pytest

from eprlink.channels import ALICE, BOB, EVE, TP1, TP2, TrojanKind
from eprlink.protocol import EstablishmentConfig, RunStatus, run_establishment, run_multiparty
from eprlink.qcore import (
    Basis,
    BellOutcome,
    PauliCode,
    QuantumRegister,
    SINGLE_STATE_LABELS,
    cnot_matrix,
    state_vector_for_label,
)
from eprlink.qsdc import Message, run_qsdc
from eprlink.adversaries import (
    ATTACK_NAMES,
    Adversary,
    AttackKind,
    AttackSpec,
    CorrelationElicitation,
    DenseCodingSubstitution,
    EntangleMeasure,
    EntanglementSwapSource,
    InterceptResend,
    Modification,
    TrojanHorse,
    attack_from_name,
    build_adversary,
    dense_coding_detection,
    entanglement_swap_detection,
    intercept_resend_detection,
    modification_detection,
    partial_probe_unitary,
    passive_probe_unitary,
    pauli_disturbance_table,
    probe_decoy_detection,
    probe_disturbance,
    probe_guessing,
    probe_interaction_scores,
    random_probe_unitary,
    swap_check_pass_table,
    swap_per_position_pass_probability,
    uniform_pauli_decoy_miss,
)


def three_sigma(p: float, trials: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / trials)


# --- attack descriptor validation ------------------------------------------------


_CNOT = tuple(map(tuple, cnot_matrix().tolist()))
_NOT_UNITARY = tuple(map(tuple, np.eye(4)[[0, 1, 2, 2]].tolist()))


@pytest.mark.parametrize(
    "kwargs,actor,edge,site",
    [
        (dict(kind=AttackKind.INTERCEPT_RESEND), TP2, (TP1, ALICE), "step2"),
        (dict(kind=AttackKind.ENTANGLE_MEASURE), EVE, (TP1, ALICE), "step2"),
        (dict(kind=AttackKind.ENTANGLEMENT_SWAP), TP1, None, "step3"),
        (dict(kind=AttackKind.CORRELATION_ELICITATION), TP2, (TP1, BOB), "step2"),
        (dict(kind=AttackKind.DENSE_CODING), EVE, (TP1, ALICE), "step2"),
        (dict(kind=AttackKind.MODIFICATION), EVE, (ALICE, TP2), "step5"),
        (
            dict(kind=AttackKind.MODIFICATION, strategy="all_slots", edge=(TP2, BOB)),
            EVE,
            (TP2, BOB),
            "step7",
        ),
        (dict(kind=AttackKind.MODIFICATION, strategy="tp2_decoy_aware"), TP2, None, "mac"),
        (dict(kind=AttackKind.TROJAN_HORSE), EVE, (TP1, ALICE), "step2"),
    ],
)
def test_spec_defaults_and_detection_site(kwargs, actor, edge, site):
    spec = AttackSpec(**kwargs)
    assert spec.actor == actor
    assert spec.edge == edge
    assert spec.detection_site == site


def test_modification_default_strategy():
    assert AttackSpec(kind=AttackKind.MODIFICATION).strategy == "single_slot"


def test_trojan_default_kind():
    assert AttackSpec(kind=AttackKind.TROJAN_HORSE).trojan is TrojanKind.INVISIBLE_PHOTON


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(kind=AttackKind.ENTANGLEMENT_SWAP, actor=TP2), "only TP1"),
        (dict(kind=AttackKind.ENTANGLEMENT_SWAP, edge=(TP1, ALICE)), "not an edge attack"),
        (dict(kind=AttackKind.CORRELATION_ELICITATION, actor=EVE), "TP2 attack"),
        (dict(kind=AttackKind.CORRELATION_ELICITATION, edge=(TP1, ALICE)), "TP2 attack"),
        (dict(kind=AttackKind.DENSE_CODING, actor=TP2), "Eve's"),
        (dict(kind=AttackKind.DENSE_CODING, edge=(TP2, BOB)), "Eve's"),
        (dict(kind=AttackKind.MODIFICATION, strategy="bogus"), "unknown modification"),
        (
            dict(kind=AttackKind.MODIFICATION, strategy="tp2_decoy_aware", actor=EVE),
            "decoy-aware",
        ),
        (
            dict(kind=AttackKind.MODIFICATION, strategy="tp2_decoy_aware", edge=(ALICE, TP2)),
            "decoy-aware",
        ),
        (dict(kind=AttackKind.MODIFICATION, edge=(TP1, ALICE)), "relay leg"),
        (dict(kind=AttackKind.INTERCEPT_RESEND, edge=(ALICE, BOB)), "not a quantum channel"),
        (dict(kind=AttackKind.INTERCEPT_RESEND, actor=ALICE), "endpoint"),
        (dict(kind=AttackKind.TROJAN_HORSE, actor=TP1, edge=(TP1, BOB)), "endpoint"),
        (dict(kind=AttackKind.DENSE_CODING, trojan=TrojanKind.DELAY_PHOTON), "trojan must be"),
        (dict(kind=AttackKind.TROJAN_HORSE, strategy="all_slots"), "strategy must be"),
        (dict(kind=AttackKind.INTERCEPT_RESEND, unitary=_CNOT), "unitary must be"),
        (dict(kind=AttackKind.MODIFICATION, unitary=_CNOT), "unitary must be"),
        (dict(kind=AttackKind.ENTANGLE_MEASURE, strategy="all_slots"), "strategy must be"),
        (dict(kind=AttackKind.ENTANGLE_MEASURE, unitary=((1, 0), (0, 1))), "4x4 matrix"),
        (dict(kind=AttackKind.ENTANGLE_MEASURE, unitary=_NOT_UNITARY), "not unitary"),
        (dict(kind="blitz"), "not a valid AttackKind"),
    ],
)
def test_spec_rejects_misdeclared_attacks(kwargs, match):
    with pytest.raises(ValueError, match=match):
        AttackSpec(**kwargs)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_a_non_finite_probe_unitary_is_rejected_without_a_numpy_warning(value):
    bad = np.eye(4, dtype=complex)
    bad[3, 0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="unitary must be a 4x4 unitary matrix: .*finite"):
            AttackSpec(kind=AttackKind.ENTANGLE_MEASURE, unitary=tuple(map(tuple, bad)))


@pytest.mark.parametrize(
    "spec,cls",
    [
        (AttackSpec(kind=AttackKind.INTERCEPT_RESEND), InterceptResend),
        (AttackSpec(kind=AttackKind.ENTANGLE_MEASURE), EntangleMeasure),
        (AttackSpec(kind=AttackKind.ENTANGLEMENT_SWAP), EntanglementSwapSource),
        (AttackSpec(kind=AttackKind.CORRELATION_ELICITATION), CorrelationElicitation),
        (AttackSpec(kind=AttackKind.DENSE_CODING), DenseCodingSubstitution),
        (AttackSpec(kind=AttackKind.MODIFICATION, strategy="all_slots"), Modification),
        (AttackSpec(kind=AttackKind.TROJAN_HORSE), TrojanHorse),
    ],
)
def test_build_adversary_dispatch(spec, cls):
    adv = build_adversary(spec)
    assert isinstance(adv, cls)
    assert adv.actor == spec.actor


def test_build_adversary_instances_are_fresh():
    spec = AttackSpec(kind=AttackKind.INTERCEPT_RESEND)
    a, b = build_adversary(spec), build_adversary(spec)
    assert a is not b


def test_build_adversary_custom_probe_unitary():
    u = partial_probe_unitary(math.pi / 3)
    spec = AttackSpec(kind=AttackKind.ENTANGLE_MEASURE, unitary=tuple(map(tuple, u)))
    adv = build_adversary(spec)
    assert isinstance(adv, EntangleMeasure)
    assert np.allclose(adv.unitary, u)


def test_only_swap_supplies_the_source():
    assert build_adversary(AttackSpec(kind=AttackKind.ENTANGLEMENT_SWAP)).supplies_source
    assert not build_adversary(AttackSpec(kind=AttackKind.INTERCEPT_RESEND)).supplies_source


def test_overriding_make_payload_group_is_what_supplies_the_source():
    """A subclass that defines only ``make_payload_group`` makes every payload group; a
    plain subclass leaves them to TP1.  The base method is TP1's honest source, so both
    runs repeat the honest run's bytes."""

    class Source(Adversary):
        def __init__(self, actor):
            super().__init__(actor)
            self.asked = []

        def make_payload_group(self, net, parties):
            self.asked.append(parties)
            return super().make_payload_group(net, parties)

    class Plain(Adversary):
        pass

    cfg = EstablishmentConfig(m_pairs=5, n_decoys=2, parties=3)
    honest = run_multiparty(cfg, rng=np.random.default_rng(41)).to_json()
    source, plain = Source(TP1), Plain(TP1)
    assert source.supplies_source and not plain.supplies_source
    assert not Adversary(TP1).supplies_source
    assert run_multiparty(cfg, source, rng=np.random.default_rng(41)).to_json() == honest
    assert source.asked == [3] * cfg.m_pairs
    assert run_multiparty(cfg, plain, rng=np.random.default_rng(41)).to_json() == honest


def test_taps_are_the_spec_edge_then_the_step5_leg():
    """Each built adversary taps its spec's edge, then the step-5 leg if it reads the message there."""
    step5_leg = RunStatus.ABORTED_STEP5.edges[0]
    specs = [attack_from_name(name) for name in ATTACK_NAMES]
    for kind in AttackKind:
        for edge in [(TP1, ALICE), (TP1, BOB), (ALICE, TP2), (TP2, BOB)]:
            try:
                specs.append(AttackSpec(kind=kind, actor=EVE, edge=edge))
            except ValueError:
                continue
    reads_step5 = {AttackKind.ENTANGLEMENT_SWAP, AttackKind.DENSE_CODING, AttackKind.TROJAN_HORSE}
    for spec in specs:
        taps = build_adversary(spec).taps
        own = () if spec.edge is None else (spec.edge,)
        assert type(taps) is tuple
        assert taps == own + ((step5_leg,) if spec.kind in reads_step5 else ()), spec


# --- closed-form detection oracles -------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 20])
def test_measure_resend_oracle(n):
    assert intercept_resend_detection(n) == pytest.approx(1.0 - 0.75**n, abs=1e-12)


@pytest.mark.parametrize("n", [0, 1, 4, 9])
def test_probe_copy_oracle(n):
    # The CNOT-probe attack shares the measure-and-resend closed form.
    assert intercept_resend_detection(n) == pytest.approx(1.0 - 0.75**n, abs=1e-12)


@pytest.mark.parametrize("n", [0, 1, 3, 8])
def test_pair_substitution_oracle(n):
    assert dense_coding_detection(n) == pytest.approx(1.0 - 0.5**n, abs=1e-12)


@pytest.mark.parametrize("c", [1, 2, 4, 8])
def test_corrupted_source_oracle(c):
    assert entanglement_swap_detection(c) == pytest.approx(1.0 - 0.5**c, abs=1e-12)


def test_swap_check_pass_table_matches_hand_enumeration():
    # A pair steered to phi+ agrees in both bases; phi- only in the computational
    # basis; psi+ only in the diagonal basis; psi- in neither.
    expected = {
        BellOutcome.PHI_PLUS: {Basis.Z: 1.0, Basis.X: 1.0},
        BellOutcome.PHI_MINUS: {Basis.Z: 1.0, Basis.X: 0.0},
        BellOutcome.PSI_PLUS: {Basis.Z: 0.0, Basis.X: 1.0},
        BellOutcome.PSI_MINUS: {Basis.Z: 0.0, Basis.X: 0.0},
    }
    table = swap_check_pass_table()
    assert set(table) == set(expected)
    for outcome, row in expected.items():
        for basis, value in row.items():
            assert table[outcome][basis] == pytest.approx(value, abs=1e-12)


def test_swap_per_position_pass_probability_is_half():
    assert swap_per_position_pass_probability() == pytest.approx(0.5, abs=1e-12)


def test_pauli_disturbance_table_matches_hand_enumeration():
    # Identity never disturbs; the phase flip breaks diagonal states; the bit
    # flip breaks computational states; the combined flip breaks all four.
    expected = {
        PauliCode.I: {"0": 0.0, "1": 0.0, "+": 0.0, "-": 0.0},
        PauliCode.Z: {"0": 0.0, "1": 0.0, "+": 1.0, "-": 1.0},
        PauliCode.X: {"0": 1.0, "1": 1.0, "+": 0.0, "-": 0.0},
        PauliCode.IY: {"0": 1.0, "1": 1.0, "+": 1.0, "-": 1.0},
    }
    table = pauli_disturbance_table()
    assert set(table) == {
        (code, label) for code in expected for label in SINGLE_STATE_LABELS
    }
    for (code, label), value in table.items():
        assert value == pytest.approx(expected[code][label], abs=1e-12), (code, label)


def test_uniform_pauli_decoy_miss_is_half():
    assert uniform_pauli_decoy_miss() == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_modification_oracle_all_slots(n):
    assert modification_detection("all_slots", n, 10) == pytest.approx(1.0 - 0.5**n, abs=1e-12)


@pytest.mark.parametrize(
    "n,payload,expected",
    [(4, 4, 0.25), (4, 12, 0.125), (1, 0, 0.5), (0, 5, 0.0), (0, 0, 0.0)],
)
def test_modification_oracle_single_slot(n, payload, expected):
    assert modification_detection("single_slot", n, payload) == pytest.approx(
        expected, abs=1e-12
    )


@pytest.mark.parametrize("payload", [1, 3, 8])
def test_modification_oracle_decoy_aware(payload):
    assert modification_detection("tp2_decoy_aware", 7, payload) == pytest.approx(
        1.0 - 0.25**payload, abs=1e-12
    )


def test_modification_oracle_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        modification_detection("everything", 4, 4)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_probe_decoy_detection_of_bit_copy_probe(n):
    # The bit-copy coupling passes computational decoys untouched and breaks
    # each diagonal decoy half the time: per-decoy catch probability 1/4.
    assert probe_decoy_detection(cnot_matrix(), n) == pytest.approx(1.0 - 0.75**n, abs=1e-12)


# --- probe interaction scoring -----------------------------------------------------


def test_probe_disturbance_of_bit_copy_probe():
    expected = {"0": 0.0, "1": 0.0, "+": 0.5, "-": 0.5}
    for label, value in expected.items():
        assert probe_disturbance(cnot_matrix(), label) == pytest.approx(value, abs=1e-12)


def test_probe_disturbance_identity_is_zero():
    ident = np.eye(4, dtype=complex)
    for label in SINGLE_STATE_LABELS:
        assert probe_disturbance(ident, label) == pytest.approx(0.0, abs=1e-12)
    disturbance, distinguishability = probe_interaction_scores(ident)
    assert disturbance == pytest.approx(0.0, abs=1e-12)
    assert distinguishability == pytest.approx(0.0, abs=1e-12)


def test_probe_disturbance_against_projector_oracle():
    # Independent check: disturbance = 1 - || (<label| ⊗ I) U |label>|0> ||^2
    # computed with explicit projectors instead of the reshape shortcut.
    rng = np.random.default_rng(7)
    for _ in range(50):
        u = random_probe_unitary(rng)
        for label in SINGLE_STATE_LABELS:
            vec = state_vector_for_label(label)
            joint = u @ np.kron(vec, state_vector_for_label("0"))
            keep = np.kron(np.outer(vec, vec.conj()), np.eye(2)) @ joint
            expected = float(np.vdot(keep, joint).real)
            assert probe_disturbance(u, label) == pytest.approx(1.0 - expected, abs=1e-10)


def test_passive_probe_never_disturbs_and_never_learns():
    rng = np.random.default_rng(11)
    for _ in range(60):
        u = passive_probe_unitary(rng)
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-10)
        disturbance, distinguishability = probe_interaction_scores(u)
        assert disturbance < 1e-10
        assert distinguishability < 1e-8


def test_partial_probe_endpoints_and_monotone_tradeoff():
    assert np.allclose(partial_probe_unitary(0.0), np.eye(4), atol=1e-12)
    full_scores = probe_interaction_scores(partial_probe_unitary(math.pi))
    assert full_scores[0] == pytest.approx(0.5, abs=1e-12)
    assert full_scores[1] == pytest.approx(1.0, abs=1e-9)
    thetas = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi]
    scores = [probe_interaction_scores(partial_probe_unitary(t)) for t in thetas]
    for weaker, stronger in zip(scores, scores[1:]):
        assert weaker[0] < stronger[0] + 1e-12
        assert weaker[1] < stronger[1] + 1e-12


def _guessing_bound(unitary, labels):
    """1/2 + sqrt(D(1 - D)), D the mean disturbance of the decoys ``labels``."""
    d = float(np.mean([probe_disturbance(unitary, label) for label in labels]))
    return 0.5 + math.sqrt(d * (1.0 - d))


def _near_identity_unitary(rng):
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    return (v * np.exp(1j * rng.uniform(0.0, 0.5) * w)) @ v.conj().T


def test_probe_guessing_obeys_the_information_disturbance_bound():
    """P_Z <= 1/2 + sqrt(D_X(1 - D_X)), and P_X likewise against D_Z, for any coupling."""
    assert probe_guessing(np.eye(4), Basis.Z) == pytest.approx(0.5, abs=1e-12)
    assert probe_guessing(cnot_matrix(), Basis.Z) == pytest.approx(1.0, abs=1e-12)
    assert probe_guessing(cnot_matrix(), Basis.X) == pytest.approx(0.5, abs=1e-12)
    rng = np.random.default_rng(4100)
    for _ in range(150):
        for u in (
            random_probe_unitary(rng),
            np.kron(random_probe_unitary(rng, 2), random_probe_unitary(rng, 2)),
            _near_identity_unitary(rng),
        ):
            p_z, p_x = probe_guessing(u, Basis.Z), probe_guessing(u, Basis.X)
            assert p_z <= _guessing_bound(u, "+-") + 1e-12
            assert p_x <= _guessing_bound(u, "01") + 1e-12
            # Averaged over the bases, against the disturbance averaged over all four decoys.
            assert (p_z + p_x) / 2 <= _guessing_bound(u, "01+-") + 1e-12


def test_the_partial_probe_meets_the_bound():
    for theta in np.linspace(0.0, math.pi, 61):
        u = partial_probe_unitary(theta)
        assert max(probe_disturbance(u, label) for label in "01") < 1e-15
        # Helstrom success 1/2 + sin(theta/2)/2; the X decoys are disturbed sin^2(theta/4).
        p_z = probe_guessing(u, Basis.Z)
        assert p_z == pytest.approx(0.5 + 0.5 * math.sin(theta / 2), abs=1e-12)
        assert abs(p_z - _guessing_bound(u, "+-")) < 1e-7


def test_random_probe_unitary_is_unitary_and_seeded():
    u1 = random_probe_unitary(np.random.default_rng(3))
    u2 = random_probe_unitary(np.random.default_rng(3))
    u3 = random_probe_unitary(np.random.default_rng(4))
    assert np.allclose(u1, u2)
    assert not np.allclose(u1, u3)
    assert np.allclose(u1 @ u1.conj().T, np.eye(4), atol=1e-10)


def test_zero_disturbance_implies_zero_distinguishability():
    rng = np.random.default_rng(23)
    for _ in range(100):
        u = passive_probe_unitary(rng)
        disturbance, distinguishability = probe_interaction_scores(u)
        if disturbance < 1e-10:
            assert distinguishability < 1e-8


# --- empirical detection rates vs oracles ------------------------------------------


def _establish_rates(spec, cfg, trials, seed):
    """Fractions of runs aborted at the first and second discussion."""
    step2 = step3 = 0
    for child in np.random.SeedSequence(seed).spawn(trials):
        out = run_establishment(cfg, attack=spec, rng=np.random.default_rng(child))
        if out.status is RunStatus.ABORTED_STEP2:
            step2 += 1
        elif out.status is RunStatus.ABORTED_STEP3:
            step3 += 1
    return step2 / trials, step3 / trials


def test_measure_resend_detection_rate():
    cfg = EstablishmentConfig(m_pairs=2, n_decoys=6, check_fraction=0.5)
    spec = AttackSpec(kind=AttackKind.INTERCEPT_RESEND)
    p = intercept_resend_detection(cfg.n_decoys)
    step2, _ = _establish_rates(spec, cfg, 600, seed=101)
    assert abs(step2 - p) <= three_sigma(p, 600)


def test_probe_coupling_detection_rate():
    cfg = EstablishmentConfig(m_pairs=2, n_decoys=6, check_fraction=0.5)
    spec = AttackSpec(kind=AttackKind.ENTANGLE_MEASURE)
    p = probe_decoy_detection(cnot_matrix(), cfg.n_decoys)
    step2, _ = _establish_rates(spec, cfg, 600, seed=103)
    assert abs(step2 - p) <= three_sigma(p, 600)


def test_correlation_probe_detection_rate():
    cfg = EstablishmentConfig(m_pairs=2, n_decoys=4, check_fraction=0.5)
    spec = AttackSpec(kind=AttackKind.CORRELATION_ELICITATION)
    p = intercept_resend_detection(cfg.n_decoys)
    step2, _ = _establish_rates(spec, cfg, 600, seed=107)
    assert abs(step2 - p) <= three_sigma(p, 600)


def test_pair_substitution_detection_rate():
    cfg = EstablishmentConfig(m_pairs=2, n_decoys=3, check_fraction=0.5)
    spec = AttackSpec(kind=AttackKind.DENSE_CODING)
    p = dense_coding_detection(cfg.n_decoys)
    step2, _ = _establish_rates(spec, cfg, 600, seed=109)
    assert abs(step2 - p) <= three_sigma(p, 600)


def test_corrupted_source_detection_rate():
    cfg = EstablishmentConfig(m_pairs=10, n_decoys=2, check_fraction=0.4)
    spec = AttackSpec(kind=AttackKind.ENTANGLEMENT_SWAP)
    p = entanglement_swap_detection(cfg.checked_count)
    step2, step3 = _establish_rates(spec, cfg, 600, seed=113)
    assert step2 == 0.0  # the corrupted source hands out honest-looking decoys
    assert abs(step3 - p) <= three_sigma(p, 600)


def _qsdc_status_rate(spec, cfg, trials, seed, status):
    hits = 0
    for child in np.random.SeedSequence(seed).spawn(trials):
        out = run_qsdc(cfg, attack=spec, rng=np.random.default_rng(child))
        if out.status is status:
            hits += 1
    return hits / trials


def test_scramble_all_slots_detection_rate():
    cfg = EstablishmentConfig(m_pairs=6, n_decoys=4, check_fraction=0.5)
    spec = AttackSpec(kind=AttackKind.MODIFICATION, strategy="all_slots")
    p = modification_detection("all_slots", cfg.n_decoys, cfg.m_pairs - cfg.checked_count)
    rate = _qsdc_status_rate(spec, cfg, 600, 127, RunStatus.ABORTED_STEP5)
    assert abs(rate - p) <= three_sigma(p, 600)


def test_scramble_single_slot_detection_rate():
    cfg = EstablishmentConfig(m_pairs=6, n_decoys=4, check_fraction=0.5)
    spec = AttackSpec(kind=AttackKind.MODIFICATION, strategy="single_slot")
    p = modification_detection("single_slot", cfg.n_decoys, cfg.m_pairs - cfg.checked_count)
    rate = _qsdc_status_rate(spec, cfg, 800, 131, RunStatus.ABORTED_STEP5)
    assert abs(rate - p) <= three_sigma(p, 800)


def test_decoy_aware_scramble_is_caught_by_the_integrity_tag():
    cfg = EstablishmentConfig(m_pairs=6, n_decoys=4, check_fraction=0.5)
    spec = AttackSpec(kind=AttackKind.MODIFICATION, strategy="tp2_decoy_aware")
    p = modification_detection("tp2_decoy_aware", cfg.n_decoys, cfg.m_pairs - cfg.checked_count)
    rate = _qsdc_status_rate(spec, cfg, 600, 137, RunStatus.MAC_REJECTED)
    assert abs(rate - p) <= three_sigma(p, 600)
    # No discussion ever flags it.
    for child in np.random.SeedSequence(139).spawn(60):
        out = run_qsdc(cfg, attack=spec, rng=np.random.default_rng(child))
        assert out.status in (RunStatus.DELIVERED, RunStatus.MAC_REJECTED)


def test_trojan_probes_caught_by_filters():
    cfg = EstablishmentConfig(m_pairs=4, n_decoys=2, check_fraction=0.5)
    spec = AttackSpec(kind=AttackKind.TROJAN_HORSE)
    for kind in TrojanKind:
        spec_k = AttackSpec(kind=AttackKind.TROJAN_HORSE, trojan=kind)
        out = run_qsdc(cfg, attack=spec_k, rng=np.random.default_rng(41))
        assert out.status is RunStatus.ABORTED_STEP2
    rate = _qsdc_status_rate(spec, cfg, 30, 149, RunStatus.ABORTED_STEP2)
    assert rate == 1.0


def test_trojan_probes_leak_only_without_filters():
    cfg = EstablishmentConfig(m_pairs=4, n_decoys=2, check_fraction=0.5)
    spec = AttackSpec(kind=AttackKind.TROJAN_HORSE)
    for seed in range(8):
        adv = build_adversary(spec)
        out = run_qsdc(cfg, attack=adv, rng=np.random.default_rng(seed), filters_enabled=False)
        assert out.status is RunStatus.DELIVERED
        assert adv.leaked
        assert out.decoded == out.message.bits
    adv = build_adversary(spec)
    out = run_qsdc(cfg, attack=adv, rng=np.random.default_rng(99), filters_enabled=True)
    assert not adv.leaked


def test_relay_aborts_name_who_caught_them():
    cfg = EstablishmentConfig(m_pairs=4, n_decoys=2, check_fraction=0.5)
    # A receiver's probe filter catches the photons riding on its incoming leg.
    legs = [((ALICE, TP2), RunStatus.ABORTED_STEP5), ((TP2, BOB), RunStatus.ABORTED_STEP7)]
    for edge, status in legs:
        spec = AttackSpec(kind=AttackKind.TROJAN_HORSE, edge=edge)
        out = run_qsdc(cfg, attack=spec, rng=np.random.default_rng(3))
        assert (out.status, out.detected_by) == (status, edge[1])
        assert out.establishment.detected_by is None  # the establishment succeeded
    # The sender's decoy discussion catches a scrambled first leg.
    spec = AttackSpec(kind=AttackKind.MODIFICATION, strategy="all_slots")
    seen = set()
    for seed in range(30):
        out = run_qsdc(cfg, attack=spec, rng=np.random.default_rng(seed))
        seen.add(out.status)
        expected = {RunStatus.ABORTED_STEP5: ALICE, RunStatus.MAC_REJECTED: BOB}
        assert out.detected_by == expected.get(out.status)
    assert RunStatus.ABORTED_STEP5 in seen


def test_every_qsdc_outcome_names_who_caught_it():
    """An establishment abort keeps its checker, the tag is Bob's, a delivery names nobody."""
    cfg = EstablishmentConfig(m_pairs=4, n_decoys=2, check_fraction=0.5)
    specs = [None, *map(attack_from_name, ATTACK_NAMES)]
    specs.append(AttackSpec(kind=AttackKind.INTERCEPT_RESEND, actor=EVE, edge=(TP2, BOB)))
    statuses = set()
    for spec in specs:
        for seed in range(6):
            out = run_qsdc(cfg, attack=spec, rng=np.random.default_rng(seed))
            statuses.add(out.status)
            if out.status.before_establishment:
                assert out.detected_by is out.establishment.detected_by is not None
            elif out.status is RunStatus.DELIVERED:
                assert out.detected_by is None
            elif out.status is RunStatus.MAC_REJECTED:
                assert out.detected_by == BOB
            else:
                # The leg's receiver finds probe photons; its sender finds bad decoys.
                (sender, receiver), = out.status.edges
                caught_by = receiver if out.detail.startswith("probe") else sender
                assert out.detected_by == caught_by
    assert statuses == set(RunStatus) - {RunStatus.ESTABLISHED}


# --- what the adversary learns ------------------------------------------------------


def test_pair_substitution_reads_message_exactly_without_decoys():
    # With no decoys the first chance to notice the substitution is the pair
    # spot check, which the independent fresh halves still fail half the time
    # per checked position.  Runs that slip past it reach the decode stage,
    # where the stolen halves hand the adversary both encoded bits of every
    # pair while the legitimate readout turns to noise the tag rejects.
    cfg = EstablishmentConfig(m_pairs=6, n_decoys=0, check_fraction=0.2)
    spec = AttackSpec(kind=AttackKind.DENSE_CODING)
    reached = 0
    for child in np.random.SeedSequence(151).spawn(60):
        out = run_qsdc(cfg, attack=spec, rng=np.random.default_rng(child))
        if out.status is RunStatus.ABORTED_STEP3:
            continue
        reached += 1
        assert out.status is RunStatus.MAC_REJECTED  # the relayed pairs were consumed
        assert out.leak_bits_total == 2 * (cfg.m_pairs - cfg.checked_count)
        assert out.leak_bits_correct == out.leak_bits_total
    assert reached >= 10  # about half of 60 runs pass the single checked position


def test_correlation_probe_reads_first_bit_only():
    # Probed payload pairs fail a diagonal-basis spot check half the time, so
    # only runs that pass the pair check reach delivery; on those the second
    # coupling restores the pairs exactly and the message goes through, while
    # the probes reveal the bit-flip half of every encoded group.
    cfg = EstablishmentConfig(m_pairs=6, n_decoys=0, check_fraction=0.5)
    spec = AttackSpec(kind=AttackKind.CORRELATION_ELICITATION)
    delivered = pairs = firsts = seconds = 0
    for child in np.random.SeedSequence(157).spawn(300):
        out = run_qsdc(cfg, attack=spec, rng=np.random.default_rng(child))
        assert out.status in (RunStatus.DELIVERED, RunStatus.ABORTED_STEP3)
        if out.status is RunStatus.DELIVERED:
            assert out.decoded == out.message.bits
            delivered += 1
            pairs += out.leak_pairs
            firsts += out.leak_first_correct
            seconds += out.leak_second_correct
    assert delivered >= 60  # each run passes the pair check with chance (3/4)^3
    assert pairs == delivered * (cfg.m_pairs - cfg.checked_count)
    assert firsts == pairs  # the probe reads the bit-flip component outright
    assert abs(seconds / pairs - 0.5) <= three_sigma(0.5, pairs)


def test_corrupted_source_reads_message_exactly_without_decoys():
    cfg = EstablishmentConfig(m_pairs=9, n_decoys=0, check_fraction=0.1)
    spec = AttackSpec(kind=AttackKind.ENTANGLEMENT_SWAP)
    reached = 0
    for child in np.random.SeedSequence(163).spawn(40):
        out = run_qsdc(cfg, attack=spec, rng=np.random.default_rng(child))
        if out.status is RunStatus.ABORTED_STEP3:
            continue
        reached += 1
        assert out.leak_pairs == cfg.m_pairs - cfg.checked_count
        assert out.leak_bits_correct == out.leak_bits_total == 2 * out.leak_pairs
    assert reached >= 8  # about half of 40 runs pass the single checked position


# --- probe readout mechanics at the register level ----------------------------------


@pytest.mark.parametrize("code", list(PauliCode))
def test_double_coupling_reads_bit_flip_and_restores_the_pair(code):
    # Couple a probe to one half, let the other half be encoded, couple again
    # from the encoded qubit: the probe ends in a computational state equal to
    # the bit-flip component, and the pair returns to the encoded state exactly.
    rng = np.random.default_rng(17)
    for _ in range(4):
        reg = QuantumRegister()
        qa, qb = reg.prepare_epr_pair()
        probe = reg.prepare_single("0")
        reg.apply_cnot(qb, probe)
        reg.apply_pauli(qa, code)
        reg.apply_cnot(qa, probe)
        assert reg.measure(probe, Basis.Z, rng).bit == code.bits[0]
        assert reg.bell_measure(qa, qb, rng).bits == code.bits


# --- probe coupling: the unitary is checked once per adversary ----------------------


@pytest.mark.parametrize("m_pairs, n_decoys", [(1, 0), (10, 10), (20, 4)])
def test_a_probe_adversary_checks_its_unitary_once(monkeypatch, m_pairs, n_decoys):
    from eprlink import adversaries, qcore

    unitary = tuple(map(tuple, partial_probe_unitary(0.7)))
    spec = AttackSpec(kind=AttackKind.ENTANGLE_MEASURE, unitary=unitary)
    cfg = EstablishmentConfig(m_pairs=m_pairs, n_decoys=n_decoys, check_fraction=0.3)
    calls = []
    original = qcore._check_unitary

    def counted(u, dim):
        calls.append(dim)
        return original(u, dim)

    monkeypatch.setattr(qcore, "_check_unitary", counted)
    monkeypatch.setattr(adversaries, "_check_unitary", counted)
    for child in np.random.SeedSequence(5).spawn(6):
        run_establishment(cfg, attack=spec, rng=np.random.default_rng(child))
    assert calls == [4] * 6
