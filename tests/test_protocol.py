"""Establishment-protocol tests: honest runs, sequencing invariants, aborts."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chisquare

import eprlink
from eprlink.adversaries import (
    ATTACK_NAMES,
    Adversary,
    AttackKind,
    AttackSpec,
    attack_from_name,
    build_adversary,
)
from eprlink.channels import (
    ALICE,
    BOB,
    EVE,
    STAGE_DECOY,
    STAGE_PAIR_CHECK,
    STAGE_RELAY_IN,
    STAGE_RELAY_OUT,
    TP1,
    TP2,
)
from eprlink.protocol import (
    DecoyRecord,
    EstablishmentConfig,
    RunStatus,
    Session,
    ghz_target_vector,
    run_establishment,
    run_multiparty,
    strip_decoys,
)
from eprlink.qcore import LABEL_EXPECTATION, SINGLE_STATE_LABELS, Basis, PauliCode
from eprlink.qsdc import run_qsdc


# --- configuration ---------------------------------------------------------------


@pytest.mark.parametrize(
    "fraction,m,expected",
    [(0.3, 10, 3), (0.4, 10, 4), (0.31, 10, 4), (0.2, 20, 4), (0.5, 7, 4), (0.8, 10, 8)],
)
def test_checked_count_rounds_up(fraction, m, expected):
    cfg = EstablishmentConfig(m_pairs=m, n_decoys=1, check_fraction=fraction)
    assert cfg.checked_count == expected


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(m_pairs=0, n_decoys=1),
        dict(m_pairs=2, n_decoys=-1),
        dict(m_pairs=2, n_decoys=1, check_fraction=0.0),
        dict(m_pairs=2, n_decoys=1, check_fraction=1.0),
        dict(m_pairs=2, n_decoys=1, parties=1),
    ],
)
def test_bad_configs_rejected(kwargs):
    with pytest.raises(ValueError):
        EstablishmentConfig(**kwargs)


def test_a_config_is_frozen_and_replace_recounts_the_checked_positions():
    cfg = EstablishmentConfig(m_pairs=10, n_decoys=1, check_fraction=0.3)
    assert cfg.checked_count == 3
    for name, value in [("m_pairs", 20), ("n_decoys", 2), ("check_fraction", 0.5), ("parties", 3)]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
    assert cfg.checked_count == 3
    assert dataclasses.replace(cfg, m_pairs=20).checked_count == 6
    assert dataclasses.replace(cfg, check_fraction=0.41).checked_count == 5
    assert cfg == EstablishmentConfig(m_pairs=10, n_decoys=1, check_fraction=0.3)
    with pytest.raises(ValueError):
        dataclasses.replace(cfg, m_pairs=0)


# --- honest runs ------------------------------------------------------------------


def test_honest_run_establishes_good_pairs():
    cfg = EstablishmentConfig(m_pairs=8, n_decoys=6)
    out = run_establishment(cfg, rng=np.random.default_rng(1))
    assert out.status is RunStatus.ESTABLISHED
    assert out.detected_by is None
    assert out.pairs_established == cfg.m_pairs - cfg.checked_count
    target = ghz_target_vector(2)
    reg = out.session.register
    for i in range(out.pairs_established):
        assert reg.state_fidelity(out.pair_group(i), target) >= 1 - 1e-10
    assert reg.max_norm_error() < 1e-10


def test_survivors_partition_the_payload():
    cfg = EstablishmentConfig(m_pairs=10, n_decoys=4, check_fraction=0.3)
    out = run_establishment(cfg, rng=np.random.default_rng(2))
    checked = {e.position for e in out.check_log}
    surviving = set(out.surviving_indices)
    assert len(out.check_log) == cfg.checked_count
    assert checked.isdisjoint(surviving)
    assert checked | surviving == set(range(cfg.m_pairs))
    assert out.surviving_indices == sorted(out.surviving_indices)


def test_only_shared_pairs_stay_live():
    """Decoys and spot-checked qubits are consumed; survivors remain."""
    cfg = EstablishmentConfig(m_pairs=6, n_decoys=5)
    out = run_establishment(cfg, rng=np.random.default_rng(3))
    live = set(out.session.register.live_qubits())
    held = {q for qs in out.shared_pairs.values() for q in qs}
    assert held <= live
    assert len(held) == 2 * out.pairs_established
    # nothing else from the run survives
    assert live == held


def test_outcome_json_schema():
    cfg = EstablishmentConfig(m_pairs=4, n_decoys=2)
    out = run_establishment(cfg, rng=np.random.default_rng(4))
    doc = json.loads(out.to_json())
    assert set(doc) == {"status", "detected_by", "step", "pairs_established", "check_log"}
    assert doc["status"] == "established"
    assert doc["step"] is None
    for entry in doc["check_log"]:
        assert set(entry) == {"position", "basis", "outcomes", "pass"}
        assert entry["pass"] is True


def test_honest_transcript_vocabulary_and_determinism():
    cfg = EstablishmentConfig(m_pairs=5, n_decoys=3)
    out_a = run_establishment(cfg, rng=np.random.default_rng(9))
    out_b = run_establishment(cfg, rng=np.random.default_rng(9))
    text_a = out_a.session.net.transcript.to_jsonl()
    assert text_a == out_b.session.net.transcript.to_jsonl()
    kinds = {e.kind for e in out_a.session.net.transcript}
    assert kinds <= {"quantum_send", "quantum_deliver", "ack", "positions_bases",
                     "measurement_results"}


# --- decoy mechanics ---------------------------------------------------------------


def test_decoy_states_drawn_uniformly():
    session = Session(EstablishmentConfig(m_pairs=1, n_decoys=1), rng=np.random.default_rng(5))
    counts = {(basis, bit): 0 for basis in (Basis.Z, Basis.X) for bit in (0, 1)}
    draws = 8000
    payload = [session.register.prepare_single("0") for _ in range(draws)]
    # one giant sequence exercises the same sampler the protocol uses
    session.cfg = EstablishmentConfig(m_pairs=draws, n_decoys=draws)
    seq, record = session.build_decoyed_sequence(payload)
    assert len(seq) == 2 * draws
    for key in zip(record.bases, record.expected):
        counts[key] += 1
    _, p_value = chisquare(list(counts.values()))
    assert p_value > 1e-4


def test_decoy_positions_cover_all_slots_uniformly():
    """Each slot of the combined sequence is a decoy about half the time."""
    rng = np.random.default_rng(6)
    m = n = 6
    slot_hits = np.zeros(m + n)
    trials = 2000
    for _ in range(trials):
        session = Session(EstablishmentConfig(m_pairs=m, n_decoys=n), rng=rng)
        payload = [session.register.prepare_single("0") for _ in range(m)]
        _seq, record = session.build_decoyed_sequence(payload)
        positions = list(record.positions)
        assert positions == sorted(positions)
        slot_hits[positions] += 1
    rate = slot_hits / trials
    # four-sigma band: twelve slots are tested at once, so leave headroom
    band = 4 * np.sqrt(0.25 / trials)
    assert np.all(np.abs(rate - 0.5) < band)


def test_decoys_preserve_payload_order():
    session = Session(EstablishmentConfig(m_pairs=5, n_decoys=7), rng=np.random.default_rng(8))
    payload = [session.register.prepare_single("0") for _ in range(5)]
    seq, record = session.build_decoyed_sequence(payload)
    decoy_positions = set(record.positions)
    kept = [q for i, q in enumerate(seq) if i not in decoy_positions]
    assert kept == payload


def test_decoy_labels_cover_both_bases():
    # Draws index the labels, so their order is part of the random stream.
    assert SINGLE_STATE_LABELS == ("0", "1", "+", "-")
    assert {basis for basis, _ in LABEL_EXPECTATION.values()} == {Basis.Z, Basis.X}


def _ref_build_decoyed_sequence(session, payload):
    """The slot-by-slot version: one label draw and one preparation per decoy."""
    n = session.cfg.n_decoys
    total = len(payload) + n
    if n:
        positions = sorted(int(p) for p in session.rng.choice(total, size=n, replace=False))
    else:
        positions = []
    slots, bases, bits, sequence = [], [], [], []
    decoy_at = set(positions)
    it = iter(payload)
    for slot in range(total):
        if slot in decoy_at:
            label = SINGLE_STATE_LABELS[int(session.rng.integers(4))]
            basis, bit = LABEL_EXPECTATION[label]
            slots.append(slot)
            bases.append(basis)
            bits.append(bit)
            sequence.append(session.register.prepare_single(label))
        else:
            sequence.append(next(it))
    return sequence, DecoyRecord(tuple(slots), tuple(bases), tuple(bits))


@pytest.mark.parametrize("m,n", [(1, 0), (3, 1), (10, 10), (4, 9), (12, 3)])
def test_build_decoyed_sequence_matches_the_slot_loop(m, n):
    for seed in range(20):
        sessions = [
            Session(EstablishmentConfig(m_pairs=m, n_decoys=n), rng=np.random.default_rng(seed))
            for _ in range(2)
        ]
        payloads = [[s.register.prepare_epr_pair()[0] for _ in range(m)] for s in sessions]
        # An odd number of small-integer draws first leaves a spare half-word
        # buffered in the generator, the state the label draws must respect.
        for s in sessions:
            s.rng.integers(2, size=seed % 3)
        want_seq, want_record = _ref_build_decoyed_sequence(sessions[0], payloads[0])
        got_seq, got_record = sessions[1].build_decoyed_sequence(payloads[1])
        assert got_seq == want_seq
        assert got_record == want_record
        for q in got_seq:
            np.testing.assert_array_equal(
                sessions[1].register._locate(q).amps, sessions[0].register._locate(q).amps
            )
        assert sessions[1].rng.integers(4) == sessions[0].rng.integers(4)
        assert sessions[1].rng.random() == sessions[0].rng.random()


def test_decoy_records_equal_the_reference_records():
    """One record per sequence, its three fields tuples, equal in every session."""
    cfg = EstablishmentConfig(m_pairs=6, n_decoys=6)
    for seed in range(10):
        sessions = [Session(cfg, rng=np.random.default_rng(seed)) for _ in range(3)]
        payloads = [[s.register.prepare_epr_pair()[0] for _ in range(6)] for s in sessions]
        _, want = _ref_build_decoyed_sequence(sessions[0], payloads[0])
        _, got = sessions[1].build_decoyed_sequence(payloads[1])
        _, again = sessions[2].build_decoyed_sequence(payloads[2])
        assert got == want == again
        assert type(got) is DecoyRecord
        assert all(type(column) is tuple and len(column) == 6 for column in got)


def _ref_strip_decoys(sequence, record):
    """The set-and-walk version: keep every slot whose index the record does not name."""
    drop = set(record.positions)
    return [q for i, q in enumerate(sequence) if i not in drop]


@pytest.mark.parametrize("m", [1, 2, 5, 10])
@pytest.mark.parametrize("n", [0, 1, 3, 10])
def test_strip_decoys_equals_the_set_walk_on_built_sequences(m, n):
    for seed in range(10):
        session = Session(EstablishmentConfig(m_pairs=m, n_decoys=n), rng=np.random.default_rng(seed))
        payload = [session.register.prepare_epr_pair()[0] for _ in range(m)]
        sequence, record = session.build_decoyed_sequence(payload)
        assert list(record.positions) == sorted(set(record.positions))
        for seq in (sequence, tuple(sequence)):
            got = strip_decoys(seq, record)
            assert got == _ref_strip_decoys(seq, record) == payload
            assert type(got) is list and got is not seq
        assert len(sequence) == m + n  # the input is left as it was


# --- aborts ---------------------------------------------------------------------------


_QUANTUM_EDGES = [(TP1, ALICE), (TP1, BOB), (ALICE, TP2), (TP2, BOB)]
# The check that compares the decoys on each edge, as the paper numbers its steps.
_EDGE_STEP = {
    (TP1, ALICE): "step2",
    (TP1, BOB): "step2",
    (ALICE, TP2): "step5",
    (TP2, BOB): "step7",
}


def test_run_status_names_the_failed_check():
    assert {status: status.step for status in RunStatus} == {
        RunStatus.ESTABLISHED: None,
        RunStatus.DELIVERED: None,
        RunStatus.ABORTED_STEP2: "step2",
        RunStatus.ABORTED_STEP3: "step3",
        RunStatus.ABORTED_STEP5: "step5",
        RunStatus.ABORTED_STEP7: "step7",
        RunStatus.MAC_REJECTED: "mac",
    }
    # Every attack's catch point is a check some run status ends at, for the
    # named attacks and for each kind moved onto every quantum edge it accepts.
    steps = {status.step for status in RunStatus} - {None}
    specs = [attack_from_name(name) for name in ATTACK_NAMES]
    for kind in AttackKind:
        for edge in _QUANTUM_EDGES:
            try:
                specs.append(AttackSpec(kind=kind, actor=EVE, edge=edge))
            except ValueError:
                continue  # the kind is pinned to its own edge, or to a relay leg
    sites = {spec.detection_site for spec in specs}
    assert sites <= steps
    assert sites == steps  # and every check catches some attack

    # Each discussion's stage label names exactly one check; the tag has none.
    checks = [status for status in RunStatus if status.step is not None]
    stages = [status.stage for status in checks if status is not RunStatus.MAC_REJECTED]
    assert stages == [STAGE_DECOY, STAGE_PAIR_CHECK, STAGE_RELAY_IN, STAGE_RELAY_OUT]
    assert RunStatus.MAC_REJECTED.stage is None
    # Every edge an attack can tap, by its spec or through its hooks, is guarded by one check.
    tapped = {spec.edge for spec in specs if spec.edge is not None}
    tapped |= {edge for spec in specs for edge in build_adversary(spec).taps}
    assert tapped == set(_QUANTUM_EDGES)
    for edge in tapped:
        assert [status for status in RunStatus if edge in status.edges] == [
            status for status in checks if status.step == _EDGE_STEP[edge]
        ]


def test_run_status_step_is_a_member_attribute_following_the_value_rule():
    """Each member stores its step once; it equals the rule that reads it off the value."""
    assert not isinstance(vars(RunStatus).get("step"), property)
    for status in RunStatus:
        assert vars(status)["step"] == status.step
        if status is RunStatus.MAC_REJECTED:
            want = "mac"
        else:
            want = status.value.partition("aborted_")[2] or None
        assert status.step == want
    # Steps 2 and 3 end before establishment does; the relay legs are the edges of the others.
    assert [s for s in RunStatus if s.before_establishment] == [
        RunStatus.ABORTED_STEP2,
        RunStatus.ABORTED_STEP3,
    ]
    relay_legs = []
    for edge in _QUANTUM_EDGES:
        try:
            AttackSpec(kind=AttackKind.MODIFICATION, strategy="all_slots", actor=EVE, edge=edge)
        except ValueError:
            continue  # not a relay leg
        relay_legs.append(edge)
    late = [edge for s in RunStatus if not s.before_establishment for edge in s.edges]
    assert relay_legs == late == [(ALICE, TP2), (TP2, BOB)]


def test_check_names_are_spelled_only_in_the_table():
    """No module but ``channels`` types a step or abort-status name as a string."""
    literal = re.compile(r"""["'](?:aborted_)?step\d["']""")
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(Path(eprlink.__file__).parent.glob("*.py"))
        if path.name != "channels.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if literal.search(line)
    ]
    assert found == []


class _FlipEverything(Adversary):
    """Interceptor that flips every in-flight qubit; every decoy then mismatches."""

    def __init__(self, edge):
        super().__init__(EVE, edge)

    def on_quantum_in_flight(self, net, edge, qubits):
        for q in qubits:
            net.register.apply_pauli(q, PauliCode.IY)
        return qubits


@pytest.mark.parametrize("edge,holder", [((TP1, ALICE), ALICE), ((TP1, BOB), BOB)])
def test_flipped_channel_always_aborts_step2(edge, holder):
    cfg = EstablishmentConfig(m_pairs=3, n_decoys=2)
    out = run_establishment(cfg, _FlipEverything(edge), np.random.default_rng(10))
    assert out.status is RunStatus.ABORTED_STEP2
    assert out.detected_by == TP1
    assert out.status.step == "step2"
    assert str(holder) in out.detail
    assert out.shared_pairs == {} and out.pairs_established == 0
    # the abort notice propagated across the star
    kinds = [e.kind for e in out.session.net.transcript]
    assert kinds.count("abort") >= 3


def test_attack_must_be_a_spec_or_an_adversary():
    class _DuckTyped:
        def on_quantum_in_flight(self, net, edge, qubits):
            return qubits

    with pytest.raises(TypeError):
        run_establishment(EstablishmentConfig(m_pairs=3, n_decoys=2), _DuckTyped())


@pytest.mark.parametrize(
    "entry", [Session, run_establishment, run_multiparty, run_qsdc], ids=lambda f: f.__name__
)
def test_a_run_without_an_explicit_generator_is_refused(entry):
    cfg = EstablishmentConfig(m_pairs=4, n_decoys=2)
    for call in (lambda: entry(cfg), lambda: entry(cfg, rng=None)):
        with pytest.raises(TypeError) as refused:
            call()
        assert str(refused.value) == "a run needs an explicit numpy Generator as rng"


def test_corrupted_source_aborts_at_step3_with_log():
    spec = AttackSpec(AttackKind.ENTANGLEMENT_SWAP)
    cfg = EstablishmentConfig(m_pairs=10, n_decoys=1, check_fraction=0.4)
    seen_step3 = 0
    for seed in range(40):
        out = run_establishment(cfg, spec, np.random.default_rng(seed))
        if out.status is RunStatus.ABORTED_STEP3:
            seen_step3 += 1
            assert out.detected_by == TP2
            assert out.status.step == "step3"
            assert len(out.check_log) == cfg.checked_count
            assert any(not e.passed for e in out.check_log)
        else:
            assert out.status is RunStatus.ESTABLISHED
    # detection chance is 1 - 2^-4 per run; forty misses would be absurd
    assert seen_step3 >= 25


def test_attack_spec_accepted_directly_by_run():
    out = run_establishment(
        EstablishmentConfig(m_pairs=2, n_decoys=8),
        AttackSpec(AttackKind.INTERCEPT_RESEND),
        np.random.default_rng(0),
    )
    assert out.status in (RunStatus.ABORTED_STEP2, RunStatus.ESTABLISHED)


# --- multiparty --------------------------------------------------------------------


def test_multiparty_three_receivers_share_good_triples():
    cfg = EstablishmentConfig(m_pairs=5, n_decoys=3, parties=3)
    out = run_multiparty(cfg, rng=np.random.default_rng(12))
    assert out.established
    assert len(out.shared_pairs) == 3
    target = ghz_target_vector(3)
    reg = out.session.register
    for i in range(out.pairs_established):
        assert reg.state_fidelity(out.pair_group(i), target) >= 1 - 1e-10


def test_two_receiver_multiparty_is_the_two_party_run():
    """Same seed, same everything: transcripts, logs, survivors, measurements."""
    cfg = EstablishmentConfig(m_pairs=7, n_decoys=4)
    a = run_establishment(cfg, rng=np.random.default_rng(77))
    b = run_multiparty(cfg, rng=np.random.default_rng(77))
    assert a.status == b.status
    assert a.surviving_indices == b.surviving_indices
    assert [e.to_json_dict() for e in a.check_log] == [e.to_json_dict() for e in b.check_log]
    assert a.session.net.transcript.to_jsonl() == b.session.net.transcript.to_jsonl()


def test_run_establishment_refuses_more_parties():
    cfg = EstablishmentConfig(m_pairs=2, n_decoys=1, parties=3)
    with pytest.raises(ValueError):
        run_establishment(cfg)


# --- spot-check content ----------------------------------------------------------------


def test_spot_check_announcement_precedes_results():
    """TP2's position/basis announcement reaches everyone before any responses."""
    cfg = EstablishmentConfig(m_pairs=6, n_decoys=2)
    out = run_establishment(cfg, rng=np.random.default_rng(14))
    events = [
        e for e in out.session.net.transcript
        if e.payload_summary.startswith("pair_check")
    ]
    announce_steps = [e.step for e in events if e.kind == "positions_bases"]
    result_steps = [e.step for e in events if e.kind == "measurement_results"]
    assert announce_steps and result_steps
    assert max(announce_steps) < min(result_steps)


def test_spot_check_uses_both_bases_over_time():
    seen = set()
    for seed in range(30):
        cfg = EstablishmentConfig(m_pairs=4, n_decoys=1, check_fraction=0.5)
        out = run_establishment(cfg, rng=np.random.default_rng(seed))
        seen |= {e.basis for e in out.check_log}
    assert seen == {Basis.Z, Basis.X}
