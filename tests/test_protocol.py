"""Establishment-protocol tests: honest runs, sequencing invariants, aborts."""

import json

import numpy as np
import pytest
from scipy.stats import chisquare

from eprlink.adversaries import Adversary
from eprlink.channels import ALICE, BOB, EVE, TP1, TP2
from eprlink.protocol import (
    DECOY_LABELS,
    LABEL_EXPECTATION,
    DecoyRecord,
    EstablishStatus,
    EstablishmentConfig,
    Session,
    ghz_target_vector,
    run_establishment,
    run_multiparty,
)
from eprlink.qcore import Basis, PauliCode


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


# --- honest runs ------------------------------------------------------------------


def test_honest_run_establishes_good_pairs():
    cfg = EstablishmentConfig(m_pairs=8, n_decoys=6)
    out = run_establishment(cfg, rng=np.random.default_rng(1))
    assert out.status is EstablishStatus.ESTABLISHED
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
    session = Session(EstablishmentConfig(m_pairs=1, n_decoys=1, seed=5))
    counts = {(basis, bit): 0 for basis in (Basis.Z, Basis.X) for bit in (0, 1)}
    draws = 8000
    payload = [session.register.prepare_single("0") for _ in range(draws)]
    # one giant sequence exercises the same sampler the protocol uses
    session.cfg = EstablishmentConfig(m_pairs=draws, n_decoys=draws)
    seq, records = session.build_decoyed_sequence(payload)
    assert len(seq) == 2 * draws
    for r in records:
        counts[(r.basis, r.expected_bit)] += 1
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
        _seq, records = session.build_decoyed_sequence(payload)
        positions = [r.position for r in records]
        assert positions == sorted(positions)
        slot_hits[positions] += 1
    rate = slot_hits / trials
    # four-sigma band: twelve slots are tested at once, so leave headroom
    band = 4 * np.sqrt(0.25 / trials)
    assert np.all(np.abs(rate - 0.5) < band)


def test_decoys_preserve_payload_order():
    session = Session(EstablishmentConfig(m_pairs=5, n_decoys=7, seed=8))
    payload = [session.register.prepare_single("0") for _ in range(5)]
    seq, records = session.build_decoyed_sequence(payload)
    decoy_positions = {r.position for r in records}
    kept = [q for i, q in enumerate(seq) if i not in decoy_positions]
    assert kept == payload


def test_decoy_labels_cover_both_bases():
    assert set(DECOY_LABELS) == {"0", "1", "+", "-"}


def _ref_build_decoyed_sequence(session, payload):
    """The slot-by-slot version: one label draw and one preparation per decoy."""
    n = session.cfg.n_decoys
    total = len(payload) + n
    if n:
        positions = sorted(int(p) for p in session.rng.choice(total, size=n, replace=False))
    else:
        positions = []
    records, sequence = [], []
    decoy_at = set(positions)
    it = iter(payload)
    for slot in range(total):
        if slot in decoy_at:
            label = DECOY_LABELS[int(session.rng.integers(4))]
            basis, bit = LABEL_EXPECTATION[label]
            records.append(DecoyRecord(slot, basis, bit))
            sequence.append(session.register.prepare_single(label))
        else:
            sequence.append(next(it))
    return sequence, records


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
        want_seq, want_records = _ref_build_decoyed_sequence(sessions[0], payloads[0])
        got_seq, got_records = sessions[1].build_decoyed_sequence(payloads[1])
        assert got_seq == want_seq
        assert got_records == want_records
        for q in got_seq:
            np.testing.assert_array_equal(
                sessions[1].register._locate(q)[1].amps, sessions[0].register._locate(q)[1].amps
            )
        assert sessions[1].rng.integers(4) == sessions[0].rng.integers(4)
        assert sessions[1].rng.random() == sessions[0].rng.random()


# --- aborts ---------------------------------------------------------------------------


class _FlipEverything(Adversary):
    """Interceptor that flips every in-flight qubit; every decoy then mismatches."""

    def __init__(self, edge):
        super().__init__(EVE, edge)

    def on_quantum_in_flight(self, net, edge, msg):
        for q in msg.qubits:
            net.register.apply_pauli(q, PauliCode.IY)
        return msg


@pytest.mark.parametrize("edge,holder", [((TP1, ALICE), ALICE), ((TP1, BOB), BOB)])
def test_flipped_channel_always_aborts_step2(edge, holder):
    cfg = EstablishmentConfig(m_pairs=3, n_decoys=2)
    out = run_establishment(cfg, _FlipEverything(edge), np.random.default_rng(10))
    assert out.status is EstablishStatus.ABORTED_STEP2
    assert out.detected_by == TP1
    assert out.step == "step2"
    assert str(holder) in out.detail
    assert out.shared_pairs == {} and out.pairs_established == 0
    # the abort notice propagated across the star
    kinds = [e.kind for e in out.session.net.transcript]
    assert kinds.count("abort") >= 3


def test_attack_must_be_a_spec_or_an_adversary():
    class _DuckTyped:
        def on_quantum_in_flight(self, net, edge, msg):
            return msg

    with pytest.raises(TypeError):
        run_establishment(EstablishmentConfig(m_pairs=3, n_decoys=2), _DuckTyped())


def test_corrupted_source_aborts_at_step3_with_log():
    from eprlink.adversaries import AttackKind, AttackSpec

    spec = AttackSpec(AttackKind.ENTANGLEMENT_SWAP)
    cfg = EstablishmentConfig(m_pairs=10, n_decoys=1, check_fraction=0.4)
    seen_step3 = 0
    for seed in range(40):
        out = run_establishment(cfg, spec, np.random.default_rng(seed))
        if out.status is EstablishStatus.ABORTED_STEP3:
            seen_step3 += 1
            assert out.detected_by == TP2
            assert out.step == "step3"
            assert len(out.check_log) == cfg.checked_count
            assert any(not e.passed for e in out.check_log)
        else:
            assert out.status is EstablishStatus.ESTABLISHED
    # detection chance is 1 - 2^-4 per run; forty misses would be absurd
    assert seen_step3 >= 25


def test_attack_spec_accepted_directly_by_run():
    from eprlink.adversaries import AttackKind, AttackSpec

    out = run_establishment(
        EstablishmentConfig(m_pairs=2, n_decoys=8),
        AttackSpec(AttackKind.INTERCEPT_RESEND),
        np.random.default_rng(0),
    )
    assert out.status in (EstablishStatus.ABORTED_STEP2, EstablishStatus.ESTABLISHED)


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
