"""Network fabric tests: topology closure, transcripts, interceptors, filters."""

import dataclasses
import json

import numpy as np
import pytest

from eprlink.adversaries import Adversary, AttackKind, AttackSpec, attack_from_name, build_adversary
from eprlink.channels import (
    ACK,
    ALICE,
    BOB,
    EVE,
    TP1,
    TP2,
    AbortNotice,
    Ack,
    ChannelContractError,
    Event,
    MacTag,
    MeasurementResults,
    Network,
    PartyId,
    PositionsBases,
    STAGE_DECOY,
    STAGE_PAIR_CHECK,
    Topology,
    TopologyError,
    Transcript,
    end_party_tuple,
    participant,
)
from eprlink.harness import DISCUSSIONS, GameInstance
from eprlink.protocol import EstablishmentConfig, run_establishment
from eprlink.qcore import Basis, QuantumRegister
from eprlink.qsdc import run_qsdc


def _net(seed=0):
    return Network(Topology.for_parties((ALICE, BOB)), QuantumRegister(), np.random.default_rng(seed))


# --- parties and topology ------------------------------------------------------


def test_participants_are_stable():
    assert participant(1) == ALICE
    assert participant(2) == BOB
    assert str(participant(3)) == "P3"
    assert end_party_tuple(3) == (ALICE, BOB, participant(3))


def test_end_party_tuple_is_shared_per_party_count():
    for k in (2, 3, 5):
        assert end_party_tuple(k) is end_party_tuple(k)
        assert end_party_tuple(k) == tuple(participant(i + 1) for i in range(k))
    for k in (1, 0, -1):
        with pytest.raises(ValueError):
            end_party_tuple(k)


def _ref_flood(topo, origin, everyone):
    """The breadth-first flood, rerun per call: each told party tells its untold neighbours."""
    sends, reached, frontier = [], {origin}, [origin]
    while frontier:
        next_frontier = []
        for sender in frontier:
            for p in everyone:
                if p not in reached and topo.linked(sender, p):
                    sends.append((sender, p))
                    reached.add(p)
                    next_frontier.append(p)
        frontier = next_frontier
    return sends


@pytest.mark.parametrize("k", range(2, 11))
def test_each_cached_flood_route_equals_the_breadth_first_search(k):
    parties = end_party_tuple(k)
    topo = Topology.for_parties(parties)
    everyone = (TP1, TP2, *parties)
    for origin in everyone:
        route = topo.flood_route(origin)
        assert list(route) == _ref_flood(topo, origin, everyone)
        assert topo.flood_route(origin) is route
        # Every other participant is told exactly once.
        assert sorted(receiver for _, receiver in route) == sorted(set(everyone) - {origin})


def test_star_topology_edges():
    topo = Topology.for_parties((ALICE, BOB))
    for tp in (TP1, TP2):
        for p in (ALICE, BOB):
            assert topo.linked(tp, p)
            assert topo.linked(p, tp)  # symmetric
    # deliberately missing links
    assert not topo.linked(ALICE, BOB)
    assert not topo.linked(TP1, TP2)


def test_star_topologies_are_shared_per_party_list():
    two = Topology.for_parties((ALICE, BOB))
    assert Topology.for_parties([ALICE, BOB]) is two
    assert Topology.for_parties(end_party_tuple(2)) is two
    assert Topology.for_parties(end_party_tuple(3)) is Topology.for_parties(list(end_party_tuple(3)))
    assert Topology.for_parties(end_party_tuple(3)) is not two
    assert two.parties == (ALICE, BOB)


def test_party_ids_compare_order_and_print_like_their_names():
    p3 = PartyId("P3")
    assert p3 == participant(3) and hash(p3) == hash(participant(3))
    assert PartyId("Alice") == ALICE and ALICE != BOB
    assert ALICE != "Alice" and ALICE != ("Alice",) and not (ALICE == ("Alice",))
    assert sorted([TP2, BOB, p3, ALICE, TP1]) == [ALICE, BOB, p3, TP1, TP2]
    assert str(ALICE) == "Alice" and type(str(ALICE)) is str and f"{TP1}" == "TP1"
    assert ALICE.name == "Alice" and repr(ALICE) == "PartyId(name='Alice')"
    assert {ALICE: 1}[PartyId("Alice")] == 1


def test_edge_checks_agree_with_the_edge_sets():
    parties = end_party_tuple(3)
    topo = Topology.for_parties(parties)
    star = {(tp, p) for tp in (TP1, TP2) for p in parties}
    assert topo.links == star | {(p, tp) for tp, p in star}
    everyone = [TP1, TP2, EVE, *parties]
    for a in everyone:
        for b in everyone:
            assert topo.linked(a, b) == ((a, b) in topo.links)


def test_send_rejects_missing_edges():
    """Only a relay node and an end party share a link; the error names the medium."""
    unlinked = [(TP1, TP2), (TP2, TP1), (ALICE, BOB), (BOB, ALICE), (EVE, ALICE), (TP2, EVE), (EVE, EVE)]
    for sender, receiver in unlinked:
        net = _net()
        q = net.register.prepare_single("0")
        with pytest.raises(TopologyError, match=f"^no quantum channel between {sender} and {receiver}$"):
            net.send_quantum(sender, receiver, [q])
        with pytest.raises(TopologyError, match=f"^no classical channel between {sender} and {receiver}$"):
            net.send_classical(sender, receiver, Ack())
        assert len(net.transcript) == 0


def test_unknown_payload_rejected():
    net = _net()
    with pytest.raises(ChannelContractError):
        net.send_classical(TP1, ALICE, {"free-form": "dict"})
    # A plain tuple shaped like an announcement has no KIND, so it is no payload.
    with pytest.raises(ChannelContractError):
        net.send_classical(TP1, ALICE, (STAGE_DECOY, (0, 1), (Basis.Z, Basis.X)))
    assert len(net.transcript) == 0


def test_payloads_are_immutable():
    # Every field of every payload kind refuses a new value, and no new attribute sticks.
    payloads = [
        Ack("note"),
        PositionsBases(STAGE_DECOY, (0, 1), (Basis.Z, Basis.X)),
        MeasurementResults(STAGE_DECOY, (0, 1)),
        AbortNotice(STAGE_DECOY, "mismatch"),
        MacTag("00ff"),
    ]
    kinds = {p.KIND for p in payloads}
    assert kinds == {"ack", "positions_bases", "measurement_results", "abort", "mac_tag"}
    for payload in payloads:
        fields = type(payload).__annotations__
        assert fields
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(payload, name, "changed")
        with pytest.raises(AttributeError):
            payload.extra = "changed"


# --- transcript -----------------------------------------------------------------


def test_transcript_records_and_serializes():
    net = _net()
    q = net.register.prepare_single("+")
    net.send_quantum(TP1, ALICE, [q])
    net.send_classical(ALICE, TP1, Ack())
    net.send_classical(TP1, ALICE, MeasurementResults(STAGE_DECOY, (0, 1)))
    kinds = [e.kind for e in net.transcript]
    assert kinds == ["quantum_send", "quantum_deliver", "ack", "measurement_results"]

    lines = net.transcript.to_jsonl().splitlines()
    assert len(lines) == 4
    for i, line in enumerate(lines):
        rec = json.loads(line)
        assert set(rec) == {"step", "kind", "from", "to", "payload_summary"}
        assert rec["step"] == i


def test_transcript_reproducible_for_same_seed():
    def round_trip(seed):
        net = _net(seed)
        rng = net.rng
        for _ in range(5):
            q = net.register.prepare_single("+")
            net.send_quantum(TP1, BOB, [q])
            bit = net.register.measure(q, Basis.Z, rng).bit
            net.send_classical(BOB, TP1, MeasurementResults(STAGE_DECOY, (bit,)))
        return net.transcript.to_jsonl()

    assert round_trip(4) == round_trip(4)


def _eager_jsonl(rows):
    """The transcript lines as formatted when every summary was a string built at send time."""
    return "\n".join(
        json.dumps({"step": i, "kind": k, "from": f, "to": t, "payload_summary": summary})
        for i, (k, f, t, summary) in enumerate(rows)
    )


def test_lazy_transcript_serializes_like_eager_summaries():
    net = _net()
    q = net.register.prepare_single("+")
    net.plant_tag(q)
    net.scan_trojan(ALICE, net.send_quantum(TP1, ALICE, [q]))
    rows = [
        ("quantum_send", "TP1", "Alice", "1 qubits"),
        ("quantum_deliver", "TP1", "Alice", "1 qubits"),
        ("trojan_detected", "Alice", "Alice", "1 probe tag(s)"),
    ]
    payloads = [
        Ack(),
        Ack("ready"),
        PositionsBases(STAGE_DECOY, (0, 3, 5), (Basis.Z, Basis.X, Basis.Z)),
        PositionsBases(STAGE_PAIR_CHECK, (), ()),
        MeasurementResults(STAGE_DECOY, (0, 1, 1)),
        AbortNotice(STAGE_PAIR_CHECK, "mismatch"),
        MacTag("0f"),
    ]
    for payload in payloads:
        rows.append((payload.KIND, "Bob", "TP2", payload.summary()))
        net.send_classical(BOB, TP2, payload)
    assert net.transcript.to_jsonl() == _eager_jsonl(rows)
    events = list(net.transcript)
    assert [e.payload_summary for e in events] == [r[3] for r in rows]
    assert [e.payload for e in events[3:]] == payloads
    assert net.transcript.to_jsonl() == _eager_jsonl(rows)


def test_send_classical_defers_the_summary_until_it_is_read():
    @dataclasses.dataclass(frozen=True)
    class Counted:
        KIND = "ack"
        calls: list

        def summary(self):
            self.calls.append(1)
            return "counted"

    net = _net()
    payload = Counted([])
    net.send_classical(ALICE, TP1, payload)
    assert payload.calls == []
    (event,) = net.transcript
    assert event.payload is payload and event.payload_summary == "counted"
    assert len(payload.calls) == 1


def test_log_returns_each_step_and_len_counts_the_sends():
    transcript = Transcript()
    assert len(transcript) == 0 and transcript.events == []
    for step, party in enumerate((ALICE, BOB, TP1, TP2, EVE)):
        assert transcript.log("ack", party, TP1, ACK) == step
        assert len(transcript) == step + 1
    assert [e.step for e in transcript] == [0, 1, 2, 3, 4]
    assert [e.frm for e in transcript] == ["Alice", "Bob", "TP1", "TP2", "Eve"]


def _record_sent_events(monkeypatch):
    """Each transcript's events as built when they were sent, keyed by transcript.

    The reference wraps ``Transcript.log``: it builds
    ``Event(step, kind, frm.name, to.name, payload)`` at every send, and checks
    that ``log`` returns that step.
    """
    reference = {}
    log = Transcript.log

    def recording_log(self, kind, frm, to, payload):
        sent = reference.setdefault(self, [])
        sent.append(Event(len(sent), kind, frm.name, to.name, payload))
        step = log(self, kind, frm, to, payload)
        assert step == sent[-1].step
        return step

    monkeypatch.setattr(Transcript, "log", recording_log)
    return reference


_QSDC_CFG = EstablishmentConfig(m_pairs=6, n_decoys=4, check_fraction=0.5)


@pytest.mark.parametrize(
    "attack, ending",
    [
        (None, "delivered"),
        (AttackSpec(AttackKind.INTERCEPT_RESEND), "aborted_step2"),
        (AttackSpec(AttackKind.TROJAN_HORSE, edge=(ALICE, TP2)), "aborted_step5"),
    ],
    ids=["honest", "intercept_resend", "trojan"],
)
def test_events_equal_the_events_built_at_each_send(monkeypatch, attack, ending):
    reference = _record_sent_events(monkeypatch)
    out = run_qsdc(_QSDC_CFG, attack=attack, rng=np.random.default_rng(3))
    assert out.status.value == ending
    transcript = out.session.net.transcript
    sent = reference[transcript]
    assert any(e.kind == "trojan_detected" for e in sent) == (ending == "aborted_step5")
    assert len(transcript) == len(sent)
    assert transcript.events == sent
    assert list(transcript) == sent
    rows = [(e.kind, e.frm, e.to, e.payload_summary) for e in sent]
    assert transcript.to_jsonl() == _eager_jsonl(rows)


def test_each_read_of_the_events_is_a_fresh_equal_list():
    out = run_qsdc(_QSDC_CFG, rng=np.random.default_rng(4))
    transcript = out.session.net.transcript
    first, second = transcript.events, transcript.events
    assert first == second and first is not second
    count, text = len(transcript), transcript.to_jsonl()
    first.append(first[0])
    del second[:3]
    iterated = list(transcript)
    iterated.clear()
    assert transcript.events == list(transcript) and len(transcript.events) == count
    assert len(transcript) == count and transcript.to_jsonl() == text


@pytest.mark.parametrize("discussion", DISCUSSIONS)
def test_the_game_view_is_every_event_but_the_result_strings(monkeypatch, discussion):
    reference = _record_sent_events(monkeypatch)
    for seed in range(6):
        reference.clear()
        instance = GameInstance(discussion, 5, np.random.default_rng(seed))
        (sent,) = reference.values()
        assert instance.execute() == tuple(e for e in sent if e.kind != "measurement_results")
        assert sent[-1].kind == "measurement_results"


# --- interceptors ----------------------------------------------------------------


class _Recorder(Adversary):
    """Minimal interceptor with configurable taps."""

    def __init__(self, name, taps=()):
        super().__init__(EVE)
        self.name = name
        self.taps = tuple(taps)
        self.saw_quantum = []
        self.saw_classical = []

    def on_quantum_in_flight(self, net, edge, qubits):
        self.saw_quantum.append((self.name, edge))
        return qubits

    def on_classical_observed(self, net, edge, payload):
        self.saw_classical.append(payload.KIND)


def test_interceptors_run_in_registration_order():
    net = _net()
    order = []

    class Tagger(_Recorder):
        def on_quantum_in_flight(self, n, edge, qubits):
            order.append(self.name)
            return qubits

    first = Tagger("first", taps=[(TP1, ALICE)])
    second = Tagger("second", taps=[(TP1, ALICE)])
    net.add_interceptor(first)
    net.add_interceptor(second)
    q = net.register.prepare_single("0")
    net.send_quantum(TP1, ALICE, [q])
    assert order == ["first", "second"]


def test_taps_limit_which_edges_an_interceptor_sees():
    net = _net()
    tapper = _Recorder("eve", taps=[(TP1, BOB)])
    net.add_interceptor(tapper)
    qa = net.register.prepare_single("0")
    qb = net.register.prepare_single("0")
    net.send_quantum(TP1, ALICE, [qa])
    net.send_quantum(TP1, BOB, [qb])
    assert [edge for _name, edge in tapper.saw_quantum] == [(TP1, BOB)]


class _Swapper(_Recorder):
    """Sends fresh |0> qubits on in place of all but the first in-flight qubit."""

    def on_quantum_in_flight(self, net, edge, qubits):
        self.got = qubits
        self.sent_on = tuple(net.register.prepare_single("0") for _ in qubits[1:])
        return self.sent_on


def test_the_tuple_an_interceptor_returns_is_what_travels_on():
    net = _net()
    first = _Swapper("first", taps=[(TP1, ALICE)])
    second = _Swapper("second", taps=[(TP1, ALICE)])
    net.add_interceptor(first)
    net.add_interceptor(second)
    sent = [net.register.prepare_single("+") for _ in range(4)]
    held = net.send_quantum(TP1, ALICE, sent)
    assert first.got == tuple(sent)
    assert second.got is first.sent_on
    assert held is second.sent_on and len(held) == 2
    send, deliver = net.transcript.events
    assert (send.payload_summary, deliver.payload_summary) == ("4 qubits", "2 qubits")



def test_an_interceptor_that_returns_nothing_fails_the_send():
    """A hook must return the tuple that travels on; a bare ``return`` is not a pass-through."""

    class Silent(_Recorder):
        def on_quantum_in_flight(self, net, edge, qubits):
            super().on_quantum_in_flight(net, edge, qubits)

    net = _net()
    net.add_interceptor(Silent("eve", taps=[(TP1, ALICE)]))
    with pytest.raises(TypeError):
        net.send_quantum(TP1, ALICE, [net.register.prepare_single("0")])
    assert [event.kind for event in net.transcript.events] == ["quantum_send"]

def test_all_interceptors_hear_public_traffic():
    net = _net()
    tapper = _Recorder("eve", taps=[])  # taps nothing on the quantum side
    net.add_interceptor(tapper)
    net.send_classical(TP1, ALICE, Ack())
    net.send_classical(ALICE, TP1, MeasurementResults(STAGE_DECOY, (1,)))
    assert tapper.saw_classical == ["ack", "measurement_results"]


class _Listener(Adversary):
    """Hears public traffic and nothing else."""

    def __init__(self):
        super().__init__(EVE)
        self.heard = []

    def on_classical_observed(self, net, edge, payload):
        self.heard.append((edge, payload))


def _assert_heard_every_classical_event_in_order(heard, transcript):
    """``heard`` holds one (edge, payload) per observed send: the logged payload object itself."""
    logged = [e for e in transcript if not isinstance(e.payload, str)]
    assert len(logged) == len(heard) > 0
    for event, (edge, payload) in zip(logged, heard):
        assert type(edge) is tuple and edge == (PartyId(event.frm), PartyId(event.to))
        assert payload is event.payload and event.kind == payload.KIND


def test_interceptors_observe_each_classical_event_once_in_order():
    """On a whole qsdc run, each classical transcript event reaches a listener once."""
    listener = _Listener()
    cfg = EstablishmentConfig(m_pairs=4, n_decoys=2)
    out = run_qsdc(cfg, None, listener, np.random.default_rng(3))
    assert out.delivered
    _assert_heard_every_classical_event_in_order(listener.heard, out.session.net.transcript)


def test_send_classical_returns_nothing_and_builds_no_message_without_listeners(monkeypatch):
    assert _net().send_classical(TP1, ALICE, Ack()) is None
    out = run_qsdc(EstablishmentConfig(m_pairs=4, n_decoys=2), rng=np.random.default_rng(3))
    assert out.delivered and out.session.net.observers == []

    listened = _net()
    recorder = _Recorder("eve")
    listened.add_interceptor(recorder)
    assert listened.send_classical(TP1, ALICE, Ack()) is None
    assert recorder.saw_classical == ["ack"]

    # An attack that keeps the base classical hook is no observer.
    cfg = EstablishmentConfig(m_pairs=4, n_decoys=2, check_fraction=0.5)
    intercept = build_adversary(attack_from_name("intercept_resend"))
    out = run_establishment(cfg, intercept, np.random.default_rng(3))
    net = out.session.net
    assert net.interceptors == [intercept] and net.observers == []
    assert any(not isinstance(e.payload, str) for e in net.transcript)

    # Every class that overrides the hook still hears every classical event, in order.
    recorder = _Recorder("eve")
    out = run_qsdc(cfg, None, recorder, np.random.default_rng(3))
    assert out.session.net.observers == [recorder]
    logged = [e for e in out.session.net.transcript if not isinstance(e.payload, str)]
    assert recorder.saw_classical == [e.kind for e in logged]
    listener = _Listener()
    out = run_qsdc(cfg, None, listener, np.random.default_rng(3))
    assert out.session.net.observers == [listener]
    _assert_heard_every_classical_event_in_order(listener.heard, out.session.net.transcript)
    for name, run in (
        ("entanglement_swap", lambda adv: run_establishment(cfg, adv, np.random.default_rng(3))),
        ("correlation_elicitation", lambda adv: run_qsdc(cfg, None, adv, np.random.default_rng(3))),
    ):
        attack = build_adversary(attack_from_name(name))
        heard = []
        hook = type(attack).on_classical_observed

        def recording(self, net, edge, payload, _hook=hook, _heard=heard):
            _heard.append((edge, payload))
            _hook(self, net, edge, payload)

        monkeypatch.setattr(type(attack), "on_classical_observed", recording)
        out = run(attack)
        assert out.session.net.observers == [attack]
        _assert_heard_every_classical_event_in_order(heard, out.session.net.transcript)


# --- probe-photon filters ----------------------------------------------------------


def test_trojan_scan_finds_planted_tags():
    net = _net()
    q = net.register.prepare_single("0")
    net.plant_tag(q)
    held = net.send_quantum(TP1, ALICE, [q])
    assert net.scan_trojan(ALICE, held) == [q]
    # the scan event is on the record
    assert any(e.kind == "trojan_detected" for e in net.transcript)


def test_trojan_scan_clean_when_nothing_planted():
    net = _net()
    q = net.register.prepare_single("0")
    held = net.send_quantum(TP1, ALICE, [q])
    assert net.scan_trojan(ALICE, held) == []


def test_trojan_scan_returns_the_tagged_slots_in_sequence_order():
    net = _net()
    made = [net.register.prepare_single("0") for _ in range(5)]
    for q in (made[3], made[0], made[2]):
        net.plant_tag(q)
    qubits = [made[i] for i in (2, 4, 0, 1, 3)]  # sequence order is neither made nor planted order
    held = net.send_quantum(TP1, ALICE, qubits)
    want = [made[2], made[0], made[3]]
    assert net.tags_on(held) == want
    assert net.scan_trojan(ALICE, held) == want
    assert net.transcript.events[-1].payload_summary == "3 probe tag(s)"
    net.filtered_parties.discard(BOB)
    steps = len(net.transcript)
    assert net.scan_trojan(BOB, net.send_quantum(TP1, BOB, qubits)) == []
    assert len(net.transcript) == steps + 2  # the send and the delivery, no scan event


def test_filtered_parties_is_a_fresh_set_per_network():
    """Networks share one cached topology; changing one network's filters touches no other."""
    topo = Topology.for_parties((ALICE, BOB))
    first, second = _net(), _net()
    assert first.topology is topo and second.topology is topo
    assert first.filtered_parties == {ALICE, BOB, TP1, TP2}
    first.filtered_parties.clear()
    second.filtered_parties.discard(ALICE)
    assert topo.parties == (ALICE, BOB)
    assert second.filtered_parties == {BOB, TP1, TP2}
    assert _net().filtered_parties == {ALICE, BOB, TP1, TP2}


def test_unfiltered_receiver_sees_nothing():
    net = _net()
    net.filtered_parties = set()
    q = net.register.prepare_single("0")
    net.plant_tag(q)
    held = net.send_quantum(TP1, ALICE, [q])
    assert net.scan_trojan(ALICE, held) == []
