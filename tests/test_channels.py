"""Network fabric tests: topology closure, transcripts, interceptors, filters."""

import dataclasses
import json

import numpy as np
import pytest

from eprlink.adversaries import Adversary
from eprlink.channels import (
    ALICE,
    BOB,
    EVE,
    TP1,
    TP2,
    AbortNotice,
    Ack,
    ChannelContractError,
    MacTag,
    MeasurementResults,
    Network,
    PartyId,
    PositionsBases,
    STAGE_DECOY,
    STAGE_PAIR_CHECK,
    Topology,
    TopologyError,
    TrojanKind,
    TrojanTag,
    end_parties,
    participant,
)
from eprlink.qcore import Basis, QuantumRegister


def _net(seed=0):
    return Network(Topology.two_party(), QuantumRegister(), np.random.default_rng(seed))


# --- parties and topology ------------------------------------------------------


def test_participants_are_stable():
    assert participant(1) == ALICE
    assert participant(2) == BOB
    assert str(participant(3)) == "P3"
    assert end_parties(3) == [ALICE, BOB, participant(3)]


def test_star_topology_edges():
    topo = Topology.two_party()
    for tp in (TP1, TP2):
        for p in (ALICE, BOB):
            assert topo.has_quantum(tp, p)
            assert topo.has_classical(p, tp)  # symmetric
    # deliberately missing links
    assert not topo.has_quantum(ALICE, BOB)
    assert not topo.has_classical(ALICE, BOB)
    assert not topo.has_quantum(TP1, TP2)
    assert not topo.has_classical(TP1, TP2)


def test_star_topologies_are_shared_per_party_list():
    assert Topology.for_parties([ALICE, BOB]) is Topology.for_parties((ALICE, BOB))
    assert Topology.two_party() is Topology.for_parties(end_parties(2))
    assert Topology.for_parties(end_parties(3)) is Topology.for_parties(end_parties(3))
    assert Topology.for_parties(end_parties(3)) is not Topology.two_party()


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
    parties = end_parties(3)
    topo = Topology(
        quantum_edges=frozenset(frozenset((TP1, p)) for p in parties),
        classical_edges=frozenset(frozenset((tp, p)) for tp in (TP1, TP2) for p in parties),
    )
    everyone = [TP1, TP2, EVE, *parties]
    for a in everyone:
        for b in everyone:
            assert topo.has_quantum(a, b) == (frozenset((a, b)) in topo.quantum_edges)
            assert topo.has_classical(a, b) == (frozenset((a, b)) in topo.classical_edges)
    assert topo == Topology(topo.quantum_edges, topo.classical_edges)
    with pytest.raises(ValueError):
        Topology(frozenset({frozenset({ALICE})}), frozenset())


def test_send_rejects_missing_edges():
    net = _net()
    q = net.register.prepare_single("0")
    with pytest.raises(TopologyError):
        net.send_quantum(ALICE, BOB, [q])
    with pytest.raises(TopologyError):
        net.send_classical(TP1, TP2, Ack())


def test_unknown_payload_rejected():
    net = _net()
    with pytest.raises(ChannelContractError):
        net.send_classical(TP1, ALICE, {"free-form": "dict"})


def test_payloads_are_immutable():
    msg = PositionsBases(STAGE_DECOY, (0, 1), (Basis.Z, Basis.X))
    with pytest.raises(dataclasses.FrozenInstanceError):
        msg.positions = (5,)
    ack = Ack()
    with pytest.raises(dataclasses.FrozenInstanceError):
        ack.note = "changed"


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
    net.plant_tag(q, TrojanTag(TrojanKind.DELAY_PHOTON, EVE))
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


# --- interceptors ----------------------------------------------------------------


class _Recorder(Adversary):
    """Minimal interceptor with configurable taps."""

    def __init__(self, name, taps=None):
        super().__init__(EVE)
        self.name = name
        self.taps = taps
        self.saw_quantum = []
        self.saw_classical = []

    def quantum_taps(self):
        return self.taps if self.taps is not None else []

    def on_quantum_in_flight(self, net, edge, msg):
        self.saw_quantum.append((self.name, edge))
        return msg

    def on_classical_observed(self, net, msg):
        self.saw_classical.append(msg.payload.KIND)


def test_interceptors_run_in_registration_order():
    net = _net()
    order = []

    class Tagger(_Recorder):
        def on_quantum_in_flight(self, n, edge, msg):
            order.append(self.name)
            return msg

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


def test_all_interceptors_hear_public_traffic():
    net = _net()
    tapper = _Recorder("eve", taps=[])  # taps nothing on the quantum side
    net.add_interceptor(tapper)
    net.send_classical(TP1, ALICE, Ack())
    net.send_classical(ALICE, TP1, MeasurementResults(STAGE_DECOY, (1,)))
    assert tapper.saw_classical == ["ack", "measurement_results"]


# --- probe-photon filters ----------------------------------------------------------


def test_trojan_scan_finds_planted_tags():
    net = _net()
    q = net.register.prepare_single("0")
    net.plant_tag(q, TrojanTag(TrojanKind.INVISIBLE_PHOTON, EVE))
    msg = net.send_quantum(TP1, ALICE, [q])
    found = net.scan_trojan(ALICE, msg)
    assert len(found) == 1
    assert found[0].kind is TrojanKind.INVISIBLE_PHOTON
    assert found[0].planted_by == EVE
    # the scan event is on the record
    assert any(e.kind == "trojan_detected" for e in net.transcript)


def test_trojan_scan_clean_when_nothing_planted():
    net = _net()
    q = net.register.prepare_single("0")
    msg = net.send_quantum(TP1, ALICE, [q])
    assert net.scan_trojan(ALICE, msg) == []


def test_filtered_parties_is_a_fresh_set_per_network():
    """Networks share one cached topology; changing one network's filters touches no other."""
    topo = Topology.two_party()
    first, second = _net(), _net()
    assert first.topology is topo and second.topology is topo
    assert first.filtered_parties == {ALICE, BOB, TP1, TP2}
    first.filtered_parties.clear()
    second.filtered_parties.discard(ALICE)
    assert topo.quantum_parties == frozenset({ALICE, BOB, TP1, TP2})
    assert second.filtered_parties == {BOB, TP1, TP2}
    assert _net().filtered_parties == {ALICE, BOB, TP1, TP2}


def test_unfiltered_receiver_sees_nothing():
    net = _net()
    net.filtered_parties = set()
    q = net.register.prepare_single("0")
    net.plant_tag(q, TrojanTag(TrojanKind.DELAY_PHOTON, EVE))
    msg = net.send_quantum(TP1, ALICE, [q])
    assert net.scan_trojan(ALICE, msg) == []
