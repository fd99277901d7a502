"""State-machinery tests: every quantum rule checked against a brute-force oracle.

The oracle side of each test builds plain numpy vectors with kron products and
projectors, never touching the register implementation under test.
"""

import itertools
import math
import struct
import warnings

import numpy as np
import pytest
from scipy.stats import chisquare

from eprlink import qcore
from eprlink.qcore import (
    BASIS_BY_BIT,
    LABEL_EXPECTATION,
    Basis,
    BellOutcome,
    DeadQubitError,
    EntangledDiscardError,
    MeasurementOutcome,
    NonUnitaryError,
    PauliCode,
    QuantumRegister,
    QubitRef,
    StateVector,
    _check_unitary,
    _quarters,
    attempt_clone_unitary,
    bell_vector,
    cnot_matrix,
    eigenstate_label,
    ghz_vector,
    is_bell_product,
    state_vector_for_label,
)

RT2 = 1.0 / np.sqrt(2.0)

H = np.array([[1, 1], [1, -1]], dtype=complex) * RT2
PAULI = {
    "I": np.eye(2, dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "iY": np.array([[0, 1], [-1, 0]], dtype=complex),
}


def _kron(*mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def _embed(gate, slot, n):
    """gate on one qubit of an n-qubit chain, identity elsewhere."""
    mats = [np.eye(2, dtype=complex)] * n
    mats[slot] = gate
    return _kron(*mats)


# --- single states and gates -------------------------------------------------------


@pytest.mark.parametrize(
    "label,expected",
    [
        ("0", [1, 0]),
        ("1", [0, 1]),
        ("+", [RT2, RT2]),
        ("-", [RT2, -RT2]),
    ],
)
def test_state_labels(label, expected):
    assert np.allclose(state_vector_for_label(label), expected)


def test_bell_vectors_orthonormal():
    mat = np.stack([bell_vector(o) for o in BellOutcome])
    assert np.allclose(mat @ mat.conj().T, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("outcome", list(BellOutcome))
def test_bell_vector_explicit(outcome):
    expected = {
        BellOutcome.PHI_PLUS: [RT2, 0, 0, RT2],
        BellOutcome.PHI_MINUS: [RT2, 0, 0, -RT2],
        BellOutcome.PSI_PLUS: [0, RT2, RT2, 0],
        BellOutcome.PSI_MINUS: [0, RT2, -RT2, 0],
    }[outcome]
    assert np.allclose(bell_vector(outcome), expected, atol=1e-12)


def test_ghz_vector_amplitudes():
    for k in (2, 3, 4):
        v = ghz_vector(k)
        expected = np.zeros(2**k, dtype=complex)
        expected[0] = expected[-1] = RT2
        assert np.allclose(v, expected, atol=1e-12)


# --- encode / decode bijection -------------------------------------------------------


@pytest.mark.parametrize("code", list(PauliCode))
def test_code_maps_pair_to_expected_bell_state(code):
    """Applying each two-bit code to half a pair lands exactly on one Bell state."""
    pair = bell_vector(BellOutcome.PHI_PLUS)
    encoded = _kron(code.matrix, np.eye(2)) @ pair
    target = BellOutcome.from_pauli(code)
    overlap = abs(np.vdot(bell_vector(target), encoded)) ** 2
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_code_bit_assignment_is_a_bijection():
    seen = set()
    for code in PauliCode:
        bits = code.bits
        assert PauliCode.from_bits(*bits) is code
        seen.add(bits)
    assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}
    # the first bit separates the swapped-occupation states from the aligned ones
    assert PauliCode.from_bits(0, 0) is PauliCode.I
    assert PauliCode.from_bits(0, 1) is PauliCode.Z
    assert PauliCode.from_bits(1, 0) is PauliCode.X
    assert PauliCode.from_bits(1, 1) is PauliCode.IY


# The forward tables the member attributes replaced, as they were written;
# PAULI above holds the matrices.
_OLD_PAULI_TO_BITS = {
    PauliCode.I: (0, 0),
    PauliCode.Z: (0, 1),
    PauliCode.X: (1, 0),
    PauliCode.IY: (1, 1),
}
_OLD_BELL_TO_PAULI = {
    BellOutcome.PHI_PLUS: PauliCode.I,
    BellOutcome.PHI_MINUS: PauliCode.Z,
    BellOutcome.PSI_PLUS: PauliCode.X,
    BellOutcome.PSI_MINUS: PauliCode.IY,
}


def test_member_facts_equal_the_old_tables():
    assert [code.value for code in PauliCode] == ["I", "Z", "X", "iY"]
    for code in PauliCode:
        assert code.bits == _OLD_PAULI_TO_BITS[code]
        np.testing.assert_array_equal(code.matrix, PAULI[code.value])
        assert code.rows == PAULI[code.value].tolist()
        assert all(type(x) is complex for row in code.rows for x in row)
        assert PauliCode(code.value) is code
    assert [o.value for o in BellOutcome] == ["phi+", "phi-", "psi+", "psi-"]
    for outcome in BellOutcome:
        assert outcome.pauli is _OLD_BELL_TO_PAULI[outcome]
        assert outcome.bits == _OLD_PAULI_TO_BITS[_OLD_BELL_TO_PAULI[outcome]]
        assert BellOutcome.from_pauli(outcome.pauli) is outcome
        assert BellOutcome(outcome.value) is outcome


def test_eigenstate_labels_equal_the_inverted_label_table():
    old = {expect: label for label, expect in LABEL_EXPECTATION.items()}
    for basis in Basis:
        for bit in (0, 1, 2, 3):
            assert eigenstate_label(basis, bit) == old[(basis, bit & 1)]


@pytest.mark.parametrize("code", list(PauliCode))
def test_register_roundtrip_decodes_exactly(code):
    reg = QuantumRegister()
    rng = np.random.default_rng(5)
    qa, qb = reg.prepare_epr_pair()
    reg.apply_pauli(qa, code)
    outcome = reg.bell_measure(qa, qb, rng)
    assert outcome.bits == code.bits
    assert outcome is BellOutcome.from_pauli(code)


# --- measurement statistics -----------------------------------------------------------


def test_same_basis_outcomes_always_agree():
    """Shared pairs correlate perfectly in both discussion bases."""
    rng = np.random.default_rng(101)
    reg = QuantumRegister()
    counts = {(Basis.Z, 0): 0, (Basis.Z, 1): 0, (Basis.X, 0): 0, (Basis.X, 1): 0}
    for i in range(10_000):
        qa, qb = reg.prepare_epr_pair()
        basis = Basis.Z if i % 2 == 0 else Basis.X
        a = reg.measure(qa, basis, rng).bit
        b = reg.measure(qb, basis, rng).bit
        assert a == b
        counts[(basis, a)] += 1
        reg.discard(qa)
        reg.discard(qb)
    # outcomes themselves stay unbiased
    for basis in (Basis.Z, Basis.X):
        total = counts[(basis, 0)] + counts[(basis, 1)]
        assert abs(counts[(basis, 0)] / total - 0.5) < 3 * np.sqrt(0.25 / total)


def test_measurement_is_repeatable():
    rng = np.random.default_rng(17)
    reg = QuantumRegister()
    for _ in range(200):
        qa, qb = reg.prepare_epr_pair()
        first = reg.measure(qa, Basis.X, rng).bit
        again = reg.measure(qa, Basis.X, rng).bit
        assert first == again
        reg.discard(qa)
        reg.discard(qb)


def test_plus_state_z_measurement_is_unbiased():
    rng = np.random.default_rng(23)
    reg = QuantumRegister()
    bits = []
    for _ in range(4000):
        q = reg.prepare_single("+")
        bits.append(reg.measure(q, Basis.Z, rng).bit)
        reg.discard(q)
    ones = sum(bits)
    assert abs(ones / 4000 - 0.5) < 3 * np.sqrt(0.25 / 4000)


def test_no_signaling_choice_of_basis_does_not_bias_partner():
    """Bob's marginal is indistinguishable whether Alice measured Z or X."""
    rng = np.random.default_rng(31)
    reg = QuantumRegister()
    marginals = {Basis.Z: [0, 0], Basis.X: [0, 0]}
    for _ in range(4000):
        for alice_basis in (Basis.Z, Basis.X):
            qa, qb = reg.prepare_epr_pair()
            reg.measure(qa, alice_basis, rng)
            marginals[alice_basis][reg.measure(qb, Basis.Z, rng).bit] += 1
            reg.discard(qa)
            reg.discard(qb)
    observed = marginals[Basis.Z]
    # expected frequencies taken from the other arm of the experiment
    expected_rate = (marginals[Basis.X][0] + 1) / (sum(marginals[Basis.X]) + 2)
    total = sum(observed)
    _, p_value = chisquare(observed, [total * expected_rate, total * (1 - expected_rate)])
    assert p_value > 1e-4


# --- brute-force oracle comparisons -----------------------------------------------------


def test_reduced_density_matches_kron_oracle():
    rng = np.random.default_rng(3)
    reg = QuantumRegister()
    qa, qb = reg.prepare_epr_pair()
    qc = reg.prepare_single("+")
    reg.apply_cnot(qb, qc)  # genuinely tripartite now

    # oracle: same circuit on a flat 8-dim vector, order (a, b, c)
    vec = np.kron(bell_vector(BellOutcome.PHI_PLUS), state_vector_for_label("+"))
    cnot_bc = _kron(np.eye(2), cnot_matrix()).reshape(8, 8)
    vec = cnot_bc @ vec
    rho_abc = np.outer(vec, vec.conj()).reshape(2, 2, 2, 2, 2, 2)
    rho_ac = np.trace(rho_abc, axis1=1, axis2=4).reshape(4, 4)

    got = reg.reduced_density([qa, qc])
    assert np.allclose(got, rho_ac, atol=1e-12)


def test_ghz_diagonal_basis_parity_matches_kron_oracle():
    """All-diagonal measurement of a shared triple has even parity, each pattern 1/4."""
    # oracle: probabilities from projecting the 8-dim state
    v = ghz_vector(3)
    plus, minus = state_vector_for_label("+"), state_vector_for_label("-")
    probs = {}
    for bits in np.ndindex(2, 2, 2):
        basis_vecs = [minus if b else plus for b in bits]
        amp = np.vdot(_kron_vec(*basis_vecs), v)
        probs[bits] = abs(amp) ** 2
    for bits, p in probs.items():
        expected = 0.25 if sum(bits) % 2 == 0 else 0.0
        assert p == pytest.approx(expected, abs=1e-12)

    # register statistics agree
    rng = np.random.default_rng(7)
    reg = QuantumRegister()
    counts = {bits: 0 for bits in probs}
    trials = 6000
    for _ in range(trials):
        qs = reg.prepare_ghz(3)
        got = tuple(reg.measure(q, Basis.X, rng).bit for q in qs)
        counts[got] += 1
        for q in qs:
            reg.discard(q)
    for bits, p in probs.items():
        if p == 0.0:
            assert counts[bits] == 0
        else:
            assert abs(counts[bits] / trials - p) < 3 * np.sqrt(p * (1 - p) / trials)


def _kron_vec(*vecs):
    out = np.array([1.0 + 0j])
    for v in vecs:
        out = np.kron(out, v)
    return out


def test_ghz_bipartition_is_maximally_mixed():
    reg = QuantumRegister()
    qs = reg.prepare_ghz(3)
    rho_one = reg.reduced_density([qs[0]])
    assert np.allclose(rho_one, np.eye(2) / 2, atol=1e-12)
    purity = float(np.trace(rho_one @ rho_one).real)
    assert purity == pytest.approx(0.5, abs=1e-12)


def test_joint_pair_measurement_matches_sixteen_dim_oracle():
    """Projecting middles of two pairs: uniform outcomes, ends land on a Bell state."""
    # oracle on a flat 16-dim vector, order (a1, a2, b1, b2)
    vec = _kron_vec(bell_vector(BellOutcome.PHI_PLUS), bell_vector(BellOutcome.PHI_PLUS))
    oracle = {}
    for outcome in BellOutcome:
        proj = bell_vector(outcome)
        # amplitude tensor indexed (a1, a2, b1, b2) -> contract (a2, b1) with proj*
        arr = vec.reshape(2, 2, 2, 2)
        coeff = np.tensordot(proj.conj().reshape(2, 2), arr, axes=([0, 1], [1, 2]))
        p = float(np.vdot(coeff, coeff).real)
        ends = coeff.reshape(4)
        ends = ends / np.linalg.norm(ends)
        oracle[outcome] = (p, ends)
    for outcome, (p, _ends) in oracle.items():
        assert p == pytest.approx(0.25, abs=1e-12)

    rng = np.random.default_rng(11)
    reg = QuantumRegister()
    counts = {o: 0 for o in BellOutcome}
    trials = 8000
    for _ in range(trials):
        a1, a2 = reg.prepare_epr_pair()
        b1, b2 = reg.prepare_epr_pair()
        outcome = reg.bell_measure(a2, b1, rng)
        counts[outcome] += 1
        # the surviving ends must match the oracle's conditional state exactly
        _p, ends = oracle[outcome]
        rho = reg.reduced_density([a1, b2])
        assert np.allclose(rho, np.outer(ends, ends.conj()), atol=1e-10)
    _, p_value = chisquare(list(counts.values()))
    assert p_value > 1e-4


def test_x_basis_measurement_probability_matches_oracle():
    """Diagonal-basis hit rate on a random pure state matches the projector."""
    rng = np.random.default_rng(13)
    raw = rng.normal(size=2) + 1j * rng.normal(size=2)
    raw = raw / np.linalg.norm(raw)
    p_plus_oracle = abs(np.vdot(state_vector_for_label("+"), raw)) ** 2
    # rotate |0> onto the target state with a unitary completion
    u = np.column_stack([raw, np.array([-raw[1].conjugate(), raw[0].conjugate()])])

    hits = 0
    trials = 4000
    reg = QuantumRegister()
    for _ in range(trials):
        q = reg.prepare_single("0")
        anc = reg.prepare_single("0")
        reg.apply_two_qubit_unitary(np.kron(u, np.eye(2)), q, anc)
        hits += 1 - reg.measure(q, Basis.X, rng).bit
        reg.measure(anc, Basis.Z, rng)
        reg.discard(q)
        reg.discard(anc)
    band = 3 * np.sqrt(max(p_plus_oracle * (1 - p_plus_oracle), 1e-4) / trials)
    assert abs(hits / trials - p_plus_oracle) < band


# --- register bookkeeping -----------------------------------------------------------


def test_norm_preserved_under_random_circuits():
    rng = np.random.default_rng(19)
    reg = QuantumRegister()
    live = []
    for _ in range(40):
        if len(live) < 2 or rng.random() < 0.3:
            qa, qb = reg.prepare_epr_pair()
            live += [qa, qb]
        op = rng.integers(3)
        picks = rng.choice(len(live), size=2, replace=False)
        qa, qb = live[picks[0]], live[picks[1]]
        if op == 0:
            reg.apply_cnot(qa, qb)
        elif op == 1:
            reg.apply_hadamard(qa)
        else:
            reg.apply_pauli(qb, PauliCode.X)
        assert reg.max_norm_error() < 1e-10


def test_dead_qubit_rejected():
    rng = np.random.default_rng(29)
    reg = QuantumRegister()
    q = reg.prepare_single("0")
    reg.measure(q, Basis.Z, rng)
    reg.discard(q)
    with pytest.raises(DeadQubitError):
        reg.measure(q, Basis.Z, rng)
    with pytest.raises(DeadQubitError):
        reg.apply_hadamard(q)


def test_entangled_discard_rejected():
    reg = QuantumRegister()
    qa, qb = reg.prepare_epr_pair()
    with pytest.raises(EntangledDiscardError):
        reg.discard(qa)
    # after disentangling, discard is fine
    rng = np.random.default_rng(31)
    reg.measure(qa, Basis.Z, rng)
    reg.discard(qa)
    reg.discard(qb)
    assert not reg.is_live(qa) and not reg.is_live(qb)


def test_non_unitary_rejected():
    reg = QuantumRegister()
    qa, qb = reg.prepare_epr_pair()
    bad = np.eye(4, dtype=complex)
    bad[0, 0] = 2.0
    with pytest.raises(NonUnitaryError):
        reg.apply_two_qubit_unitary(bad, qa, qb)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_non_finite_matrices_are_not_unitary(value):
    bad = np.eye(4, dtype=complex)
    bad[0, 0] = value
    reg = QuantumRegister()
    qa, qb = reg.prepare_epr_pair()
    with np.errstate(invalid="ignore"):  # inf * 0 in the product is NaN
        with pytest.raises(NonUnitaryError):
            _check_unitary(bad, 4)
        with pytest.raises(NonUnitaryError):
            reg.apply_two_qubit_unitary(bad, qa, qb)
    np.testing.assert_array_equal(_check_unitary(np.eye(4), 4), np.eye(4))


@pytest.mark.parametrize(
    "value,match",
    [
        (np.inf, "finite"),
        (-np.inf, "finite"),
        (np.nan, "finite"),
        (complex(0.0, np.inf), "finite"),
        (1e200, "not unitary"),  # finite, but its square would overflow the product
        (complex(1e308, -1e308), "not unitary"),
    ],
)
def test_bad_entries_are_rejected_before_numpy_warns(value, match):
    bad = np.eye(4, dtype=complex)
    bad[1, 2] = value
    reg = QuantumRegister()
    qa, qb = reg.prepare_epr_pair()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonUnitaryError, match=match):
            _check_unitary(bad, 4)
        with pytest.raises(NonUnitaryError, match=match):
            reg.apply_two_qubit_unitary(bad, qa, qb)
    assert reg.state_fidelity([qa, qb], bell_vector(BellOutcome.PHI_PLUS)) > 1.0 - 1e-12


def test_seeded_runs_reproduce_exactly():
    def run(seed):
        rng = np.random.default_rng(seed)
        reg = QuantumRegister()
        bits = []
        for _ in range(60):
            qa, qb = reg.prepare_epr_pair()
            reg.apply_hadamard(qa)
            bits.append(reg.measure(qa, Basis.Z, rng).bit)
            bits.append(reg.measure(qb, Basis.X, rng).bit)
        return bits

    assert run(97) == run(97)
    assert run(97) != run(98)  # astronomically unlikely to collide


# --- pair certification ----------------------------------------------------------------


def test_is_bell_product_accepts_fresh_pairs():
    reg = QuantumRegister()
    for _ in range(100):
        qa, qb = reg.prepare_epr_pair()
        check = is_bell_product(reg, qa, qb)
        assert check.passed
        assert check.fidelity >= 1 - 1e-10
        assert check.purity >= 1 - 1e-9


def test_is_bell_product_rejects_wrong_states():
    reg = QuantumRegister()
    # wrong Bell state: right purity, wrong target
    qa, qb = reg.prepare_epr_pair()
    reg.apply_pauli(qa, PauliCode.Z)
    check = is_bell_product(reg, qa, qb)
    assert not check.passed and check.fidelity < 0.5

    # entangled with a third system: fails purity
    qs = reg.prepare_ghz(3)
    check = is_bell_product(reg, qs[0], qs[1])
    assert not check.passed and check.purity < 0.75

    # product of singles: pure but not entangled
    q0 = reg.prepare_single("0")
    q1 = reg.prepare_single("+")
    check = is_bell_product(reg, q0, q1)
    assert not check.passed


# --- cloning ----------------------------------------------------------------------------


def test_copier_fidelities_for_known_unitaries():
    fids = attempt_clone_unitary(cnot_matrix(), ("0", "1", "+", "-"))
    assert fids["0"] == pytest.approx(1.0, abs=1e-12)
    assert fids["1"] == pytest.approx(1.0, abs=1e-12)
    assert fids["+"] == pytest.approx(0.5, abs=1e-12)
    assert fids["-"] == pytest.approx(0.0, abs=1e-12)

    fids_id = attempt_clone_unitary(np.eye(4, dtype=complex), ("0", "1", "+", "-"))
    assert fids_id["0"] == pytest.approx(1.0, abs=1e-12)  # |0>|0> already "cloned"
    assert fids_id["+"] == pytest.approx(0.5, abs=1e-12)


def test_no_unitary_clones_all_four_states():
    """Randomized search never finds a universal copier for the decoy set."""
    rng = np.random.default_rng(41)
    labels = ("0", "1", "+", "-")
    best = 0.0
    for _ in range(500):
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, r = np.linalg.qr(z)
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        fids = attempt_clone_unitary(u, labels)
        best = max(best, min(fids.values()))
    assert best < 1 - 1e-6


# --- slice kernels against the matrix-based reference ---------------------------------
#
# The reference versions below are the register's earlier kernels: a Hadamard
# sandwich around a Z projection for X measurements, tensordot/moveaxis for
# one-qubit gates, an eigendecomposition for discards and moveaxis for Bell
# measurements.  Both sides see the same random draw.


class _RecordingDraw(float):
    """A random draw that records every threshold it is compared against."""

    def __new__(cls, value, seen):
        draw = super().__new__(cls, value)
        draw.seen = seen
        return draw

    def __lt__(self, other):
        self.seen.append(float(other))
        return float(self) < other


class _RecordingRng:
    """Stands in for a Generator: one fixed draw, thresholds kept in ``seen``."""

    def __init__(self, value):
        self.value = value
        self.seen = []
        self.draws = 0

    def random(self):
        self.draws += 1
        return _RecordingDraw(self.value, self.seen)


def _ref_apply_1q(amps, k, u):
    if amps.ndim == 1:
        return u @ amps
    return np.moveaxis(np.tensordot(u, amps, axes=(1, k)), 0, k)


def _ref_measure(amps, k, basis, r):
    """(p1, bit, post-state) of the Hadamard-Z-Hadamard measurement."""
    if basis is Basis.X:
        amps = _ref_apply_1q(amps, k, H)
    amps = amps.copy()
    sl = [slice(None)] * amps.ndim
    sl[k] = 1
    branch = amps[tuple(sl)]
    p1 = float(np.sum(branch.real**2 + branch.imag**2))
    bit = 1 if r < p1 else 0
    sl[k] = 1 - bit
    amps[tuple(sl)] = 0.0
    amps *= 1.0 / np.sqrt(p1 if bit else 1.0 - p1)
    if basis is Basis.X:
        amps = _ref_apply_1q(amps, k, H)
    return p1, bit, amps


def _ref_discard(amps, k):
    """(purity, remainder) from the eigendecomposition of the qubit's state."""
    moved = np.moveaxis(amps, k, 0)
    arr = moved.reshape(2, -1)
    rho = arr @ arr.conj().T
    purity = float(np.trace(rho @ rho).real)
    evals, evecs = np.linalg.eigh(rho)
    v = evecs[:, int(np.argmax(evals))]
    rest = v.conj() @ arr
    rest = rest / np.linalg.norm(rest)
    return purity, rest.reshape(moved.shape[1:])


_REF_BELL = np.stack([bell_vector(o) for o in BellOutcome])


def _ref_bell_measure(amps, ka, kb, r):
    """(probs, index, post-state) with the pair moved to the leading axes."""
    moved = np.moveaxis(amps, [ka, kb], [0, 1])
    coeffs = _REF_BELL.conj() @ moved.reshape(4, -1)
    probs = np.sum(coeffs.real**2 + coeffs.imag**2, axis=1)
    idx = int(np.searchsorted(np.cumsum(probs), r, side="right"))
    picked = coeffs[idx] / np.sqrt(probs[idx])
    new = np.outer(_REF_BELL[idx], picked).reshape(moved.shape)
    return probs, idx, np.moveaxis(new, [0, 1], [ka, kb])


def _random_state(rng, n):
    raw = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return (raw / np.linalg.norm(raw)).reshape((2,) * n)


def _random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _loaded_register(amps):
    """A register whose only factor holds ``amps``, one qubit per axis.

    One qubit has no factor object: its entry is the bare amplitude pair.
    """
    reg = QuantumRegister()
    refs = reg._new_refs(amps.ndim)
    if amps.ndim == 1:
        reg._where[refs[0]] = tuple(amps.tolist())
    else:
        reg._add_factor(amps.ravel().tolist(), refs)
    return reg, refs


def _factor_amps(reg, q):
    """The factor holding q, as an ndarray with one axis per qubit."""
    sv = reg._locate(q)
    return np.asarray(sv.amps).reshape((2,) * len(sv.qubit_order))


def _assert_same_up_to_phase(got, want):
    assert got.shape == want.shape
    overlap = np.vdot(got, want)
    phase = overlap / abs(overlap)
    assert np.max(np.abs(got * phase - want)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("basis", [Basis.Z, Basis.X])
def test_measure_kernel_matches_reference(n, basis):
    rng = np.random.default_rng(1000 + n)
    for _ in range(25):
        amps = _random_state(rng, n)
        for k in range(n):
            draw = float(rng.random())
            want_p1, want_bit, want_post = _ref_measure(amps, k, basis, draw)
            reg, refs = _loaded_register(amps)
            stub = _RecordingRng(draw)
            got = reg.measure(refs[k], basis, stub)
            assert stub.draws == 1 and len(stub.seen) == 1
            assert abs(stub.seen[0] - want_p1) < 1e-12
            assert got.bit == want_bit and got.basis is basis
            _assert_same_up_to_phase(_factor_amps(reg, refs[0]), want_post)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_one_qubit_gate_kernel_matches_reference(n):
    rng = np.random.default_rng(2000 + n)
    for _ in range(25):
        amps = _random_state(rng, n)
        u = _random_unitary(rng, 2)
        for k in range(n):
            reg, refs = _loaded_register(amps)
            reg._apply_1q(refs[k], u.tolist())
            want = _ref_apply_1q(amps, k, u)
            assert np.max(np.abs(_factor_amps(reg, refs[k]) - want)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_two_qubit_gate_kernel_matches_reference(n):
    rng = np.random.default_rng(2500 + n)
    for _ in range(10):
        amps = _random_state(rng, n)
        u = _random_unitary(rng, 4)
        for ka, kb in itertools.permutations(range(n), 2):
            reg, refs = _loaded_register(amps)
            reg.apply_two_qubit_unitary(u, refs[ka], refs[kb])
            assert reg._locate(refs[0]).qubit_order == refs
            tensor = np.tensordot(u.reshape(2, 2, 2, 2), amps, ([2, 3], [ka, kb]))
            want = np.moveaxis(tensor, [0, 1], [ka, kb])
            assert np.max(np.abs(_factor_amps(reg, refs[0]) - want)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_discard_kernel_matches_reference_on_product_states(n):
    rng = np.random.default_rng(3000 + n)
    for _ in range(25):
        for k in range(n):
            single = _random_state(rng, 1)
            rest = _random_state(rng, n - 1)
            amps = np.moveaxis(np.multiply.outer(single, rest), 0, k)
            purity, want_rest = _ref_discard(amps, k)
            assert purity == pytest.approx(1.0, abs=1e-12)
            reg, refs = _loaded_register(amps)
            reg.discard(refs[k])
            assert not reg.is_live(refs[k])
            survivor = refs[1] if k == 0 else refs[0]
            sv = reg._locate(survivor)
            assert sv.qubit_order == [q for q in refs if q != refs[k]]
            # A lone survivor is stored as its bare pair, never as a one-qubit factor.
            assert (type(reg._where[survivor]) is tuple) == (n == 2)
            _assert_same_up_to_phase(_factor_amps(reg, survivor), want_rest)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_discard_kernel_rejects_what_the_reference_finds_entangled(n):
    rng = np.random.default_rng(4000 + n)
    for _ in range(10):
        amps = _random_state(rng, n)
        for k in range(n):
            purity, _ = _ref_discard(amps, k)
            assert purity < 1.0 - 1e-6  # a random state is entangled across every cut
            reg, refs = _loaded_register(amps)
            with pytest.raises(EntangledDiscardError):
                reg.discard(refs[k])
            assert reg.is_live(refs[k])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bell_measure_kernel_matches_reference(n):
    rng = np.random.default_rng(5000 + n)
    for _ in range(15):
        amps = _random_state(rng, n)
        for ka in range(n):
            for kb in range(n):
                if ka == kb:
                    continue
                draw = float(rng.random())
                want_probs, want_idx, want_post = _ref_bell_measure(amps, ka, kb, draw)
                reg, refs = _loaded_register(amps)
                stub = _RecordingRng(draw)
                got = reg.bell_measure(refs[ka], refs[kb], stub)
                assert stub.draws == 1
                # the kernel compares the draw against the running sum of probabilities
                cumulative = np.cumsum(want_probs)[: len(stub.seen)]
                assert np.max(np.abs(np.array(stub.seen) - cumulative)) < 1e-12
                assert got is list(BellOutcome)[want_idx]
                _assert_same_up_to_phase(_factor_amps(reg, refs[0]), want_post)


def _loop_bell_measure(amps, quads, r):
    """The per-coefficient loop bell_measure used to run, on a flat amplitude list."""
    s = 1.0 / math.sqrt(2.0)
    coeffs = []
    probs = [0.0, 0.0, 0.0, 0.0]
    for i00, i01, i10, i11 in quads:
        a00, a01, a10, a11 = amps[i00], amps[i01], amps[i10], amps[i11]
        c = (s * (a00 + a11), s * (a00 - a11), s * (a01 + a10), s * (a01 - a10))
        coeffs.append(c)
        for j, v in enumerate(c):
            probs[j] += v.real * v.real + v.imag * v.imag
    acc = 0.0
    for idx, p in enumerate(probs):
        acc += p
        if r < acc:
            break
    else:
        idx = max(i for i, p in enumerate(probs) if p > 0.0)
    scale = 1.0 / math.sqrt(probs[idx])
    row = [bell_vector(o).real.tolist() for o in BellOutcome][idx]
    out = list(amps)
    for quad, c in zip(quads, coeffs):
        picked = c[idx] * scale
        for i, v in zip(quad, row):
            out[i] = v * picked
    return idx, out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bell_measure_equals_the_coefficient_loop_bit_for_bit(n):
    rng = np.random.default_rng(7000 + n)
    states = [_random_state(rng, n) for _ in range(10)]
    # A Bell pair beside |+>s, so three outcomes have probability 0.
    rest = np.full(2 ** (n - 2), math.sqrt(2.0 ** (2 - n)))
    states.append(np.kron(bell_vector(BellOutcome.PSI_MINUS), rest).reshape((2,) * n))
    for amps in states:
        flat = amps.ravel().tolist()
        for ka, kb in itertools.permutations(range(n), 2):
            quads = _quarters(n, ka, kb)
            for r in [float(rng.random()), 0.0, 0.25, 0.5, 0.75, 1.0 - 2**-53]:
                want_idx, want = _loop_bell_measure(flat, quads, r)
                reg, refs = _loaded_register(amps)
                got = reg.bell_measure(refs[ka], refs[kb], _RecordingRng(r))
                assert got is list(BellOutcome)[want_idx]
                assert reg._locate(refs[0]).amps == want
                assert reg._locate(refs[0]).qubit_order == refs


def test_bell_measure_rounding_fall_through_picks_a_possible_outcome():
    """A draw at or past the summed probabilities must not pick a zero-probability outcome."""
    reg = QuantumRegister()
    qa, qb = reg.prepare_epr_pair()

    class _EdgeRng:
        def random(self):
            return 1.0

    outcome = reg.bell_measure(qa, qb, _EdgeRng())
    assert outcome is BellOutcome.PHI_PLUS
    rho = reg.reduced_density([qa, qb])
    assert np.all(np.isfinite(rho))
    assert reg.state_fidelity([qa, qb], bell_vector(BellOutcome.PHI_PLUS)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_qubit_handles_are_ints_with_stable_repr():
    reg = QuantumRegister()
    qa, qb = reg.prepare_epr_pair()
    assert isinstance(qa, int) and qa.uid == int(qa)
    assert repr(qa) == f"q{qa.uid}" and str(qb) == f"q{qb.uid}"
    assert {qa: "a"}[type(qa)(qa.uid)] == "a"


def test_reduced_density_rejects_an_empty_request():
    reg = QuantumRegister()
    reg.prepare_epr_pair()
    with pytest.raises(ValueError):
        reg.reduced_density([])


# --- sequence-level calls ------------------------------------------------------------


def _mixed_register():
    """A phi+ pair, a three-party shared group, lone qubits and a rotated pair."""
    reg = QuantumRegister()
    qubits = list(reg.prepare_epr_pair()) + reg.prepare_ghz(3) + [reg.prepare_single(lab) for lab in "01+-"]
    qa, qb = reg.prepare_epr_pair()
    reg.apply_hadamard(qa)
    return reg, qubits + [qb, qa]


@pytest.mark.parametrize("seed", range(8))
def test_measure_all_matches_a_loop_of_measure(seed):
    pick = np.random.default_rng(seed)
    reg_loop, qubits = _mixed_register()
    reg_all, _ = _mixed_register()
    # Random order and bases, so qubits sharing a factor are read in every order.
    order = [qubits[i] for i in pick.permutation(len(qubits))]
    bases = [BASIS_BY_BIT[b] for b in pick.integers(2, size=len(order))]
    rng_loop, rng_all = np.random.default_rng(100 + seed), np.random.default_rng(100 + seed)
    want = [reg_loop.measure(q, b, rng_loop).bit for q, b in zip(order, bases)]
    got = reg_all.measure_all(order, bases, rng_all)
    assert got == want
    for q in qubits:
        np.testing.assert_array_equal(_factor_amps(reg_all, q), _factor_amps(reg_loop, q))
    assert rng_all.random() == rng_loop.random()
    assert rng_all.integers(4) == rng_loop.integers(4)


def test_measure_all_checks_its_arguments():
    reg = QuantumRegister()
    q = reg.prepare_single("+")
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    assert reg.measure_all([], [], rng) == []
    assert rng.bit_generator.state == state
    with pytest.raises(ValueError):
        reg.measure_all([q], [Basis.Z, Basis.X], rng)


def test_measure_with_a_given_draw_reads_no_random_number():
    reg = QuantumRegister()
    q0, q1 = reg.prepare_single("+"), reg.prepare_single("+")
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    assert reg.measure(q0, Basis.Z, rng, 0.49).bit == 1
    assert reg.measure(q1, Basis.Z, rng, 0.51).bit == 0
    assert rng.bit_generator.state == state


# --- lone qubits: the 1-qubit path against reference kernels ---------------------------
#
# A lone qubit's register entry is a bare pair of Python complex numbers, with
# no factor object around it.  The references below
# are kernels for a (2,) ndarray factor; each side gets its own generator from
# the same seed, so equal next draws mean equal consumption.


def _ref_lone_measure(vec, basis, rng, draw=None):
    """(bit, post-state) of the earlier 1-qubit ``measure`` on a (2,) ndarray."""
    amps = np.array(vec, dtype=complex)
    x_basis = basis is Basis.X
    b0, b1 = amps.tolist()
    if x_basis:
        b0, b1 = b0 + b1, b0 - b1
    p1 = b1.real * b1.real + b1.imag * b1.imag
    if x_basis:
        p1 *= 0.5
    if draw is None:
        draw = rng.random()
    bit = 1 if draw < p1 else 0
    scale = 1.0 / math.sqrt(p1 if bit else 1.0 - p1)
    if x_basis:
        kept = (b1 if bit else b0) * (0.5 * scale)
        amps[0] = kept
        amps[1] = -kept if bit else kept
    else:
        amps[1 if bit else 0] *= scale
        amps[0 if bit else 1] = 0.0
    return bit, amps


def _ref_lone_gate(vec, u):
    """The earlier ``_apply_1q`` on a (2,) ndarray: its two axis slices."""
    amps = np.array(vec, dtype=complex)
    (u00, u01), (u10, u11) = u.tolist()
    b0, b1 = amps[(0,)], amps[(1,)]
    new = np.empty_like(amps)
    new[(0,)] = u00 * b0 + u01 * b1
    new[(1,)] = u10 * b0 + u11 * b1
    return new


def _ref_pair_discard(amps, k):
    """The earlier pair ``discard`` remainder: the larger slice of axis k, normalised."""
    moved = np.moveaxis(amps, k, 0)
    r0, r1 = moved[0], moved[1]
    g00, g11 = np.vdot(r0, r0).real, np.vdot(r1, r1).real
    kept, g = (r0, g00) if g00 >= g11 else (r1, g11)
    return np.array([kept[0] / math.sqrt(g), kept[1] / math.sqrt(g)])


def _lone_states():
    rng = np.random.default_rng(6000)
    return [state_vector_for_label(lab) for lab in "01+-"] + [
        _random_state(rng, 1) for _ in range(20)
    ]


def _lone_register(vec):
    """A register holding one lone qubit whose pair is ``vec`` as Python complex numbers."""
    reg = QuantumRegister()
    q = reg.prepare_single("0")
    reg._where[q] = tuple(complex(v) for v in vec)
    return reg, q


def _assert_lone_amps(reg, q, want):
    """q is alone, its register entry a bare tuple of two Python complex numbers."""
    amps = reg._where[q]
    assert type(amps) is tuple
    assert len(reg._locate(q).qubit_order) == 1 and len(amps) == 2
    assert all(type(a) is complex for a in amps)
    assert np.max(np.abs(np.asarray(amps) - want)) < 1e-12


def _threshold(reg, q, basis):
    """The p1 that ``reg.measure(q, basis, ...)`` compares its draw against."""
    stub = _RecordingRng(0.5)
    reg.measure(q, basis, stub)
    (p1,) = stub.seen
    return p1


def _draws_around(p1):
    """p1 and one ulp either side, kept to the [0, 1) that ``rng.random()`` returns."""
    near = (math.nextafter(p1, -math.inf), p1, math.nextafter(p1, math.inf))
    return [d for d in near if 0.0 <= d < 1.0]


def _with_fresh_zero(reg, q):
    """Merge a fresh |0> behind q's factor; q keeps its amplitudes in the flat kernel's layout."""
    reg._merge(q, reg.prepare_single("0"))
    return reg._locate(q)


def test_prepare_single_shares_its_label_tuple():
    reg = QuantumRegister()
    for lab in "01+-":
        q = reg.prepare_single(lab)
        _assert_lone_amps(reg, q, state_vector_for_label(lab))
        assert reg._locate(q).amps is reg._locate(reg.prepare_single(lab)).amps
    with pytest.raises(ValueError, match="unknown state label"):
        reg.prepare_single("y")


@pytest.mark.parametrize("given_draw", [False, True])
@pytest.mark.parametrize("basis", [Basis.Z, Basis.X])
def test_lone_measure_matches_the_reference(basis, given_draw):
    for i, vec in enumerate(_lone_states()):
        draw = float(np.random.default_rng(700 + i).random()) if given_draw else None
        rng_ref, rng_got = np.random.default_rng(i), np.random.default_rng(i)
        want_bit, want = _ref_lone_measure(vec, basis, rng_ref, draw)
        reg, q = _lone_register(vec)
        assert reg.measure(q, basis, rng_got, draw) == MeasurementOutcome(basis, want_bit)
        _assert_lone_amps(reg, q, want)
        assert rng_got.random() == rng_ref.random()
        # Measuring again in the same basis repeats the bit and keeps the state.
        assert reg.measure(q, basis, rng_got).bit == want_bit
        _assert_lone_amps(reg, q, want)


@pytest.mark.parametrize("gate", ["I", "Z", "X", "iY", "H"])
def test_lone_gate_matches_the_reference(gate):
    for vec in _lone_states():
        reg, q = _lone_register(vec)
        if gate == "H":
            reg.apply_hadamard(q)
            u = H
        else:
            reg.apply_pauli(q, PauliCode(gate))
            u = PauliCode(gate).matrix
        _assert_lone_amps(reg, q, _ref_lone_gate(vec, u))


def test_discard_leaves_a_lone_qubit_matching_the_reference():
    rng = np.random.default_rng(6100)
    for k in (0, 1):
        for _ in range(20):
            amps = np.moveaxis(
                np.multiply.outer(_random_state(rng, 1), _random_state(rng, 1)), 0, k
            )
            reg, refs = _loaded_register(amps)
            reg.discard(refs[k])
            _assert_lone_amps(reg, refs[1 - k], _ref_pair_discard(amps, k))
            # The bare survivor holds exactly the flat kernel's values.
            flat, flat_refs = _loaded_register(amps)
            sv = _with_fresh_zero(flat, flat_refs[0])
            flat.discard(flat_refs[k])
            assert reg._where[refs[1 - k]] == (sv.amps[0], sv.amps[2])
            reg.discard(refs[1 - k])
            assert reg.live_qubits() == [] and reg._where == {}


@pytest.mark.parametrize("basis", [Basis.Z, Basis.X])
def test_bare_pair_measure_equals_the_flat_kernel_bit_for_bit(basis):
    """The lone branch of ``measure`` against the flat kernel on the qubit beside a fresh |0>."""
    for vec in _lone_states():
        reg, q = _lone_register(vec)
        p1 = _threshold(reg, q, basis)
        flat, qf = _lone_register(vec)
        _with_fresh_zero(flat, qf)
        assert _threshold(flat, qf, basis) == p1
        for draw in _draws_around(p1):
            reg, q = _lone_register(vec)
            flat, qf = _lone_register(vec)
            sv = _with_fresh_zero(flat, qf)
            rng_lone, rng_flat = np.random.default_rng(0), np.random.default_rng(0)
            got = reg.measure(q, basis, rng_lone, draw)
            assert got is flat.measure(qf, basis, rng_flat, draw)
            assert got.bit == (1 if draw < p1 else 0)
            # q owns the high bit of the flat index; the fresh |0> stays zero.
            assert type(reg._where[q]) is tuple
            assert reg._where[q] == (sv.amps[0], sv.amps[2])
            assert sv.amps[1] == sv.amps[3] == 0
            assert rng_lone.random() == rng_flat.random()


@pytest.mark.parametrize("basis", [Basis.Z, Basis.X])
@pytest.mark.parametrize("k", [0, 1])
def test_discarding_a_measured_epr_half_leaves_a_bare_pair_equal_to_the_kernel(k, basis):
    reg = QuantumRegister()
    p1 = _threshold(reg, reg.prepare_epr_pair()[k], basis)
    for draw in _draws_around(p1):
        reg, flat = QuantumRegister(), QuantumRegister()
        pair, flat_pair = reg.prepare_epr_pair(), flat.prepare_epr_pair()
        sv = _with_fresh_zero(flat, flat_pair[0])
        rng = np.random.default_rng(0)
        assert reg.measure(pair[k], basis, rng, draw) is flat.measure(flat_pair[k], basis, rng, draw)
        reg.discard(pair[k])
        flat.discard(flat_pair[k])
        survivor = pair[1 - k]
        assert type(reg._where[survivor]) is tuple and reg.live_qubits() == [survivor]
        assert sv.qubit_order[0] == flat_pair[1 - k]
        assert reg._where[survivor] == (sv.amps[0], sv.amps[2])
        assert all(type(a) is complex for a in reg._where[survivor])


def test_lone_qubits_merge_like_ndarray_factors():
    phi = bell_vector(BellOutcome.PHI_PLUS)
    for i, (la, lb) in enumerate(itertools.product("01+-", repeat=2)):
        va, vb = state_vector_for_label(la), state_vector_for_label(lb)
        # Two lone qubits under a CNOT.
        reg = QuantumRegister()
        qa, qb = reg.prepare_single(la), reg.prepare_single(lb)
        reg.apply_cnot(qa, qb)
        want = (cnot_matrix() @ np.kron(va, vb)).reshape(2, 2)
        assert reg._locate(qa).qubit_order == [qa, qb]
        assert np.max(np.abs(_factor_amps(reg, qa) - want)) < 1e-12
        # A lone control and the first half of a pair.
        reg = QuantumRegister()
        c = reg.prepare_single(la)
        p0, p1 = reg.prepare_epr_pair()
        reg.apply_cnot(c, p0)
        want = (np.kron(cnot_matrix(), np.eye(2)) @ np.kron(va, phi)).reshape(2, 2, 2)
        assert reg._locate(c).qubit_order == [c, p0, p1]
        assert np.max(np.abs(_factor_amps(reg, c) - want)) < 1e-12
        # Two lone qubits read in the Bell basis.
        reg = QuantumRegister()
        qa, qb = reg.prepare_single(la), reg.prepare_single(lb)
        rng_ref, rng_got = np.random.default_rng(i), np.random.default_rng(i)
        probs, idx, post = _ref_bell_measure(np.multiply.outer(va, vb), 0, 1, rng_ref.random())
        assert reg.bell_measure(qa, qb, rng_got) is list(BellOutcome)[idx]
        _assert_same_up_to_phase(_factor_amps(reg, qa), post)
        assert rng_got.random() == rng_ref.random()


# --- whole-factor fidelity against reduced_density --------------------------------------


def _forbid_reduced_density(reg):
    def forbidden(qubits):
        raise AssertionError("whole-factor fidelity went through reduced_density")

    reg.reduced_density = forbidden


def _fidelity_via_reduced_density(reg, qubits, target):
    rho = QuantumRegister.reduced_density(reg, qubits)
    return float((target.conj() @ rho @ target).real)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_whole_factor_fidelity_is_bit_identical_to_reduced_density(n):
    rng = np.random.default_rng(8000 + n)
    for _ in range(10):
        amps = _random_state(rng, n)
        reg, refs = _loaded_register(amps)
        _forbid_reduced_density(reg)
        target = _random_state(rng, n).reshape(-1)
        for order in itertools.permutations(refs):
            order = list(order)
            want = _fidelity_via_reduced_density(reg, order, target)
            assert reg.state_fidelity(order, target) == want
            assert reg.state_fidelity(tuple(order), target) == want


def test_whole_factor_fidelity_keeps_the_ghz_bits():
    reg = QuantumRegister()
    qs = reg.prepare_ghz(3)
    target = ghz_vector(3)
    want = _fidelity_via_reduced_density(reg, qs, target)
    _forbid_reduced_density(reg)
    for order in itertools.permutations(qs):
        assert reg.state_fidelity(list(order), target) == want
    # |<t|psi>|^2 would round to another last bit here.
    assert want == 0.9999999999999997


def test_is_bell_product_on_a_whole_pair_is_bit_identical_to_reduced_density():
    rng = np.random.default_rng(8100)
    phi = bell_vector(BellOutcome.PHI_PLUS)
    states = [phi.reshape(2, 2)] + [_random_state(rng, 2) for _ in range(10)]
    for amps in states:
        reg, (qa, qb) = _loaded_register(amps)
        _forbid_reduced_density(reg)
        for q1, q2 in ((qa, qb), (qb, qa)):
            rho = QuantumRegister.reduced_density(reg, [q1, q2])
            check = is_bell_product(reg, q1, q2)
            assert check.purity == float(np.trace(rho @ rho).real)
            assert check.fidelity == float((phi.conj() @ rho @ phi).real)


def test_fidelity_of_part_of_a_factor_or_several_factors_uses_reduced_density():
    rng = np.random.default_rng(8200)
    reg, refs = _loaded_register(_random_state(rng, 3))
    lone = reg.prepare_single("+")
    calls = []

    def counting(qubits):
        calls.append(list(qubits))
        return QuantumRegister.reduced_density(reg, qubits)

    reg.reduced_density = counting
    target2 = _random_state(rng, 2).reshape(-1)
    target3 = _random_state(rng, 3).reshape(-1)
    requests = [
        ([refs[0], refs[2]], target2),
        ([refs[2], refs[1]], target2),
        ([refs[1], lone], target2),
        ([lone, refs[0]], target2),
        ([refs[0], lone, refs[2]], target3),
    ]
    for qubits, target in requests:
        got = reg.state_fidelity(qubits, target)
        assert got == _fidelity_via_reduced_density(reg, qubits, target)
    assert calls == [qubits for qubits, _ in requests]
    with pytest.raises(ValueError, match="duplicate"):
        reg.state_fidelity([refs[0], refs[0], refs[1]], target3)
    with pytest.raises(ValueError, match="at least one qubit"):
        reg.state_fidelity([], np.ones(1))


# --- the whole-factor fidelity cache ----------------------------------------------------


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@pytest.fixture
def fidelity_cache():
    qcore._FIDELITY_CACHE.clear()
    yield qcore._FIDELITY_CACHE
    qcore._FIDELITY_CACHE.clear()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cached_fidelity_equals_the_uncached_expression_in_every_order(n, fidelity_cache):
    rng = np.random.default_rng(8300 + n)
    for _ in range(4):
        fidelity_cache.clear()
        reg, refs = _loaded_register(_random_state(rng, n))
        target = _random_state(rng, n).reshape(-1)
        orders = [list(order) for order in itertools.permutations(refs)]
        wants = [_fidelity_via_reduced_density(reg, order, target) for order in orders]
        assert len(set(wants)) > 1  # a key that drops the order would return a wrong one
        for _ in range(2):  # misses, then hits
            for order, want in zip(orders, wants):
                got = reg.state_fidelity(order, target)
                assert got == want and _bits(got) == _bits(want)
        assert len(fidelity_cache) == len(orders)


def test_amplitudes_that_differ_only_in_a_zeros_sign_are_two_entries(fidelity_cache):
    target = ghz_vector(2)
    plain = [complex(RT2, 0.0), 0j, 0j, complex(RT2, 0.0)]
    signed = [complex(RT2, 0.0), complex(-0.0, 0.0), 0j, complex(RT2, -0.0)]
    assert plain == signed  # equal as values, so a key made of them would collide
    for amps in (plain, signed):
        reg, refs = _loaded_register(np.array(amps).reshape(2, 2))
        want = _fidelity_via_reduced_density(reg, refs, target)
        got = reg.state_fidelity(refs, target)
        assert _bits(got) == _bits(want)
    assert len(fidelity_cache) == 2


def test_the_fidelity_cache_stays_within_its_bound(fidelity_cache):
    rng = np.random.default_rng(8400)
    target = ghz_vector(3)
    sizes = []
    for _ in range(qcore.FIDELITY_CACHE_SIZE * 2 + 5):
        reg, refs = _loaded_register(_random_state(rng, 3))
        want = _fidelity_via_reduced_density(reg, refs, target)
        assert reg.state_fidelity(refs, target) == want
        sizes.append(len(fidelity_cache))
    assert max(sizes) == qcore.FIDELITY_CACHE_SIZE
    assert sizes[qcore.FIDELITY_CACHE_SIZE] == 1  # emptied at the bound, then refilled


def test_bad_fidelity_requests_raise_as_before_and_cache_nothing(fidelity_cache):
    rng = np.random.default_rng(8500)
    reg, refs = _loaded_register(_random_state(rng, 3))
    lone = reg.prepare_single("0")
    target3 = _random_state(rng, 3).reshape(-1)
    with pytest.raises(ValueError, match="at least one qubit"):
        reg.state_fidelity([], np.ones(1))
    with pytest.raises(ValueError, match="wrong dimension"):
        reg.state_fidelity(refs, ghz_vector(2))
    with pytest.raises(ValueError, match="duplicate"):
        reg.state_fidelity([refs[0], refs[1], refs[1]], target3)
    for foreign in ([refs[0], refs[1], QubitRef(99)], [QubitRef(99), refs[0], refs[1]]):
        with pytest.raises(DeadQubitError):
            reg.state_fidelity(foreign, target3)
    assert not fidelity_cache
    # As many qubits as the factor, but one from another factor: read through
    # reduced_density, not the whole-factor path.
    mixed = [refs[2], refs[0], lone]
    want = _fidelity_via_reduced_density(reg, mixed, target3)
    assert reg.state_fidelity(mixed, target3) == want
    assert not fidelity_cache


# --- the qubit -> factor map and shared outcomes -----------------------------------------


def test_measure_returns_one_shared_outcome_per_basis_and_bit():
    rng = np.random.default_rng(9000)
    reg = QuantumRegister()
    seen = {}
    for _ in range(40):
        lone = reg.prepare_single("01+-"[int(rng.integers(4))])
        pair = list(reg.prepare_epr_pair())
        ghz = reg.prepare_ghz(3)
        for q in (lone, pair[int(rng.integers(2))], ghz[int(rng.integers(3))]):
            basis = BASIS_BY_BIT[int(rng.integers(2))]
            out = reg.measure(q, basis, rng)
            assert out == MeasurementOutcome(basis, out.bit) and out.basis is basis
            assert seen.setdefault((basis, out.bit), out) is out
    assert len(seen) == 4


def _assert_factor_map_consistent(reg, discarded):
    factors = {sv for sv in reg._where.values() if type(sv) is not tuple}
    lone = [q for q, sv in reg._where.items() if type(sv) is tuple]
    for q in lone:
        pair = reg._where[q]
        assert len(pair) == 2 and all(type(a) is complex for a in pair)
    for q, sv in reg._where.items():
        if q not in lone:
            assert type(sv) is StateVector and q in sv.qubit_order
    for sv in factors:
        assert len(sv.qubit_order) >= 2
        assert len(set(sv.qubit_order)) == len(sv.qubit_order)
        assert all(reg._where[r] is sv for r in sv.qubit_order)
        assert np.asarray(sv.amps).size == 2 ** len(sv.qubit_order)
    assert sum(len(sv.qubit_order) for sv in factors) + len(lone) == len(reg._where)
    assert not discarded & set(reg._where)
    assert reg.max_norm_error() < 1e-10


def test_factor_map_stays_consistent_through_merges_bell_measurements_and_discards():
    rng = np.random.default_rng(9100)
    reg = QuantumRegister()
    live, discarded = [], set()
    for step in range(400):
        op = int(rng.integers(6)) if len(live) >= 2 else int(rng.integers(3))
        if op == 0 and len(live) < 8:
            live.append(reg.prepare_single("01+-"[int(rng.integers(4))]))
        elif op == 1 and len(live) < 7:
            live.extend(reg.prepare_epr_pair())
        elif op == 2 and len(live) < 6:
            live.extend(reg.prepare_ghz(int(rng.integers(2, 4))))
        elif op == 3:
            a, b = rng.choice(len(live), size=2, replace=False).tolist()
            reg.apply_cnot(live[a], live[b])
        elif op == 4:
            a, b = rng.choice(len(live), size=2, replace=False).tolist()
            reg.bell_measure(live[a], live[b], rng)
        elif live:
            # A measured qubit is in a product state, so it can always be dropped.
            q = live.pop(int(rng.integers(len(live))))
            reg.measure(q, BASIS_BY_BIT[int(rng.integers(2))], rng)
            reg.discard(q)
            discarded.add(q)
            assert not reg.is_live(q)
        _assert_factor_map_consistent(reg, discarded)
        assert sorted(reg.live_qubits()) == sorted(live)
    assert discarded and max(len(reg._locate(q).qubit_order) for q in reg._where) >= 3
    for q in live:
        reg.measure(q, Basis.Z, rng)
        reg.discard(q)
    assert reg._where == {} and reg.max_norm_error() == 0.0
