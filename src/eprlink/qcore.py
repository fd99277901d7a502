"""Pure-state qubit engine used by every protocol component.

The register keeps the global state factored into independent tensor factors,
one per group of qubits that have actually interacted.  Payload pairs, decoy
photons and adversary ancillas therefore live in registers of a few qubits
each, and memory stays bounded no matter how long the transmitted sequences
get.  Entangling operations merge factors on demand; discarding a qubit that
is back in a product state shrinks its factor again.

One map, ``QuantumRegister._where``, takes each live qubit straight to the
:class:`StateVector` of its factor, or, for a qubit that is alone, to its bare
amplitude pair; a factor has no id of its own, and the distinct factors are the
distinct values of that map.  The per-qubit hot path
builds no throwaway objects: :meth:`QuantumRegister.measure` returns one of
four shared :class:`MeasurementOutcome` values, shared-state amplitudes are
copied from one template per size, and the fixed one-qubit gates keep their
entries as Python lists beside their matrices.

Conventions:
  * a factor of n >= 2 qubits stores its amplitudes as one flat ``list`` of
    2**n Python complex numbers; the qubit at position k of ``qubit_order``
    owns bit n-1-k of the flat index, so the list is the C-order flattening of
    a (2,) * n tensor.  Every operation runs one kernel over cached index
    tables (:func:`_halves`, :func:`_quarters`) and writes the list in place;
    on a two-qubit factor, most often a shared pair, ``measure``,
    ``bell_measure``, ``discard`` and the one-qubit gates do the same float
    operations unrolled and store a new list.
    A lone qubit has no factor object: its entry is a 2-tuple of Python
    complex numbers (its label's shared tuple when fresh), measured and gated
    inline, since most measurements in a trial read lone decoys; a fresh
    qubit's read is looked up in a table keyed by the identity of its label's
    tuple (``_FRESH_READS``),
  * numpy holds the constants and serves the inspection calls
    (``reduced_density``, ``state_fidelity``, ``norm_error``), which reshape
    the flat list to a tensor; a fidelity read of one whole factor is cached
    on the exact bytes of its inputs, the factor's taken from its flat list
    so the tensor is built only on a miss,
  * measurement bits: 0 means |0> (Z) or |+> (X), 1 means |1> or |->,
  * all randomness is drawn from an explicitly passed ``numpy.random.Generator``.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

PURITY_ATOL = 1e-9
UNITARY_ATOL = 1e-10

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# Immutable, so a fresh qubit shares its label's tuple.
_SINGLE_STATES = {
    "0": (1 + 0j, 0j),
    "1": (0j, 1 + 0j),
    "+": (complex(_SQRT_HALF), complex(_SQRT_HALF)),
    "-": (complex(_SQRT_HALF), complex(-_SQRT_HALF)),
}

_ID2 = np.eye(2, dtype=complex)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
# i * sigma_y maps |0> -> -|1> and |1> -> |0>; real entries keep encoding real.
_PAULI_IY = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) * _SQRT_HALF
_HADAMARD_ROWS = _HADAMARD.tolist()

_CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)


class Basis(Enum):
    """Measurement basis: computational (Z) or diagonal (X)."""

    Z = "Z"
    X = "X"


# Index 0 selects Z and 1 selects X, for bases drawn as random bits.
BASIS_BY_BIT = (Basis.Z, Basis.X)
# The per-qubit paths compare against module-level members: on Python 3.11 a
# load from the enum class costs about ten times a global's.
_BASIS_X = Basis.X

# The four single-qubit preparation labels, indexed by their two-bit code c,
# which random draws pick: label c is read in basis BASIS_BY_BIT[c >> 1] and
# reads bit c & 1 there.
SINGLE_STATE_LABELS = ("0", "1", "+", "-")
LABEL_EXPECTATION = {
    label: (BASIS_BY_BIT[c >> 1], c & 1) for c, label in enumerate(SINGLE_STATE_LABELS)
}


class PauliCode(Enum):
    """The four encoding operations and their two-bit codes, declared in code order.

    Each member carries its matrix, the same entries as nested lists of Python
    complex numbers (as ``_apply_1q`` reads them), and its code: 00 is the
    identity, 01 a phase flip, 10 a bit flip and 11 both.
    """

    def __new__(cls, value: str, matrix: np.ndarray, bits: Tuple[int, int]):
        member = object.__new__(cls)
        member._value_ = value
        member.matrix = matrix
        member.rows = matrix.tolist()
        member.bits = bits
        return member

    I = ("I", _ID2, (0, 0))
    Z = ("Z", _PAULI_Z, (0, 1))
    X = ("X", _PAULI_X, (1, 0))
    IY = ("iY", _PAULI_IY, (1, 1))

    @classmethod
    def from_bits(cls, first: int, second: int) -> "PauliCode":
        return _PAULI_BY_CODE[(first & 1) << 1 | (second & 1)]


# Indexed by the two-bit code read as a number, first bit high.
_PAULI_BY_CODE = tuple(PauliCode)
_PAULI_I = PauliCode.I


class BellOutcome(Enum):
    """Result of a joint measurement in the maximally entangled basis.

    Each member carries its four real amplitudes (as Python floats, which
    ``bell_measure`` reads to rebuild a collapsed pair), the encoding operation
    that lands a phi+ pair on it (applied to the first half) and that
    operation's two-bit code, which is what makes dense coding decodable.
    Members are declared in code order, so ``tuple(BellOutcome)[c]`` has code c.
    """

    def __new__(cls, value: str, pauli: PauliCode, amplitudes: Tuple[float, ...]):
        member = object.__new__(cls)
        member._value_ = value
        member.pauli = pauli
        member.bits = pauli.bits
        member.amplitudes = amplitudes
        return member

    PHI_PLUS = ("phi+", PauliCode.I, (_SQRT_HALF, 0.0, 0.0, _SQRT_HALF))
    PHI_MINUS = ("phi-", PauliCode.Z, (_SQRT_HALF, 0.0, 0.0, -_SQRT_HALF))
    PSI_PLUS = ("psi+", PauliCode.X, (0.0, _SQRT_HALF, _SQRT_HALF, 0.0))
    PSI_MINUS = ("psi-", PauliCode.IY, (0.0, _SQRT_HALF, -_SQRT_HALF, 0.0))

    @classmethod
    def from_pauli(cls, code: PauliCode) -> "BellOutcome":
        return _BELL_BY_CODE[_PAULI_BY_CODE.index(code)]


_BELL_BY_CODE = tuple(BellOutcome)


class QubitRef(int):
    """Opaque handle for one simulated qubit; ids are never reused.

    An ``int`` subclass, so hashing and equality (the register's dictionary
    lookups) run at C speed.
    """

    __slots__ = ()

    @property
    def uid(self) -> int:
        return int(self)

    def __repr__(self) -> str:
        return f"q{int(self)}"


class MeasurementOutcome(NamedTuple):
    """The basis a qubit was read in and the bit it gave."""

    basis: Basis
    bit: int


# The four outcomes measure() returns, indexed [basis is Basis.X][bit].
_OUTCOMES = (
    (MeasurementOutcome(Basis.Z, 0), MeasurementOutcome(Basis.Z, 1)),
    (MeasurementOutcome(Basis.X, 0), MeasurementOutcome(Basis.X, 1)),
)


class BellPairCheck(NamedTuple):
    """Diagnostic result of :func:`is_bell_product`."""

    passed: bool
    purity: float
    fidelity: float


class DeadQubitError(RuntimeError):
    """Raised when an operation addresses a discarded or unknown qubit."""


class EntangledDiscardError(RuntimeError):
    """Raised when trying to drop a qubit still entangled with live ones."""


class NonUnitaryError(ValueError):
    """Raised when a supplied gate matrix is not unitary within tolerance."""


def state_vector_for_label(label: str) -> np.ndarray:
    """Return the 2-vector for one of the four preparation labels."""
    return np.array(_single_state(label))


def _single_state(label: str) -> Tuple[complex, complex]:
    try:
        return _SINGLE_STATES[label]
    except KeyError:
        raise ValueError(f"unknown state label {label!r}") from None


def eigenstate_label(basis: Basis, bit: int) -> str:
    """Preparation label of the post-measurement state for (basis, bit)."""
    return SINGLE_STATE_LABELS[(basis is _BASIS_X) << 1 | (bit & 1)]


def bell_vector(outcome: BellOutcome) -> np.ndarray:
    return np.array(outcome.amplitudes, dtype=complex)


def cnot_matrix() -> np.ndarray:
    """The controlled-NOT unitary, control on the first tensor slot."""
    return _CNOT.copy()


def ghz_vector(k: int) -> np.ndarray:
    """Amplitudes of the k-party all-zero/all-one superposition."""
    if k < 2:
        raise ValueError("ghz_vector needs k >= 2")
    vec = np.zeros(2**k, dtype=complex)
    vec[0] = _SQRT_HALF
    vec[-1] = _SQRT_HALF
    return vec


# ghz_vector(k) as a flat list, per k; a prepared state gets a copy.
_SHARED_AMPS: Dict[int, List[complex]] = {}


def _shared_amps(k: int) -> List[complex]:
    template = _SHARED_AMPS.get(k)
    if template is None:
        template = _SHARED_AMPS[k] = ghz_vector(k).tolist()
    return template.copy()


def _lone_read(
    pair: Tuple[complex, complex], x_basis: bool, draw: float
) -> Tuple[float, int, Tuple[complex, complex]]:
    """``measure`` on a lone qubit's pair: (p1, bit, post-measurement pair).

    The bit is 1 exactly when ``draw < p1``; a probability-0 outcome raises
    (a division by zero, or the square root of a negative rounding residue).
    """
    b0, b1 = pair
    if x_basis:
        b0, b1 = b0 + b1, b0 - b1
    p1 = b1.real * b1.real + b1.imag * b1.imag
    if x_basis:
        p1 *= 0.5
    bit = 1 if draw < p1 else 0
    scale = 1.0 / math.sqrt(p1 if bit else 1.0 - p1)
    if x_basis:
        kept = (b1 if bit else b0) * (0.5 * scale)
        return p1, bit, (kept, -kept) if bit else (kept, kept)
    return p1, bit, (0j, b1 * scale) if bit else (b0 * scale, 0j)


def _fresh_reads(code: int) -> tuple:
    """Per basis (Z, X): the p1 a fresh qubit of label ``code`` is read against,
    and the post pair of each bit, None for a bit of probability 0.

    In its own basis the label reads its bit for certain: p1 is exactly 0.0 or
    1.0 and the qubit keeps the label's tuple, where ``_lone_read`` can round
    p1 an ulp short of 1.  In the other basis both bits are possible, and the
    read is ``_lone_read``'s.
    """
    pair = _SINGLE_STATES[SINGLE_STATE_LABELS[code]]
    own_x, own_bit = code >> 1, code & 1
    rows = []
    for x_basis in (False, True):
        if x_basis == own_x:
            rows.append((float(own_bit), (None, pair) if own_bit else (pair, None)))
        else:
            p1, _, post0 = _lone_read(pair, x_basis, math.inf)  # an infinite draw picks bit 0
            rows.append((p1, (post0, _lone_read(pair, x_basis, -math.inf)[2])))
    return tuple(rows)


# Every read of a fresh qubit, keyed by id() of its label's shared tuple; those
# tuples live as long as the module, so no other object can take their ids.
_FRESH_READS = {
    id(_SINGLE_STATES[label]): _fresh_reads(c) for c, label in enumerate(SINGLE_STATE_LABELS)
}


# Whole-factor fidelity reads (QuantumRegister.state_fidelity), keyed by the
# exact bytes of their inputs: the factor's amplitudes, the permutation from
# factor order to request order, and the target.  Bytes, not values, so -0.0
# and 0.0 stay apart.  The cache is emptied when it reaches
# FIDELITY_CACHE_SIZE entries, so memory stays flat when every read differs
# (attacked runs); a key for k qubits holds 2 * 16 * 2**k bytes.
FIDELITY_CACHE_SIZE = 64
_FIDELITY_CACHE: Dict[Tuple[bytes, Tuple[int, ...], bytes], float] = {}
_CNOT_ROWS = _CNOT.tolist()


@functools.lru_cache(maxsize=None)
def _halves(n: int, k: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Flat indices of an n-qubit factor with position k's bit clear, and the same with it set."""
    bit = 1 << (n - 1 - k)
    zeros = tuple(i for i in range(1 << n) if not i & bit)
    return zeros, tuple(i | bit for i in zeros)


@functools.lru_cache(maxsize=None)
def _quarters(n: int, ka: int, kb: int) -> Tuple[Tuple[int, int, int, int], ...]:
    """Per setting of the other qubits, the flat indices of (a, b) = 00, 01, 10, 11.

    ``a`` is the qubit at position ka and ``b`` the one at kb, so each 4-tuple
    is ordered like the rows of a two-qubit unitary with ``a`` first.
    """
    ba, bb = 1 << (n - 1 - ka), 1 << (n - 1 - kb)
    return tuple(
        (i, i | bb, i | ba, i | ba | bb) for i in range(1 << n) if not i & (ba | bb)
    )


def _check_unitary(u: np.ndarray, dim: int) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape != (dim, dim):
        raise NonUnitaryError(f"expected a {dim}x{dim} matrix, got {u.shape}")
    # The entries are bounded before the product, which an infinite, NaN or
    # huge entry would turn into a numpy warning.  A unitary's entries have
    # modulus at most 1, so the bound rejects nothing the tolerance accepts.
    if not np.abs(u).max() <= 2.0:
        if not np.isfinite(u).all():
            raise NonUnitaryError("matrix entries must be finite")
        raise NonUnitaryError("matrix is not unitary within tolerance")
    if not np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= UNITARY_ATOL:
        raise NonUnitaryError("matrix is not unitary within tolerance")
    return u


class StateVector:
    """One independent tensor factor of two or more qubits of the run's global state.

    ``amps`` is a flat list of 2**n Python complex numbers (see the module
    conventions).  Only inspection wraps a lone qubit's pair in a one-qubit
    instance, which the register never stores.
    """

    __slots__ = ("amps", "qubit_order")

    def __init__(self, amps: Sequence[complex], qubit_order: List[QubitRef]):
        self.amps = amps
        self.qubit_order = qubit_order

    def axis_of(self, q: QubitRef) -> int:
        return self.qubit_order.index(q)

    def tensor(self) -> np.ndarray:
        """The amplitudes as a complex ndarray of shape (2,) * n, axis k for position k."""
        return np.array(self.amps, dtype=complex).reshape((2,) * len(self.qubit_order))

    def norm_error(self) -> float:
        return abs(float(np.sum(np.abs(np.asarray(self.amps)) ** 2)) - 1.0)


class QuantumRegister:
    """All live qubits of one protocol run, kept factored by interaction."""

    def __init__(self) -> None:
        self._next_uid = 0
        # Each live qubit's factor (qubits that share a factor share its
        # object), or a lone qubit's bare amplitude pair.
        self._where: Dict[QubitRef, Union[StateVector, Tuple[complex, complex]]] = {}

    # -- bookkeeping -------------------------------------------------------

    def _new_refs(self, k: int) -> List[QubitRef]:
        uid = self._next_uid
        self._next_uid = uid + k
        return [QubitRef(i) for i in range(uid, uid + k)]

    def _add_factor(self, amps: Sequence[complex], refs: List[QubitRef]) -> None:
        sv = StateVector(amps, refs)
        for r in refs:
            self._where[r] = sv

    def _dead(self, q: QubitRef) -> DeadQubitError:
        # Every uid below _next_uid was issued here, and only discard drops one.
        if 0 <= q < self._next_uid:
            return DeadQubitError(f"{q} was already discarded")
        return DeadQubitError(f"{q} does not belong to this register")

    def _locate(self, q: QubitRef) -> StateVector:
        """q's factor; a lone qubit's pair comes in a throwaway one-qubit wrapper."""
        sv = self._where.get(q)
        if sv is None:
            raise self._dead(q)
        return StateVector(sv, [q]) if type(sv) is tuple else sv

    def _merge(self, qa: QubitRef, qb: QubitRef) -> StateVector:
        """The one factor holding qa and qb, qa's qubits first when two are joined."""
        a, b = self._locate(qa), self._locate(qb)
        if a is b:
            return a
        a.amps = [x * y for x in a.amps for y in b.amps]
        a.qubit_order = a.qubit_order + b.qubit_order
        for r in b.qubit_order:
            self._where[r] = a
        self._where[qa] = a
        return a

    def is_live(self, q: QubitRef) -> bool:
        return q in self._where

    def live_qubits(self) -> List[QubitRef]:
        return list(self._where)

    def max_norm_error(self) -> float:
        return max((self._locate(q).norm_error() for q in self._where), default=0.0)

    # -- preparation -------------------------------------------------------

    def prepare_single(self, label: str) -> QubitRef:
        """Create one fresh qubit in |0>, |1>, |+> or |->."""
        vec = _single_state(label)
        ref = QubitRef(self._next_uid)
        self._next_uid += 1
        self._where[ref] = vec
        return ref

    def prepare_epr_pair(self) -> Tuple[QubitRef, QubitRef]:
        """Create two fresh qubits in the maximally entangled phi+ state."""
        a, b = refs = self._new_refs(2)
        self._add_factor(_shared_amps(2), refs)
        return a, b

    def prepare_ghz(self, k: int) -> List[QubitRef]:
        """Create k fresh qubits sharing an all-zero/all-one superposition."""
        if k < 2:
            raise ValueError("a shared multi-party state needs k >= 2 qubits")
        refs = self._new_refs(k)
        self._add_factor(_shared_amps(k), refs)
        return refs

    # -- unitaries ---------------------------------------------------------

    def _apply_1q(self, q: QubitRef, rows: List[List[complex]]) -> None:
        (u00, u01), (u10, u11) = rows
        sv = self._where.get(q)
        if sv is None:
            raise self._dead(q)
        if type(sv) is tuple:
            x, y = sv
            self._where[q] = (u00 * x + u01 * y, u10 * x + u11 * y)
            return
        amps = sv.amps
        order = sv.qubit_order
        if len(order) == 2:
            # The generic kernel's four products, unrolled; x is q's half with its bit clear.
            first = order[0] == q
            x0, x1, y0, y1 = amps if first else (amps[0], amps[2], amps[1], amps[3])
            z0, z1 = u00 * x0 + u01 * y0, u00 * x1 + u01 * y1
            o0, o1 = u10 * x0 + u11 * y0, u10 * x1 + u11 * y1
            sv.amps = [z0, z1, o0, o1] if first else [z0, o0, z1, o1]
            return
        for i, j in zip(*_halves(len(order), order.index(q))):
            x, y = amps[i], amps[j]
            amps[i] = u00 * x + u01 * y
            amps[j] = u10 * x + u11 * y

    def _apply_2q(self, sv: StateVector, ka: int, kb: int, rows: List[List[complex]]) -> None:
        """Apply the 4x4 unitary ``rows`` to positions (ka, kb), ka as the first qubit."""
        amps = sv.amps
        for quad in _quarters(len(sv.qubit_order), ka, kb):
            i0, i1, i2, i3 = quad
            a0, a1, a2, a3 = amps[i0], amps[i1], amps[i2], amps[i3]
            for i, (u0, u1, u2, u3) in zip(quad, rows):
                amps[i] = u0 * a0 + u1 * a1 + u2 * a2 + u3 * a3

    def apply_pauli(self, q: QubitRef, code: PauliCode) -> None:
        if code is _PAULI_I:
            return
        self._apply_1q(q, code.rows)

    def apply_hadamard(self, q: QubitRef) -> None:
        self._apply_1q(q, _HADAMARD_ROWS)

    def apply_cnot(self, control: QubitRef, target: QubitRef) -> None:
        if control == target:
            raise ValueError("control and target must differ")
        sv = self._merge(control, target)
        self._apply_2q(sv, sv.axis_of(control), sv.axis_of(target), _CNOT_ROWS)

    def apply_two_qubit_unitary(self, u: np.ndarray, qa: QubitRef, qb: QubitRef) -> None:
        """Apply an arbitrary (validated) 4x4 unitary with qa as the first axis."""
        if qa == qb:
            raise ValueError("the two qubits must differ")
        self.apply_two_qubit_rows(_check_unitary(u, 4).tolist(), qa, qb)

    def apply_two_qubit_rows(self, rows: List[List[complex]], qa: QubitRef, qb: QubitRef) -> None:
        """``apply_two_qubit_unitary`` for a unitary already checked, as its ``tolist()`` rows."""
        if qa == qb:
            raise ValueError("the two qubits must differ")
        sv = self._merge(qa, qb)
        self._apply_2q(sv, sv.axis_of(qa), sv.axis_of(qb), rows)

    # -- measurement -------------------------------------------------------

    def measure(
        self,
        q: QubitRef,
        basis: Basis,
        rng: np.random.Generator,
        draw: Optional[float] = None,
    ) -> MeasurementOutcome:
        """Projective measurement; the qubit survives in the post-measurement state.

        The qubit's two halves b0, b1 (its bit clear, its bit set) are
        projected directly: onto b0 and b1 in the Z basis, onto (b0 + b1)/sqrt2
        and (b0 - b1)/sqrt2 in the X basis.  The outcome is 1 exactly when
        ``draw < p1``; without a ``draw`` the uniform number is ``rng.random()``.
        """
        sv = self._where.get(q)
        if sv is None:
            raise self._dead(q)
        if draw is None:
            draw = rng.random()
        x_basis = basis is _BASIS_X
        if type(sv) is tuple:
            # A lone qubit.  A fresh one still holds its label's shared tuple and
            # is read from _FRESH_READS, by identity: tuple equality would also
            # match a pair that has -0.0 where the label has 0.0.
            fresh = _FRESH_READS.get(id(sv))
            if fresh is None:
                _, bit, self._where[q] = _lone_read(sv, x_basis, draw)
                return _OUTCOMES[x_basis][bit]
            p1, posts = fresh[x_basis]
            bit = 1 if draw < p1 else 0
            post = posts[bit]
            if post is None:
                raise ValueError(f"bit {bit} has probability 0 in the {basis.value} basis")
            self._where[q] = post
            return _OUTCOMES[x_basis][bit]
        amps = sv.amps
        order = sv.qubit_order
        if len(order) == 2:
            # The kernel below, unrolled over q's two index pairs (x0, y0), (x1, y1).
            first = order[0] == q
            x0, x1, y0, y1 = amps if first else (amps[0], amps[2], amps[1], amps[3])
            if x_basis:
                x0, y0, x1, y1 = x0 + y0, x0 - y0, x1 + y1, x1 - y1
            p1 = (y0.real * y0.real + y0.imag * y0.imag) + (y1.real * y1.real + y1.imag * y1.imag)
            if x_basis:
                p1 *= 0.5
            bit = 1 if draw < p1 else 0
            scale = 1.0 / math.sqrt(p1 if bit else 1.0 - p1)
            if x_basis:
                half = 0.5 * scale
                z0, z1 = (y0 * half, y1 * half) if bit else (x0 * half, x1 * half)
                o0, o1 = (-z0, -z1) if bit else (z0, z1)
            elif bit:
                z0 = z1 = 0j
                o0, o1 = y0 * scale, y1 * scale
            else:
                z0, z1 = x0 * scale, x1 * scale
                o0 = o1 = 0j
            sv.amps = [z0, z1, o0, o1] if first else [z0, o0, z1, o1]
            return _OUTCOMES[x_basis][bit]
        zeros, ones = _halves(len(order), order.index(q))
        if x_basis:
            # sqrt2 <+|psi> and sqrt2 <-|psi>; the 1/sqrt2 factors go into p1 and scale.
            for i, j in zip(zeros, ones):
                x, y = amps[i], amps[j]
                amps[i] = x + y
                amps[j] = x - y
        p1 = 0.0
        for j in ones:
            y = amps[j]
            p1 += y.real * y.real + y.imag * y.imag
        if x_basis:
            p1 *= 0.5
        bit = 1 if draw < p1 else 0
        scale = 1.0 / math.sqrt(p1 if bit else 1.0 - p1)
        if x_basis:
            # The normalised |+> (|->) component: (b0 +- b1) / (2 sqrt(p)) on
            # half 0, and plus (minus) that on half 1.
            half = 0.5 * scale
            for i, j in zip(zeros, ones):
                kept = amps[j if bit else i] * half
                amps[i] = kept
                amps[j] = -kept if bit else kept
        else:
            kept, dropped = (ones, zeros) if bit else (zeros, ones)
            for i in kept:
                amps[i] *= scale
            for i in dropped:
                amps[i] = 0j
        return _OUTCOMES[x_basis][bit]

    def measure_all(
        self, qubits: Sequence[QubitRef], bases: Sequence[Basis], rng: np.random.Generator
    ) -> List[int]:
        """Measure each qubit in its basis, in order; returns the bits.

        Draws ``rng.random(len(qubits))`` once, which yields exactly the values
        of one ``rng.random()`` per qubit, so the outcomes and the generator's
        state afterwards equal those of a loop of :meth:`measure` calls.  Each
        qubit is still read by one :meth:`measure` call, so anything that
        counts or times ``measure`` sees every single-qubit measurement.
        """
        if len(qubits) != len(bases):
            raise ValueError("measure_all needs one basis per qubit")
        measure = self.measure
        draws = rng.random(len(qubits)).tolist()
        return [measure(q, b, rng, d).bit for q, b, d in zip(qubits, bases, draws)]

    def bell_measure(
        self,
        q1: QubitRef,
        q2: QubitRef,
        rng: np.random.Generator,
        draw: Optional[float] = None,
    ) -> BellOutcome:
        """Joint projective measurement of (q1, q2) in the Bell basis.

        The pair collapses onto the reported Bell state; both qubits stay in
        the register so callers may keep using or discard them.  The outcome
        is the first whose running probability sum exceeds ``draw``; without
        a ``draw`` the uniform number is ``rng.random()``.
        """
        if q1 == q2:
            raise ValueError("bell_measure needs two distinct qubits")
        sv = self._merge(q1, q2)
        order = sv.qubit_order
        amps = sv.amps
        s = _SQRT_HALF
        if draw is None:
            draw = rng.random()
        if len(order) == 2:
            # The loop below for its one quad.  A sum of squares is never -0.0,
            # so each running sum may start at its first term instead of 0.0.
            first = order[0] == q1
            a00, a01, a10, a11 = amps if first else (amps[0], amps[2], amps[1], amps[3])
            c0, c1, c2, c3 = s * (a00 + a11), s * (a00 - a11), s * (a01 + a10), s * (a01 - a10)
            p0 = c0.real * c0.real + c0.imag * c0.imag
            p1 = c1.real * c1.real + c1.imag * c1.imag
            p2 = c2.real * c2.real + c2.imag * c2.imag
            p3 = c3.real * c3.real + c3.imag * c3.imag
            acc1 = p0 + p1
            acc2 = acc1 + p2
            if draw < p0:
                idx = 0
            elif draw < acc1:
                idx = 1
            elif draw < acc2:
                idx = 2
            elif draw < acc2 + p3 or p3 > 0.0:
                idx = 3
            else:
                # The rounding fall-through: the last outcome that can occur.
                idx = 2 if p2 > 0.0 else 1 if p1 > 0.0 else 0
            picked = (c0, c1, c2, c3)[idx] * (1.0 / math.sqrt((p0, p1, p2, p3)[idx]))
            outcome = _BELL_BY_CODE[idx]
            v00, v01, v10, v11 = outcome.amplitudes
            b00, b01, b10, b11 = v00 * picked, v01 * picked, v10 * picked, v11 * picked
            sv.amps = [b00, b01, b10, b11] if first else [b00, b10, b01, b11]
            return outcome
        quads = _quarters(len(order), order.index(q1), order.index(q2))
        # <bell_i|psi> for each Bell state i, per setting of the other qubits.
        coeffs = []
        p0 = p1 = p2 = p3 = 0.0
        for i00, i01, i10, i11 in quads:
            a00, a01, a10, a11 = amps[i00], amps[i01], amps[i10], amps[i11]
            c0, c1, c2, c3 = s * (a00 + a11), s * (a00 - a11), s * (a01 + a10), s * (a01 - a10)
            coeffs.append((c0, c1, c2, c3))
            p0 += c0.real * c0.real + c0.imag * c0.imag
            p1 += c1.real * c1.real + c1.imag * c1.imag
            p2 += c2.real * c2.real + c2.imag * c2.imag
            p3 += c3.real * c3.real + c3.imag * c3.imag
        probs = (p0, p1, p2, p3)
        acc = 0.0
        for idx, p in enumerate(probs):
            acc += p
            if draw < acc:
                break
        else:
            # Rounding left sum(probs) <= draw: take the last outcome that can occur.
            idx = max(i for i, p in enumerate(probs) if p > 0.0)
        scale = 1.0 / math.sqrt(probs[idx])
        outcome = _BELL_BY_CODE[idx]
        v00, v01, v10, v11 = outcome.amplitudes
        for (i00, i01, i10, i11), c in zip(quads, coeffs):
            picked = c[idx] * scale
            amps[i00] = v00 * picked
            amps[i01] = v01 * picked
            amps[i10] = v10 * picked
            amps[i11] = v11 * picked
        return outcome

    # -- disposal ----------------------------------------------------------

    def discard(self, q: QubitRef) -> None:
        """Remove a qubit that is in a product state with everything else."""
        sv = self._where.get(q)
        if sv is None:
            raise self._dead(q)
        if type(sv) is not tuple:
            order = sv.qubit_order
            amps = sv.amps
            pair = len(order) == 2
            if pair:
                # The kernel below, unrolled over q's two index pairs; the
                # survivor is stored as a bare pair.
                first = order[0] == q
                x0, x1, y0, y1 = amps if first else (amps[0], amps[2], amps[1], amps[3])
                g00 = (x0.real * x0.real + x0.imag * x0.imag) + (
                    x1.real * x1.real + x1.imag * x1.imag
                )
                g11 = (y0.real * y0.real + y0.imag * y0.imag) + (
                    y1.real * y1.real + y1.imag * y1.imag
                )
                g01 = 0j + x0.conjugate() * y0 + x1.conjugate() * y1
            else:
                # The qubit's reduced state is the Gram matrix of its two halves.
                zeros, ones = _halves(len(order), order.index(q))
                g00 = g11 = 0.0
                g01 = 0j
                for i, j in zip(zeros, ones):
                    x, y = amps[i], amps[j]
                    g00 += x.real * x.real + x.imag * x.imag
                    g11 += y.real * y.real + y.imag * y.imag
                    g01 += x.conjugate() * y
            purity = g00 * g00 + g11 * g11 + 2.0 * (g01.real**2 + g01.imag**2)
            if purity < 1.0 - PURITY_ATOL:
                raise EntangledDiscardError(f"{q} is still entangled (purity {purity:.6f})")
            # In a product state both halves are multiples of the remainder;
            # the larger one, normalised, is it up to a global phase.
            lower = g00 >= g11
            norm = math.sqrt(g00 if lower else g11)
            if pair:
                x, y = (x0, x1) if lower else (y0, y1)
                self._where[order[first]] = (x / norm, y / norm)
            else:
                sv.amps = [amps[i] / norm for i in (zeros if lower else ones)]
                sv.qubit_order = [r for r in order if r != q]
        del self._where[q]

    # -- inspection --------------------------------------------------------

    def reduced_density(self, qubits: Sequence[QubitRef]) -> np.ndarray:
        """Density matrix of the listed qubits, in the listed order."""
        if not qubits:
            raise ValueError("reduced_density needs at least one qubit")
        if len(set(qubits)) != len(qubits):
            raise ValueError("duplicate qubit in reduced_density request")
        by_factor: Dict[StateVector, List[QubitRef]] = {}
        for q in qubits:
            by_factor.setdefault(self._locate(q), []).append(q)
        rho: Optional[np.ndarray] = None
        built_order: List[QubitRef] = []
        for sv, qs in by_factor.items():
            axes = [sv.axis_of(q) for q in qs]
            r = len(qs)
            arr = np.moveaxis(sv.tensor(), axes, range(r)).reshape(2**r, -1)
            block = arr @ arr.conj().T
            rho = block if rho is None else np.kron(rho, block)
            built_order.extend(qs)
        if built_order != list(qubits):
            m = len(qubits)
            perm = [built_order.index(q) for q in qubits]
            t = rho.reshape((2,) * (2 * m))
            t = np.transpose(t, perm + [m + p for p in perm])
            rho = t.reshape(2**m, 2**m)
        return rho

    def state_fidelity(self, qubits: Sequence[QubitRef], target: np.ndarray) -> float:
        """Overlap <target| rho |target> of the qubits' joint state.

        A read of exactly one whole factor is cached (see ``_FIDELITY_CACHE``),
        so an honest batch, whose groups are all the same prepared state,
        computes its fidelity once; a hit returns the float this computation
        gave for bit-identical inputs.
        """
        target = np.asarray(target, dtype=complex).reshape(-1)
        if target.shape != (2 ** len(qubits),):
            raise ValueError("target vector has the wrong dimension")
        whole = self._whole_factor(qubits)
        if whole is None:
            rho = self.reduced_density(qubits)
            return float((target.conj() @ rho @ target).real)
        sv, perm = whole
        # The same bytes as sv.tensor().tobytes(); the tensor is built only on a miss.
        key = (np.array(sv.amps, dtype=complex).tobytes(), perm, target.tobytes())
        fidelity = _FIDELITY_CACHE.get(key)
        if fidelity is None:
            if len(_FIDELITY_CACHE) >= FIDELITY_CACHE_SIZE:
                _FIDELITY_CACHE.clear()
            arr = sv.tensor().transpose(perm).reshape(-1, 1)
            rho = arr @ arr.conj().T
            fidelity = _FIDELITY_CACHE[key] = float((target.conj() @ rho @ target).real)
        return fidelity

    def _whole_factor(
        self, qubits: Sequence[QubitRef]
    ) -> Optional[Tuple[StateVector, Tuple[int, ...]]]:
        """The factor that is exactly ``qubits``, with the axis permutation that
        puts it in the requested order; None for any other set."""
        if not qubits or qubits[0] not in self._where:
            return None
        sv = self._locate(qubits[0])
        order = sv.qubit_order
        if len(order) != len(qubits):
            return None
        if list(qubits) == order:
            return sv, tuple(range(len(order)))
        # The set test comes first: order.index fails on a foreign qubit.
        if set(order) == set(qubits):
            return sv, tuple(order.index(q) for q in qubits)
        return None


def is_bell_product(register: QuantumRegister, q1: QubitRef, q2: QubitRef) -> BellPairCheck:
    """Check that (q1, q2) form a pure phi+ pair decoupled from the rest.

    Passes only when the pair's reduced state has purity within 1e-9 of one
    (no residual entanglement with anything else) and overlap with the phi+
    state of at least 1 - 1e-9.
    """
    rho = register.reduced_density([q1, q2])
    purity = float(np.trace(rho @ rho).real)
    target = bell_vector(BellOutcome.PHI_PLUS)
    fidelity = float((target.conj() @ rho @ target).real)
    passed = purity >= 1.0 - PURITY_ATOL and fidelity >= 1.0 - PURITY_ATOL
    return BellPairCheck(passed, purity, fidelity)


def couple_probe(u: np.ndarray, label: str) -> np.ndarray:
    """The 4x4 unitary ``u`` applied to the label's state (x) a |0> probe, as a
    2x2 array: row b holds the probe's amplitudes beside the carried qubit's |b>."""
    vec = state_vector_for_label(label)
    out = np.asarray(u, dtype=complex) @ np.kron(vec, state_vector_for_label("0"))
    return out.reshape(2, 2)


def attempt_clone_unitary(
    u: np.ndarray,
    test_states: Iterable[str] = SINGLE_STATE_LABELS,
) -> Dict[str, float]:
    """Score a candidate copying unitary on qubit (x) ancilla.

    For every requested input state ``s`` the candidate is applied to
    s (x) |0> and the squared overlap with the perfect copy s (x) s is
    returned.  No unitary scores ~1 on all four preparation states at once;
    the harness uses this as a falsification search.
    """
    u = _check_unitary(u, 4)
    scores: Dict[str, float] = {}
    for label in test_states:
        vec = state_vector_for_label(label)
        out = couple_probe(u, label)
        target = np.kron(vec, vec)
        amp = np.vdot(target, out)
        scores[label] = float((amp * amp.conjugate()).real)
    return scores
