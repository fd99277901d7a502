"""Byte-stability guard for the oracles: every enumerated rate and probe score
must keep its last bit.

Reports pin an oracle only through the one rate a batch prints.  Each case
here hashes the ``float.hex`` of every number one oracle function returns on a
fixed set of inputs, so a change that reorders the operands of the numpy
expression behind it shows even where the rounded value would not.  The
probe scores run on the bit-copy probe (CNOT), on ``partial_probe_unitary`` at
a few angles and on seeded Haar-random unitaries; ``detection_oracle`` runs on
every attack name at two configs.  Like the fidelity pins in
``test_report_hashes.py``, the bytes depend on numpy's matrix-product and
linear-algebra rounding, so another numpy build may need them re-derived from
an unchanged tree.  Update a pinned value only for a change that is meant to
alter an oracle's arithmetic, and say so where it lands.
"""

import hashlib

import numpy as np
import pytest

from eprlink.adversaries import (
    ATTACK_NAMES,
    attack_from_name,
    detection_oracle,
    partial_probe_unitary,
    pauli_disturbance_table,
    probe_decoy_detection,
    probe_guessing,
    probe_interaction_scores,
    random_probe_unitary,
    swap_check_pass_table,
)
from eprlink.protocol import EstablishmentConfig
from eprlink.qcore import Basis, attempt_clone_unitary, cnot_matrix

_UNITARIES = (
    [cnot_matrix()]
    + [partial_probe_unitary(theta) for theta in (0.3, 1.0, 2.5, np.pi)]
    + [random_probe_unitary(np.random.default_rng(seed)) for seed in (0, 1, 2)]
)

_CONFIGS = (
    EstablishmentConfig(m_pairs=10, n_decoys=3),
    EstablishmentConfig(m_pairs=7, n_decoys=10, check_fraction=0.5),
)


def _detection_oracles():
    for cfg in _CONFIGS:
        for name in ATTACK_NAMES:
            rate, source = detection_oracle(attack_from_name(name), cfg, True)
            yield source
            yield rate


def _per_unitary(score):
    def values():
        for u in _UNITARIES:
            yield from score(u)

    return values


def _table(make):
    def values():
        for row in make().values():
            yield from row.values() if isinstance(row, dict) else (row,)

    return values


CASES = {
    "detection_oracle": (
        _detection_oracles,
        "d789a6320db3cf6c1da115dad3e4d2158ed42bd0fabce8d185dec456b17795e5",
    ),
    "probe_interaction_scores": (
        _per_unitary(probe_interaction_scores),
        "3e0c567179c752b336fdb426d9023771b59b18be125d37a444bc4ebaff109ab2",
    ),
    "probe_guessing": (
        _per_unitary(lambda u: (probe_guessing(u, Basis.Z), probe_guessing(u, Basis.X))),
        "64233f65ed5722e0c05971ac400162d4decce761defab3e64b9abc72217a70a6",
    ),
    "probe_decoy_detection": (
        _per_unitary(lambda u: (probe_decoy_detection(u, 1), probe_decoy_detection(u, 7))),
        "5bd700bec01b1a05201dc1fbb422be7ec43f400b724345b0fa7d85827f53379a",
    ),
    "attempt_clone_unitary": (
        _per_unitary(lambda u: attempt_clone_unitary(u).values()),
        "a880b469669a1ca004a756e02d65c3cfe733f281d2461a4b52fa3c8e886e09ac",
    ),
    "swap_check_pass_table": (
        _table(swap_check_pass_table),
        "7e83d086bfb09f3bd74a0a3762e8055f2fafc74bec4995267f15939cfa39449c",
    ),
    "pauli_disturbance_table": (
        _table(pauli_disturbance_table),
        "1b060640afdf2a839d731f71b5060c45488703b3db6b3d2119024d25b38c86a4",
    ),
}


def _digest(values) -> str:
    text = "\n".join(v if isinstance(v, str) else float.hex(v) for v in values)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_oracle_bits_are_pinned(name):
    values, expected = CASES[name]
    assert _digest(values()) == expected
