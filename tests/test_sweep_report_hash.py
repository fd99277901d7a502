"""Byte-stability guard for a sweep: every point's report, in one pinned JSON document.

The sweep is criterion 03's shape (intercept-resend at 1, 5, 10 and 20 decoys)
at a small trial count.  Each point draws from its own derived seed, so a
change to the per-point seeding or to any draw inside a trial changes the hash.
The reports hold only counts and closed-form rates, so the bytes do not depend
on the host's floating-point libraries.  Update the pinned value only for a
change that is meant to alter the random stream, and say so where it lands.
"""

import hashlib

from eprlink.harness import ExperimentConfig, attack_from_name, emit_report, run_sweep
from eprlink.protocol import EstablishmentConfig

INTERCEPT_SWEEP_SHA256 = "7cc4994d76a8370bfe0e0794b27ffa0e09f8a9c94234dd83b376a6943425549a"


def test_intercept_resend_sweep_report_bytes_are_pinned():
    ec = ExperimentConfig(
        scenario="establish",
        attack=attack_from_name("intercept_resend"),
        cfg=EstablishmentConfig(m_pairs=2, n_decoys=1, check_fraction=0.5),
        measure_fidelity=False,
        trials=60,
        seed=21,
        sweep_param="n_decoys",
        sweep_values=(1, 5, 10, 20),
    )
    reports = run_sweep(ec)
    assert [r.n_decoys for r in reports] == [1, 5, 10, 20]
    text = emit_report(reports)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == INTERCEPT_SWEEP_SHA256
