"""Seeded inputs of the benchmark workloads.

The AR generator specs go to `augcov simulate`; the sinusoid containers are
written by running this file, which builds them with numpy and stores them
with `augcov.data.write_epochset`:

    python3 bench/inputs.py sines OUT_DIR SEED

writes OUT_DIR/noisy.acm and OUT_DIR/clean.acm.
"""

from __future__ import annotations

import sys

import numpy as np

# grid-svm: the README walkthrough data, one session. Class 0 is white
# noise, class 1 a rotation-driven AR(1) with the same stationary covariance,
# so only lagged statistics (order >= 2) can tell the classes apart.
GRID_EPOCHS_PER_CLASS = 60
GRID_MAX_ORDER = 3
GRID_MAX_LAG = 3
GRID_SAMPLES = 512

# eeg-mdm: the same two dynamics on 22 channels (11 rotation blocks), mixed
# by a seeded orthogonal matrix so the channels are correlated; two sessions
# for the cross-session route. Order 10 gives SPD dimension 220.
EEG_CHANNELS = 22
EEG_EPOCHS_PER_CLASS = 20
EEG_SAMPLES = 512
EEG_ORDER = 10
EEG_LAG = 1

# estimate: multichannel sinusoids of a known period. With noise the AMI
# delay is a quarter period; without, the signal lives on a closed curve and
# MDOP must stop at dimension 2.
SINE_PERIOD = 24
SINE_CHANNELS = 4
SINE_EPOCHS = 6
SINE_SAMPLES = 768
SINE_NOISE = 0.3

ROTATION = [[0.0, -0.4], [0.4, 0.0]]


def _seed(seed, workload):
    return int(np.random.SeedSequence([seed, workload]).generate_state(1)[0])


def grid_svm_spec(seed):
    return {
        "coefficients": [[], [ROTATION]],
        "innovations": [np.eye(2).tolist(), (0.84 * np.eye(2)).tolist()],
        "lag": 1, "n_samples": GRID_SAMPLES,
        "epochs_per_class": GRID_EPOCHS_PER_CLASS,
        "seed": _seed(seed, 1), "n_sessions": 1, "subject": "sim01",
    }


def eeg_mdm_spec(seed):
    rng = np.random.default_rng(_seed(seed, 2))
    q, _ = np.linalg.qr(rng.standard_normal((EEG_CHANNELS, EEG_CHANNELS)))
    rotation = np.kron(np.eye(EEG_CHANNELS // 2), ROTATION)
    return {
        "coefficients": [[], [(q @ rotation @ q.T).tolist()]],
        "innovations": [np.eye(EEG_CHANNELS).tolist(),
                        (0.84 * np.eye(EEG_CHANNELS)).tolist()],
        "lag": 1, "n_samples": EEG_SAMPLES,
        "epochs_per_class": EEG_EPOCHS_PER_CLASS,
        "seed": _seed(seed, 3), "n_sessions": 2, "subject": "eeg22",
    }


def sine_epochs(seed, noise):
    """(SINE_EPOCHS, SINE_CHANNELS, SINE_SAMPLES) sinusoids with seeded
    phases and amplitudes, plus white noise of the given size."""
    rng = np.random.default_rng(_seed(seed, 4))
    shape = (SINE_EPOCHS, SINE_CHANNELS, 1)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    amp = rng.uniform(0.5, 2.0, size=shape)
    t = np.arange(SINE_SAMPLES)
    x = amp * np.sin(2.0 * np.pi * t / SINE_PERIOD + phase)
    return x + noise * rng.standard_normal(x.shape)


def write_sines(out_dir, seed):
    from augcov.covariance import Epoch
    from augcov.data import EpochSet, Session, write_epochset

    for name, noise in (("noisy", SINE_NOISE), ("clean", 0.0)):
        epochs = [Epoch(x, 250.0) for x in sine_epochs(seed, noise)]
        labels = [i % 2 for i in range(len(epochs))]
        write_epochset(
            EpochSet(f"sine-{name}", [Session("s0", epochs, labels)], ["a", "b"]),
            f"{out_dir}/{name}.acm",
        )


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] != "sines":
        raise SystemExit("usage: inputs.py sines OUT_DIR SEED")
    write_sines(sys.argv[2], int(sys.argv[3]))
