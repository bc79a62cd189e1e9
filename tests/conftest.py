import numpy as np
import pytest

from augcov.covariance import AugmentedParams, Epoch, EpochStack, augmented_covariance
from augcov.spd import SpdMatrix, SpdStack, distances_from, symm_fn


def random_spd(rng, dim, scale=1.0, cond=10.0):
    """Well-conditioned random SPD matrix with spectrum in [scale/cond, scale]."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = scale * (1.0 / cond + (1.0 - 1.0 / cond) * rng.random(dim))
    return SpdMatrix((q * eigs) @ q.T)


def random_symmetric(rng, dim, scale=1.0):
    m = rng.standard_normal((dim, dim)) * scale
    return 0.5 * (m + m.T)


def spd_stack(mats):
    """The SpdStack of a sequence of SpdMatrix (or of arrays), in order."""
    return SpdStack(np.stack([getattr(m, "values", m) for m in mats]))


def full_values(stack):
    """The (n, k, k) matrices of an SpdStack, unpacked one at a time."""
    return np.stack([m.values for m in stack])


def epoch_stack(epochs):
    """The EpochStack of a sequence of same-shape Epoch, in order."""
    return EpochStack(np.stack([e.data for e in epochs]), epochs[0].sample_rate)


def pair_distance(p1, p2):
    """Affine-invariant distance between two SpdMatrix: distances_from for one pair."""
    return float(distances_from(symm_fn(p1.values, "inv_sqrt"), spd_stack([p2]))[0])


def ar_coefficients(x, p):
    """AR(p) coefficients [A_1, ..., A_p] of a d x T signal from the Yule-Walker
    blocks of its unshrunk order-(p + 1) augmented covariance C at lag 1:
    [A_p ... A_1] C[:pd, :pd] = C[pd:, :pd]."""
    d = len(x)
    c = augmented_covariance(Epoch(x, 250.0), AugmentedParams(p + 1, 1), shrink=False).values
    stacked = np.linalg.solve(c[:p * d, :p * d], c[:p * d, p * d:]).T  # [A_p ... A_1]
    return [stacked[:, (p - i) * d:(p - i + 1) * d] for i in range(1, p + 1)]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
