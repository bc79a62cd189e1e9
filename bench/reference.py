"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports augcov: the container is parsed from its documented
byte layout, the augmented covariance is built by stacking delayed copies and
multiplying, the Ledoit-Wolf intensity follows its textbook sum over samples,
and the Riemannian gradient at a mean is taken through numpy eigensolvers.
"""

from __future__ import annotations

import json

import numpy as np


def read_container(path):
    """(manifest, epochs as an (n, d, T) array) from the documented layout:
    one JSON manifest line, then little-endian float64 epochs, row-major."""
    with open(path, "rb") as fh:
        manifest = json.loads(fh.readline())
        payload = fh.read()
    d, t = int(manifest["d"]), int(manifest["T"])
    return manifest, np.frombuffer(payload, dtype="<f8").reshape(-1, d, t)


def stack_delays(x, order, lag):
    """Rows k*d..(k+1)*d-1 hold x[:, k*lag : k*lag + width]."""
    d, t = x.shape
    width = t - (order - 1) * lag
    return np.vstack([x[:, k * lag:k * lag + width] for k in range(order)])


def ledoit_wolf_lambda(y):
    """Shrinkage intensity min(b2, d2) / d2 of the 1/m covariance S, with
    b2 = sum_t |y_t y_t^T - S|_F^2 / (n m^2) expanded per sample as
    |y_t|^4 - 2 y_t^T S y_t + |S|_F^2."""
    n, m = y.shape
    s = (y @ y.T) / m
    mu = np.trace(s) / n
    d2 = np.sum((s - mu * np.eye(n)) ** 2) / n
    sq_norms = np.einsum("it,it->t", y, y)
    quad = np.einsum("it,ij,jt->t", y, s, y)
    b2 = (np.sum(sq_norms ** 2) - 2.0 * np.sum(quad) + m * np.sum(s * s)) / (n * m * m)
    return min(b2, d2) / d2


def augmented_covariance(x, order, lag, shrink):
    y = stack_delays(x, order, lag)
    n, m = y.shape
    c = (y @ y.T) / (m - 1)
    if not shrink:
        return c
    lam = ledoit_wolf_lambda(y)
    return (1.0 - lam) * c + lam * (np.trace(c) / n) * np.eye(n)


def _eig_fn(m, fn):
    w, u = np.linalg.eigh(0.5 * (m + m.T))
    return (u * fn(w)) @ u.T


def riemannian_gradient_norm(mean, mats):
    """|mean_i log(M^-1/2 P_i M^-1/2)|_F, zero exactly at the Frechet mean
    whatever the scale of the matrices."""
    isqrt = _eig_fn(mean, lambda w: 1.0 / np.sqrt(w))
    grad = np.mean([_eig_fn(isqrt @ p @ isqrt, np.log) for p in mats], axis=0)
    return float(np.linalg.norm(grad))


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which strict JSON lacks."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)
