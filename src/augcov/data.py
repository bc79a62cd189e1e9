"""Epoch containers, the synthetic AR-process generator used for desk-scale
verification, and the on-disk epoch format.

The generator runs one time loop per (session, class) block of epochs. Each
epoch still draws its innovations from its own (seed, session, class, epoch)
substream, and each step makes the same per-epoch matrix-vector products as
an epoch-by-epoch loop, so the containers are byte-identical to that loop's.

The container format is a single UTF-8 JSON manifest line followed by the
raw little-endian float64 payload, epoch-major row-major, sessions
concatenated in manifest order. It round-trips bit-exactly.

Memory: a container read from a regular file stays on disk. read_epochset
checks its payload a few epochs at a time and keeps the file open; the set's
stack reads an epoch (os.pread) only when a covariance or the caller asks for
it. Its sub-stacks (sessions, splits, folds) are views of the same file, and
it closes when the last of them is dropped. A pipe has no offsets, so its
payload is read whole into one buffer, as it is where os.pread is missing.
write_epochset replaces a regular file whole, so a run still reading the old
container keeps its epochs.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import shutil
import stat
import threading
import weakref
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .covariance import EpochStack, as_epochs, check_epochs
from .errors import (FormatError, InvalidEpoch, UnstableSpec, VersionUnsupported, check_integer,
                     check_positive)
from .spd import SYM_RTOL

FORMAT_NAME = "acm-epochs"
FORMAT_VERSION = 1
_CHECK_BYTES = 1 << 15  # read_epochset checks a file's payload this many bytes at a time


@dataclass(frozen=True)
class Session:
    """One recording session: an EpochStack (or a non-empty list of Epoch,
    stacked once) plus integer class labels (errors.check_integer, else
    InvalidEpoch)."""

    session_id: str
    epochs: EpochStack
    labels: list

    def __post_init__(self):
        object.__setattr__(self, "epochs", as_epochs(self.epochs))
        if len(self.epochs) != len(self.labels):
            raise InvalidEpoch(
                f"session {self.session_id!r}: {len(self.epochs)} epochs but "
                f"{len(self.labels)} labels"
            )
        for v in self.labels:
            check_integer(f"session {self.session_id!r} label", v, 0, InvalidEpoch)
        object.__setattr__(self, "labels", [int(v) for v in self.labels])


@dataclass(frozen=True)
class EpochSet:
    """Labeled epochs for one subject, grouped by session. All epochs form
    one stack, `epochs`, in session order, and each session's stack is a
    slice of it. The given sessions are copied once into that stack;
    generate_ar_dataset builds the stack first and makes no copy, and
    read_epochset's stack reads its file on demand."""

    subject: str
    sessions: list
    class_names: list
    sample_rate: float = field(init=False)
    epochs: EpochStack = field(init=False, repr=False)

    def __post_init__(self):
        if not self.sessions:
            raise InvalidEpoch("EpochSet needs at least one session")
        _hold(self, as_epochs([s.epochs for s in self.sessions]),
              [(s.session_id, s.labels) for s in self.sessions])

    def __reduce__(self):  # one payload; the sessions come back as views of it
        return _split, (self.subject, self.epochs,
                        [(s.session_id, s.labels) for s in self.sessions], self.class_names)

    def all_epochs(self) -> tuple[EpochStack, np.ndarray]:
        """Every epoch in session order, as (stack, labels)."""
        labels = np.array([v for s in self.sessions for v in s.labels], dtype=int)
        return self.epochs, labels


def _split(subject, stack: EpochStack, sessions, class_names) -> EpochSet:
    """An EpochSet that holds stack itself, without a copy; sessions are
    (id, labels) pairs whose epochs are consecutive slices of stack."""
    epoch_set = object.__new__(EpochSet)
    object.__setattr__(epoch_set, "subject", subject)
    object.__setattr__(epoch_set, "class_names", class_names)
    return _hold(epoch_set, stack, sessions)


def _hold(epoch_set: EpochSet, whole: EpochStack, sessions) -> EpochSet:
    """Check the names and labels and make epoch_set hold whole, each session
    of (id, labels) pairs a slice of it in order. The names are strings, as
    read_epochset requires, and the ids name output files, so they must be
    free of path separators and unique once a file name writes ':' as '_'
    (as the grid maps' names do)."""
    if not len(whole):
        raise InvalidEpoch("EpochSet needs at least one epoch")
    ids = [session_id for session_id, _ in sessions]
    if not all(isinstance(name, str) for name in [epoch_set.subject, *epoch_set.class_names, *ids]):
        raise InvalidEpoch("the subject, the class names and the session ids must be strings")
    stems = [session_id.replace(":", "_") for session_id in ids]
    for session_id, stem in zip(ids, stems):
        if stems.count(stem) > 1:
            raise InvalidEpoch(f"session id {session_id!r} is not unique in file names, "
                               f"where ':' is written '_'")
        if "/" in session_id or "\\" in session_id:
            raise InvalidEpoch(f"session id {session_id!r} holds a path separator")
    n_classes = len(epoch_set.class_names)
    parts, start = [], 0
    for session_id, labels in sessions:
        bad = [v for v in labels if not 0 <= v < n_classes]
        if bad:
            raise InvalidEpoch(f"session {session_id!r} has labels {bad} outside "
                               f"[0, {n_classes})")
        parts.append(Session(session_id, whole[start:start + len(labels)], labels))
        start += len(labels)
    object.__setattr__(epoch_set, "sessions", parts)
    object.__setattr__(epoch_set, "sample_rate", whole.sample_rate)
    object.__setattr__(epoch_set, "epochs", whole)
    return epoch_set


# -- synthetic AR generator --------------------------------------------

@dataclass(frozen=True, eq=False)
class ArSpec:
    """Generator description: per-class AR coefficients and innovation
    covariances, the generator lag, epoch geometry and the seed.

    coefficients[c] is the list [A_1, ..., A_p] for class c; innovation[c]
    the SPD innovation covariance U for class c. Every class must define a
    stable process (companion spectral radius < 1). Every field is checked
    here, once: a bad one raises UnstableSpec.

    Two specs are equal when every field is, matrices compared entry by
    entry. A spec is not hashable: it holds numpy matrices, which may be
    the caller's own arrays.
    """

    coefficients: list
    innovations: list
    n_samples: int
    epochs_per_class: int
    seed: int
    lag: int = 1
    sample_rate: float = 250.0
    n_sessions: int = 1
    subject: str = "sim"

    def __post_init__(self):
        for name, low in (("lag", 1), ("n_samples", 2), ("epochs_per_class", 1),
                          ("n_sessions", 1), ("seed", 0)):
            value = getattr(self, name)
            check_integer(name, value, low, UnstableSpec)
            object.__setattr__(self, name, int(value))
        check_positive("sample_rate", self.sample_rate, UnstableSpec)
        object.__setattr__(self, "sample_rate", float(self.sample_rate))
        object.__setattr__(self, "subject", str(self.subject))
        try:
            classes = [list(cls) for cls in self.coefficients]
            innovations = list(self.innovations)
        except TypeError:
            raise UnstableSpec("coefficients must be a list of per-class lists of "
                               "matrices and innovations a list of matrices") from None
        if len(classes) != len(innovations):
            raise UnstableSpec("one innovation covariance per class required")
        if not classes:
            raise UnstableSpec("at least one class required")
        d = _matrix(innovations[0], "class 0 innovation").shape[0]
        innov = [_matrix(u, f"class {c} innovation", d) for c, u in enumerate(innovations)]
        coeffs = [[_matrix(a, f"class {c} coefficient {i + 1}", d) for i, a in enumerate(cls)]
                  for c, cls in enumerate(classes)]
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "innovations", innov)
        for c, (cls, u) in enumerate(zip(coeffs, innov)):
            asym = np.linalg.norm(u - u.T)
            if asym > SYM_RTOL * np.linalg.norm(u):
                raise UnstableSpec(f"class {c} innovation covariance is asymmetric: |U - U^T|_F "
                                   f"= {asym:.3e} exceeds {SYM_RTOL:g} * |U|_F")
            if np.linalg.eigvalsh(u)[0] <= 0:
                raise UnstableSpec(f"class {c} innovation covariance is not SPD")
            rho = companion_spectral_radius(cls, self.lag)
            if rho >= 1.0:
                raise UnstableSpec(
                    f"class {c} AR process is unstable: spectral radius {rho:.4f} >= 1"
                )

    def __eq__(self, other):
        if not isinstance(other, ArSpec):
            return NotImplemented
        pairs = zip([self.innovations, *self.coefficients],
                    [other.innovations, *other.coefficients])
        return (len(self.coefficients) == len(other.coefficients)
                and all(len(a) == len(b) and all(map(np.array_equal, a, b)) for a, b in pairs)
                and all(getattr(self, f.name) == getattr(other, f.name) for f in fields(self)
                        if f.name not in ("coefficients", "innovations")))

    __hash__ = None

    @property
    def n_classes(self) -> int:
        return len(self.coefficients)

    @property
    def n_channels(self) -> int:
        return self.innovations[0].shape[0]


def _matrix(value, what: str, d: int | None = None) -> np.ndarray:
    """value as a finite float matrix, d x d (any square size when d is None)."""
    try:
        m = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise UnstableSpec(f"{what} is not a numeric matrix") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size or d not in (None, m.shape[0]):
        size = "a square" if d is None else f"a {d}x{d}"
        raise UnstableSpec(f"{what} must be {size} matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise UnstableSpec(f"{what} has a non-finite entry")
    return m


def companion_spectral_radius(coefficients: list, lag: int) -> float:
    """Spectral radius of the companion matrix of X_t = sum A_i X_{t-i*lag}.

    The lagged process is a VAR(p*lag) with zero blocks at non-multiples of
    lag; an empty coefficient list (white noise) has radius 0.
    """
    if not coefficients:
        return 0.0
    d = coefficients[0].shape[0]
    span = len(coefficients) * lag
    comp = np.zeros((d * span, d * span))
    for i, a in enumerate(coefficients):
        k = (i + 1) * lag
        comp[:d, (k - 1) * d:k * d] = a
    if span > 1:
        comp[d:, :-d] = np.eye(d * (span - 1))
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


def generate_ar_dataset(spec: ArSpec) -> EpochSet:
    """Draw a labeled EpochSet from per-class AR processes.

    Each epoch is simulated from zero initial history with a burn-in of
    10 * order * lag samples discarded. Epoch substreams are derived from
    (seed, session, class, epoch) counters, so output is identical however
    the work is distributed. All sessions fill one (n, d, T) array.
    """
    n = spec.epochs_per_class
    labels = [c for c in range(spec.n_classes) for _ in range(n)]
    values = np.empty((spec.n_sessions * len(labels), spec.n_channels, spec.n_samples))
    for i, (s_idx, c_idx) in enumerate(itertools.product(
            range(spec.n_sessions), range(spec.n_classes))):
        values[i * n:(i + 1) * n] = _simulate_block(spec, s_idx, c_idx).transpose(1, 2, 0)
    sessions = [(f"session{s_idx}", labels) for s_idx in range(spec.n_sessions)]
    class_names = [f"class{c}" for c in range(spec.n_classes)]
    return _split(spec.subject, EpochStack(values, spec.sample_rate), sessions, class_names)


def _simulate_block(spec: ArSpec, s_idx: int, c_idx: int) -> np.ndarray:
    """The (T, epochs_per_class, d) samples of one (session, class) block.

    Each epoch draws chol @ z from its own substream; one time loop then
    steps every epoch at once. np.matmul of a by the stacked (d, 1) columns
    makes the same matrix-vector product per epoch as a @ x_e, so the bits
    equal those of an epoch-by-epoch loop (a single GEMM would not).
    """
    coeffs = spec.coefficients[c_idx]
    chol = np.linalg.cholesky(spec.innovations[c_idx])
    burn_in = 10 * len(coeffs) * spec.lag
    total = spec.n_samples + burn_in
    x = np.empty((total, spec.epochs_per_class, spec.n_channels))
    for e_idx in range(spec.epochs_per_class):
        ss = np.random.SeedSequence(entropy=spec.seed, spawn_key=(s_idx, c_idx, e_idx))
        rng = np.random.Generator(np.random.PCG64(ss))
        x[:, e_idx] = (chol @ rng.standard_normal((spec.n_channels, total))).T
    for t in range(spec.lag, total):
        for i, a in enumerate(coeffs):
            back = (i + 1) * spec.lag
            if t < back:
                break
            x[t] += np.matmul(a, x[t - back][..., None])[..., 0]
    return x[burn_in:]


def ar_spec_from_dict(raw: dict) -> ArSpec:
    """Build an ArSpec from parsed JSON (the CLI's inline/file input). The
    keys are ArSpec's field names; a field with a default may be left out."""
    if not isinstance(raw, dict):
        raise UnstableSpec(f"generator spec must be a JSON object, got {type(raw).__name__}")
    names = [f.name for f in fields(ArSpec)]
    unknown = sorted(set(raw) - set(names))
    if unknown:
        raise UnstableSpec(f"generator spec has unknown fields {unknown}; the fields are {names}")
    for f in fields(ArSpec):
        if f.default is MISSING and f.name not in raw:
            raise UnstableSpec(f"generator spec is missing field {f.name!r}")
    return ArSpec(**raw)


# -- container format --------------------------------------------------

class _Payload:
    """The n epochs of an open container file, (d, T) float64 each, from byte
    start on. The descriptor closes when the last holder is dropped."""

    def __init__(self, fd: int, start: int, n: int, d: int, t: int):
        self.fd, self.start, self.shape, self.nbytes = fd, start, (n, d, t), d * t * 8
        weakref.finalize(self, os.close, fd)

    def __getitem__(self, r) -> np.ndarray:
        """Epoch r in a fresh read-only array, from one os.pread; a short read
        (the file was truncated after it was opened) raises FormatError."""
        offset = self.start + int(r) * self.nbytes
        raw = os.pread(self.fd, self.nbytes, offset)
        if len(raw) != self.nbytes:
            raise FormatError(f"epoch {r} reads {len(raw)} of its {self.nbytes} bytes: the "
                              f"container was truncated after it was opened",
                              offset=offset + len(raw))
        return np.frombuffer(raw, dtype="<f8").reshape(self.shape[1:])


class _FileStack(EpochStack):
    """An EpochStack of a container file's epochs, read when asked for:
    epoch(r) makes one os.pread, values one per epoch."""

    @property
    def values(self) -> np.ndarray:
        out = np.empty(self.shape)
        for i in range(len(self)):
            out[i] = self.epoch(i)
        out.setflags(write=False)
        return out


def write_epochset(epoch_set: EpochSet, path) -> None:
    """Write the single-line JSON manifest plus raw float64 payload. A new
    path or a regular file is written to a temporary sibling that then
    replaces it, so a run still reading the old container keeps its epochs
    and a failed write leaves no half-written container; any other existing
    target (a FIFO, /dev/stdout) is written in place."""
    _, d, t = epoch_set.epochs.shape
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "subject": epoch_set.subject,
        "classes": list(epoch_set.class_names),
        "sample_rate": epoch_set.sample_rate,
        "sessions": [
            {"id": s.session_id, "n_epochs": len(s.epochs), "labels": list(s.labels)}
            for s in epoch_set.sessions
        ],
        "d": d,
        "T": t,
        "dtype": "f64le",
        "order": "epoch-major row-major",
    }
    header = json.dumps(manifest, separators=(",", ":")).encode("utf-8") + b"\n"
    payload = np.ascontiguousarray(epoch_set.epochs.values, dtype="<f8").data
    if os.path.exists(path) and not os.path.isfile(path):  # a FIFO or device: in place
        part = target = path
    else:
        target = os.path.realpath(path)
        part = f"{target}.{os.getpid()}-{threading.get_ident()}.part"
    try:
        with open(part, "wb") as fh:
            fh.write(header)
            fh.write(payload)
        if part != target:
            if os.path.exists(target):
                shutil.copymode(target, part)
            os.replace(part, target)
    except BaseException:
        if part != target and os.path.exists(part):
            os.unlink(part)
        raise


def read_epochset(path) -> EpochSet:
    """Read a container written by write_epochset; lossless inverse. A
    regular file stays open and on disk: its length comes from fstat, its
    payload is checked a few epochs (32 KiB) at a time, and the set's
    stack reads each epoch when asked for. A pipe's payload, which has no
    offsets, is read whole into one buffer, which the stack's read-only
    array then views; so is a file's where os.pread is missing."""
    with open(path, "rb") as fh:
        header = fh.readline()
        if not header.endswith(b"\n"):
            raise FormatError("missing newline-terminated manifest line", offset=len(header))
        try:
            manifest = json.loads(header.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"manifest is not valid JSON: {exc}", offset=0) from exc

        if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
            raise FormatError(f"not an {FORMAT_NAME} container", offset=0)
        version = manifest.get("version")
        if type(version) is not int or version != FORMAT_VERSION:
            raise VersionUnsupported(f"container version {version!r} unsupported, "
                                     f"expected {FORMAT_VERSION}")
        for key in ("subject", "classes", "sample_rate", "sessions", "d", "T"):
            if key not in manifest:
                raise FormatError(f"manifest is missing the {key!r} section", offset=0)

        d, t, rate, classes = (manifest[key] for key in ("d", "T", "sample_rate", "classes"))
        try:
            sessions = [(s["id"], s["n_epochs"], list(s["labels"])) for s in manifest["sessions"]]
        except (KeyError, TypeError) as exc:
            raise FormatError(f"manifest has a missing or malformed field "
                              f"({type(exc).__name__}: {exc})", offset=0) from exc
        check_positive("manifest sample_rate", rate, FormatError)
        strings = [manifest["subject"], *(session_id for session_id, _, _ in sessions)]
        if not (isinstance(classes, list) and all(isinstance(c, str) for c in classes + strings)):
            raise FormatError("manifest classes must be a list of strings, and the subject "
                              "and session ids strings", offset=0)
        check_integer("manifest d", d, 1, FormatError)
        check_integer("manifest T", t, 1, FormatError)
        for session_id, n, labels in sessions:
            check_integer(f"session {session_id!r} n_epochs", n, 0, FormatError)
            for label in labels:
                check_integer(f"session {session_id!r} label", label, 0, FormatError)
        total_epochs = sum(n for _, n, _ in sessions)
        expected_bytes = total_epochs * d * t * 8
        info = os.fstat(fh.fileno())
        on_disk = stat.S_ISREG(info.st_mode) and hasattr(os, "pread")
        if on_disk:
            payload_bytes = info.st_size - len(header)
        else:  # a pipe has no size or offsets: read it whole into one growing buffer
            payload = io.BytesIO()
            shutil.copyfileobj(fh, payload, 1 << 16)
            payload_bytes = len(payload := payload.getvalue())  # its own bytes: no copy
        if payload_bytes != expected_bytes:
            raise FormatError(
                f"payload holds {payload_bytes} bytes but the manifest declares "
                f"{total_epochs} epochs of {d}x{t} float64 ({expected_bytes} bytes); "
                f"payload section truncated or inconsistent",
                offset=len(header) + min(payload_bytes, expected_bytes),
            )
        for session_id, n, labels in sessions:
            if len(labels) != n:
                raise FormatError(
                    f"session {session_id!r} declares {n} epochs but {len(labels)} labels",
                    offset=0,
                )
        if on_disk:
            stack = object.__new__(_FileStack)._hold(
                _Payload(os.dup(fh.fileno()), len(header), total_epochs, d, t),
                sample_rate=float(rate))
            step = max(1, _CHECK_BYTES // (d * t * 8))
            for first in range(0, max(total_epochs, 1), step):  # the empty stack too
                check_epochs(stack[first:first + step].values, first)
        else:
            values = np.frombuffer(payload, dtype="<f8").reshape(total_epochs, d, t)
            stack = EpochStack(values, float(rate))
    return _split(manifest["subject"], stack,
                  [(session_id, labels) for session_id, _, labels in sessions], classes)
