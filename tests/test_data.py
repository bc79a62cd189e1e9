import json
import os
import pickle
import stat
import warnings
from dataclasses import replace

import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from augcov.covariance import (
    AugmentedParams,
    Epoch,
    EpochStack,
    covariance_stack,
)
from augcov.data import (
    ArSpec,
    EpochSet,
    Session,
    ar_spec_from_dict,
    companion_spectral_radius,
    generate_ar_dataset,
    read_epochset,
    write_epochset,
)
from augcov.errors import (
    ConfigError,
    EmptyInput,
    FormatError,
    InvalidEpoch,
    NoConvergence,
    NotSPD,
    UnstableSpec,
    VersionUnsupported,
)
from augcov import spd
from augcov.spd import frechet_mean

from conftest import pair_distance


def matched_dynamics_spec(seed=0, epochs_per_class=100, t=512, n_sessions=1):
    """Two classes with the same lag-0 covariance (identity) but different
    dynamics: white noise vs a rotation-driven AR(1) with matched innovation.

    For A = rho * R with R orthogonal and U = (1 - rho^2) I the stationary
    covariance solves G = A G A^T + U = I for both classes.
    """
    rho = 0.65
    rot = np.array([
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    a1 = rho * rot
    return ArSpec(
        coefficients=[[], [a1]],
        innovations=[np.eye(4), (1.0 - rho**2) * np.eye(4)],
        lag=1,
        n_samples=t,
        epochs_per_class=epochs_per_class,
        seed=seed,
        n_sessions=n_sessions,
    )


class TestArSpecValidation:
    def test_unstable_rejected(self):
        with pytest.raises(UnstableSpec):
            ArSpec(
                coefficients=[[np.array([[1.05]])]],
                innovations=[np.eye(1)],
                lag=1, n_samples=100, epochs_per_class=2, seed=0,
            )

    def test_non_spd_innovation_rejected(self):
        with pytest.raises(UnstableSpec):
            ArSpec(
                coefficients=[[np.array([[0.5]])]],
                innovations=[np.zeros((1, 1))],
                lag=1, n_samples=100, epochs_per_class=2, seed=0,
            )

    @pytest.mark.parametrize("field,value", [
        ("n_samples", 64.7), ("n_samples", "abc"), ("n_samples", 1), ("n_samples", True),
        ("epochs_per_class", 2.9), ("n_sessions", 0), ("lag", 0), ("seed", -1),
        ("sample_rate", 0.0), ("sample_rate", float("nan")), ("sample_rate", "abc"),
    ])
    def test_bad_count_or_rate_rejected(self, field, value):
        kwargs = dict(coefficients=[[]], innovations=[np.eye(2)],
                      lag=1, n_samples=64, epochs_per_class=2, seed=0)
        with pytest.raises(UnstableSpec, match=field):
            ArSpec(**{**kwargs, field: value})

    @pytest.mark.parametrize("coefficients,innovations,match", [
        ([[]], [[[1.0, 0.5], [0.2, 1.0]]], "asymmetric"),
        ([[]], [[[1.0, float("nan")], [0.0, 1.0]]], "non-finite"),
        ([[]], [[[1.0, "nan"], [0.0, 1.0]]], "non-finite"),
        ([[]], [[1.0, 2.0]], "square matrix"),
        ([[]], [[["a", "b"], ["c", "d"]]], "not a numeric matrix"),
        ([[0.1 * np.eye(3)]], [np.eye(2)], "coefficient 1 must be a 2x2"),
        ([[], []], [np.eye(2), np.eye(1)], "class 1 innovation must be a 2x2"),
        ([[[[0.1, 0.0], [float("inf"), 0.1]]]], [np.eye(2)], "non-finite"),
        (5, [np.eye(2)], "per-class lists"),
    ])
    def test_bad_matrix_rejected(self, coefficients, innovations, match):
        with pytest.raises(UnstableSpec, match=match):
            ArSpec(coefficients=coefficients, innovations=innovations,
                   lag=1, n_samples=64, epochs_per_class=2, seed=0)

    def test_integer_like_counts_become_int(self):
        spec = ArSpec(coefficients=[[]], innovations=[np.eye(2)], lag=np.int64(2),
                      n_samples=np.int32(64), epochs_per_class=2, seed=0, sample_rate=100)
        assert (type(spec.lag), type(spec.n_samples), type(spec.sample_rate)) == (int, int, float)

    def test_companion_radius_scalar(self):
        # AR(1) companion radius is |a|
        assert companion_spectral_radius([np.array([[0.9]])], 1) == pytest.approx(0.9)

    def test_companion_radius_with_lag(self):
        # X_t = a X_{t-2}: roots of z^2 = a, radius sqrt(a)
        rho = companion_spectral_radius([np.array([[0.49]])], 2)
        assert rho == pytest.approx(0.7, abs=1e-12)


class TestArSpecFromDict:
    REQUIRED = {"coefficients": [[]], "innovations": [[[1.0]]], "n_samples": 64,
                "epochs_per_class": 2, "seed": 0}

    def test_left_out_fields_take_the_arspec_defaults(self):
        assert ar_spec_from_dict(dict(self.REQUIRED)) == ArSpec(**self.REQUIRED)
        spec = ar_spec_from_dict({**self.REQUIRED, "subject": 7, "lag": 2})
        assert (spec.subject, spec.lag) == ("7", 2)

    @pytest.mark.parametrize("typo", [{"n_sesions": 3}, {"sampel_rate": 100, "lag": 1}])
    def test_unknown_field_rejected(self, typo):
        with pytest.raises(UnstableSpec, match=f"unknown fields \\['{next(iter(typo))}'\\]"):
            ar_spec_from_dict({**self.REQUIRED, **typo})

    def test_missing_field_named(self):
        raw = {k: v for k, v in self.REQUIRED.items() if k != "n_samples"}
        with pytest.raises(UnstableSpec, match="missing field 'n_samples'"):
            ar_spec_from_dict(raw)


class TestArSpecEquality:
    RAW = {"coefficients": [[], [[[0.0, -0.4], [0.4, 0.0]]]],
           "innovations": [[[1.0, 0.0], [0.0, 1.0]], [[0.84, 0.0], [0.0, 0.84]]],
           "n_samples": 64, "epochs_per_class": 2, "seed": 0}

    def test_two_channel_specs_compare_their_matrices(self):
        """d = 2: equal specs compare equal whatever holds their matrices,
        and a change to any matrix, matrix count or scalar field tells them
        apart."""
        spec = ar_spec_from_dict(dict(self.RAW))
        assert spec == ArSpec(**{**self.RAW, "innovations": [np.eye(2), 0.84 * np.eye(2)]})
        assert not spec != ar_spec_from_dict(dict(self.RAW))
        a1 = spec.coefficients[1][0]
        for other in (
            replace(spec, seed=1),
            replace(spec, innovations=[np.eye(2), 0.5 * np.eye(2)]),
            replace(spec, coefficients=[[], [0.5 * a1]]),
            replace(spec, coefficients=[[], [a1, 0.0 * a1]]),
            replace(spec, coefficients=[[], [a1], []], innovations=[*spec.innovations, np.eye(2)]),
        ):
            assert spec != other and other != spec
        assert spec != "spec"

    def test_unhashable(self):
        with pytest.raises(TypeError, match="unhashable type: 'ArSpec'"):
            hash(ar_spec_from_dict(dict(self.RAW)))


def per_epoch_reference(spec):
    """The (n, d, T) values of the epoch-by-epoch generator loop that the
    batched recursion replaced, kept here as the reference it must equal."""
    def simulate_epoch(class_idx, rng):
        coeffs = spec.coefficients[class_idx]
        chol = np.linalg.cholesky(spec.innovations[class_idx])
        burn_in = 10 * len(coeffs) * spec.lag
        total = spec.n_samples + burn_in
        x = np.zeros((spec.n_channels, total))
        noise = chol @ rng.standard_normal((spec.n_channels, total))
        for t in range(total):
            acc = noise[:, t].copy()
            for i, a in enumerate(coeffs):
                back = (i + 1) * spec.lag
                if t - back >= 0:
                    acc += a @ x[:, t - back]
            x[:, t] = acc
        return x[:, burn_in:]

    keys = itertools.product(range(spec.n_sessions), range(spec.n_classes),
                             range(spec.epochs_per_class))
    return np.stack([
        simulate_epoch(c_idx, np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=spec.seed, spawn_key=(s_idx, c_idx, e_idx)))))
        for s_idx, c_idx, e_idx in keys
    ])


@st.composite
def stable_specs(draw):
    """Stable ArSpecs: d 1-6, 0-3 coefficients at lag 1-3, 1-3 classes (class
    0 white noise when there are several) and 1-2 sessions. The coefficient
    spectral norms sum to below 1, which bounds the companion radius below 1."""
    d, order, lag = draw(st.integers(1, 6)), draw(st.integers(0, 3)), draw(st.integers(1, 3))
    n_classes = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coefficients, innovations = [], []
    for c in range(n_classes):
        cls = []
        for _ in range(0 if c == 0 and n_classes > 1 else order):
            g = rng.standard_normal((d, d))
            cls.append(g * (rng.uniform(0.1, 0.95) / order / np.linalg.norm(g, 2)))
        coefficients.append(cls)
        m = rng.standard_normal((d, d))
        innovations.append(m @ m.T + 0.5 * np.eye(d))
    return ArSpec(coefficients=coefficients, innovations=innovations, lag=lag,
                  n_samples=draw(st.integers(2, 40)), epochs_per_class=draw(st.integers(1, 4)),
                  seed=draw(st.integers(0, 2**63)), n_sessions=draw(st.integers(1, 2)))


class TestGenerator:
    @given(spec=stable_specs())
    @settings(max_examples=60, deadline=None)
    def test_batched_recursion_equals_per_epoch_loop(self, spec):
        assert np.array_equal(generate_ar_dataset(spec).epochs.values, per_epoch_reference(spec))

    def test_epochs_keep_their_substreams_as_the_spec_grows(self):
        small = generate_ar_dataset(matched_dynamics_spec(seed=4, epochs_per_class=3, t=48))
        large = generate_ar_dataset(
            matched_dynamics_spec(seed=4, epochs_per_class=5, t=48, n_sessions=2))
        for c in range(2):
            assert np.array_equal(large.sessions[0].epochs.values[5 * c:5 * c + 3],
                                  small.sessions[0].epochs.values[3 * c:3 * c + 3])

    def test_white_noise_covariance(self):
        u = np.array([[2.0, 0.3], [0.3, 1.0]])
        spec = ArSpec(
            coefficients=[[]], innovations=[u],
            lag=1, n_samples=10_000, epochs_per_class=1, seed=5,
        )
        data = generate_ar_dataset(spec).sessions[0].epochs[0].data
        cov = data @ data.T / (data.shape[1] - 1)
        assert np.max(np.abs(cov - u)) < 0.05 * np.linalg.norm(u)

    def test_scalar_ar1_stationary_variance(self):
        spec = ArSpec(
            coefficients=[[np.array([[0.9]])]], innovations=[np.eye(1)],
            lag=1, n_samples=10_000, epochs_per_class=3, seed=6,
        )
        epochs = generate_ar_dataset(spec).sessions[0].epochs
        variance = np.mean([np.var(e.data) for e in epochs])
        assert variance == pytest.approx(1.0 / (1.0 - 0.81), rel=0.10)

    def test_deterministic_per_seed(self):
        spec = matched_dynamics_spec(seed=9, epochs_per_class=3, t=64)
        a = generate_ar_dataset(spec)
        b = generate_ar_dataset(spec)
        for sa, sb in zip(a.sessions, b.sessions):
            for ea, eb in zip(sa.epochs, sb.epochs):
                assert np.array_equal(ea.data, eb.data)

    def test_stationarity_convergence_to_lyapunov_solution(self):
        a1 = np.array([[0.5, 0.2], [-0.1, 0.4]])
        u = np.array([[1.0, 0.2], [0.2, 0.8]])
        implied = scipy.linalg.solve_discrete_lyapunov(a1, u)

        def gamma0_error(t, seed):
            spec = ArSpec(
                coefficients=[[a1]], innovations=[u],
                lag=1, n_samples=t, epochs_per_class=1, seed=seed,
            )
            data = generate_ar_dataset(spec).sessions[0].epochs[0].data
            emp = data @ data.T / (data.shape[1] - 1)
            return np.linalg.norm(emp - implied)

        err_small = np.mean([gamma0_error(2000, s) for s in range(6)])
        err_large = np.mean([gamma0_error(20_000, s) for s in range(6)])
        assert err_large < err_small / 2.0

    def test_matched_dynamics_construction(self):
        """Equal lag-0 covariance, different dynamics: plain covariance
        centroids coincide while augmented centroids split."""
        spec = matched_dynamics_spec(seed=3, epochs_per_class=30, t=512)
        epoch_set = generate_ar_dataset(spec)
        epochs, labels = epoch_set.all_epochs()

        plain = covariance_stack(epochs, AugmentedParams(1, 1))
        centroid0, centroid1 = (frechet_mean(plain[labels == y]) for y in (0, 1))
        assert pair_distance(centroid0, centroid1) < 0.1

        aug = covariance_stack(epochs, AugmentedParams(2, 1))
        aug0, aug1 = (frechet_mean(aug[labels == y]) for y in (0, 1))
        assert pair_distance(aug0, aug1) > 0.5


class TestContainer:
    def make_set(self, seed=0):
        rng = np.random.default_rng(seed)
        sessions = [
            Session(
                f"s{k}",
                [Epoch(rng.standard_normal((3, 40)), 250.0) for _ in range(4)],
                [0, 1, 0, 1],
            )
            for k in range(2)
        ]
        return EpochSet("subjectA", sessions, ["left", "right"])

    def test_round_trip_bitwise(self, tmp_path):
        original = self.make_set()
        path = tmp_path / "set.acm"
        write_epochset(original, path)
        loaded = read_epochset(path)
        assert loaded.subject == original.subject
        assert loaded.class_names == original.class_names
        assert loaded.sample_rate == original.sample_rate
        for sa, sb in zip(original.sessions, loaded.sessions):
            assert sa.session_id == sb.session_id
            assert sa.labels == sb.labels
            for ea, eb in zip(sa.epochs, sb.epochs):
                assert ea.data.tobytes() == eb.data.tobytes()

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "set.acm"
        write_epochset(self.make_set(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-17])
        with pytest.raises(FormatError, match="payload"):
            read_epochset(path)

    @pytest.mark.parametrize("change", [-17, -8 * 3 * 40, 9, 8 * 3 * 40])
    def test_payload_length_error_names_sizes_and_offset(self, tmp_path, change):
        """A payload shorter or longer than the manifest declares raises one
        FormatError: the bytes on disk, the declared bytes, and the offset
        where the two part (the end of the shorter one)."""
        path = tmp_path / "set.acm"
        write_epochset(self.make_set(), path)
        blob = path.read_bytes()
        header_len = blob.index(b"\n") + 1
        expected = 8 * 3 * 40 * 8  # 8 epochs of 3 x 40
        path.write_bytes(blob[:change] if change < 0 else blob + bytes(change))
        held = expected + change
        with pytest.raises(FormatError, match=(
                f"payload holds {held} bytes but the manifest declares 8 epochs of "
                f"3x40 float64 \\({expected} bytes\\)")) as err:
            read_epochset(path)
        assert err.value.offset == header_len + min(held, expected)
        assert str(err.value).endswith(f"(at byte offset {header_len + min(held, expected)})")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
    @pytest.mark.parametrize("change", [0, -17, -8 * 3 * 40, 9, 8 * 3 * 40])
    def test_a_pipe_reads_like_the_file(self, tmp_path, change):
        """A pipe reports no size, so its payload is read whole: an intact
        container gives the file's epochs, and a truncated or over-long one
        the file's FormatError, message and offset included."""
        import threading

        path = tmp_path / "set.acm"
        write_epochset(self.make_set(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:change] if change < 0 else blob + bytes(change))
        fifo = tmp_path / "set.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()))
        writer.start()
        try:
            if change == 0:
                piped = read_epochset(fifo)
                assert np.array_equal(piped.epochs.values, read_epochset(path).epochs.values)
                assert [s.labels for s in piped.sessions] == [[0, 1, 0, 1]] * 2
                return
            with pytest.raises(FormatError) as from_pipe:
                read_epochset(fifo)
        finally:
            writer.join()
        with pytest.raises(FormatError) as from_file:
            read_epochset(path)
        assert str(from_pipe.value) == str(from_file.value)
        assert from_pipe.value.offset == from_file.value.offset

    def test_read_holds_the_payload_once(self, tmp_path):
        """A regular file's payload stays on disk: the read checks it a few
        epochs (32 KiB) at a time and holds none of it, so its traced peak
        is under a tenth of the payload (it reads about 0.06), where reading
        the payload into the stack would trace more than one."""
        import tracemalloc

        rng = np.random.default_rng(3)
        epochs = EpochStack(rng.standard_normal((64, 8, 256)), 250.0)
        path = tmp_path / "big.acm"
        write_epochset(EpochSet("subj", [Session("s0", epochs, [0, 1] * 32)], ["a", "b"]),
                       path)
        tracemalloc.start()
        try:
            loaded = read_epochset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.epochs.values, epochs.values)
        assert peak < 0.1 * epochs.values.nbytes, (peak, epochs.values.nbytes)

    def test_a_pipe_read_holds_the_payload_once(self, tmp_path):
        """A pipe's payload is read whole into one growing buffer, and the
        stack's read-only array views its bytes: the traced peak stays under
        1.25 payloads (the buffer's growth margin of one eighth, a 64 KiB
        chunk and the finite check), where a second copy of the payload
        would read 2."""
        import threading
        import tracemalloc

        rng = np.random.default_rng(3)
        epochs = EpochStack(rng.standard_normal((64, 8, 256)), 250.0)
        path = tmp_path / "big.acm"
        write_epochset(EpochSet("subj", [Session("s0", epochs, [0, 1] * 32)], ["a", "b"]),
                       path)
        fifo = tmp_path / "big.fifo"
        os.mkfifo(fifo)
        blob = path.read_bytes()  # the writer's copy, made before tracing
        writer = threading.Thread(target=fifo.write_bytes, args=(blob,))
        writer.start()
        tracemalloc.start()
        try:
            loaded = read_epochset(fifo)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            writer.join()
        assert np.array_equal(loaded.epochs.values, epochs.values)
        assert not loaded.epochs.values.flags.writeable
        assert peak < 1.25 * epochs.values.nbytes, (peak, epochs.values.nbytes)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_a_dropped_set_closes_its_file(self, tmp_path):
        """Reading a container, reading its epochs and dropping the set 50
        times leaves the process's descriptors as they were."""
        path = tmp_path / "set.acm"
        write_epochset(self.make_set(), path)
        before = sorted(os.listdir("/proc/self/fd"))
        for _ in range(50):
            loaded = read_epochset(path)
            covariance_stack(loaded.sessions[1].epochs, AugmentedParams(2, 1))
            del loaded
        assert sorted(os.listdir("/proc/self/fd")) == before

    def test_a_file_truncated_after_the_read_raises(self, tmp_path):
        """An epoch read that comes up short raises FormatError (exit 2),
        naming the epoch and the byte offset where the file ends; no partial
        epoch is returned."""
        path = tmp_path / "set.acm"
        write_epochset(self.make_set(), path)
        header_len = path.read_bytes().index(b"\n") + 1
        epoch_bytes = 3 * 40 * 8
        loaded = read_epochset(path)
        os.truncate(path, header_len + 5 * epoch_bytes + 100)  # epoch 5 keeps 100 bytes
        rows = covariance_stack(loaded.epochs[:5], AugmentedParams(1, 1))
        assert len(rows) == 5
        with pytest.raises(FormatError, match=f"^epoch 5 reads 100 of its {epoch_bytes} bytes"
                                              f": the container was truncated") as err:
            covariance_stack(loaded.sessions[1].epochs, AugmentedParams(1, 1))
        assert err.value.offset == header_len + 5 * epoch_bytes + 100
        assert isinstance(err.value, ConfigError)
        with pytest.raises(FormatError, match="^epoch 6 reads 0 of"):
            loaded.epochs[6]

    def test_a_rewrite_leaves_a_read_set_its_epochs(self, tmp_path):
        """write_epochset replaces a regular file whole: a set read before
        the path is overwritten with other epochs still reads its own epochs
        bit for bit, and a new read gets the new ones."""
        path = tmp_path / "set.acm"
        first, second = self.make_set(seed=0), self.make_set(seed=1)
        write_epochset(first, path)
        loaded = read_epochset(path)
        write_epochset(second, path)
        assert loaded.epochs.values.tobytes() == first.epochs.values.tobytes()
        assert read_epochset(path).epochs.values.tobytes() == second.epochs.values.tobytes()
        assert sorted(os.listdir(tmp_path)) == ["set.acm"]

    def test_a_failed_write_leaves_the_old_container(self, tmp_path, monkeypatch):
        """A write that fails leaves the target as it was and no temporary
        file behind."""
        path = tmp_path / "set.acm"
        write_epochset(self.make_set(seed=0), path)
        blob = path.read_bytes()

        def fail(*args):
            raise OSError("no space left")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="no space left"):
            write_epochset(self.make_set(seed=1), path)
        with pytest.raises(OSError, match="no space left"):
            write_epochset(self.make_set(seed=1), tmp_path / "new.acm")
        assert sorted(os.listdir(tmp_path)) == ["set.acm"]
        assert path.read_bytes() == blob

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
    def test_a_fifo_target_is_written_in_place(self, tmp_path):
        """An existing target that is not a regular file is written in place:
        a FIFO's reader gets the file's bytes, and the FIFO stays."""
        import threading

        write_epochset(self.make_set(), tmp_path / "set.acm")
        fifo = tmp_path / "set.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            write_epochset(self.make_set(), fifo)
        finally:
            reader.join(timeout=30)
        assert not reader.is_alive()
        assert got == [(tmp_path / "set.acm").read_bytes()]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    def test_dimension_mismatch_in_manifest(self, tmp_path):
        path = tmp_path / "set.acm"
        write_epochset(self.make_set(), path)
        blob = path.read_bytes()
        header, payload = blob.split(b"\n", 1)
        manifest = json.loads(header)
        manifest["d"] = 4  # payload holds d=3
        doctored = json.dumps(manifest, separators=(",", ":")).encode() + b"\n" + payload
        path.write_bytes(doctored)
        with pytest.raises(FormatError):
            read_epochset(path)

    def test_version_unsupported(self, tmp_path):
        path = tmp_path / "set.acm"
        write_epochset(self.make_set(), path)
        blob = path.read_bytes()
        header, payload = blob.split(b"\n", 1)
        manifest = json.loads(header)
        manifest["version"] = 99
        doctored = json.dumps(manifest, separators=(",", ":")).encode() + b"\n" + payload
        path.write_bytes(doctored)
        with pytest.raises(VersionUnsupported):
            read_epochset(path)

    @pytest.mark.parametrize("field,value,error,match", [
        ("version", True, VersionUnsupported, "version True"),
        ("version", 1.0, VersionUnsupported, "version 1.0"),
        ("d", 3.0, FormatError, "d must be an integer"),
        ("T", "40", FormatError, "T must be an integer"),
        ("n_epochs", "4", FormatError, "'s0' n_epochs"),
        ("labels", [0, 0.9, 0, 1], FormatError, "'s0' label .* got 0.9"),
        ("labels", [0, True, 0, 1], FormatError, "'s0' label .* got True"),
    ], ids=["version-true", "version-float", "d-float", "T-string", "n_epochs-string",
            "label-fraction", "label-bool"])
    def test_integer_fields_must_be_json_integers(self, tmp_path, field, value, error, match):
        """0.9 is not read as class 0, true as class 1 or "4" as 4."""
        path = tmp_path / "set.acm"
        write_epochset(self.make_set(), path)
        header, payload = path.read_bytes().split(b"\n", 1)
        manifest = json.loads(header)
        (manifest["sessions"][0] if field in ("n_epochs", "labels") else manifest)[field] = value
        path.write_bytes(json.dumps(manifest).encode() + b"\n" + payload)
        with pytest.raises(error, match=match):
            read_epochset(path)

    @pytest.mark.parametrize("field,value,match", [
        ("sample_rate", "250", "sample_rate must be finite"),
        ("sample_rate", True, "sample_rate must be finite"),
        ("sample_rate", "inf", "sample_rate must be finite"),
        ("sample_rate", float("inf"), "sample_rate must be finite"),
        ("sample_rate", 0, "sample_rate must be finite"),
        ("classes", "ab", "classes must be a list of strings"),
        ("classes", [0, 1], "classes must be a list of strings"),
        ("subject", 7, "subject and session ids strings"),
        ("id", 0, "subject and session ids strings"),
    ], ids=["rate-string", "rate-bool", "rate-inf-string", "rate-infinity", "rate-zero",
            "classes-string", "classes-numbers", "subject-number", "session-id-number"])
    def test_typed_fields_must_have_their_json_type(self, tmp_path, field, value, match):
        """"250", true and "inf" are not read as rates, "ab" not as the two
        classes a and b, and a number not as a subject or session id."""
        path = tmp_path / "set.acm"
        write_epochset(self.make_set(), path)
        header, payload = path.read_bytes().split(b"\n", 1)
        manifest = json.loads(header)
        (manifest["sessions"][0] if field == "id" else manifest)[field] = value
        path.write_bytes(json.dumps(manifest).encode() + b"\n" + payload)
        with pytest.raises(FormatError, match=match):
            read_epochset(path)

    @pytest.mark.parametrize("second_id,match", [
        ("s0", "'s0' is not unique"), ("day1/am", "'day1/am' holds a path separator"),
        ("day1\\am", "holds a path separator"),
        ("s_0", "'s:0' is not unique in file names, where ':' is written '_'")])
    def test_session_ids_are_unique_file_names(self, tmp_path, second_id, match):
        """Session ids name the grid maps of a run, which write ':' as '_', so
        a repeated id, two ids that differ only in ':' and '_', or an id with
        a path separator is refused when the set is built or read."""
        first_id = "s:0" if second_id == "s_0" else "s0"  # s_0 meets its ':' twin
        sessions = self.make_set().sessions
        with pytest.raises(InvalidEpoch, match=match):
            EpochSet("s", [Session(first_id, sessions[0].epochs, [0, 1, 0, 1]),
                           Session(second_id, sessions[1].epochs, [0, 1, 0, 1])],
                     ["left", "right"])
        path = tmp_path / "set.acm"
        write_epochset(self.make_set(), path)
        header, payload = path.read_bytes().split(b"\n", 1)
        manifest = json.loads(header)
        manifest["sessions"][0]["id"] = first_id
        manifest["sessions"][1]["id"] = second_id
        path.write_bytes(json.dumps(manifest).encode() + b"\n" + payload)
        with pytest.raises(InvalidEpoch, match=match):
            read_epochset(path)

    @pytest.mark.parametrize("subject,session_id,classes", [
        (7, "s1", ["left", "right"]), ("s", 1, ["left", "right"]), ("s", "s1", [0, 1])])
    def test_a_set_holds_only_names_the_reader_reads(self, subject, session_id, classes):
        """write_epochset would write a container that read_epochset refuses."""
        sessions = self.make_set().sessions
        with pytest.raises(InvalidEpoch, match="must be strings"):
            EpochSet(subject, [sessions[0], Session(session_id, sessions[1].epochs,
                                                    [0, 1, 0, 1])], classes)

    def test_missing_section(self, tmp_path):
        path = tmp_path / "set.acm"
        write_epochset(self.make_set(), path)
        blob = path.read_bytes()
        header, payload = blob.split(b"\n", 1)
        manifest = json.loads(header)
        del manifest["classes"]
        doctored = json.dumps(manifest, separators=(",", ":")).encode() + b"\n" + payload
        path.write_bytes(doctored)
        with pytest.raises(FormatError, match="classes"):
            read_epochset(path)


@st.composite
def small_containers(draw):
    """(values, session sizes, labels) of a random small container: 1-8
    epochs in 1-2 sessions, d 1-3, T 4-24, values at mixed scales."""
    n, d, t = draw(st.integers(1, 8)), draw(st.integers(1, 3)), draw(st.integers(4, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((n, d, t)) * 10.0 ** rng.integers(-6, 4, size=(n, 1, 1))
    cut = draw(st.integers(0, n))
    sizes = [size for size in (cut, n - cut) if size] or [n]
    return values, sizes, [int(v) for v in rng.integers(0, 2, size=n)]


@st.composite
def selections(draw, n, depth=2):
    """A chain of 1 to depth selections, each of the rows the one before
    leaves of n epochs, applied in turn by select: a slice (negative steps
    included), an index array (repeats and the empty one included) or a
    mask, and last maybe an int. A chain of two is a view of a view."""
    chain = []
    for _ in range(draw(st.integers(1, depth))):
        kind = draw(st.sampled_from(["int", "slice", "indices", "mask"] if n else ["slice"]))
        if kind == "int":
            return chain + [draw(st.integers(-n, n - 1))]
        if kind == "slice":
            bound = st.none() | st.integers(-n - 1, n + 1)
            index = slice(draw(bound), draw(bound),
                          draw(st.none() | st.sampled_from([1, 2, -1, -3])))
        elif kind == "indices":
            index = np.array(draw(st.lists(st.integers(-n, n - 1), max_size=2 * n)), dtype=int)
        else:
            index = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        chain.append(index)
        n = len(np.arange(n)[index])
    return chain


def select(stack, chain):
    """stack (a stack or an array) indexed by each selection of chain in turn."""
    for index in chain:
        stack = stack[index]
    return stack


def covariances(epochs, order, shrink):
    """covariance_stack's packed bytes at order and lag 1, or the message of
    the NotSPD it raises for an unshrunk rank-deficient epoch."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # unshrunk epochs shorter than their rows
            stack = covariance_stack(epochs, AugmentedParams(order, 1), shrink)
        return stack.packed.tobytes()
    except NotSPD as exc:
        return str(exc)


def read_back(tmp_path_factory, values, sizes, labels):
    """The container of values, its sessions of the given sizes, as an
    EpochSet in memory and as read back from its file."""
    starts = np.cumsum([0, *sizes])
    in_memory = EpochSet("s", [
        Session(f"s{k}", EpochStack(values[a:b].copy(), 250.0), labels[a:b])
        for k, (a, b) in enumerate(zip(starts, starts[1:]))], ["a", "b"])
    path = tmp_path_factory.mktemp("container") / "set.acm"
    write_epochset(in_memory, path)
    return in_memory, read_epochset(path)


@given(container=small_containers(), data=st.data(), order=st.integers(1, 3),
       shrink=st.booleans())
@settings(max_examples=60, deadline=None)
def test_a_file_read_equals_the_set_in_memory(tmp_path_factory, container, data, order, shrink):
    """A container read from its file reads, bit for bit, as the same set
    held in memory: for int, slice, index-array and mask selections and
    views of views, their values, and covariance_stack of them, shrunk or
    not. Pickled, it carries its epochs."""
    values, sizes, labels = container
    in_memory, on_disk = read_back(tmp_path_factory, values, sizes, labels)
    assert type(on_disk.epochs) is not EpochStack  # the file-backed stack
    unpickled = pickle.loads(pickle.dumps(on_disk))  # what a spawned pool worker gets
    assert unpickled.epochs.values.tobytes() == values.tobytes()
    sessions = zip(in_memory.sessions, on_disk.sessions)
    for mem, disk in [(in_memory.epochs, on_disk.epochs),
                      *((a.epochs, b.epochs) for a, b in sessions)]:
        assert disk.shape == mem.shape and len(disk) == len(mem)
        assert disk.values.tobytes() == mem.values.tobytes()
        assert not disk.values.flags.writeable
        chain = data.draw(selections(len(mem)), label="chain")
        got, want = select(disk, chain), select(mem, chain)
        if isinstance(chain[-1], int):
            assert got.data.tobytes() == want.data.tobytes() and not got.data.flags.writeable
            continue
        assert got.shape == want.shape and got.values.tobytes() == want.values.tobytes()
        assert covariances(got, order, shrink) == covariances(want, order, shrink)


def mean_of(stack):
    """frechet_mean's bytes, or the message of the EmptyInput or
    NoConvergence it raises."""
    try:
        return frechet_mean(stack).values.tobytes()
    except (EmptyInput, NoConvergence) as exc:
        return str(exc)


@given(container=small_containers(), data=st.data(), order=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_a_sub_stack_is_a_view_of_its_rows(tmp_path_factory, container, data, order):
    """stack[index] of an in-memory stack, a file-backed stack and an
    SpdStack, and a view of such a view, shares its parent's rows and reads,
    bit for bit, as the same selection of the copied array: values and
    packed, and covariance_stack and frechet_mean of the view equal those of
    a stack of the copied rows."""
    values, sizes, labels = container
    in_memory, on_disk = read_back(tmp_path_factory, values, sizes, labels)
    params = AugmentedParams(order, 1)
    covs = covariance_stack(in_memory.epochs, params, shrink=True)
    chain = data.draw(selections(len(values)), label="chain")
    copied = select(values, chain)
    if isinstance(chain[-1], int):
        for epochs in (in_memory.epochs, on_disk.epochs):
            assert select(epochs, chain).data.tobytes() == copied.tobytes()
        assert np.array_equal(spd.pack(select(covs, chain).values), select(covs.packed, chain))
        return
    for epochs in (in_memory.epochs, on_disk.epochs):
        view = select(epochs, chain)
        assert view._base is epochs._base and type(view) is type(epochs)
        assert view.shape == copied.shape and view.values.tobytes() == copied.tobytes()
        assert not view.values.flags.writeable
    view, whole = select(in_memory.epochs, chain), in_memory.epochs.values
    assert all(np.shares_memory(view.epoch(i), whole) for i in range(len(view)))
    copied_covs = covariance_stack(EpochStack(copied.copy(), 250.0), params, shrink=True)
    assert covariance_stack(view, params, shrink=True).packed.tobytes() \
        == copied_covs.packed.tobytes()

    view = select(covs, chain)
    assert view._base is covs._base and view.dim == covs.dim
    assert view.packed.tobytes() == select(covs.packed, chain).tobytes()
    assert view.packed.tobytes() == copied_covs.packed.tobytes()
    assert not view.packed.flags.writeable
    assert mean_of(view) == mean_of(copied_covs)


class TestSessionStacks:
    def values(self, seed=0, n=6, d=3, t=40):
        return np.random.default_rng(seed).standard_normal((n, d, t))

    @pytest.mark.parametrize("shape_b,rate_b", [((2, 3, 41), 250.0), ((2, 2, 40), 250.0),
                                                ((2, 3, 40), 500.0)])
    def test_mixed_shapes_or_rates_across_sessions_raise(self, shape_b, rate_b):
        a = Session("a", EpochStack(np.ones((2, 3, 40)), 250.0), [0, 1])
        b = Session("b", EpochStack(np.ones(shape_b), rate_b), [0, 1])
        with pytest.raises(InvalidEpoch, match="share shape and sample rate"):
            EpochSet("s", [a, b], ["x", "y"])

    @pytest.mark.parametrize("labels,bad", [([0.9, 1.2, True, 0], "0.9"), ([0, True, 1, 0], "True"),
                                            ([0, "1", 1, 0], "'1'"), ([0, 1, -1, 0], "-1")])
    def test_labels_must_be_integers(self, labels, bad):
        """[0.9, 1.2, True, 0] is not kept as [0, 1, 1, 0]."""
        with pytest.raises(InvalidEpoch, match=f"'a' label must be an integer >= 0, got {bad}"):
            Session("a", EpochStack(self.values(n=4), 250.0), labels)
        session = Session("a", EpochStack(self.values(n=4), 250.0), np.array([0, 1, 1, 0]))
        assert session.labels == [0, 1, 1, 0] and type(session.labels[0]) is int

    def test_mixed_epochs_within_a_session_raise(self):
        epochs = [Epoch(np.ones((3, 40)), 250.0), Epoch(np.ones((3, 41)), 250.0)]
        with pytest.raises(InvalidEpoch, match="share shape and sample rate"):
            Session("a", epochs, [0, 1])

    def test_sessions_are_slices_of_one_stack(self):
        values = self.values()
        epoch_set = EpochSet("s", [
            Session("a", [Epoch(x, 250.0) for x in values[:4]], [0, 1, 0, 1]),
            Session("b", EpochStack(values[4:].copy(), 250.0), [1, 0]),
        ], ["x", "y"])
        whole, labels = epoch_set.all_epochs()
        assert np.array_equal(whole.values, values)
        assert labels.tolist() == [0, 1, 0, 1, 1, 0]
        for session in epoch_set.sessions:
            assert np.shares_memory(session.epochs.values, whole.values)
        assert np.array_equal(epoch_set.sessions[1].epochs.values, values[4:])

    @pytest.mark.parametrize("source", ["read", "generate", "pickle"])
    def test_library_sets_hold_one_stack(self, tmp_path, source):
        epoch_set = generate_ar_dataset(matched_dynamics_spec(seed=4, epochs_per_class=3,
                                                              t=32, n_sessions=3))
        if source == "read":
            write_epochset(epoch_set, tmp_path / "set.acm")
            loaded = read_epochset(tmp_path / "set.acm")
        elif source == "pickle":
            loaded = pickle.loads(pickle.dumps(epoch_set))
        else:
            loaded = epoch_set
        whole = loaded.epochs.values
        assert np.array_equal(whole, epoch_set.epochs.values)
        assert not whole.flags.writeable
        for k, session in enumerate(loaded.sessions):
            if source == "read":  # one open file, each session reads its rows of it
                assert session.epochs._base is loaded.epochs._base
                assert np.array_equal(session.epochs.values, whole[6 * k:6 * k + 6])
            else:
                assert np.shares_memory(session.epochs.values, whole)
            assert session.labels == [0, 0, 0, 1, 1, 1]
        # sessions handed to the constructor are copied once, in order
        rebuilt = EpochSet("s", loaded.sessions, ["a", "b"]).epochs.values
        assert np.array_equal(rebuilt, whole)
        assert not np.shares_memory(rebuilt, whole)

    def test_container_bytes_do_not_depend_on_the_epoch_form(self, tmp_path):
        """Reference: the manifest line, then every value as <f8, epoch-major."""
        values = self.values(seed=5)
        as_list = EpochSet("s", [
            Session("s0", [Epoch(x, 250.0) for x in values[:4]], [0, 1, 0, 1]),
            Session("s1", [Epoch(x, 250.0) for x in values[4:]], [1, 1]),
        ], ["a", "b"])
        as_stack = EpochSet("s", [
            Session("s0", EpochStack(values[:4].copy(), 250.0), [0, 1, 0, 1]),
            Session("s1", EpochStack(values[4:].copy(), 250.0), [1, 1]),
        ], ["a", "b"])
        write_epochset(as_list, tmp_path / "list.acm")
        write_epochset(as_stack, tmp_path / "stack.acm")
        blob = (tmp_path / "list.acm").read_bytes()
        assert blob == (tmp_path / "stack.acm").read_bytes()
        header, payload = blob.split(b"\n", 1)
        assert json.loads(header)["sessions"] == [
            {"id": "s0", "n_epochs": 4, "labels": [0, 1, 0, 1]},
            {"id": "s1", "n_epochs": 2, "labels": [1, 1]},
        ]
        assert payload == values.astype("<f8").tobytes()

    def test_nan_in_payload_names_the_epoch(self, tmp_path):
        values = self.values(seed=6)
        path = tmp_path / "set.acm"
        write_epochset(EpochSet("s", [Session("a", EpochStack(values, 250.0), [0] * 6)],
                                ["a"]), path)
        blob = bytearray(path.read_bytes())
        header_len = blob.index(b"\n") + 1
        offset = header_len + 8 * (4 * 3 * 40 + 17)  # epoch 4, sample 17
        blob[offset:offset + 8] = np.array([np.nan], dtype="<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(InvalidEpoch, match=r"^epoch 4 contains NaN"):
            read_epochset(path)
