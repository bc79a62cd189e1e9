import contextlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augcov.covariance import (
    AugmentedParams,
    Epoch,
    EpochStack,
    _covariance,
    as_epochs,
    augmented_covariance,
    covariance_stack,
    embed_epoch,
)
from augcov.errors import InvalidEpoch, InvalidSetting, LagTooLarge, NotSPD
from augcov.spd import EPS_SPD, pack

from conftest import ar_coefficients, epoch_stack, pair_distance


# at (1, 1) the augmented covariance is the plain spatial covariance
PLAIN = AugmentedParams(1, 1)


def make_epoch(data, rate=250.0):
    return Epoch(np.asarray(data, dtype=float), rate)


class TestEpoch:
    def test_rejects_nan(self):
        with pytest.raises(InvalidEpoch):
            make_epoch([[1.0, np.nan, 0.0]])

    def test_rejects_single_sample(self):
        with pytest.raises(InvalidEpoch):
            make_epoch([[1.0]])

    def test_params_length_gate(self):
        with pytest.raises(LagTooLarge):
            AugmentedParams(3, 5).check_length(10)
        AugmentedParams(3, 4).check_length(10)
        with pytest.raises(LagTooLarge):  # a one-sample embedding is no epoch
            AugmentedParams(4, 4).check_length(13)

    @pytest.mark.parametrize("order,lag", [(0, 1), (1, 0), (2.5, 1), (2, 1.5)])
    def test_params_must_be_integers_of_at_least_one(self, order, lag):
        with pytest.raises(InvalidSetting, match="must be an integer >= 1"):
            AugmentedParams(order, lag)


class TestEpochStack:
    def test_nan_names_the_epoch(self):
        values = np.random.default_rng(30).standard_normal((5, 2, 10))
        values[3, 1, 4] = np.nan
        with pytest.raises(InvalidEpoch, match=r"^epoch 3 contains NaN or Inf"):
            EpochStack(values, 250.0)

    def test_short_epochs_name_the_index(self):
        with pytest.raises(InvalidEpoch, match=r"epoch 0 has shape \(2, 1\)"):
            EpochStack(np.zeros((3, 2, 1)), 250.0)
        with pytest.raises(InvalidEpoch, match=r"empty stack has epochs of shape \(0, 8\)"):
            EpochStack(np.zeros((0, 0, 8)), 250.0)

    def test_wrong_rank_reports_the_array_shape(self):
        with pytest.raises(InvalidEpoch, match=r"3-D .* got shape \(2, 10\)$"):
            EpochStack(np.zeros((2, 10)), 250.0)

    @pytest.mark.parametrize("values,rate", [
        (np.zeros((2, 10)), 250.0),  # one epoch is no stack
        (np.ones((2, 1, 10)), 0.0),
        (np.ones((2, 1, 10)), -250.0),
    ])
    def test_rejects_shape_and_rate(self, values, rate):
        with pytest.raises(InvalidEpoch):
            EpochStack(values, rate)

    @pytest.mark.parametrize("rate", [float("inf"), float("nan"), "250", True, None])
    def test_rate_must_be_a_finite_positive_number(self, rate):
        """An infinite rate would reach write_epochset's manifest as
        Infinity, which is not JSON."""
        with pytest.raises(InvalidEpoch, match="sample_rate must be finite and > 0"):
            EpochStack(np.ones((2, 1, 10)), rate)
        with pytest.raises(InvalidEpoch, match="sample_rate must be finite and > 0"):
            Epoch(np.ones((1, 10)), rate)

    def test_epoch_is_the_one_epoch_case(self):
        with pytest.raises(InvalidEpoch, match=r"^epoch 0 contains NaN or Inf"):
            make_epoch([[1.0, np.inf, 0.0]])
        with pytest.raises(InvalidEpoch, match=r"epoch 0 has shape \(1, 1\)"):
            make_epoch([[1.0]])
        with pytest.raises(InvalidEpoch, match="2-D"):
            make_epoch([1.0, 2.0])

    def test_views_without_copy_and_read_only(self):
        values = np.random.default_rng(31).standard_normal((4, 2, 8))
        stack = EpochStack(values, 250.0)
        assert stack.values is values
        assert not values.flags.writeable
        epoch = stack[2]
        assert type(epoch) is Epoch and epoch.sample_rate == 250.0
        assert np.shares_memory(epoch.data, values)
        assert np.array_equal(epoch.data, values[2])
        with pytest.raises(ValueError):
            epoch.data[0, 0] = 1.0
        assert [e.data.tobytes() for e in stack] == [x.tobytes() for x in values]

    def test_pickle_round_trip_stays_read_only(self):
        stack = EpochStack(np.random.default_rng(34).standard_normal((3, 2, 8)), 100.0)
        loaded = pickle.loads(pickle.dumps(stack))
        assert np.array_equal(loaded.values, stack.values)
        assert loaded.sample_rate == 100.0
        assert not loaded.values.flags.writeable

    @pytest.mark.parametrize("index", [[3, 0], np.array([True, False, True, True]),
                                       slice(1, 3)])
    def test_index_gives_a_sub_stack(self, index):
        values = np.random.default_rng(32).standard_normal((4, 2, 8))
        sub = EpochStack(values, 100.0)[index]
        assert type(sub) is EpochStack and sub.sample_rate == 100.0
        assert np.array_equal(sub.values, values[index])
        assert not sub.values.flags.writeable

    def test_as_epochs_copies_items_once_in_order(self):
        values = np.random.default_rng(33).standard_normal((5, 2, 8))
        stack = EpochStack(values, 250.0)
        assert as_epochs(stack) is stack
        # Reference: the items' epochs, one after another.
        for parts in (list(stack), [stack[i] for i in range(5)], [stack[0], stack[1:5]],
                      [stack[0:2], stack[2:5]], [stack[2:5], stack[0:2]],
                      [stack[0:2], stack[0:2]], [Epoch(x, 250.0) for x in values]):
            joined = as_epochs(parts)
            want = np.concatenate([p.values if isinstance(p, EpochStack) else p.data[None]
                                   for p in parts])
            assert np.array_equal(joined.values, want)
            assert joined.sample_rate == 250.0
            assert not np.shares_memory(joined.values, values)
            assert not joined.values.flags.writeable

    def test_as_epochs_rejects_mixed_items(self):
        with pytest.raises(InvalidEpoch, match="share shape"):
            as_epochs([make_epoch(np.ones((2, 8))), make_epoch(np.ones((2, 9)))])
        with pytest.raises(InvalidEpoch, match="share shape"):
            as_epochs([make_epoch(np.ones((2, 8))), make_epoch(np.ones((2, 8)), 100.0)])
        with pytest.raises(InvalidEpoch):
            as_epochs([])


class TestSampleCovariance:
    def test_single_channel_arithmetic(self):
        # sum of squares 4 over T-1 = 3
        cov = augmented_covariance(make_epoch([[1.0, -1.0, 1.0, -1.0]]), PLAIN)
        assert cov.values == pytest.approx(np.array([[4.0 / 3.0]]))

    def test_white_noise_near_identity(self):
        rng = np.random.default_rng(7)
        cov = augmented_covariance(make_epoch(rng.standard_normal((2, 10_000))), PLAIN)
        assert np.all(np.abs(cov.values - np.eye(2)) < 0.05)

    def test_duplicated_channel_not_spd(self):
        rng = np.random.default_rng(8)
        row = rng.standard_normal(100)
        with pytest.raises(NotSPD):
            augmented_covariance(make_epoch(np.stack([row, row])), PLAIN)

    def test_warns_when_underdetermined(self):
        rng = np.random.default_rng(9)
        with pytest.warns(UserWarning):
            try:
                augmented_covariance(make_epoch(rng.standard_normal((5, 4))), PLAIN)
            except NotSPD:
                pass


class TestEmbedEpoch:
    def test_order_one_is_identity(self):
        epoch = make_epoch([[1.0, 2.0, 3.0]])
        assert embed_epoch(epoch.data, AugmentedParams(1, 3)) is epoch.data

    def test_hand_unrolled(self):
        a, b, c, d = 1.0, 2.0, 3.0, 4.0
        out = embed_epoch(np.array([[a, b, c, d]]), AugmentedParams(2, 1))
        assert np.array_equal(out, [[a, b, c], [b, c, d]])

    def test_index_arithmetic_oracle(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 100))
        out = embed_epoch(x, AugmentedParams(3, 2))
        assert out.shape == (6, 96)
        for j in range(96):
            for k in range(3):
                for ch in range(2):
                    assert out[k * 2 + ch, j] == x[ch, j + k * 2]

    def test_lag_too_large(self):
        with pytest.raises(LagTooLarge):
            embed_epoch(np.zeros((1, 10)) + np.arange(10), AugmentedParams(4, 4))


def block_assembly_oracle(x, order, lag):
    """Independent construction: cross-covariances of delayed copies over the
    common truncated support, laid out block (k, l) = X_k X_l^T / (W - 1)."""
    d, t = x.shape
    width = t - (order - 1) * lag
    blocks = [[None] * order for _ in range(order)]
    for k in range(order):
        xk = x[:, k * lag:k * lag + width]
        for l in range(order):
            xl = x[:, l * lag:l * lag + width]
            blocks[k][l] = xk @ xl.T / (width - 1)
    return np.block(blocks)


class TestAugmentedCovariance:
    def test_order_one_equals_sample_covariance(self):
        rng = np.random.default_rng(11)
        epoch = make_epoch(rng.standard_normal((3, 200)))
        plain = augmented_covariance(epoch, PLAIN)
        aug = augmented_covariance(epoch, AugmentedParams(1, 1), shrink=False)
        assert np.array_equal(plain.values, aug.values)

    def test_matches_block_assembly_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            d = rng.integers(1, 5)
            t = rng.integers(50, 300)
            order = rng.integers(1, 5)
            lag = rng.integers(1, 5)
            if (order - 1) * lag >= t:
                continue
            x = rng.standard_normal((d, t))
            aug = augmented_covariance(make_epoch(x), AugmentedParams(order, lag),
                                       shrink=False)
            oracle = block_assembly_oracle(x, order, lag)
            assert np.max(np.abs(aug.values - oracle)) < 1e-12

    def test_equals_embedded_sample_covariance(self):
        rng = np.random.default_rng(13)
        epoch = make_epoch(rng.standard_normal((2, 150)))
        params = AugmentedParams(3, 2)
        aug = augmented_covariance(epoch, params, shrink=False)
        via_embed = augmented_covariance(Epoch(embed_epoch(epoch.data, params), 250.0),
                                         PLAIN)
        assert np.array_equal(aug.values, via_embed.values)

    def test_symmetric_by_construction(self):
        rng = np.random.default_rng(14)
        aug = augmented_covariance(
            make_epoch(rng.standard_normal((3, 120))), AugmentedParams(4, 2),
            shrink=False,
        )
        assert np.max(np.abs(aug.values - aug.values.T)) < 1e-12

    def test_output_dimension(self):
        rng = np.random.default_rng(15)
        for order in (1, 2, 5):
            aug = augmented_covariance(
                make_epoch(rng.standard_normal((3, 200))), AugmentedParams(order, 2)
            )
            assert aug.dim == 3 * order

    def test_default_shrink_policy(self):
        rng = np.random.default_rng(16)
        epoch = make_epoch(rng.standard_normal((2, 100)))
        plain = augmented_covariance(epoch, AugmentedParams(1, 1))
        assert np.array_equal(plain.values, augmented_covariance(epoch, PLAIN).values)
        # order > 1 defaults to shrinkage: trace preserved, off-diagonal damped
        raw = augmented_covariance(epoch, AugmentedParams(3, 1), shrink=False)
        shrunk = augmented_covariance(epoch, AugmentedParams(3, 1))
        assert np.trace(shrunk.values) == pytest.approx(np.trace(raw.values))
        assert not np.allclose(shrunk.values, raw.values)

    def test_block_order_is_congruence(self):
        # flipping the block order permutes rows/cols: distances are unchanged
        rng = np.random.default_rng(17)
        x = rng.standard_normal((2, 150))
        y = rng.standard_normal((2, 150))
        params = AugmentedParams(3, 2)
        d, p = 2, 3
        perm = np.zeros((d * p, d * p))
        for k in range(p):
            perm[k * d:(k + 1) * d, (p - 1 - k) * d:(p - k) * d] = np.eye(d)
        cov_x = augmented_covariance(make_epoch(x), params, shrink=False)
        cov_y = augmented_covariance(make_epoch(y), params, shrink=False)
        flip_x = type(cov_x)(perm @ cov_x.values @ perm.T)
        flip_y = type(cov_y)(perm @ cov_y.values @ perm.T)
        assert pair_distance(flip_x, flip_y) == pytest.approx(
            pair_distance(cov_x, cov_y), abs=1e-8
        )


def ledoit_wolf_lambda_oracle(y):
    """Straightforward per-sample implementation of the analytic intensity."""
    n, m = y.shape
    s = y @ y.T / m
    mu = np.trace(s) / n
    d2 = np.linalg.norm(s - mu * np.eye(n)) ** 2 / n
    b2_sum = 0.0
    for t in range(m):
        outer = np.outer(y[:, t], y[:, t])
        b2_sum += np.linalg.norm(outer - s) ** 2 / n
    bbar2 = b2_sum / m**2
    return min(bbar2, d2) / d2


class TestLedoitWolf:
    def test_identity_fixed_point(self):
        rng = np.random.default_rng(18)
        y = rng.standard_normal((3, 50_000))
        shrunk, lam = _covariance(y, True)
        assert 0.0 <= lam <= 1.0
        assert np.max(np.abs(shrunk - np.eye(3))) < 0.05

    def test_rank_deficient_becomes_spd(self):
        rng = np.random.default_rng(19)
        y = rng.standard_normal((10, 5))  # m < n
        shrunk, lam = _covariance(y, True)
        assert lam > 0.0
        assert np.min(np.linalg.eigvalsh(shrunk)) > 0.0

    def test_lambda_matches_reference_formula(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            n = rng.integers(2, 8)
            m = rng.integers(3, 40)
            y = rng.standard_normal((n, m)) * rng.uniform(0.5, 2.0)
            _, lam = _covariance(y, True)
            assert lam == pytest.approx(ledoit_wolf_lambda_oracle(y), abs=1e-10)

    def test_trace_preserved(self):
        rng = np.random.default_rng(21)
        y = rng.standard_normal((4, 30))
        c = y @ y.T / 29
        shrunk, _ = _covariance(y, True)
        assert np.trace(shrunk) == pytest.approx(np.trace(c), abs=1e-10)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_lambda_bounds(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 30))
        y = rng.standard_normal((n, m))
        if m < 2:
            return
        _, lam = _covariance(y, True)
        assert 0.0 <= lam <= 1.0

    @given(n=st.integers(2, 8), m=st.integers(3, 60), log_scale=st.floats(-6.0, 3.0),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_is_the_shrunk_order_one_covariance(self, n, m, log_scale, seed):
        """_covariance is covariance_stack's step at order 1, bit for bit."""
        x = 10.0 ** log_scale * np.random.default_rng(seed).standard_normal((n, m))
        stack = covariance_stack(EpochStack(x[None], 250.0), AugmentedParams(1, 1), shrink=True)
        assert np.array_equal(_covariance(x, True)[0], stack[0].values)


def near_rank_one(rng, n, m, spread):
    """n x m samples y_t = +-v + spread * noise: a covariance near v v^T,
    whose Ledoit-Wolf intensity shrinks like spread^2 and whose condition
    number grows like 1 / spread^2."""
    v = rng.standard_normal((n, 1))
    return np.sign(rng.standard_normal(m)) * v + spread * rng.standard_normal((n, m))


@contextlib.contextmanager
def gate_count():
    """[matrices the SPD gate's eigvalsh decomposed], filled while open."""
    seen = [0]
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        seen[0] += len(a)
        return eigvalsh(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigvalsh", counted)
        yield seen


class TestGateCertificate:
    """A shrunk covariance whose Ledoit-Wolf bounds prove it positive
    definite skips the SPD gate's eigvalsh; every other matrix takes it."""

    @given(n=st.integers(1, 5), m=st.integers(2, 60), order=st.integers(1, 3),
           log_spread=st.floats(-9.0, 1.0), log_scale=st.floats(-12.0, 6.0),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_certificate_never_passes_what_the_gate_rejects(
            self, n, m, order, log_spread, log_scale, seed):
        """One epoch per stack, so the gate's eigvalsh either saw the matrix
        or the certificate passed it; a passed matrix meets the gate's rule."""
        y = near_rank_one(np.random.default_rng(seed), n, m + order, 10.0 ** log_spread)
        epochs = EpochStack(10.0 ** log_scale * y[None], 250.0)
        with gate_count() as seen:
            try:
                stack = covariance_stack(epochs, AugmentedParams(order, 1), shrink=True)
            except NotSPD:
                assert seen[0] == 1
                return
        if seen[0] == 0:
            w = np.linalg.eigvalsh(stack[0].values)
            assert w[0] > EPS_SPD * w[-1]

    def test_unshrunk_order_one_stack_takes_the_gate(self):
        rng = np.random.default_rng(30)
        row = rng.standard_normal(64)
        duplicated = np.stack([rng.standard_normal((2, 64)), np.stack([row, row])])
        with gate_count() as seen:
            covariance_stack(EpochStack(rng.standard_normal((5, 3, 64)), 250.0),
                             AugmentedParams(1, 1))
            assert seen[0] == 5
            with pytest.raises(NotSPD, match="matrix 1 of the stack"):
                covariance_stack(EpochStack(duplicated, 250.0), AugmentedParams(1, 1))

    @pytest.mark.parametrize("spread,error", [(1e-3, None), (1e-5, NotSPD)])
    def test_ill_conditioned_shrunk_stack_takes_the_gate(self, spread, error):
        """Near-rank-one data leave the intensity too small for the bound to
        clear EPS_SPD by the margin: the gate decides, and at spread 1e-5 the
        shrunk matrix still fails it (condition number about 3e10)."""
        rng = np.random.default_rng(3)
        epochs = EpochStack(np.stack([rng.standard_normal((3, 200)),
                                      near_rank_one(rng, 3, 200, spread)]), 250.0)
        with gate_count() as seen:
            if error is None:
                covariance_stack(epochs, AugmentedParams(1, 1), shrink=True)
            else:
                with pytest.raises(error, match="matrix 1 of the stack"):
                    covariance_stack(epochs, AugmentedParams(1, 1), shrink=True)
        assert seen[0] == 1


def three_gram_augmented_covariance(epoch, params):
    """The shrunk augmented covariance with y y^T formed three times: once
    for the raw covariance, once for a consistency check of it and once for
    the 1/m covariance of the intensity."""
    y = embed_epoch(epoch.data, params)
    n, m = y.shape
    raw = y @ y.T / (m - 1)
    raw = 0.5 * (raw + raw.T)
    expected = y @ y.T / (m - 1)
    assert np.linalg.norm(raw - expected) <= 1e-8 * max(np.linalg.norm(expected), 1e-300)
    s = y @ y.T / m
    d2 = np.sum((s - np.trace(s) / n * np.eye(n)) ** 2) / n
    lam = 0.0
    if d2 > 0.0:
        norms2 = (y * y).sum(axis=0)  # sum_t |y_t|^4 is the sum of (y**2)(y**2)^T
        lam = float(min((norms2 @ norms2 / m - (s * s).sum()) / (n * m), d2) / d2)
    return (1.0 - lam) * raw + lam * (np.trace(raw) / n) * np.eye(n)


@pytest.mark.parametrize("d,t,order,lag", [(2, 64, 2, 1), (3, 100, 4, 2),
                                           (22, 512, 10, 1), (1, 40, 3, 5)])
def test_one_gram_augmented_covariance_is_bit_identical(d, t, order, lag):
    rng = np.random.default_rng(d * 1000 + t)
    epochs = [make_epoch(scale * rng.standard_normal((d, t))) for scale in (1.0, 1e-6, 1.0)]
    params = AugmentedParams(order, lag)
    stack = covariance_stack(epoch_stack(epochs), params, shrink=True)
    for i, epoch in enumerate(epochs):
        want = three_gram_augmented_covariance(epoch, params)
        assert np.array_equal(stack[i].values, want)
        assert np.array_equal(augmented_covariance(epoch, params, shrink=True).values, want)


def simulate_var(coeffs, innovation_chol, t, rng, lag=1, burn_in=500):
    d = innovation_chol.shape[0]
    p = len(coeffs)
    total = t + burn_in
    x = np.zeros((d, total))
    noise = innovation_chol @ rng.standard_normal((d, total))
    for i in range(total):
        acc = noise[:, i].copy()
        for k, a in enumerate(coeffs):
            back = (k + 1) * lag
            if i - back >= 0:
                acc += a @ x[:, i - back]
        x[:, i] = acc
    return x[:, burn_in:]


STABLE_A1 = np.array([
    [0.4, 0.1, 0.0],
    [0.0, 0.3, 0.1],
    [0.1, 0.0, 0.2],
])
STABLE_A2 = np.array([
    [0.2, 0.0, 0.05],
    [0.05, 0.1, 0.0],
    [0.0, 0.05, 0.15],
])


class TestYuleWalker:
    """The unshrunk ACM's Yule-Walker blocks recover the coefficients of
    data from simulate_var, a simulator independent of the package's."""

    def test_scalar_ar1(self):
        x = simulate_var([np.array([[0.5]])], np.eye(1), 20_000, np.random.default_rng(22))
        (a,) = ar_coefficients(x, 1)
        assert a == pytest.approx(np.array([[0.5]]), abs=0.03)

    def test_white_noise_zero_coefficients(self):
        x = np.diag([2.0, 3.0]) @ np.random.default_rng(25).standard_normal((2, 20_000))
        for a in ar_coefficients(x, 2):
            assert np.max(np.abs(a)) < 0.05

    def test_recovers_synthetic_ar2(self):
        rng = np.random.default_rng(23)
        x = simulate_var([STABLE_A1, STABLE_A2], np.eye(3), 20_000, rng)
        a1, a2 = ar_coefficients(x, 2)
        assert np.max(np.abs(a1 - STABLE_A1)) < 0.05
        assert np.max(np.abs(a2 - STABLE_A2)) < 0.05

    def test_error_shrinks_with_sample_size(self):
        def recovery_error(t, seed):
            rng = np.random.default_rng(seed)
            x = simulate_var([STABLE_A1, STABLE_A2], np.eye(3), t, rng)
            a1, a2 = ar_coefficients(x, 2)
            return max(np.max(np.abs(a1 - STABLE_A1)), np.max(np.abs(a2 - STABLE_A2)))

        errors_small = np.mean([recovery_error(2000, s) for s in range(5)])
        errors_large = np.mean([recovery_error(20_000, s) for s in range(5)])
        assert errors_large <= errors_small / 2.0


@given(
    d=st.integers(1, 4),
    t=st.integers(12, 80),
    order=st.integers(1, 4),
    lag=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_embed_layout_property(d, t, order, lag, seed):
    if (order - 1) * lag >= t - 1:
        return
    x = np.random.default_rng(seed).standard_normal((d, t))
    out = embed_epoch(x, AugmentedParams(order, lag))
    width = t - (order - 1) * lag
    assert out.shape == (d * order, width)
    for k in range(order):
        assert np.array_equal(out[k * d:(k + 1) * d], x[:, k * lag:k * lag + width])


@given(
    n=st.integers(1, 6),
    d=st.integers(1, 4),
    order=st.integers(1, 4),
    lag=st.integers(1, 3),
    extra=st.integers(0, 30),
    shrink=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_covariance_stack_equals_per_epoch_reference(n, d, order, lag, extra, shrink, seed):
    """Reference: augmented_covariance of each epoch, built as its own Epoch."""
    t = (order - 1) * lag + d * order + 2 + extra  # width > rows: SPD unshrunk too
    x = np.random.default_rng(seed).standard_normal((n, d, t))
    params = AugmentedParams(order, lag)
    stack = covariance_stack(EpochStack(x.copy(), 250.0), params, shrink)
    assert len(stack) == n
    for i in range(n):
        want = augmented_covariance(Epoch(x[i], 250.0), params, shrink)
        assert np.array_equal(stack[i].values, want.values)


@pytest.mark.parametrize("shrink", [True, False])
def test_covariance_stack_memory_is_the_packed_stack(shrink):
    """covariance_stack writes each covariance into its packed row and gates
    the stack one block at a time, so at EEG scale (22 channels, order 10:
    k = 220) its traced peak is the packed stack, about n k^2 / 2 floats,
    plus one epoch's working set: the embedded epoch (about 2.3 k^2 here)
    and at most three k x k matrices, shrunk or not, 6 k^2 in all. A full
    (n, k, k) array, 16 k^2 for these 16 epochs, does not fit, nor does the
    previous covariance next to the next one's build."""
    import tracemalloc

    n, k = 16, 220
    epochs = EpochStack(np.random.default_rng(4).standard_normal((n, 22, 512)), 250.0)
    pack(np.eye(k))  # the packing tables of size k, cached once per process
    tracemalloc.start()
    try:
        stack = covariance_stack(epochs, AugmentedParams(10, 1), shrink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stack.packed.nbytes == n * k * (k + 1) // 2 * 8
    assert peak < stack.packed.nbytes + 6 * k * k * 8, (peak, stack.packed.nbytes)
