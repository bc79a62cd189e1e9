import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augcov import spd
from augcov.errors import (
    DimensionMismatch,
    EmptyInput,
    NoConvergence,
    NonPositiveEigenvalue,
    NotSPD,
    NotSymmetric,
    NumericalError,
)
from augcov.classify import mdm_fit, tangent_fit, tangent_transform_many
from augcov.spd import (
    EPS_SPD,
    SYM_RTOL,
    SpdMatrix,
    SpdStack,
    distances_from,
    frechet_mean,
    sym,
    symm_fn,
)

from conftest import full_values, pair_distance, random_spd, random_symmetric, spd_stack


class TestSpdMatrix:
    def test_symmetrizes_on_construction(self):
        m = np.array([[2.0, 1.0 + 1e-12], [1.0, 2.0]])
        spd = SpdMatrix(m)
        assert np.array_equal(spd.values, spd.values.T)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            SpdMatrix(np.array([[2.0, 1.0], [0.0, 2.0]]))

    def test_rejects_semidefinite(self):
        with pytest.raises(NotSPD):
            SpdMatrix(np.diag([1.0, 0.0]))

    def test_rejects_negative(self):
        with pytest.raises(NotSPD):
            SpdMatrix(np.diag([1.0, -0.5]))

    def test_values_frozen(self):
        spd = SpdMatrix(np.eye(3))
        with pytest.raises(ValueError):
            spd.values[0, 0] = 5.0


def stack_of(rng, n, dim, scale=1.0):
    return np.stack([random_spd(rng, dim, scale).values for _ in range(n)])


class TestSpdStackValidation:
    def test_asymmetric_member_named(self, rng):
        values = stack_of(rng, 6, 3)
        values[3, 0, 2] += 1e-3
        with pytest.raises(NotSymmetric, match=r"matrix 3 of the stack"):
            SpdStack(values)

    def test_rank_deficient_member_named(self, rng):
        values = stack_of(rng, 6, 3)
        row = rng.standard_normal((1, 3))
        values[5] = row.T @ row
        with pytest.raises(NotSPD, match=r"matrix 5 of the stack"):
            SpdStack(values)

    @pytest.mark.parametrize("asym,lowest,error", [
        (0.5, 0.5, None), (2.0, 0.5, NotSymmetric),
        (0.0, 0.5 * EPS_SPD, NotSPD), (0.0, 2.0 * EPS_SPD, None), (0.0, -1.0, NotSPD),
    ])
    def test_spd_matrix_is_the_one_matrix_stack(self, asym, lowest, error):
        """Asymmetry at half and twice SYM_RTOL, smallest eigenvalue at half
        and twice EPS_SPD: both types take the same gates."""
        m = np.diag([1.0, 1.0, lowest])
        m[0, 1] += asym * SYM_RTOL * np.linalg.norm(m)
        if error is None:
            assert np.array_equal(SpdMatrix(m).values, SpdStack(m[None])[0].values)
        else:
            for build in (lambda: SpdMatrix(m), lambda: SpdStack(m[None])):
                with pytest.raises(error):
                    build()

    def test_indexing(self, rng):
        values = stack_of(rng, 5, 3)
        stack = SpdStack(values)
        rows, cols = np.triu_indices(3)
        assert np.array_equal(stack.packed, values[:, rows, cols])  # one copy of half
        assert not hasattr(stack, "values")
        assert isinstance(stack[2], SpdMatrix)
        assert np.array_equal(stack[2].values, values[2])
        sub = stack[np.array([4, 0])]
        assert isinstance(sub, SpdStack) and len(sub) == 2
        assert np.array_equal(full_values(sub), values[[4, 0]])
        assert np.array_equal(full_values(stack[1:3]), values[1:3])
        assert [m.dim for m in stack] == [3] * 5
        with pytest.raises(IndexError):
            stack[5]
        for frozen in (stack.packed[0], stack[2].values[0], sub.packed[0]):
            with pytest.raises(ValueError):
                frozen[0] = 1.0


def _ref_fn(m, f):
    """The per-matrix spectral function: eigh of the symmetric part, then
    the symmetric part of U f(w) U^T."""
    w, u = np.linalg.eigh(0.5 * (m + m.T))
    out = (u * f(w)) @ u.T
    return 0.5 * (out + out.T)


def _ref_frechet_mean(mats, tol=1e-8, max_iter=50):
    """Fixed-point Frechet mean, one Log per matrix: gradient steps of
    length 1 from the arithmetic mean, each re-whitening by the new
    iterate's own square root, stopping on the whitened gradient."""
    current = mats.mean(axis=0)
    current = 0.5 * (current + current.T)
    for _ in range(max_iter + 1):
        w, u = np.linalg.eigh(current)
        sq = np.sqrt(w)
        p_sqrt = (u * sq) @ u.T
        p_sqrt = 0.5 * (p_sqrt + p_sqrt.T)
        p_isqrt = (u / sq) @ u.T
        p_isqrt = 0.5 * (p_isqrt + p_isqrt.T)
        logs = [_ref_fn(p_isqrt @ v @ p_isqrt, np.log) for v in mats]
        whitened_mean = np.mean(logs, axis=0)
        whitened_mean = 0.5 * (whitened_mean + whitened_mean.T)
        if np.linalg.norm(whitened_mean) < tol:
            return current
        step = p_sqrt @ _ref_fn(whitened_mean, np.exp) @ p_sqrt
        current = 0.5 * (step + step.T)
    raise AssertionError("reference Frechet mean did not converge")


# Distance allowed between two means that each stop with a whitened gradient
# under 1e-8: the cost (1/2n) sum_i d^2(M, P_i) has Riemannian Hessian >= I,
# so each lies within 1e-8 of the true mean; the rest is rounding slack.
MEAN_DIST_TOL = 3e-8


def whitened_gradient(mean, mats):
    """|mean_i log(M^-1/2 P_i M^-1/2)|_F, per matrix with numpy alone: zero
    at the Frechet mean whatever the scale."""
    isqrt = _ref_fn(mean, lambda w: 1.0 / np.sqrt(w))
    return float(np.linalg.norm(np.mean([_ref_fn(isqrt @ v @ isqrt, np.log)
                                         for v in mats], axis=0)))


def assert_same_mean(got, want):
    assert pair_distance(SpdMatrix(got), SpdMatrix(want)) <= MEAN_DIST_TOL


class TestStackEqualsLoop:
    """The batched kernel against per-matrix formulations."""

    @given(n=st.integers(1, 40), dim=st.integers(2, 12),
           log_scale=st.floats(-6.0, 3.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_mean_features_and_distances(self, n, dim, log_scale, seed):
        import scipy.linalg

        rng = np.random.default_rng(seed)
        scale = 10.0 ** log_scale
        values = stack_of(rng, n, dim, scale)
        stack = SpdStack(values)

        mean = frechet_mean(stack)
        if n == 1:
            assert np.array_equal(mean.values, values[0])
        else:
            assert_same_mean(mean.values, _ref_frechet_mean(values))

        isqrt = tangent_fit(stack)
        iu = np.triu_indices(dim)
        weights = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
        rows = np.stack([_ref_fn(isqrt @ v @ isqrt, np.log)[iu] * weights for v in values])
        assert np.array_equal(tangent_transform_many(isqrt, stack), rows)

        reference = random_spd(rng, dim, scale)
        got = distances_from(symm_fn(reference.values, "inv_sqrt"), stack)
        want = [np.sqrt(np.sum(np.log(scipy.linalg.eigh(v, reference.values,
                                                        eigvals_only=True)) ** 2))
                for v in values]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert pair_distance(reference, stack[0]) == got[0]

    @given(per_block=st.integers(1, 3), n=st.integers(2, 25), dim=st.integers(2, 8),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_walk_across_block_boundaries(self, per_block, n, dim, seed):
        """With a budget of 1-3 matrices per block, and n not a multiple of
        it, every blocked result equals the whole-stack walk exactly, and the
        per-matrix reference exactly (features, distances) or within
        MEAN_DIST_TOL (means, whose step rule differs from the reference)."""
        if per_block > 1 and n % per_block == 0:
            n += 1
        rng = np.random.default_rng(seed)
        values = stack_of(rng, n, dim)
        stack = SpdStack(values)
        labels = rng.permutation(np.arange(n) % 2)
        reference = random_spd(rng, dim)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spd, "SPD_BLOCK_BYTES", per_block * values[0].nbytes)
            mean = frechet_mean(stack)
            model = mdm_fit(stack, labels)
            tangent_isqrt = tangent_fit(stack)
            rows = tangent_transform_many(tangent_isqrt, stack)
            dists = distances_from(symm_fn(reference.values, "inv_sqrt"), stack)

        assert np.array_equal(mean.values, frechet_mean(stack).values)
        assert_same_mean(mean.values, _ref_frechet_mean(values))
        whole = mdm_fit(stack, labels)
        for cls, class_mean, whole_mean in zip(model.class_labels, model.class_means,
                                               whole.class_means):
            assert np.array_equal(class_mean.values, whole_mean.values)
            members = values[labels == cls]
            if len(members) == 1:
                assert np.array_equal(class_mean.values, members[0])
            else:
                assert_same_mean(class_mean.values, _ref_frechet_mean(members))

        iu = np.triu_indices(dim)
        weights = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
        want = np.stack([_ref_fn(tangent_isqrt @ v @ tangent_isqrt, np.log)[iu] * weights
                         for v in values])
        assert np.array_equal(rows, want)

        isqrt = _ref_fn(reference.values, lambda w: 1.0 / np.sqrt(w))
        whitened = [isqrt @ v @ isqrt for v in values]
        want = [np.sqrt(np.sum(np.log(np.linalg.eigvalsh(0.5 * (m + m.T))) ** 2)) for m in whitened]
        assert np.array_equal(dists, want)


def _ref_gate(values):
    """(error type, index) of the first matrix of a full (n, k, k) stack that
    fails the checks, one matrix at a time: symmetry for every matrix first,
    then lambda_min > EPS_SPD * lambda_max; None when all pass."""
    for i, m in enumerate(values):
        if np.linalg.norm(m - m.T) > SYM_RTOL * np.linalg.norm(m):
            return NotSymmetric, i
    for i, m in enumerate(values):
        w = np.linalg.eigvalsh(0.5 * (m + m.T))
        if w[-1] <= 0.0 or w[0] <= EPS_SPD * w[-1]:
            return NotSPD, i
    return None


class TestPackedStorage:
    """A stack stores each matrix's upper triangle once and the walk unpacks
    one block at a time: the round trip is bit-exact, and every kernel on
    the packed stack equals a per-matrix reference on the full matrices,
    exactly (distances, coordinates, the gate's verdict and index) or within
    MEAN_DIST_TOL (the mean, whose step rule differs from the reference's)."""

    @given(n=st.integers(1, 12), dim=st.integers(1, 12), per_block=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_and_kernels_match_full_storage(self, n, dim, per_block, seed):
        rng = np.random.default_rng(seed)
        values = stack_of(rng, n, dim)  # SpdMatrix values: exactly symmetric
        stack = SpdStack(values)
        rows, cols = np.triu_indices(dim)
        assert stack.packed.shape == (n, rows.size)
        assert np.array_equal(stack.packed, values[:, rows, cols])
        order = rng.permutation(n)
        reference = random_spd(rng, dim)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spd, "SPD_BLOCK_BYTES", per_block * values[0].nbytes)
            walked = [block for _, block in spd._blocks(stack)]
            walked_rows = [block for _, block in spd._blocks(stack, order)]
            mean = frechet_mean(stack)
            isqrt = tangent_fit(stack)
            coords = tangent_transform_many(isqrt, stack)
            dists = distances_from(symm_fn(reference.values, "inv_sqrt"), stack)
        assert all(block.flags.c_contiguous for block in walked + walked_rows)
        assert np.array_equal(np.concatenate(walked), values)
        assert np.array_equal(np.concatenate(walked_rows), values[order])
        assert np.array_equal(full_values(stack), values)
        assert np.array_equal(full_values(stack[order]), values[order])

        if n == 1:
            assert np.array_equal(mean.values, values[0])
        else:
            assert_same_mean(mean.values, _ref_frechet_mean(values))
        weights = np.where(rows == cols, 1.0, np.sqrt(2.0))
        want = np.stack([_ref_fn(isqrt @ v @ isqrt, np.log)[rows, cols] * weights
                         for v in values])
        assert np.array_equal(coords, want)
        ref_isqrt = _ref_fn(reference.values, lambda w: 1.0 / np.sqrt(w))
        want = [np.sqrt(np.sum(np.log(np.linalg.eigvalsh(sym(ref_isqrt @ v @ ref_isqrt))) ** 2))
                for v in values]
        assert np.array_equal(dists, want)

    @given(n=st.integers(1, 12), dim=st.integers(2, 12), per_block=st.integers(1, 4),
           bad=st.lists(st.tuples(st.integers(0, 11), st.sampled_from(["asym", "rank"])),
                        max_size=3),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_gate_names_the_first_bad_matrix(self, n, dim, per_block, bad, seed):
        rng = np.random.default_rng(seed)
        values = stack_of(rng, n, dim)
        for i, kind in bad:
            if i >= n:
                continue
            if kind == "asym":
                values[i, 0, 1] += 1e-3 * np.linalg.norm(values[i])
            else:
                v = rng.standard_normal((dim, dim - 1))
                values[i] = sym(v @ v.T)
        want = _ref_gate(values)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spd, "SPD_BLOCK_BYTES", per_block * values[0].nbytes)
            if want is None:
                assert np.array_equal(full_values(SpdStack(values)), values)
                return
            error, index = want
            with pytest.raises(error, match=rf"^matrix {index} of the stack "):
                SpdStack(values)


class TestBlockedMemory:
    """The stack walks hold one block's temporaries, not copies of the stack:
    32 matrices of size 96 span several blocks, and each call's traced peak
    beyond its live inputs (and the feature rows it returns) stays under half
    the bytes of the stack as full (n, k, k) matrices."""

    @staticmethod
    def _peak_beyond(result_of):
        tracemalloc.start()
        try:
            result = result_of()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - (result.nbytes if isinstance(result, np.ndarray) else 0)

    def test_peak_under_half_the_stack(self):
        rng = np.random.default_rng(7)
        n, dim = 32, 96
        a = rng.standard_normal((n, dim, 2 * dim))
        stack = SpdStack(a @ np.swapaxes(a, 1, 2) / (2 * dim) + 0.1 * np.eye(dim))
        full_bytes = n * dim * dim * 8  # the stack as (n, k, k) float64
        assert len(stack) > 2 * max(1, spd.SPD_BLOCK_BYTES // (full_bytes // n))
        labels = np.arange(n) % 2
        tmap = tangent_fit(stack)
        reference_isqrt = symm_fn(stack[3].values, "inv_sqrt")
        budget = full_bytes / 2
        assert self._peak_beyond(lambda: mdm_fit(stack, labels)) < budget
        assert self._peak_beyond(lambda: distances_from(reference_isqrt, stack)) < budget
        assert self._peak_beyond(lambda: tangent_transform_many(tmap, stack)) < budget


    def test_frechet_mean_working_set(self):
        """With one matrix of size 96 per block, a Frechet mean holds about
        8 k^2 next to its stack: the running sum adds into each block in
        place, and each step drops its block-sized arrays once used. It reads
        8.05 k^2; the bound of 9 k^2 fails a concatenating running sum (12.0
        k^2 in all)."""
        rng = np.random.default_rng(5)
        n, dim = 6, 96
        a = rng.standard_normal((n, dim, 3 * dim))
        stack = SpdStack(a @ np.swapaxes(a, 1, 2) / (3 * dim) + 0.1 * np.eye(dim))
        assert spd.block_rows(dim) == 1
        frechet_mean(stack)  # once untraced, for any first-call caches
        tracemalloc.start()
        try:
            frechet_mean(stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * dim * dim * 8, peak / (dim * dim * 8)


@given(n=st.integers(1, 12), dim=st.integers(2, 6), block=st.sampled_from(["one", "some", "all"]),
       subset=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_running_sum_is_the_axis0_sum(n, dim, block, subset, seed):
    """spd._mean adds its running total into the first matrix of each fresh
    block, in place: with blocks of one matrix, of three and of the whole
    stack, of all rows or of a shuffled subset, the mean equals
    values.sum(axis=0) / n bit for bit, and so does the mean of a spectral
    walk against the whole stack's _spectral output. The stack is left as
    it was. (numpy sums a stack of 1 x 1 matrices, one contiguous axis,
    pairwise, so dim starts at 2.)"""
    rng = np.random.default_rng(seed)
    values = stack_of(rng, n, dim)
    stack = SpdStack(values)
    packed = stack.packed.copy()
    rows = rng.permutation(n)[:rng.integers(1, n + 1)] if subset else None
    chosen = values if rows is None else values[rows]
    left = random_spd(rng, dim).values
    per_block = {"one": 1, "some": 3, "all": n}[block]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spd, "SPD_BLOCK_BYTES", per_block * values[0].nbytes)
        plain = spd._mean(stack, rows)
        logs = spd._mean(stack, rows, ("log", left, left.T))
    assert np.array_equal(plain, chosen.sum(axis=0) / len(chosen))
    want = spd._spectral(chosen, "log", left, left.T)
    assert np.array_equal(logs, want.sum(axis=0) / len(chosen))
    assert np.array_equal(stack.packed, packed)


class TestSymmFn:
    def test_log_of_identity_is_zero(self):
        assert np.allclose(symm_fn(np.eye(3), "log"), np.zeros((3, 3)))

    def test_inv_sqrt_diagonal(self):
        out = symm_fn(np.diag([4.0, 9.0]), "inv_sqrt")
        assert np.allclose(out, np.diag([0.5, 1.0 / 3.0]))

    def test_log_exp_round_trip(self, rng):
        m = random_spd(rng, 5).values
        back = symm_fn(symm_fn(m, "log"), "exp")
        assert np.linalg.norm(back - m) < 1e-8

    def test_inv_sqrt(self, rng):
        m = random_spd(rng, 4).values
        isq = symm_fn(m, "inv_sqrt")
        assert np.allclose(isq @ m @ isq, np.eye(4), atol=1e-10)

    def test_nonpositive_eigenvalue_reported(self):
        with pytest.raises(NonPositiveEigenvalue) as err:
            symm_fn(np.diag([1.0, -2.0]), "log")
        assert err.value.eigenvalue == pytest.approx(-2.0)

    def test_exp_accepts_indefinite(self, rng):
        s = random_symmetric(rng, 4)
        out = symm_fn(s, "exp")
        assert np.all(np.linalg.eigvalsh(out) > 0)


class TestDistance:
    def test_identity_to_itself(self):
        eye = SpdMatrix(np.eye(4))
        assert pair_distance(eye, eye) == 0.0

    def test_log_eigenvalue_case(self):
        # eigenvalues of diag(e, 1/e) against I are e and 1/e: sqrt(1 + 1) = sqrt(2)
        eye = SpdMatrix(np.eye(2))
        other = SpdMatrix(np.diag([np.e, 1.0 / np.e]))
        assert pair_distance(eye, other) == pytest.approx(np.sqrt(2.0))

    def test_matches_direct_spectrum_oracle(self, rng):
        # eigenvalues of inv(P1) @ P2 (similar to the whitened product)
        for _ in range(20):
            p1 = random_spd(rng, 4)
            p2 = random_spd(rng, 4)
            spectrum = np.linalg.eigvals(np.linalg.inv(p1.values) @ p2.values)
            oracle = np.sqrt(np.sum(np.log(np.real(spectrum)) ** 2))
            assert pair_distance(p1, p2) == pytest.approx(oracle, abs=1e-10)

    def test_symmetry(self, rng):
        for _ in range(20):
            p1 = random_spd(rng, 5)
            p2 = random_spd(rng, 5)
            d12 = pair_distance(p1, p2)
            d21 = pair_distance(p2, p1)
            assert abs(d12 - d21) <= 1e-10

    def test_congruence_invariance(self, rng):
        for _ in range(10):
            p1 = random_spd(rng, 4)
            p2 = random_spd(rng, 4)
            w = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
            q1 = SpdMatrix(w @ p1.values @ w.T)
            q2 = SpdMatrix(w @ p2.values @ w.T)
            assert pair_distance(q1, q2) == pytest.approx(
                pair_distance(p1, p2), abs=1e-8
            )

    def test_inversion_invariance(self, rng):
        for _ in range(10):
            p1 = random_spd(rng, 4)
            p2 = random_spd(rng, 4)
            i1 = SpdMatrix(np.linalg.inv(p1.values))
            i2 = SpdMatrix(np.linalg.inv(p2.values))
            assert pair_distance(i1, i2) == pytest.approx(
                pair_distance(p1, p2), abs=1e-8
            )

    def test_triangle_inequality(self, rng):
        for _ in range(50):
            a, b, c = (random_spd(rng, 3) for _ in range(3))
            dab = pair_distance(a, b)
            dbc = pair_distance(b, c)
            dac = pair_distance(a, c)
            assert dac <= dab + dbc + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pair_distance(SpdMatrix(np.eye(2)), SpdMatrix(np.eye(3)))

    def test_rounded_away_eigenvalue_raises(self):
        """Two matrices of condition 10^9.5 pass the SPD check, but whitening
        one by the other rounds an eigenvalue to zero or below: the distance
        raises instead of returning NaN."""
        rng = np.random.default_rng(0)
        mats = []
        for _ in range(2):
            q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            mats.append(q @ np.diag(np.logspace(0.0, -9.5, 6)) @ q.T)
        with pytest.raises(NonPositiveEigenvalue, match="distance requires positive") as err:
            distances_from(symm_fn(mats[1], "inv_sqrt"), SpdStack(np.stack(mats)))
        assert isinstance(err.value, NumericalError) and err.value.eigenvalue <= 0.0

    @given(dim=st.integers(min_value=2, max_value=6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_zero_iff_equal(self, dim, seed):
        rng = np.random.default_rng(seed)
        p = random_spd(rng, dim)
        q = random_spd(rng, dim)
        assert pair_distance(p, p) < 1e-12
        if not np.allclose(p.values, q.values):
            assert pair_distance(p, q) > 0.0


def two_matrix_geometric_mean(p1, p2):
    """Closed form P1^{1/2} (P1^{-1/2} P2 P1^{-1/2})^{1/2} P1^{1/2}."""
    sq = _ref_fn(p1.values, np.sqrt)
    isq = _ref_fn(p1.values, lambda w: 1.0 / np.sqrt(w))
    return sq @ _ref_fn(isq @ p2.values @ isq, np.sqrt) @ sq


class TestFrechetMean:
    def test_single_element(self, rng):
        p = random_spd(rng, 4)
        assert np.array_equal(frechet_mean(spd_stack([p])).values, p.values)

    def test_all_identical(self):
        eye = SpdMatrix(np.eye(3))
        out = frechet_mean(spd_stack([eye, eye, eye]))
        assert np.allclose(out.values, np.eye(3), atol=1e-12)

    def test_two_matrix_closed_form(self, rng):
        for _ in range(10):
            p1 = random_spd(rng, 4)
            p2 = random_spd(rng, 4)
            mean = frechet_mean(spd_stack([p1, p2]))
            oracle = two_matrix_geometric_mean(p1, p2)
            assert np.linalg.norm(mean.values - oracle) < 1e-8

    def test_gradient_condition_at_result(self, rng):
        """The stop rule holds at the returned mean, checked apart from the
        loop: |mean_i log(M^-1/2 P_i M^-1/2)|_F < MEAN_TOL."""
        mats = spd_stack([random_spd(rng, 4) for _ in range(7)])
        mean = frechet_mean(mats)
        assert whitened_gradient(mean.values, full_values(mats)) < spd.MEAN_TOL

    def test_congruence_invariance_of_mean(self, rng):
        mats = spd_stack([random_spd(rng, 3) for _ in range(5)])
        w = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        mean = frechet_mean(mats)
        mean_t = frechet_mean(SpdStack(w @ full_values(mats) @ w.T))
        assert np.linalg.norm(mean_t.values - w @ mean.values @ w.T) < 1e-7

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            frechet_mean(SpdStack(np.empty((0, 3, 3))))
        with pytest.raises(EmptyInput):
            frechet_mean(spd_stack([np.eye(3)]), rows=np.array([], dtype=int))

    def test_no_convergence_carries_state(self, rng, monkeypatch):
        monkeypatch.setattr(spd, "MEAN_TOL", 1e-16)
        monkeypatch.setattr(spd, "MEAN_MAX_ITER", 1)
        mats = spd_stack([random_spd(rng, 4) for _ in range(5)])
        with pytest.raises(NoConvergence) as err:
            frechet_mean(mats)
        assert isinstance(err.value.last_iterate, SpdMatrix)
        assert err.value.residual > 0.0

    def test_no_step_allowed(self, rng, monkeypatch):
        """At MEAN_MAX_ITER = 0 the mean checks the arithmetic mean and takes
        no step."""
        monkeypatch.setattr(spd, "MEAN_MAX_ITER", 0)
        eye = SpdMatrix(np.eye(3))
        assert np.array_equal(frechet_mean(spd_stack([eye, eye])).values, np.eye(3))
        with pytest.raises(NoConvergence):
            frechet_mean(spd_stack([random_spd(rng, 3) for _ in range(3)]))

    @given(log_c=st.floats(-8.0, 8.0), n=st.integers(2, 12), dim=st.integers(2, 6),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_scale_and_congruence_equivariance(self, log_c, n, dim, seed):
        """mean(c P_i) = c mean(P_i) for c in [1e-8, 1e8] and
        mean(W P_i W^T) = W mean(P_i) W^T, within MEAN_DIST_TOL."""
        rng = np.random.default_rng(seed)
        values = stack_of(rng, n, dim)
        mean = frechet_mean(SpdStack(values)).values
        c = 10.0 ** log_c
        assert_same_mean(frechet_mean(SpdStack(c * values)).values, c * mean)
        w = rng.standard_normal((dim, dim)) + dim * np.eye(dim)
        mixed = frechet_mean(SpdStack(w @ values @ w.T)).values
        assert_same_mean(mixed, w @ mean @ w.T)

    @pytest.mark.parametrize("case", ["dispersed", "scaled_1e6", "volt_scale"])
    def test_cases_the_ambient_stop_rule_failed(self, case):
        """Inputs on which the fixed-point loop stopping on the ambient norm
        |M^1/2 R M^1/2|_F went wrong: 20 matrices of size 4 with log-
        eigenvalues of spread 3 (it oscillated into NoConvergence), 20 of
        size 20 scaled by 1e6 (the ambient norm could not fall below 1e-8),
        and 20 of size 8 scaled by 1e-10, volt-scale EEG (it returned the
        arithmetic mean). The mean now meets the whitened stop rule."""
        rng = np.random.default_rng(0)
        if case == "dispersed":
            q = np.linalg.qr(rng.standard_normal((20, 4, 4)))[0]
            values = (q * np.exp(3.0 * rng.standard_normal((20, 1, 4)))) @ np.swapaxes(q, 1, 2)
        else:
            dim, scale = (20, 1e6) if case == "scaled_1e6" else (8, 1e-10)
            values = scale * np.stack([random_spd(rng, dim).values for _ in range(20)])
        mean = frechet_mean(SpdStack(values)).values
        assert whitened_gradient(mean, values) < 1e-8
        assert whitened_gradient(values.mean(axis=0), values) > 1e-2


class TestEigendecompositionCount:
    """Work counted, not timed: the stacked eigh and eigvalsh calls that spd
    makes, by number of matrices, so host speed cannot move the figures."""

    @pytest.fixture
    def counts(self, monkeypatch):
        seen = {"eigh": 0, "eigvalsh": 0, "exp": 0}

        def counted(name, decompose):
            def wrapper(a, *args, **kwargs):
                seen[name] += np.size(a) // np.shape(a)[-1] ** 2
                return decompose(a, *args, **kwargs)
            return wrapper

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(spd.np.linalg, name, counted(name, getattr(np.linalg, name)))
        symm = spd.symm_fn

        def symm_counted(m, fn):
            seen["exp"] += fn == "exp"
            return symm(m, fn)

        monkeypatch.setattr(spd, "symm_fn", symm_counted)
        return seen

    def test_shrunk_covariance_stack_skips_the_gate(self, counts):
        from augcov.covariance import AugmentedParams, EpochStack, covariance_stack

        epochs = EpochStack(np.random.default_rng(1).standard_normal((6, 3, 128)), 250.0)
        covariance_stack(epochs, AugmentedParams(4, 2), shrink=True)
        assert counts == {"eigh": 0, "eigvalsh": 0, "exp": 0}

    @pytest.mark.parametrize("n,scale", [(5, 1.0), (9, 1e-10), (16, 1e6)])
    def test_frechet_mean_decompositions_per_pass(self, counts, n, scale):
        """Per pass, one log eigh per matrix and, but for the last pass, one
        exp eigh for the step; per mean, one eigh of the arithmetic mean and
        one eigvalsh that checks the result. No iterate is decomposed."""
        rng = np.random.default_rng(n)
        stack = SpdStack(scale * stack_of(rng, n, 6))
        counts["eigvalsh"] = 0
        frechet_mean(stack)
        steps = counts["exp"]
        assert steps >= 2
        assert counts == {"eigh": (steps + 1) * n + steps + 1, "eigvalsh": 1, "exp": steps}
