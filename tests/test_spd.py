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
    affine_invariant_distance,
    distances_from,
    frechet_mean,
    symm_fn,
)

from conftest import random_spd, random_symmetric


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
            assert np.array_equal(SpdMatrix(m).values, SpdStack(m[None]).values[0])
        else:
            for build in (lambda: SpdMatrix(m), lambda: SpdStack(m[None])):
                with pytest.raises(error):
                    build()

    def test_indexing(self, rng):
        values = stack_of(rng, 5, 3)
        stack = SpdStack(values)
        assert stack.values is values  # held, not copied
        assert isinstance(stack[2], SpdMatrix)
        assert np.array_equal(stack[2].values, values[2])
        sub = stack[np.array([4, 0])]
        assert isinstance(sub, SpdStack) and len(sub) == 2
        assert np.array_equal(sub.values, values[[4, 0]])
        assert [m.dim for m in stack] == [3] * 5
        with pytest.raises(ValueError):
            stack.values[0, 0, 0] = 1.0


def _ref_fn(m, f):
    """The per-matrix spectral function: eigh of the symmetric part, then
    the symmetric part of U f(w) U^T."""
    w, u = np.linalg.eigh(0.5 * (m + m.T))
    out = (u * f(w)) @ u.T
    return 0.5 * (out + out.T)


def _ref_frechet_mean(mats, tol=1e-8, max_iter=50):
    """Fixed-point Frechet mean, one Log per matrix."""
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
        if np.linalg.norm(p_sqrt @ whitened_mean @ p_sqrt) < tol:
            return current
        step = p_sqrt @ _ref_fn(whitened_mean, np.exp) @ p_sqrt
        current = 0.5 * (step + step.T)
    raise AssertionError("reference Frechet mean did not converge")


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
        want = values[0] if n == 1 else _ref_frechet_mean(values)
        assert np.array_equal(mean.values, want)

        tmap = tangent_fit(stack)
        iu = np.triu_indices(dim)
        weights = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
        isqrt = tmap.ref_inv_sqrt
        rows = np.stack([_ref_fn(isqrt @ v @ isqrt, np.log)[iu] * weights for v in values])
        assert np.array_equal(tangent_transform_many(tmap, stack), rows)

        reference = random_spd(rng, dim, scale)
        got = distances_from(reference, stack)
        want = [np.sqrt(np.sum(np.log(scipy.linalg.eigh(v, reference.values,
                                                        eigvals_only=True)) ** 2))
                for v in values]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert affine_invariant_distance(reference, stack[0]) == got[0]

    @given(per_block=st.integers(1, 3), n=st.integers(2, 25), dim=st.integers(2, 8),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_walk_across_block_boundaries(self, per_block, n, dim, seed):
        """With a budget of 1-3 matrices per block, and n not a multiple of
        it, every blocked result equals its per-matrix reference exactly."""
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
            tmap = tangent_fit(stack)
            rows = tangent_transform_many(tmap, stack)
            dists = distances_from(reference, stack)

        assert np.array_equal(mean.values, _ref_frechet_mean(values))
        for cls, class_mean in zip(model.class_labels, model.class_means):
            members = values[labels == cls]
            want = members[0] if len(members) == 1 else _ref_frechet_mean(members)
            assert np.array_equal(class_mean.values, want)

        iu = np.triu_indices(dim)
        weights = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
        isqrt = tmap.ref_inv_sqrt
        want = np.stack([_ref_fn(isqrt @ v @ isqrt, np.log)[iu] * weights for v in values])
        assert np.array_equal(rows, want)

        isqrt = _ref_fn(reference.values, lambda w: 1.0 / np.sqrt(w))
        whitened = [isqrt @ v @ isqrt for v in values]
        want = [np.sqrt(np.sum(np.log(np.linalg.eigvalsh(0.5 * (m + m.T))) ** 2)) for m in whitened]
        assert np.array_equal(dists, want)


class TestBlockedMemory:
    """The stack walks hold one block's temporaries, not copies of the stack:
    32 matrices of size 96 span several blocks, and each call's traced peak
    beyond its live inputs (and the feature rows it returns) stays under half
    the stack's bytes."""

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
        assert len(stack) > 2 * max(1, spd.SPD_BLOCK_BYTES // stack.values[0].nbytes)
        labels = np.arange(n) % 2
        tmap = tangent_fit(stack)
        reference = stack[3]
        budget = stack.values.nbytes / 2
        assert self._peak_beyond(lambda: mdm_fit(stack, labels)) < budget
        assert self._peak_beyond(lambda: distances_from(reference, stack)) < budget
        assert self._peak_beyond(lambda: tangent_transform_many(tmap, stack)) < budget


class TestSymmFn:
    def test_log_of_identity_is_zero(self):
        assert np.allclose(symm_fn(np.eye(3), "log"), np.zeros((3, 3)))

    def test_sqrt_diagonal(self):
        out = symm_fn(np.diag([4.0, 9.0]), "sqrt")
        assert np.allclose(out, np.diag([2.0, 3.0]))

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
        assert affine_invariant_distance(eye, eye) == 0.0

    def test_log_eigenvalue_case(self):
        # eigenvalues of diag(e, 1/e) against I are e and 1/e: sqrt(1 + 1) = sqrt(2)
        eye = SpdMatrix(np.eye(2))
        other = SpdMatrix(np.diag([np.e, 1.0 / np.e]))
        assert affine_invariant_distance(eye, other) == pytest.approx(np.sqrt(2.0))

    def test_matches_direct_spectrum_oracle(self, rng):
        # eigenvalues of inv(P1) @ P2 (similar to the whitened product)
        for _ in range(20):
            p1 = random_spd(rng, 4)
            p2 = random_spd(rng, 4)
            spectrum = np.linalg.eigvals(np.linalg.inv(p1.values) @ p2.values)
            oracle = np.sqrt(np.sum(np.log(np.real(spectrum)) ** 2))
            assert affine_invariant_distance(p1, p2) == pytest.approx(oracle, abs=1e-10)

    def test_symmetry(self, rng):
        for _ in range(20):
            p1 = random_spd(rng, 5)
            p2 = random_spd(rng, 5)
            d12 = affine_invariant_distance(p1, p2)
            d21 = affine_invariant_distance(p2, p1)
            assert abs(d12 - d21) <= 1e-10

    def test_congruence_invariance(self, rng):
        for _ in range(10):
            p1 = random_spd(rng, 4)
            p2 = random_spd(rng, 4)
            w = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
            q1 = SpdMatrix(w @ p1.values @ w.T)
            q2 = SpdMatrix(w @ p2.values @ w.T)
            assert affine_invariant_distance(q1, q2) == pytest.approx(
                affine_invariant_distance(p1, p2), abs=1e-8
            )

    def test_inversion_invariance(self, rng):
        for _ in range(10):
            p1 = random_spd(rng, 4)
            p2 = random_spd(rng, 4)
            i1 = SpdMatrix(np.linalg.inv(p1.values))
            i2 = SpdMatrix(np.linalg.inv(p2.values))
            assert affine_invariant_distance(i1, i2) == pytest.approx(
                affine_invariant_distance(p1, p2), abs=1e-8
            )

    def test_triangle_inequality(self, rng):
        for _ in range(50):
            a, b, c = (random_spd(rng, 3) for _ in range(3))
            dab = affine_invariant_distance(a, b)
            dbc = affine_invariant_distance(b, c)
            dac = affine_invariant_distance(a, c)
            assert dac <= dab + dbc + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            affine_invariant_distance(SpdMatrix(np.eye(2)), SpdMatrix(np.eye(3)))

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
            distances_from(SpdMatrix(mats[1]), SpdStack(np.stack(mats)))
        assert isinstance(err.value, NumericalError) and err.value.eigenvalue <= 0.0

    @given(dim=st.integers(min_value=2, max_value=6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_zero_iff_equal(self, dim, seed):
        rng = np.random.default_rng(seed)
        p = random_spd(rng, dim)
        q = random_spd(rng, dim)
        assert affine_invariant_distance(p, p) < 1e-12
        if not np.allclose(p.values, q.values):
            assert affine_invariant_distance(p, q) > 0.0


def two_matrix_geometric_mean(p1, p2):
    """Closed form P1^{1/2} (P1^{-1/2} P2 P1^{-1/2})^{1/2} P1^{1/2}."""
    sq = symm_fn(p1.values, "sqrt")
    isq = symm_fn(p1.values, "inv_sqrt")
    return sq @ symm_fn(isq @ p2.values @ isq, "sqrt") @ sq


class TestFrechetMean:
    def test_single_element(self, rng):
        p = random_spd(rng, 4)
        assert np.array_equal(frechet_mean([p]).values, p.values)

    def test_all_identical(self):
        eye = SpdMatrix(np.eye(3))
        out = frechet_mean([eye, eye, eye])
        assert np.allclose(out.values, np.eye(3), atol=1e-12)

    def test_two_matrix_closed_form(self, rng):
        for _ in range(10):
            p1 = random_spd(rng, 4)
            p2 = random_spd(rng, 4)
            mean = frechet_mean([p1, p2])
            oracle = two_matrix_geometric_mean(p1, p2)
            assert np.linalg.norm(mean.values - oracle) < 1e-8

    def test_gradient_condition_at_result(self, rng):
        mats = [random_spd(rng, 4) for _ in range(7)]
        tol = 1e-8
        mean = frechet_mean(mats, tol=tol)
        # Log_M(P) = M^{1/2} Log(M^{-1/2} P M^{-1/2}) M^{1/2}
        sqrt, isqrt = symm_fn(mean.values, "sqrt"), symm_fn(mean.values, "inv_sqrt")
        tangent_sum = np.sum([sqrt @ symm_fn(isqrt @ m.values @ isqrt, "log") @ sqrt
                              for m in mats], axis=0)
        assert np.linalg.norm(tangent_sum) / len(mats) < tol

    def test_congruence_invariance_of_mean(self, rng):
        mats = [random_spd(rng, 3) for _ in range(5)]
        w = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        mean = frechet_mean(mats)
        transformed = [SpdMatrix(w @ m.values @ w.T) for m in mats]
        mean_t = frechet_mean(transformed)
        assert np.linalg.norm(mean_t.values - w @ mean.values @ w.T) < 1e-7

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            frechet_mean([])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            frechet_mean([SpdMatrix(np.eye(2)), SpdMatrix(np.eye(3))])

    def test_no_convergence_carries_state(self, rng):
        mats = [random_spd(rng, 4) for _ in range(5)]
        with pytest.raises(NoConvergence) as err:
            frechet_mean(mats, tol=1e-16, max_iter=1)
        assert isinstance(err.value.last_iterate, SpdMatrix)
        assert err.value.residual > 0.0
