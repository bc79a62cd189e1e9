"""The pure-Python SeedSequence, PCG64 and permutation streams against
numpy.random, their oracle: seeds, shuffles, derived split seeds and the
stratified folds built from them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augcov import evaluate
from augcov.classify import stratified_folds
from augcov.seeds import Pcg64, SeedSequence

entropies = st.one_of(st.integers(0, 2 ** 32), st.integers(2 ** 64, 2 ** 140))
spawn_keys = st.lists(st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 40)),
                      max_size=3).map(tuple)


@given(entropy=entropies, spawn_key=spawn_keys, n_words=st.integers(1, 9))
@settings(max_examples=200, deadline=None)
def test_generate_state_is_numpys(entropy, spawn_key, n_words):
    want = np.random.SeedSequence(entropy, spawn_key=spawn_key).generate_state(n_words)
    assert SeedSequence(entropy, spawn_key).generate_state(n_words) == want.tolist()


@given(entropy=entropies, spawn_key=spawn_keys,
       sizes=st.lists(st.integers(0, 300), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_permutations_are_numpys(entropy, spawn_key, sizes):
    """Successive permutations of one generator: the 32-bit draws keep
    numpy's buffered half across calls."""
    rng = Pcg64(SeedSequence(entropy, spawn_key))
    oracle = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy, spawn_key=spawn_key)))
    for n in sizes:
        assert rng.permutation(n) == oracle.permutation(n).tolist()


@given(seed=st.integers(0, 2 ** 64), key=spawn_keys)
@settings(max_examples=100, deadline=None)
def test_derived_seeds_are_numpys(seed, key):
    state = np.random.SeedSequence(seed, spawn_key=key).generate_state(1, dtype=np.uint64)
    assert evaluate._derive_seed(seed, *key) == int(state[0] % 2 ** 31)


def numpy_folds(labels, n_folds, seed):
    """The stratified folds drawn by numpy.random itself."""
    rng = np.random.Generator(np.random.PCG64(seed))
    fold_of = np.empty(labels.size, dtype=int)
    for cls in sorted(set(labels.tolist())):
        idx = np.nonzero(labels == cls)[0]
        fold_of[idx[rng.permutation(idx.size)]] = np.arange(idx.size) % n_folds
    return [np.nonzero(fold_of == f)[0].tolist() for f in range(n_folds)]


@given(entropy=entropies, spawn_key=spawn_keys, n_folds=st.integers(2, 5),
       counts=st.lists(st.integers(5, 120), min_size=1, max_size=3), data=st.data())
@settings(max_examples=100, deadline=None)
def test_stratified_folds_are_numpys(entropy, spawn_key, n_folds, counts, data):
    """Folds from an int, from this module's SeedSequence and from numpy's
    equal the numpy-drawn reference, labels in shuffled order."""
    labels = np.array(data.draw(st.permutations(
        [cls for cls, count in enumerate(counts) for _ in range(count)])))

    def tests_of(seed):
        return [test.tolist() for _, test in stratified_folds(labels, n_folds, seed)]

    oracle = np.random.SeedSequence(entropy, spawn_key=spawn_key)
    want = numpy_folds(labels, n_folds, oracle)
    assert tests_of(SeedSequence(entropy, spawn_key)) == tests_of(oracle) == want
    int_seed = entropy % 2 ** 64
    assert tests_of(int_seed) == numpy_folds(labels, n_folds, int_seed)


def test_negative_entropy_is_refused_as_numpy_refuses_it():
    with pytest.raises(ValueError):
        np.random.SeedSequence(-1)
    for entropy, key in ((-1, ()), (0, (3, -2))):
        with pytest.raises(ValueError, match="non-negative"):
            SeedSequence(entropy, key).generate_state(1)
