import warnings

import numpy as np

from fpplab._rng import derive_seed, fold, hash_words, mix64
from fpplab.lattice import Diamond, Window


def test_mix64_leaves_its_argument_unchanged():
    z = np.arange(1000, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    before = z.copy()
    out = mix64(z)
    assert np.array_equal(z, before)
    assert not np.shares_memory(out, z)


def test_hash_words_leaves_its_arguments_unchanged():
    xs = np.arange(-50, 50)[:, None]
    ys = np.arange(3, 40)[None, :]
    grid = np.arange(12, dtype=np.int64).reshape(3, 4)
    saved = [a.copy() for a in (xs, ys, grid)]
    hash_words(9, xs, ys, 1)
    hash_words(9, grid)
    hash_words(9, 5, grid, 2)
    for a, b in zip((xs, ys, grid), saved):
        assert np.array_equal(a, b)


def test_array_and_scalar_hashing_agree():
    # the in-place array path and the scalar path are the same function
    xs = np.arange(-6, 7)
    arr = hash_words(123, xs, 4, np.int64(1))
    for x, h in zip(xs, arr):
        assert hash_words(123, int(x), 4, 1) == h
        assert derive_seed(123, int(x), 4, 1) == int(h)


def test_premixed_seeds_fold_to_hash_words():
    # a column of seeds mixed once, then folded with each word, is
    # hash_words; neither the keys nor the words are written to
    seeds = np.array([derive_seed(4, t) for t in range(5)], dtype=np.uint64)
    keys = hash_words(seeds[:, None])
    assert np.array_equal(keys, mix64(seeds)[:, None])
    words = (np.arange(7)[None, :], 3)
    saved = keys.copy(), words[0].copy()
    h = fold(fold(keys, words[0]), words[1])
    assert np.array_equal(h, hash_words(seeds[:, None], *words))
    for x, y in np.ndindex(h.shape):
        assert h[x, y] == hash_words(int(seeds[x]), y, 3)
    assert np.array_equal(keys, saved[0])
    assert np.array_equal(words[0], saved[1])


def test_hashing_is_silent_under_strict_errstate():
    # integer arrays wrap without a warning, and the one scalar add is a
    # ufunc call: neither an errors-filter nor over="raise" changes a word
    xs, ys = Window.square(9).site_words()
    dx, dy = Diamond((3, -2), 7).site_words()
    want = (hash_words(11, xs, ys, 1), hash_words(11, dx, dy, 0),
            derive_seed(2**64 - 1, 7, 3), derive_seed(5, -1))
    with warnings.catch_warnings(), np.errstate(over="raise"):
        warnings.simplefilter("error")
        got = (hash_words(11, xs, ys, 1), hash_words(11, dx, dy, 0),
               derive_seed(2**64 - 1, 7, 3), derive_seed(5, -1))
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert want[2] == 0xfbc662b98e95b486
