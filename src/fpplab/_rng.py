"""Counter-based keyed hashing: the package's one source of randomness.

Edge weights (lattice), oriented-percolation bonds (oriented) and trial
seeds (derive_seed) all come from hash_words, or from its step fold; no
module keeps a stateful generator. Every random quantity is thus a pure
function of (seed, counter words), computed with splitmix64-style
finalizers, and reproduces bit-identically across runs, machines and
thread counts.
"""

import numpy as np

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MASK = (1 << 64) - 1


def mix64(z):
    """splitmix64 finalizer, vectorized over uint64 arrays.

    Returns a new value: z itself is never written to.
    """
    z = np.asarray(z, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
        return z ^ (z >> np.uint64(31))


def _mix64_owned(z):
    """mix64 computed in place in z, a uint64 array no caller holds.

    Bit-identical to mix64(z); it allocates one scratch array instead of
    a temporary per operation. Integer arrays wrap without a warning, so
    it needs no errstate guard.
    """
    t = np.empty_like(z)
    np.right_shift(z, np.uint64(30), out=t)
    z ^= t
    z *= _M1
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= _M2
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def fold(h, w):
    """Fold one counter word w into the hash h: one step of hash_words.

    hash_words(seed, w1, w2) is fold(fold(hash_words(seed), w1), w2), so a
    caller that hashes many words under one seed can mix the seed once.
    Neither h nor w is written to.
    """
    w = np.asarray(w)
    # the ufunc wraps silently, where + on two numpy scalars would warn
    h = np.add(h, _GOLDEN) ^ w.astype(np.int64, copy=False).view(np.uint64)
    # h is a fresh result here; scalars keep the cheaper mix64
    return _mix64_owned(h) if h.ndim else mix64(h)


def hash_words(seed, *words):
    """Hash a seed together with integer counter words to one uint64.

    The seed is mixed, then each word is folded in. Each word may be a
    scalar or an array; arrays broadcast together, so a grid is best
    hashed from an (n, 1) and a (1, m) word: the first is then mixed over
    the vector alone. The caller's arrays are never written to.
    """
    h = mix64(np.uint64(seed & _MASK))
    for w in words:
        h = fold(h, w)
    return h


def uniform01(h):
    """Map uint64 hashes to uniforms in [0, 1) with 53-bit resolution."""
    return (np.asarray(h, dtype=np.uint64) >> np.uint64(11)) * (2.0 ** -53)


def derive_seed(master_seed, *indices):
    """Derive a child 64-bit seed from a master seed and index words.

    Used for per-trial seeding: growing the trial count never reshuffles
    the seeds of earlier trials.
    """
    return int(hash_words(master_seed, *indices))
