"""Deterministic hashing + sketches (MinHash, SimHash, LSH band keys).

These feed the fuzzy key-match / near-dup machinery that replaces the
reference's external FastJoin process (SJ/utils/FastJoinWrapper.java:83-196)
and its NGramBlocker (InstanceBasedComparer.java:422-494): shingle → MinHash →
LSH band keys → groupby(band) candidates → verify (SURVEY.md §2.4/§2.6).

Everything is seeded and stable across processes/machines:
- ``hash64`` uses pandas' SipHash-1-3 with its fixed default key — vectorized
  over object arrays, identical on every worker.
- MinHash permutations come from ``numpy.random.default_rng(seed)``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

_MERSENNE = np.uint64((1 << 61) - 1)


def hash64(values) -> np.ndarray:
    """Stable uint64 hash of an array-like of strings (vectorized)."""
    arr = np.asarray(values, dtype=object)
    return pd.util.hash_array(arr, categorize=False)


def _perm_params(num_perm: int, seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64) | np.uint64(1)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
    return a, b


class MinHasher:
    """MinHash over token/shingle sets.  Construction draws the permutation
    parameters (~50 µs at 128 permutations), cheap enough to rebuild per
    batch."""

    def __init__(self, num_perm: int = 64, seed: int = 42):
        self.num_perm = num_perm
        self.a, self.b = _perm_params(num_perm, seed)

    def signature(self, token_hashes: np.ndarray) -> np.ndarray:
        """(t,) uint64 token hashes → (num_perm,) uint64 signature."""
        if token_hashes.size == 0:
            return np.full(self.num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        # universal-ish permutation in uint64 with natural overflow
        vals = token_hashes[None, :] * self.a[:, None] + self.b[:, None]
        return vals.min(axis=1)

    def signatures(self, docs_token_hashes: list[np.ndarray]) -> np.ndarray:
        """list of per-doc token-hash arrays → (n_docs, num_perm) matrix."""
        lengths = np.fromiter((len(h) for h in docs_token_hashes), np.int64,
                              count=len(docs_token_hashes))
        flat = [h for h in docs_token_hashes if len(h)]
        return self.signatures_flat(
            np.concatenate(flat) if flat else np.empty(0, dtype=np.uint64),
            lengths)

    def signatures_flat(self, token_hashes: np.ndarray,
                        lengths: np.ndarray) -> np.ndarray:
        """Every document's token hashes back to back (document i holds the
        next ``lengths[i]``) → (n_docs, num_perm) matrix, row i equal to
        ``signature`` of document i.  Documents go in slices of at most
        max(n_docs, longest document) tokens, so a slice's (tokens ×
        num_perm) temporary is no larger than the output, or than
        ``signature``'s temporary for a document longer than the list."""
        n = len(lengths)
        out = np.full((n, self.num_perm), np.iinfo(np.uint64).max,
                      dtype=np.uint64)
        if n == 0:
            return out
        ends = np.cumsum(lengths)
        starts = ends - lengths
        cap = max(n, int(lengths.max()))
        i = 0
        while i < n:
            j = int(np.searchsorted(ends, starts[i] + cap, side="right"))
            docs = i + np.flatnonzero(lengths[i:j])
            if len(docs):
                lo = starts[i]
                vals = token_hashes[lo:ends[j - 1], None] * self.a[None, :] \
                    + self.b[None, :]
                out[docs] = np.minimum.reduceat(vals, starts[docs] - lo,
                                                axis=0)
            i = j
        return out


def band_keys(signatures: np.ndarray, num_bands: int) -> np.ndarray:
    """(n, k) signatures → (n, num_bands) uint64 band keys.  Docs sharing a
    band key in the same band index are LSH candidates."""
    n, k = signatures.shape
    r = k // num_bands
    assert r * num_bands == k, "num_perm must be divisible by num_bands"
    out = np.empty((n, num_bands), dtype=np.uint64)
    a, b = _perm_params(num_bands * r, seed=7)
    for bi in range(num_bands):
        seg = signatures[:, bi * r:(bi + 1) * r]
        acc = np.full(n, np.uint64(1469598103934665603), dtype=np.uint64)  # FNV offset
        for j in range(r):
            acc = (acc ^ seg[:, j]) * np.uint64(1099511628211)
        # mix in the band index so bands don't collide with each other
        out[:, bi] = (acc ^ np.uint64(bi)) * np.uint64(0x9E3779B97F4A7C15)
    return out


def simhash64(token_hashes: np.ndarray, weights: np.ndarray | None = None) -> np.uint64:
    """64-bit SimHash of a token multiset."""
    if token_hashes.size == 0:
        return np.uint64(0)
    shifts = np.arange(64, dtype=np.uint64)
    bits = (token_hashes[:, None] >> shifts[None, :]) & np.uint64(1)
    if weights is None:
        sums = bits.sum(axis=0, dtype=np.int64)
        thresh = token_hashes.size / 2.0
    else:
        sums = (bits * weights[:, None]).sum(axis=0)
        thresh = weights.sum() / 2.0
    out = np.uint64(0)
    for i in range(64):
        if sums[i] > thresh:
            out |= np.uint64(1) << np.uint64(i)
    return out


def hamming_distance64(a: np.ndarray, b: np.ndarray | np.uint64) -> np.ndarray:
    """Vectorized Hamming distance between uint64 simhashes."""
    x = np.bitwise_xor(a, b)
    # popcount via unpacking bytes
    as_bytes = x.astype(np.uint64).view(np.uint8).reshape(-1, 8)
    return np.unpackbits(as_bytes, axis=1).sum(axis=1)


def word_shingle_hashes(tokens: list[str], k: int = 3) -> np.ndarray:
    if not tokens:
        return np.empty(0, dtype=np.uint64)
    if len(tokens) < k:
        return hash64([" ".join(tokens)])
    sh = [" ".join(tokens[i:i + k]) for i in range(len(tokens) - k + 1)]
    return hash64(sh)


# ---------------------------------------------------------------------------
# Bloom filter (partials OR-mergeable — the broadcast-semi-join sketch)
# ---------------------------------------------------------------------------

def bloom_partial(values, num_bits: int = 1 << 22, num_hashes: int = 4) -> np.ndarray:
    """Bloom-filter bit array (packed uint8, ``num_bits/8`` bytes) over an
    array-like of keys.  Per-batch partials OR together into the global
    filter — the driver merge is bounded by the FIXED filter size, never by
    the key cardinality (the scale-safe replacement for collecting a
    distinct-key set)."""
    bits = np.zeros(num_bits // 8, dtype=np.uint8)
    if len(values) == 0:
        return bits
    h = hash64(np.asarray(values, dtype=object))
    for i in range(num_hashes):
        # double hashing: g_i(x) = h1 + i*h2 (Kirsch–Mitzenmacher)
        h1 = h & np.uint64(0xFFFFFFFF)
        h2 = (h >> np.uint64(32)) | np.uint64(1)
        idx = ((h1 + np.uint64(i) * h2) % np.uint64(num_bits)).astype(np.int64)
        np.bitwise_or.at(bits, idx >> 3, (1 << (idx & 7)).astype(np.uint8))
    return bits


def bloom_contains(bits: np.ndarray, values, num_hashes: int = 4) -> np.ndarray:
    """Vectorized membership test → bool mask (false positives possible,
    false negatives impossible)."""
    num_bits = len(bits) * 8
    n = len(values)
    if n == 0:
        return np.zeros(0, dtype=bool)
    h = hash64(np.asarray(values, dtype=object))
    out = np.ones(n, dtype=bool)
    h1 = h & np.uint64(0xFFFFFFFF)
    h2 = (h >> np.uint64(32)) | np.uint64(1)
    for i in range(num_hashes):
        idx = ((h1 + np.uint64(i) * h2) % np.uint64(num_bits)).astype(np.int64)
        out &= (bits[idx >> 3] & (1 << (idx & 7)).astype(np.uint8)) != 0
    return out
