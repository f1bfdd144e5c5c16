"""Property-based tests of the keyed RNG layer (:mod:`repro.util.rng`).

The replay fast paths lean on three promises: keyed streams are stable
(the same key always yields the same stream, whatever else was drawn),
the cached-prefix seed derivation equals the from-scratch hash, and the
batched lognormal draws are bit-identical to per-key ``default_rng``
generators.  Hypothesis sweeps the key space.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.execution.replay import _seed_digests
from repro.util.rng import (
    StreamPrefix,
    batched_lognormal,
    key_bytes,
    rng_for,
    stable_hash,
)

#: Key parts as they occur in the codebase: labels, ids, nested run keys.
key_parts = st.one_of(
    st.text(max_size=12),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.tuples(st.text(max_size=6), st.integers(min_value=0, max_value=999)),
)
keys = st.lists(key_parts, min_size=1, max_size=4)


class TestStableHash:
    @given(keys, st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50)
    def test_deterministic_across_calls(self, key, seed):
        assert stable_hash(seed, *key) == stable_hash(seed, *key)

    @given(keys, st.integers(min_value=0, max_value=100))
    @settings(max_examples=50)
    def test_seed_separates_streams(self, key, seed):
        assert stable_hash(seed, *key) != stable_hash(seed + 1, *key)

    @given(keys, keys)
    @settings(max_examples=50)
    def test_distinct_keys_distinct_hashes(self, a, b):
        if a != b:
            assert stable_hash(0, *a) != stable_hash(0, *b)


class TestKeyedStreamStability:
    @given(keys, st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=30)
    def test_stream_independent_of_consumption_order(self, key, seed):
        """Drawing other streams first never disturbs a keyed stream."""
        expected = rng_for(*key, seed=seed).normal(size=4)
        rng_for("something", "else", seed=seed).normal(size=100)
        again = rng_for(*key, seed=seed).normal(size=4)
        assert np.array_equal(expected, again)

    @given(keys, keys, st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30)
    def test_prefix_seed_equals_stable_hash(self, prefix, suffix, seed):
        """The cached-prefix derivation is exactly the full hash."""
        stream = StreamPrefix(*prefix, seed=seed)
        assert stream.seed_for(*suffix) == stable_hash(seed, *prefix, *suffix)

    @given(keys, st.integers(min_value=0, max_value=500),
           st.integers(min_value=1, max_value=40))
    @settings(max_examples=30)
    def test_iteration_seeds_match_pointwise_derivation(self, prefix, seed, n):
        """``seeds_for_iterations`` equals ``seed_for(i)`` for every i."""
        stream = StreamPrefix(*prefix, seed=seed)
        batch = stream.seeds_for_iterations(n)
        assert batch.dtype == np.uint64
        assert [int(v) for v in batch] == [stream.seed_for(i) for i in range(n)]


#: Parts that compare equal but print differently: ``1 == 1.0 == True``
#: and ``(24, 2) == (24, 2.0)``, yet each hashes its own ``repr``.
TWINS = (1, 1.0, True, 0, 0.0, -0.0, False, (24, 2), (24, 2.0), (24, True))

#: Run-key and region-name parts: ints, floats, bools, strings and
#: nested tuples of them, with the twins drawn often.
mixed_parts = st.recursive(
    st.one_of(
        st.sampled_from(TWINS),
        st.integers(min_value=-(2**40), max_value=2**40),
        st.floats(allow_nan=False),
        st.booleans(),
        st.text(max_size=8),
    ),
    lambda inner: st.tuples(inner, inner) | st.tuples(inner, inner, inner),
    max_leaves=6,
)


def stream_prefix_digests(names, iterations, node_id, run_key, seed):
    """A run's noise seeds as ``StreamPrefix`` derives them, key by key."""
    run = StreamPrefix("time", node_id, run_key, seed=seed)
    return [
        run.extend(name).seed_for(i) for name in names for i in range(iterations)
    ]


class TestRunDigests:
    """``replay._seed_digests`` encodes each run's key once and each
    region name once per schedule; its digests must be the bytes
    ``StreamPrefix`` hashes, key part by key part."""

    @given(
        names=st.lists(mixed_parts, max_size=5),
        iterations=st.integers(min_value=0, max_value=12),
        node_id=st.sampled_from(TWINS[:7]) | st.integers(0, 64),
        run_key=st.tuples(mixed_parts) | st.tuples(mixed_parts, mixed_parts),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @example(names=list(TWINS), iterations=3, node_id=1, run_key=((24, 2),), seed=7)
    @example(names=["r"], iterations=2, node_id=1.0, run_key=((24, 2.0),), seed=7)
    @example(names=["r"], iterations=2, node_id=True, run_key=(1,), seed=7)
    @settings(max_examples=60)
    def test_digests_equal_stream_prefix(
        self, names, iterations, node_id, run_key, seed
    ):
        out: list[bytes] = []
        _seed_digests(
            out, [key_bytes(name) for name in names], iterations,
            StreamPrefix("time", node_id, seed=seed), run_key,
        )
        assert all(len(digest) == 8 for digest in out)
        want = stream_prefix_digests(names, iterations, node_id, run_key, seed)
        assert [int.from_bytes(d, "little") for d in out] == want
        assert want == [
            stable_hash(seed, "time", node_id, run_key, name, i)
            for name in names
            for i in range(iterations)
        ]

    def test_equal_parts_keep_their_own_bytes(self):
        """Twins one after another — in one run's names, then as the
        run key and node id of consecutive runs — each hash their own
        ``repr``: no encoding is reused for an equal part."""
        out: list[bytes] = []
        _seed_digests(
            out, [key_bytes(n) for n in TWINS], 2, StreamPrefix("time", 0, seed=3),
            ("k",),
        )
        assert [int.from_bytes(d, "little") for d in out] == (
            stream_prefix_digests(TWINS, 2, 0, ("k",), 3)
        )
        assert len(set(out)) == len(out)
        for twin in TWINS:
            out = []
            _seed_digests(
                out, [key_bytes("r")], 2, StreamPrefix("time", twin, seed=3),
                (twin,),
            )
            assert [int.from_bytes(d, "little") for d in out] == (
                stream_prefix_digests(["r"], 2, twin, (twin,), 3)
            )


class TestBatchedLognormal:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=20
        ),
        st.floats(min_value=1e-6, max_value=0.5, allow_nan=False),
    )
    @settings(max_examples=30)
    def test_bit_identical_to_fresh_generators(self, seeds, sigma):
        batch = batched_lognormal(np.array(seeds, dtype=np.uint64), sigma)
        expected = [
            np.random.default_rng(s).lognormal(0.0, sigma) for s in seeds
        ]
        assert batch.tolist() == expected

    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=10)
    def test_sized_draws_bit_identical(self, size):
        seeds = np.array([3, 2**40, 11], dtype=np.uint64)
        batch = batched_lognormal(seeds, 0.01, size)
        for row, seed in zip(batch, seeds):
            expected = np.random.default_rng(int(seed)).lognormal(0.0, 0.01, size)
            assert row.tolist() == expected.tolist()

    def test_empty_batch(self):
        assert batched_lognormal(np.array([], dtype=np.uint64), 0.1).shape == (0,)
