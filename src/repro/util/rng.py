"""Deterministic random-number streams.

Every stochastic quantity in the simulator (node variability, counter
noise, measurement noise, weight init) draws from a ``numpy`` Generator
keyed by a tuple of labels, so that results are reproducible regardless of
call order: the stream for ``("node", 3)`` is identical whether or not any
other stream was consumed first.

Two access layers exist:

* :func:`rng_for` — the scalar path: one fresh Generator per key.  Used
  everywhere a single stream is consumed at a time.
* :class:`StreamPrefix` + :func:`batched_lognormal` — the batched path
  used by the execution simulator's replay engine.  A run draws one
  noise value per (region, iteration); the key prefix (everything but
  the iteration) is hashed once and the per-iteration BLAKE2b digests
  are derived from the cached prefix state.  The PCG64 seeding pipeline
  (``SeedSequence`` pool mixing + state initialisation) is replicated
  with vectorized ``uint32`` arithmetic, so a batch of N draws costs one
  Generator object instead of N — while remaining **bit-identical** to
  ``rng_for(*key).lognormal(...)`` for every key.  The equivalence is
  locked down by tests (``tests/util/test_util.py``).
"""

from __future__ import annotations

import hashlib
import math
import sys
from typing import Any

import numpy as np

_LITTLE_ENDIAN = sys.byteorder == "little"


def stable_hash(*parts: Any) -> int:
    """Return a 64-bit integer hash of ``parts`` that is stable across runs.

    Python's builtin ``hash`` is salted per process for strings, so it
    cannot be used to derive reproducible seeds.  We serialise the parts
    textually and digest with BLAKE2.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def key_bytes(*parts: Any) -> bytes:
    """The bytes :func:`stable_hash` digests for ``parts``: each part's
    ``repr`` in UTF-8, then the ``0x1f`` separator.

    Equal parts can encode differently (``1``, ``1.0`` and ``True``
    print differently), so an encoding may be reused for the same
    object but never looked up by equality.
    """
    return b"".join([repr(part).encode("utf-8") + b"\x1f" for part in parts])


def rng_for(*key: Any, seed: int = 0) -> np.random.Generator:
    """Return a fresh ``numpy`` Generator for the given stream key.

    Parameters
    ----------
    key:
        Arbitrary hashable/representable labels identifying the stream,
        e.g. ``("node-variability", node_id)``.
    seed:
        Global experiment seed mixed into the key, so the same key under a
        different experiment seed yields an independent stream.
    """
    return np.random.default_rng(stable_hash(seed, *key))


#: Cached ``repr(i) + separator`` encodings for integer key suffixes.
#: Every replay engine derives per-iteration seeds from the same small
#: range of indices, so the encodings are shared process-wide.
_ITERATION_SUFFIXES: list[bytes] = []


def _iteration_suffixes(n: int) -> list[bytes]:
    while len(_ITERATION_SUFFIXES) < n:
        _ITERATION_SUFFIXES.append(
            repr(len(_ITERATION_SUFFIXES)).encode("utf-8") + b"\x1f"
        )
    return _ITERATION_SUFFIXES[:n]


class StreamPrefix:
    """Cached BLAKE2b prefix for a family of stream keys.

    ``StreamPrefix("time", node_id, run_key, name, seed=s)`` digests the
    fixed key parts once; :meth:`seed_for` then derives the full
    :func:`stable_hash` of ``(seed, *prefix, *suffix)`` by copying the
    cached hash state and absorbing only the varying suffix.  For a
    replay over hundreds of iterations this turns the per-key hashing
    cost into a single digest-prefix computation per region.
    """

    __slots__ = ("_h",)

    def __init__(self, *prefix: Any, seed: int = 0):
        h = hashlib.blake2b(digest_size=8)
        for part in (seed, *prefix):
            h.update(repr(part).encode("utf-8"))
            h.update(b"\x1f")
        self._h = h

    def extend(self, *parts: Any) -> "StreamPrefix":
        """The prefix with ``parts`` appended, from the cached state."""
        child = StreamPrefix.__new__(StreamPrefix)
        h = self._h.copy()
        for part in parts:
            h.update(repr(part).encode("utf-8"))
            h.update(b"\x1f")
        child._h = h
        return child

    def seed_for(self, *suffix: Any) -> int:
        """``stable_hash(seed, *prefix, *suffix)`` from the cached state."""
        h = self._h.copy()
        for part in suffix:
            h.update(repr(part).encode("utf-8"))
            h.update(b"\x1f")
        return int.from_bytes(h.digest(), "little")

    def seeds_for_iterations(self, iterations: int) -> np.ndarray:
        """Seeds for integer suffixes ``0 .. iterations-1`` as ``uint64``."""
        return np.frombuffer(
            b"".join(self.iteration_digests(iterations)), dtype="<u8"
        ).astype(np.uint64)

    def iteration_digests(self, iterations: int) -> list[bytes]:
        """The 8-byte little-endian digests behind the seeds for
        suffixes ``0 .. iterations-1``.

        The fleet kernel joins every run's digests into one buffer and
        reads it as ``uint64`` once.
        """
        digests: list[bytes] = []
        _digest_rows(digests, self._h, (b"",), iterations)
        return digests


def keyed_digests(
    out: list, prefix: StreamPrefix, names: "list[bytes]", iterations: int
) -> None:
    """Append to ``out`` the seed digests of the keys ``(*prefix, name,
    i)``, row-major: each name in order, ``i`` from 0 to
    ``iterations - 1``.

    Every name is a :func:`key_bytes` encoding; the digests equal
    ``prefix.extend(name).iteration_digests(iterations)`` name by name.
    """
    _digest_rows(out, prefix._h, names, iterations)


def _digest_rows(out: list, state, names, iterations: int) -> None:
    """The digest loop: for each encoded name, copy ``state``, absorb
    the name, then digest one copy per iteration suffix.  Absorbing
    ``repr(i)`` and the separator in one update is byte-identical to
    :meth:`StreamPrefix.seed_for`'s encoding."""
    suffixes = _iteration_suffixes(iterations)
    append = out.append
    for name in names:
        row = state.copy()
        row.update(name)
        copy = row.copy
        for suffix in suffixes:
            h = copy()
            h.update(suffix)
            append(h.digest())


# ---------------------------------------------------------------------------
# Vectorized PCG64 seeding
# ---------------------------------------------------------------------------
#
# ``np.random.default_rng(seed)`` builds ``PCG64(SeedSequence(seed))``.
# Both algorithms are frozen by numpy's reproducibility policy (NEP 19):
# SeedSequence mixes the entropy words through a fixed uint32 hash whose
# round constants do not depend on the data, and PCG64 turns the four
# output words into its 128-bit state/increment.  Because the hash-constant
# schedule is data-independent, the whole pipeline vectorises across an
# arbitrary batch of seeds with elementwise uint32 ops.  The tests assert
# bit-identity against ``np.random.default_rng`` draw-for-draw.

_XSHIFT = 16
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715
_MASK_32 = 0xFFFFFFFF

#: PCG64's default LCG multiplier (pcg_setseq_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK_128 = (1 << 128) - 1


def _constant_schedule(init: int, mult: int, steps: int) -> tuple[int, ...]:
    """SeedSequence's hash-constant evolution — data-independent, so the
    whole schedule folds to module-load-time constants."""
    out = []
    hc = init
    for _ in range(steps):
        hc = (hc * mult) & _MASK_32
        out.append(hc)
    return tuple(out)


def _zero_hash(prev_const: int, this_const: int) -> int:
    """hashed(0) under a known pair of schedule constants."""
    v = 0 ^ prev_const
    v = (v * this_const) & _MASK_32
    v ^= v >> _XSHIFT
    return v


_A_SCHEDULE_INT = _constant_schedule(_INIT_A, _MULT_A, 16)
_B_SCHEDULE_INT = _constant_schedule(_INIT_B, _MULT_B, 8)

#: hashed(0) with the 3rd and 4th hash constants (pool entries 2 and 3).
_ZERO_POOL_2 = _zero_hash(_A_SCHEDULE_INT[1], _A_SCHEDULE_INT[2])
_ZERO_POOL_3 = _zero_hash(_A_SCHEDULE_INT[2], _A_SCHEDULE_INT[3])

#: Hash constants of the 16 pool-fill/mixing steps and 8 output steps,
#: pre-boxed as numpy scalars so the hot loop skips per-op coercion.
_A_SCHEDULE = tuple(np.uint32(c) for c in _A_SCHEDULE_INT)
_B_SCHEDULE = tuple(np.uint32(c) for c in _B_SCHEDULE_INT)
_INIT_A_U32 = np.uint32(_INIT_A)
_INIT_B_U32 = np.uint32(_INIT_B)
_MIX_L_U32 = np.uint32(_MIX_L)
_MIX_R_U32 = np.uint32(_MIX_R)

# Constant columns for the fused mixing rounds.  Round ``s`` of the 4x4
# mixing loop hashes pool[s] three times (for the three other pool lanes)
# with consecutive schedule constants; stacking those three hashes as a
# (3, n) matrix turns nine small array ops into three 2-D ones.  The
# first column pair starts at schedule step 4 (after the four pool-fill
# hashes).
_ROUND_DST = tuple(
    tuple(dst for dst in range(4) if dst != src) for src in range(4)
)


def _column(values) -> np.ndarray:
    return np.array(values, dtype=np.uint32).reshape(-1, 1)


_ROUND_PREV = tuple(
    _column([_A_SCHEDULE_INT[4 + 3 * s + j - 1] for j in range(3)])
    for s in range(4)
)
_ROUND_THIS = tuple(
    _column([_A_SCHEDULE_INT[4 + 3 * s + j] for j in range(3)])
    for s in range(4)
)
#: generate_state constants: words 0-3 and 4-7 as fused column pairs.
_OUT_PREV = (
    _column([_INIT_B] + list(_B_SCHEDULE_INT[0:3])),
    _column(_B_SCHEDULE_INT[3:7]),
)
_OUT_THIS = (
    _column(_B_SCHEDULE_INT[0:4]),
    _column(_B_SCHEDULE_INT[4:8]),
)


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, uint64)`` for a seed batch.

    Returns an ``(n, 4)`` ``uint64`` array.  Mirrors numpy's pool mixing
    for 64-bit entropy values; entropy values below 2**32 coerce to a
    single word in numpy, but hashing the missing high word as 0 with
    the same constant schedule produces the identical pool, so one code
    path covers all magnitudes.  The hash-constant schedule is
    data-independent and precomputed, and the three per-round hash/mix
    lanes run as fused 2-D operations to keep the per-batch dispatch
    overhead low.  Array integer overflow wraps silently in numpy, which
    is exactly the uint32 arithmetic SeedSequence specifies.
    """
    seeds = np.ascontiguousarray(seeds, dtype=np.uint64)
    n = len(seeds)
    lo = (seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    hi = (seeds >> np.uint64(32)).astype(np.uint32)

    def xorshift(value, scratch):
        np.right_shift(value, _XSHIFT, out=scratch)
        value ^= scratch
        return value

    scratch1 = np.empty_like(lo)
    # Pool fill: entropy words 0/1, then hashed zeros (precomputed).
    lo ^= _INIT_A_U32
    lo *= _A_SCHEDULE[0]
    xorshift(lo, scratch1)
    hi ^= _A_SCHEDULE[0]
    hi *= _A_SCHEDULE[1]
    xorshift(hi, scratch1)
    pool = np.empty((4, n), dtype=np.uint32)
    pool[0] = lo
    pool[1] = hi
    pool[2] = _ZERO_POOL_2
    pool[3] = _ZERO_POOL_3

    # 4x4 mixing loop, one fused round per source lane.
    hashed = np.empty((3, n), dtype=np.uint32)
    scratch3 = np.empty_like(hashed)
    for src in range(4):
        hashed[:] = pool[src]
        hashed ^= _ROUND_PREV[src]
        hashed *= _ROUND_THIS[src]
        xorshift(hashed, scratch3)
        destinations = pool[_ROUND_DST[src],]
        destinations *= _MIX_L_U32
        hashed *= _MIX_R_U32
        destinations -= hashed
        xorshift(destinations, scratch3)
        pool[_ROUND_DST[src],] = destinations

    # generate_state(4): 8 uint32 words from cycling the pool, fused as
    # two four-word passes.
    out32 = np.empty((n, 8), dtype=np.uint32)
    scratch4 = np.empty((4, n), dtype=np.uint32)
    for half in range(2):
        v = pool ^ _OUT_PREV[half]
        v *= _OUT_THIS[half]
        xorshift(v, scratch4)
        out32[:, 4 * half : 4 * half + 4] = v.T
    if _LITTLE_ENDIAN:
        return out32.view(np.uint64)  # adjacent uint32 pairs, low word first
    w = out32.astype(np.uint64)
    return w[:, 0::2] | (w[:, 1::2] << np.uint64(32))


def batched_lognormal(
    seeds: np.ndarray, sigma: float, size: int | None = None
) -> np.ndarray:
    """Lognormal draws for a batch of stream seeds, bit-identical to
    ``np.random.default_rng(seed).lognormal(0.0, sigma, size)`` per seed.

    Returns shape ``(len(seeds),)`` for ``size=None`` and
    ``(len(seeds), size)`` otherwise.  Single draws (``size=None``, the
    replay engines' shape) go through a vectorized PCG64 + ziggurat
    fast path (see :class:`_ZigguratFastPath`); batches and any seed the
    fast path cannot serve bit-exactly fall back to one reusable
    Generator re-seeded by direct state assignment — itself a fraction
    of a fresh ``default_rng`` construction per draw.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    n = len(seeds)
    if size is None:
        out = np.empty(n)
    else:
        out = np.empty((n, size))
    if n == 0:
        return out
    words = _seed_words(seeds)
    if size is None and n >= 32:
        fast = _ziggurat_fast_path()
        if fast is not None:
            fast.lognormal_into(words, sigma, out)
            return out
    _lognormal_scalar(words.tolist(), sigma, size, out, range(n))
    return out


def _lognormal_scalar(word_blocks, sigma: float, size, out, indices) -> None:
    """The scalar reference path: one re-seeded Generator per draw.

    Replicates ``pcg64_srandom_r``: the word pairs combine high-first
    (PCG_128BIT_CONSTANT), the increment is ``(initseq << 1) | 1`` and
    the state advances two LCG steps.  The state-dict template is
    reused across draws.  ``indices`` selects which rows to fill, so
    the ziggurat fast path can delegate its normal-tail draws here.
    """
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    state_template = bitgen.state
    inner_state = state_template["state"]
    lognormal = gen.lognormal
    mult, mask = _PCG_MULT, _MASK_128
    for i in indices:
        w0, w1, w2, w3 = word_blocks[i]
        inc = ((((w2 << 64) | w3) << 1) | 1) & mask
        inner_state["inc"] = inc
        inner_state["state"] = ((inc + ((w0 << 64) | w1)) * mult + inc) & mask
        bitgen.state = state_template
        out[i] = lognormal(0.0, sigma, size)


# ---------------------------------------------------------------------------
# Vectorized PCG64 output + ziggurat
# ---------------------------------------------------------------------------
#
# A single lognormal draw per stream costs three scalar steps: re-seed a
# PCG64 (state-dict assignment), draw one standard normal (ziggurat),
# exponentiate.  All three vectorise:
#
# * the seeded state and its outputs are plain 128-bit LCG arithmetic
#   (``state * mult + inc``, then XSL-RR), computed here with 32-bit
#   limb products over the whole seed batch;
# * numpy's ziggurat accepts ~98.9% of first outputs immediately
#   (``rabs < ki[idx]``), returning ``x = rabs * wi[idx]`` with the sign
#   bit applied.  Almost every other draw lands in a wedge (``idx > 0``)
#   and is decided by one more output ``u``: it returns ``x`` iff
#   ``(fi[idx - 1] - fi[idx]) * u + fi[idx] < exp(-0.5 * x * x)``, and
#   otherwise starts over from the next output.  Both tests are
#   elementwise arithmetic once the ``ki``/``wi``/``fi`` tables are
#   known, so the fast path loops over the ever fewer rows still
#   drawing;
# * ``Generator.lognormal(0, sigma)`` is ``exp(0.0 + sigma * z)`` with
#   libm's ``exp`` — reproduced per element through ``math.exp`` (the
#   same libm symbol; ``np.exp``'s SIMD kernels may differ in the last
#   ulp and are NOT used), as is the wedge test's ``exp``.
#
# The tables are not exposed by numpy, so they are **extracted from the
# running interpreter** on first use: crafting a generator state whose
# next two outputs are any chosen words (the LCG step is invertible,
# the increment is free, and a high half of 0 or 1 makes XSL-RR output
# the low half, or its xor with 1) lets us read ``wi[idx]`` off an
# accepted draw with a power-of-two mantissa (exact division), bisect
# ``ki[idx]`` by observing how many LCG steps a draw consumed (exactly
# one iff fast-accepted), and pin ``fi[idx]`` among the few doubles
# next to its construction value ``exp(-0.5 * x_idx**2)`` by the one
# wedge threshold each candidate predicts.  The extraction verifies the
# step/output semantics against ``random_raw``, every ``fi`` difference
# at a second wedge threshold, and the assembled fast path draw-for-draw
# against the scalar reference; any mismatch (e.g. a future numpy
# changing its ziggurat) disables the fast path for the process, falling
# back to the scalar loop.  Only the normal tail (a rejected ``idx ==
# 0`` output, ~0.03% of seeds) always takes the scalar path.

_MASK_32_U64 = np.uint64(0xFFFFFFFF)
_MULT_B0 = np.uint64(_PCG_MULT & 0xFFFFFFFF)
_MULT_B1 = np.uint64((_PCG_MULT >> 32) & 0xFFFFFFFF)
_MULT_LO = np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_MULT_HI = np.uint64(_PCG_MULT >> 64)
_RABS_MASK = np.uint64(0x000FFFFFFFFFFFFF)
#: ``next_double``'s scale: the top 53 bits of an output times 2**-53.
_DOUBLE_UNIT = 1.0 / 9007199254740992.0


def _mul64_lo_hi(a: np.ndarray, b0: np.uint64, b1: np.uint64, b_lo: np.uint64):
    """Full 64x64 -> 128 product of ``a`` with the constant ``b``
    (given as 32-bit halves ``b0``/``b1`` and 64-bit ``b_lo``)."""
    a0 = a & _MASK_32_U64
    a1 = a >> np.uint64(32)
    p00 = a0 * b0
    p01 = a0 * b1
    p10 = a1 * b0
    mid = (p00 >> np.uint64(32)) + (p01 & _MASK_32_U64) + (p10 & _MASK_32_U64)
    lo = a * b_lo
    hi = (
        a1 * b1
        + (p01 >> np.uint64(32))
        + (p10 >> np.uint64(32))
        + (mid >> np.uint64(32))
    )
    return lo, hi


def _step128(lo, hi, inc_lo, inc_hi):
    """One PCG64 LCG step, ``state * mult + inc`` mod 2**128."""
    p_lo, p_hi = _mul64_lo_hi(lo, _MULT_B0, _MULT_B1, _MULT_LO)
    p_hi = p_hi + lo * _MULT_HI + hi * _MULT_LO
    r_lo = p_lo + inc_lo
    carry = (r_lo < p_lo).astype(np.uint64)
    r_hi = p_hi + inc_hi + carry
    return r_lo, r_hi


def _xsl_rr(lo, hi):
    """PCG64's XSL-RR output function of a (post-step) state."""
    rot = hi >> np.uint64(58)
    v = hi ^ lo
    return (v >> rot) | (v << ((np.uint64(64) - rot) & np.uint64(63)))


def _seeded_states(words: np.ndarray) -> tuple:
    """``(lo, hi, inc_lo, inc_hi)`` of a freshly seeded PCG64 per word
    block, before its first output.

    Mirrors ``pcg64_srandom_r``: the word pairs combine high-first
    (PCG_128BIT_CONSTANT), the increment is ``(initseq << 1) | 1`` and
    the state is ``(inc + entropy) * mult + inc``; each output then
    steps the state once and applies XSL-RR.
    """
    ent_hi = words[:, 0]
    ent_lo = words[:, 1]
    inc_hi = (words[:, 2] << np.uint64(1)) | (words[:, 3] >> np.uint64(63))
    inc_lo = (words[:, 3] << np.uint64(1)) | np.uint64(1)
    t_lo = inc_lo + ent_lo
    carry = (t_lo < inc_lo).astype(np.uint64)
    t_hi = inc_hi + ent_hi + carry
    return (*_step128(t_lo, t_hi, inc_lo, inc_hi), inc_lo, inc_hi)


class _ZigguratFastPath:
    """Runtime-extracted ziggurat tables plus the vectorized draw."""

    def __init__(self, ki: np.ndarray, wi: np.ndarray, fi: np.ndarray):
        self._ki = ki  #: (256,) uint64 fast-accept thresholds
        self._wi = wi  #: (256,) float64 strip widths
        self._fi = fi  #: (256,) float64 density at each strip's edge

    def lognormal_into(self, words: np.ndarray, sigma: float, out: np.ndarray) -> None:
        """Fill ``out`` with one ``lognormal(0, sigma)`` per word block.

        Each pass draws one output for the rows still drawing; the
        rows whose output neither fast-accepts nor lands in the tail
        draw their wedge output, and the ones the wedge rejects go
        round again.  The first pass covers every row; a row's normal
        is the ``x`` of the pass that accepts it.
        """
        lo, hi, inc_lo, inc_hi = _seeded_states(words)
        z = None
        rows = None  # the rows still drawing; None: every row
        tails = []
        while True:
            lo, hi = _step128(lo, hi, inc_lo, inc_hi)
            output = _xsl_rr(lo, hi)
            idx = (output & np.uint64(0xFF)).astype(np.intp)
            shifted = output >> np.uint64(8)
            rabs = (shifted >> np.uint64(1)) & _RABS_MASK
            x = rabs.astype(np.float64) * self._wi[idx]
            np.negative(x, where=(shifted & np.uint64(1)).astype(bool), out=x)
            if rows is None:
                z = x
            else:
                z[rows] = x
            rejected = np.nonzero(rabs >= self._ki[idx])[0]
            at_tail = idx[rejected] == 0
            tails.append(rejected[at_tail] if rows is None else rows[rejected[at_tail]])
            wedge = rejected[~at_tail]
            if not wedge.size:
                break
            lo, hi, inc_lo, inc_hi = _step128(
                lo[wedge], hi[wedge], inc_lo[wedge], inc_hi[wedge]
            ) + (inc_lo[wedge], inc_hi[wedge])
            u = (_xsl_rr(lo, hi) >> np.uint64(11)).astype(np.float64) * _DOUBLE_UNIT
            k = idx[wedge]
            xw = x[wedge]
            curve = np.fromiter(map(math.exp, (-0.5 * xw * xw).tolist()), np.float64)
            again = (self._fi[k - 1] - self._fi[k]) * u + self._fi[k] >= curve
            rows = wedge[again] if rows is None else rows[wedge[again]]
            if not rows.size:
                break
            lo, hi, inc_lo, inc_hi = lo[again], hi[again], inc_lo[again], inc_hi[again]
        # ``0.0 + sigma * z`` per element is the same IEEE operations as
        # the scalar expression, and ``math.exp`` is libm's ``exp``.
        out[:] = np.fromiter(
            map(math.exp, (0.0 + float(sigma) * z).tolist()), dtype=np.float64
        )
        tail = np.concatenate(tails)
        if tail.size:
            values = np.empty(tail.size)
            _lognormal_scalar(
                words[tail].tolist(), sigma, None, values, range(tail.size)
            )
            out[tail] = values


_ZIGGURAT: _ZigguratFastPath | bool | None = None


def _ziggurat_fast_path() -> _ZigguratFastPath | None:
    """The process-wide fast path, extracted and verified on first use."""
    global _ZIGGURAT
    if _ZIGGURAT is None:
        try:
            _ZIGGURAT = _extract_ziggurat()
        except Exception:
            _ZIGGURAT = False
    return _ZIGGURAT or None


def _wedge_threshold(d: float, f: float, curve: float) -> int:
    """The smallest 53-bit ``u`` word the wedge test rejects: the first
    ``m`` with ``d * (m * 2**-53) + f >= curve`` (``2**53`` if none).
    Python floats are IEEE doubles, so this is numpy's comparison."""
    lo, hi = 0, 1 << 53
    while lo < hi:
        mid = (lo + hi) // 2
        if d * (mid * _DOUBLE_UNIT) + f >= curve:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _extract_ziggurat() -> _ZigguratFastPath | bool:
    """Extract ``ki``/``wi``/``fi`` from the running numpy and self-verify.

    Returns ``False`` (disabling the fast path) whenever the observed
    generator semantics deviate from the expectations above.
    """
    mask = _MASK_128
    mult = _PCG_MULT
    inv_mult = pow(mult, -1, 1 << 128)
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    template = bitgen.state
    inner = template["state"]
    standard_normal = gen.standard_normal

    def start(first: int, second: int) -> tuple[int, int]:
        """A pre-step state and increment whose next two outputs are
        ``first`` and ``second``: post-step states with a zero high half
        output their low half, and one with a high half of 1 outputs
        its low half xor 1, which flips the increment's parity to the
        odd one PCG64 needs."""
        inc = (second - first * mult) & mask
        if not inc & 1:
            inc = (((1 << 64) | (second ^ 1)) - first * mult) & mask
        return ((first - inc) * inv_mult) & mask, inc

    def draw(first: int, second: int = 0) -> tuple[float, int]:
        """One standard normal whose first two uint64 outputs are
        ``first`` and ``second``, plus the number of LCG steps the draw
        consumed."""
        pre, inc = start(first, second)
        inner["state"], inner["inc"] = pre, inc
        bitgen.state = template
        value = float(standard_normal())
        end = bitgen.state["state"]["state"]
        state = pre
        for steps in range(1, 64):
            state = (state * mult + inc) & mask
            if state == end:
                return value, steps
        raise RuntimeError("unexpected stream consumption")

    # Verify the step/output semantics against the raw stream.
    inner["state"], inner["inc"] = start(0x0123456789ABCDEF, 0xFEDCBA9876543210)
    bitgen.state = template
    if [int(v) for v in bitgen.random_raw(2)] != [
        0x0123456789ABCDEF, 0xFEDCBA9876543210
    ]:
        return False

    ki = np.empty(256, dtype=np.uint64)
    wi = np.empty(256, dtype=np.float64)
    fi = np.empty(256, dtype=np.float64)
    probe_rabs = 1 << 50
    for idx in range(256):
        # Probe the strip width with a power-of-two mantissa, so the
        # division recovering ``wi`` is exact.  A zero second output
        # (``u = 0``) accepts the draw in a wedge too.
        value, steps = draw((probe_rabs << 9) | idx)
        if steps > 2 or value <= 0.0:
            return False
        wi[idx] = value / probe_rabs

    def accepts(idx: int, rabs: int) -> bool:
        """Whether strip ``idx`` fast-accepts ``rabs``: an accepted
        draw consumes exactly one step, everything else at least two."""
        return draw((rabs << 9) | idx)[1] == 1

    edges = wi * 2.0**52  # each strip's outer edge
    for idx in range(256):
        # Bisect the fast-accept threshold.  By construction it sits
        # near 2**52 times the ratio of a strip's inner to outer edge
        # (the base strip's: the tail start over its width), so the
        # bisection starts in a window there, and widens to the whole
        # range when the window misses (the top strip, whose inner edge
        # is 0).
        guess = int(edges[idx - 1] / edges[idx] * 2.0**52)
        lo, hi = min(max(guess - 64, 0), 1 << 52), min(guess + 64, 1 << 52)
        if (lo and not accepts(idx, lo - 1)) or (hi < 1 << 52 and accepts(idx, hi)):
            lo, hi = 0, 1 << 52
        while lo < hi:
            mid = (lo + hi) // 2
            if accepts(idx, mid):
                lo = mid + 1
            else:
                hi = mid
        ki[idx] = lo

    def first_rejection(idx: int, rabs: int, d: float, f: float) -> bool:
        """Whether strip ``idx``'s wedge first rejects ``x = rabs *
        wi[idx]`` at the ``u`` word the difference ``d`` and density
        ``f`` predict: a rejected draw consumes more than two steps."""
        x = rabs * float(wi[idx])
        m = _wedge_threshold(d, f, math.exp(-0.5 * x * x))
        return (
            0 < m < 1 << 53
            and draw((rabs << 9) | idx, (m - 1) << 11)[1] == 2
            and draw((rabs << 9) | idx, m << 11)[1] > 2
        )

    # ``fi[0]`` tops the ziggurat at x = 0.  Each ``fi[idx]`` is the
    # double next to ``exp(-0.5 * x**2)`` at the strip's outer edge
    # (``x = wi[idx] * 2**52``) that predicts where the wedge starts
    # rejecting an ``x`` about 64 ulps of ``fi[idx]`` above that edge's
    # density, where ``u`` is small and ``fi[idx - 1]`` hardly counts.
    # A second threshold mid-strip then checks the difference.
    fi[0] = 1.0
    for idx in range(1, 256):
        edge = float(wi[idx]) * 2.0**52
        near_edge = (1 << 52) - 1 - math.ceil(64 / (edge * edge))
        bits = np.float64(math.exp(-0.5 * edge * edge)).view(np.int64)
        for ulps in (0, -1, 1, -2, 2, -3, 3):
            f = float((bits + ulps).view(np.float64))
            if first_rejection(idx, near_edge, float(fi[idx - 1]) - f, f):
                fi[idx] = f
                break
        else:
            return False
        mid_strip = (int(ki[idx]) + (1 << 52)) // 2
        if not first_rejection(
            idx, mid_strip, float(fi[idx - 1] - fi[idx]), float(fi[idx])
        ):
            return False
    fast = _ZigguratFastPath(ki, wi, fi)

    # Draw-for-draw verification against the scalar reference.
    check_seeds = np.random.default_rng(0).integers(
        0, 1 << 64, size=4096, dtype=np.uint64
    )
    words = _seed_words(check_seeds)
    got = np.empty(len(check_seeds))
    fast.lognormal_into(words, 0.0025, got)
    want = np.empty(len(check_seeds))
    _lognormal_scalar(words.tolist(), 0.0025, None, want, range(len(check_seeds)))
    if not np.array_equal(got, want):
        return False
    return fast
