"""Exact, vectorised ``np.random.default_rng((seed, i)).standard_normal()``.

The pulse layer keys one standard normal to each (seed, sample index) pair, so
a result does not depend on how its samples are partitioned.  Building one
generator per key costs about 26 us on a 2-vCPU Xeon VM, but its first normal
is a fixed integer function of (seed, i) that vectorises over i:

1. ``SeedSequence`` hashes the entropy words [seed, i] into a four-word pool
   and expands it with ``generate_state(4, uint64)`` (uint32 arithmetic);
2. ``PCG64`` is seeded from those words and steps once; the XSL-RR output of
   the new state is the generator's first 64 bits (O'Neill, HMC-CS-2014-0905;
   128-bit arithmetic here on 32-bit limbs held in uint64);
3. numpy's ziggurat (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000) returns
   x = +-rabs * WI[idx] from those bits whenever rabs < KI[idx].  Both
   256-entry tables are read from the running numpy when this module is
   imported (``_probe_tables``: about 1100 primed draws, 5 ms on the VM).

A key that leaves that fast path (about 1.4%, every key with idx 1 among
them, since KI[1] = 0) is redrawn by one reused ``PCG64`` set to the state
``default_rng((seed, i))`` holds before its first output: step 2's state less
the increment, times the inverse of PCG64's multiplier modulo 2**128.  That
takes about 5 us a key, against 21 us for a fresh generator.  A seed or an
index of 2**32 or more (its entropy takes several words) is drawn with
``default_rng((seed, i))`` itself, and so is every key if a first-use
self-check against ``default_rng`` disagrees, say after a numpy release
changes the stream or the PCG64 state dict, or the tables cannot be probed.
Keys run in blocks of ``_BLOCK`` so temporaries stay small.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK32 = 0xFFFFFFFF
# SeedSequence's hash constants (pool size 4).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit multiplier.  Seeding sets state = (initstate + inc) * M + inc
# and the first draw steps once more, so the state it outputs is
# initstate * M**2 + inc * (M**2 + M + 1), modulo 2**128.
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_STATE_MULT = _PCG_MULT * _PCG_MULT % 2 ** 128
_INC_MULT = (_STATE_MULT + _PCG_MULT + 1) % 2 ** 128
_PCG_INVERSE = pow(_PCG_MULT, -1, 2 ** 128)

_KEY_LIMIT = 2 ** 32
_BLOCK = 4096
# (seed, first index) of the eight-key runs the self-check compares: two that
# take the fast path, at both ends of the single-word range, and one whose key
# 1444 the fast path rejects, so a redraw that no longer matches is caught.
_SELF_CHECK_RUNS = ((0, 0), (_KEY_LIMIT - 1, _KEY_LIMIT - 8), (2 ** 31 - 1, 1440))


def _hash_pool(seed: int, index: np.ndarray) -> list[np.ndarray]:
    """SeedSequence((seed, i)).pool for each i, as four uint32 arrays."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros_like(index)
    pool = [hashmix(word) for word in (np.full_like(index, seed), index, zero, zero)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    return pool


def _state_words(pool: list[np.ndarray]) -> list[np.ndarray]:
    """generate_state(4, uint64) as eight little-endian uint32 words, widened to uint64."""
    hash_const = _INIT_B
    words = []
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        words.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    return words


def _mul_add_128(a: list[np.ndarray], a_mult: int, b: list[np.ndarray], b_mult: int) -> list[np.ndarray]:
    """(a * a_mult + b * b_mult) mod 2**128 on four 32-bit limbs, least significant first.

    Each column sums at most 14 halves of 32x32-bit products plus a carry, all
    below 2**32, so no uint64 column overflows.
    """
    low = np.uint64(_MASK32)
    shift = np.uint64(32)
    columns = [np.zeros_like(a[0]) for _ in range(4)]
    for limbs, mult in ((a, a_mult), (b, b_mult)):
        mult_limbs = [np.uint64(mult >> (32 * j) & _MASK32) for j in range(4)]
        for i in range(4):
            for j in range(4 - i):
                product = limbs[i] * mult_limbs[j]
                columns[i + j] += product & low
                if i + j < 3:
                    columns[i + j + 1] += product >> shift
    result = []
    carry = np.uint64(0)
    for column in columns:
        column += carry
        result.append(column & low)
        carry = column >> shift
    return result


def _output_state(seed: int, start: int, stop: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """PCG64's state as the first next_uint64() of default_rng((seed, i)) outputs it, and the
    generator's increment, for i in [start, stop), each as four 32-bit limbs."""
    w = _state_words(_hash_pool(seed, np.arange(start, stop, dtype=np.uint32)))
    # pcg64_set_seed: initstate = state[0] << 64 | state[1], and the increment
    # (state[2] << 64 | state[3]) << 1 | 1, with state[k] = w[2k] | w[2k+1] << 32.
    initstate = [w[2], w[3], w[0], w[1]]
    initseq = [w[6], w[7], w[4], w[5]]
    one, top = np.uint64(1), np.uint64(31)
    inc = [(initseq[0] << one | one) & np.uint64(_MASK32)]
    inc += [(initseq[k] << one | initseq[k - 1] >> top) & np.uint64(_MASK32) for k in (1, 2, 3)]
    return _mul_add_128(initstate, _STATE_MULT, inc, _INC_MULT), inc


def _xsl_rr(r: list[np.ndarray]) -> np.ndarray:
    """PCG64's output for a state: the XOR of its halves, rotated right by its top six bits."""
    folded = (r[3] << np.uint64(32) | r[2]) ^ (r[1] << np.uint64(32) | r[0])
    rot = r[3] >> np.uint64(26)
    return folded >> rot | folded << ((np.uint64(64) - rot) & np.uint64(63))


def _first_bits(seed: int, start: int, stop: int) -> np.ndarray:
    """The first next_uint64() of default_rng((seed, i)) for i in [start, stop)."""
    return _xsl_rr(_output_state(seed, start, stop)[0])


def _first_try(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ziggurat's first try on each key's first output: (x, accepted)."""
    idx = (bits & np.uint64(0xFF)).astype(np.intp)
    rabs = bits >> np.uint64(9) & np.uint64((1 << 52) - 1)
    x = rabs.astype(np.float64) * _WI_ARRAY[idx]
    x = np.where(bits & np.uint64(1 << 8), -x, x)
    return x, rabs < _KI_ARRAY[idx]


def _per_key(seed: int, index: int) -> float:
    return np.random.default_rng((seed, index)).standard_normal()


def _limbs_value(limbs: list[np.ndarray], j: int) -> int:
    return sum(int(limb[j]) << 32 * k for k, limb in enumerate(limbs))


def _prime(bitgen: np.random.PCG64, state: int, inc: int) -> None:
    """Set ``bitgen`` to increment ``inc`` and the state whose next step lands on ``state``."""
    bitgen.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                    "state": {"state": (state - inc) * _PCG_INVERSE % 2 ** 128, "inc": inc}}


def _draw(seed: int, start: int, stop: int) -> np.ndarray:
    """Keys [start, stop) by the fast path.  A key it rejects is redrawn by one reused
    generator, set to the state default_rng((seed, i)) holds before its first output."""
    state, inc = _output_state(seed, start, stop)
    x, accepted = _first_try(_xsl_rr(state))
    rejected = np.flatnonzero(~accepted)
    if rejected.size:
        bitgen = np.random.PCG64(0)
        normal = np.random.Generator(bitgen).standard_normal
        for j in rejected:
            _prime(bitgen, _limbs_value(state, j), _limbs_value(inc, j))
            x[j] = normal()
    return x


@functools.cache
def replica_agrees() -> bool:
    """Whether the vectorised draw matches default_rng on the self-check keys."""
    for seed, start in _SELF_CHECK_RUNS:
        want = np.array([_per_key(seed, i) for i in range(start, start + 8)])
        try:
            got = _draw(seed, start, start + 8)
        except (AttributeError, KeyError, TypeError, ValueError):  # say, another PCG64 state dict
            return False
        if got.tobytes() != want.tobytes():
            return False
    return True


def standard_normals(seed: int, samples: int) -> np.ndarray:
    """default_rng((seed, i)).standard_normal() for i in range(samples), bit for bit."""
    z = np.empty(samples)
    vectorised = 0 <= seed < _KEY_LIMIT and replica_agrees()
    for start in range(0, samples, _BLOCK):
        stop = min(start + _BLOCK, samples)
        if vectorised and stop <= _KEY_LIMIT:
            z[start:stop] = _draw(seed, start, stop)
        else:
            z[start:stop] = [_per_key(seed, i) for i in range(start, stop)]
    return z


def _probe_tables() -> tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat tables wi_double and ki_double, read from ``standard_normal``.

    A PCG64 is primed so that its next output is ``k | rabs << 9`` (index k,
    sign 0) and the one after it 0.  At rabs = 1 the draw returns wi[k]
    (for k = 1, whose ki is 0, the rejection test passes because the next
    double is 0).  ki[k] is the smallest rabs whose draw takes more than one
    output.  For k >= 2 the tables hold wi[k] = x[k] / 2**52 and ki[k] =
    x[k-1] / x[k] * 2**52, so int(wi[k-1] / wi[k] * 2**52) is ki[k] or one
    below it: two probes confirm that bracket and one settles it.  k = 0,
    k = 1 and any entry the bracket misses take a binary search over all
    2**52 values.
    """
    bitgen = np.random.PCG64(0)
    normal = np.random.Generator(bitgen).standard_normal

    def draw(k: int, rabs: int) -> tuple[float, bool]:
        """The normal drawn from output k | rabs << 9, and whether it took that output alone."""
        first = k | rabs << 9
        # With the state's high word 0, XSL-RR outputs the state itself.
        _prime(bitgen, first, -first * _PCG_MULT % 2 ** 128)
        x = normal()
        return x, bitgen.state["state"]["state"] == first

    wi = [draw(k, 1)[0] for k in range(256)]
    ki = []
    for k in range(256):
        c = int(wi[k - 1] / wi[k] * 2 ** 52)
        bracketed = k >= 2 and draw(k, c - 1)[1] and not draw(k, c + 1)[1]
        lo, hi = (c, c + 1) if bracketed else (0, 2 ** 52)
        while lo < hi:  # the smallest rabs in [lo, hi] whose draw is rejected
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if draw(k, mid)[1] else (lo, mid)
        ki.append(lo)
    return np.array(wi), np.array(ki, dtype=np.uint64)


def _tables() -> tuple[np.ndarray, np.ndarray]:
    """The probed tables or, if the probe raises, tables whose NaN draws fail the self-check."""
    try:
        return _probe_tables()
    except (AttributeError, KeyError, TypeError, ValueError):  # say, another PCG64 state dict
        return np.full(256, np.nan), np.full(256, 2 ** 64 - 1, dtype=np.uint64)


_WI_ARRAY, _KI_ARRAY = _tables()
