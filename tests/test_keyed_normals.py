"""The vectorised (seed, i) standard-normal draw against numpy's own generator."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qparch import _keyed_normals as K
from qparch import pulses as P

# PCG64's multiplier (O'Neill's 128-bit LCG constant) and its inverse mod 2**128.
PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
PCG_MULT_INVERSE = pow(PCG_MULT, -1, 2 ** 128)


def oracle(seed, n, start=0):
    return np.array(
        [np.random.default_rng((seed, i)).standard_normal() for i in range(start, start + n)]
    )


def prime(bitgen, first, second=0):
    """Set a PCG64 so that its next two outputs are ``first`` and ``second``.

    With the state's high word 0, XSL-RR neither rotates nor changes the low
    word, so the state to step into is the output itself; the increment is
    chosen so the step after it lands on ``second``.
    """
    inc = (second - first * PCG_MULT) % 2 ** 128
    state = (first - inc) * PCG_MULT_INVERSE % 2 ** 128
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}


def probe_tables():
    """numpy's ziggurat tables, read back through ``Generator.standard_normal``.

    An output with index k, sign 0 and rabs 1 returns wi[k] (for k = 1, whose
    ki is 0, the rejection test passes because the next double is 0).  ki[k]
    is the smallest rabs for which the draw consumes more than one output.
    """
    bitgen = np.random.PCG64(0)
    generator = np.random.Generator(bitgen)

    def draw(k, rabs):
        first = k | rabs << 9
        prime(bitgen, first)
        x = generator.standard_normal()
        return x, bitgen.state["state"]["state"] == first

    wi, ki = [], []
    for k in range(256):
        wi.append(draw(k, 1)[0])
        lo, hi = 0, 2 ** 52
        while lo < hi:
            mid = (lo + hi) // 2
            if draw(k, mid)[1]:
                lo = mid + 1
            else:
                hi = mid
        ki.append(lo)
    return wi, ki


@pytest.fixture
def fresh_draw_caches():
    K.replica_agrees.cache_clear()
    P._standard_normals.cache_clear()
    yield
    K.replica_agrees.cache_clear()
    P._standard_normals.cache_clear()


def test_derived_tables_match_the_numpy_probe():
    wi, ki = probe_tables()
    assert K._WI_ARRAY.tobytes() == np.array(wi).tobytes()
    assert K._KI_ARRAY.tobytes() == np.array(ki, dtype=np.uint64).tobytes()
    assert ki[1] == 0


SEEDS = st.one_of(
    st.sampled_from([0, 7, 2 ** 31 - 1, 2 ** 32 - 1, 20101022, 2 ** 32, 2 ** 64 + 3]),
    st.integers(0, 2 ** 33),
)


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.integers(1, 200), st.integers(0, 200))
@example(2 ** 31 - 1, 1445, 33)  # keys 32 (index 1) and 1444 (index 0, rejected) leave the fast path
@example(2 ** 32 - 1, 782, 700)  # keys 695 (index 0, rejected) and 781 (index 1)
def test_draw_is_the_per_key_generator_bit_for_bit(seed, n, prefix):
    want = oracle(seed, n)
    z = P._standard_normals(seed, n)
    assert z.tobytes() == want.tobytes()
    if seed < 2 ** 32:  # the fast path alone, without the redraws and the self-check behind it
        x, accepted = K._first_try(K._first_bits(seed, 0, n))
        assert x[accepted].tobytes() == want[accepted].tobytes()
    m = min(prefix, n)
    assert P._standard_normals(seed, m).tobytes() == z[:m].tobytes()


@pytest.mark.parametrize("seed, keys", [(2 ** 31 - 1, (32, 1444)), (2 ** 32 - 1, (695, 781))])
def test_pinned_examples_reach_the_slow_path(seed, keys):
    bits = K._first_bits(seed, 0, max(keys) + 1)
    _, accepted = K._first_try(bits)
    assert sorted(int(bits[k]) & 0xFF for k in keys) == [0, 1]
    assert not accepted[list(keys)].any()


@pytest.mark.parametrize("seed", [7, 2 ** 32 - 1])
def test_prefixes_agree_across_blocks(seed):
    full = P._standard_normals(seed, 2 * K._BLOCK + 5)
    for n in (1, K._BLOCK - 1, K._BLOCK, K._BLOCK + 1, 2 * K._BLOCK):
        assert P._standard_normals(seed, n).tobytes() == full[:n].tobytes()
    edge = K._BLOCK - 3
    assert full[edge:edge + 6].tobytes() == oracle(seed, 6, start=edge).tobytes()


def test_self_check_passes_on_fast_path_keys(fresh_draw_caches):
    accepted = [K._first_try(K._first_bits(seed, start, start + 8))[1]
                for seed, start in K._SELF_CHECK_RUNS]
    assert accepted[0].all() and accepted[1].all()
    assert not accepted[2].all()  # and a key the reused generator redraws
    assert K.replica_agrees()


def test_redraws_match_fresh_generators_on_every_rejected_key():
    bits = K._first_bits(7, 0, 20000)
    rejected = np.flatnonzero(~K._first_try(bits)[1])
    assert 200 < len(rejected) < 400  # about 1.4% of keys
    z = K.standard_normals(7, 20000)
    assert z[rejected].tobytes() == np.array([K._per_key(7, int(i)) for i in rejected]).tobytes()


def test_a_changed_state_dict_falls_back_to_the_per_key_generator(monkeypatch, fresh_draw_caches):
    class ChangedState(np.random.PCG64):  # as if a numpy release changed PCG64's state dict
        @property
        def state(self):
            return super().state

        @state.setter
        def state(self, value):
            raise KeyError("inc")

    # The probed tables stay valid; only the redraw of a rejected key fails.
    monkeypatch.setattr(np.random, "PCG64", ChangedState)
    assert not K.replica_agrees()
    assert P._standard_normals(2 ** 31 - 1, 1445).tobytes() == oracle(2 ** 31 - 1, 1445).tobytes()


def test_stream_change_falls_back_to_the_per_key_generator(monkeypatch, fresh_draw_caches):
    # As if a numpy release changed its ziggurat: the replica no longer agrees.
    monkeypatch.setattr(K, "_WI_ARRAY", K._WI_ARRAY * (1 + 2 ** -40))
    assert not K.replica_agrees()
    assert P._standard_normals(7, 50).tobytes() == oracle(7, 50).tobytes()


def test_tables_that_cannot_be_probed_fall_back_to_the_per_key_generator(
    monkeypatch, fresh_draw_caches
):
    class ChangedState(np.random.PCG64):  # as if a numpy release changed PCG64's state dict
        @property
        def state(self):
            return super().state

        @state.setter
        def state(self, value):
            raise KeyError("inc")

    monkeypatch.setattr(np.random, "PCG64", ChangedState)
    wi, ki = K._tables()
    monkeypatch.undo()
    assert np.isnan(wi).all()
    monkeypatch.setattr(K, "_WI_ARRAY", wi)
    monkeypatch.setattr(K, "_KI_ARRAY", ki)
    assert not K.replica_agrees()
    assert P._standard_normals(7, 50).tobytes() == oracle(7, 50).tobytes()


def test_indices_past_the_single_word_range_use_the_per_key_generator(monkeypatch):
    # Shrink the range so that a short draw crosses it.
    monkeypatch.setattr(K, "_KEY_LIMIT", 16)
    monkeypatch.setattr(K, "_BLOCK", 8)
    redrawn = []

    def per_key(seed, i):
        redrawn.append(i)
        return oracle(seed, 1, start=i)[0]

    monkeypatch.setattr(K, "_per_key", per_key)
    assert K.standard_normals(7, 40).tobytes() == oracle(7, 40).tobytes()
    assert set(range(16, 40)) <= set(redrawn)
