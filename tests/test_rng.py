"""SplitMix64: known answers, exact rejection in `below` and in the
vectorized draw, and the draw against the scalar stream."""

import numpy as np
import pytest

from cwlab.rng import _GAMMA, _MIX1, _MIX2, MASK64, SplitMix64, derive_seed, draw_many, mix64


def _unxorshift(y, k):
    """The x with x ^ (x >> k) == y."""
    x = y
    for _ in range(64 // k + 1):
        x = y ^ (x >> k)
    return x


def unmix64(z):
    """The state whose mix64 is z: mix64 is a bijection of 64-bit words."""
    z = _unxorshift(z, 31)
    z = (z * pow(_MIX2, -1, 1 << 64)) & MASK64
    z = _unxorshift(z, 27)
    z = (z * pow(_MIX1, -1, 1 << 64)) & MASK64
    return _unxorshift(z, 30)


def stream_whose_next_output_is(z):
    """The seed of a stream whose first output is z."""
    return (unmix64(z) - _GAMMA) & MASK64


def test_next_u64_known_answers():
    # the first is the published first output of SplitMix64 from state 0
    want = {
        0: (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F),
        1: (0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67, 0xF893A2EEFB32555E),
        MASK64: (0xE4D971771B652C20, 0xE99FF867DBF682C9, 0x382FF84CB27281E9),
        0x0123456789ABCDEF: (0x157A3807A48FAA9D, 0xD573529B34A1D093, 0x2F90B72E996DCCBE),
    }
    for seed, outputs in want.items():
        rng = SplitMix64(seed)
        assert tuple(rng.next_u64() for _ in range(3)) == outputs, hex(seed)


def test_derive_seed_known_answers():
    want = {
        (0,): 0xE220A8397B1DCDAF,
        (1, 2, 3): 0x6AE515C1C0AC7E37,
        (21, 7, 1): 0xB4414B9BAA655166,
        (-1, 7): 0x19F20A9BB46150B6,
        (2**64 + 5, 9): 0xFF3ADFC86ED37CB9,
    }
    for parts, seed in want.items():
        assert derive_seed(*parts) == seed, parts


def test_derive_seed_over_arrays_matches_each_entry():
    labels = np.array([0, 1, 7, MASK64, 2**63], dtype=np.uint64)
    for parts in [(labels,), (21, labels), (labels, 3, labels), (5, labels, 1)]:
        got = derive_seed(*parts)
        for j in range(len(labels)):
            assert int(got[j]) == derive_seed(*(int(p[j]) if isinstance(p, np.ndarray) else p for p in parts))


def test_unmix_inverts_mix():
    for z in (0, 1, MASK64, 0x0123456789ABCDEF, _GAMMA):
        assert mix64(unmix64(z)) == z
        assert SplitMix64(stream_whose_next_output_is(z)).next_u64() == z


@pytest.mark.parametrize("n", [3, 5])
def test_below_skips_the_output_past_its_limit(n):
    # 2^64 = 1 mod 3 and mod 5, so 2^64 - 1 is the one output below skips
    seed = stream_whose_next_output_is(MASK64)
    rng = SplitMix64(seed)
    assert rng.below(n) == mix64((seed + 2 * _GAMMA) & MASK64) % n
    assert rng.next_u64() == mix64((seed + 3 * _GAMMA) & MASK64)
    # the same output is kept where n divides 2^64
    assert SplitMix64(seed).below(4) == MASK64 % 4


@pytest.mark.parametrize("n", [2**64 + 1, 2**122 + 12345, 2**127 + 1])
def test_below_past_two_to_the_64_reads_two_outputs(n):
    # the first output is the high word; a value at or past
    # 2^128 - (2^128 mod n) is redrawn, as is a first output of 2^64 - 1
    # for every n here but 2^64 + 1
    seed = stream_whose_next_output_is(MASK64)
    outs = [mix64((seed + t * _GAMMA) & MASK64) for t in range(1, 13)]
    pairs = [hi << 64 | lo for hi, lo in zip(outs[::2], outs[1::2])]
    limit = 2**128 - 2**128 % n
    kept = next(i for i, r in enumerate(pairs) if r < limit)
    assert (kept > 0) == (n > 2**64 + 1)
    rng = SplitMix64(seed)
    assert rng.below(n) == pairs[kept] % n
    assert rng.next_u64() == mix64((seed + (2 * kept + 3) * _GAMMA) & MASK64)


@pytest.mark.parametrize("n", [3, 5])
def test_vectorized_draw_skips_the_output_past_its_limit(n):
    seed = stream_whose_next_output_is(MASK64)
    others = [0, 1, 12345]
    for count in (1, 2, 7):
        want = []
        for s in [seed, *others]:
            rng = SplitMix64(s)
            want.append(([rng.below(n) for _ in range(count)], rng._state))
        states = np.array([seed, *others], dtype=np.uint64)
        values, after = draw_many(states, count, n)
        assert [(v, int(a)) for v, a in zip(values.tolist(), after)] == want, count
        rng = SplitMix64(seed)
        assert rng.draw(count, n).tolist() == want[0][0]
        assert rng._state == want[0][1]
    # a rejection in the middle of a row, and a modulus per stream
    mid = (stream_whose_next_output_is(MASK64) - 2 * _GAMMA) & MASK64
    values, after = draw_many(np.array([mid, mid, 9], dtype=np.uint64), 4, [n, 4, n])
    for s, m, row, a in zip([mid, mid, 9], [n, 4, n], values.tolist(), after):
        rng = SplitMix64(s)
        assert row == [rng.below(m) for _ in range(4)] and int(a) == rng._state


def test_vectorized_draw_matches_the_scalar_stream():
    # from moduli that never reject to ones that reject about half the outputs
    for n in (1, 2, 3, 5, 7, 625, 3**13, 2**20, 2**63 + 5, 3 * 2**62, MASK64):
        for seed in (0, 1, 99, MASK64):
            rng = SplitMix64(seed)
            want = [rng.below(n) for _ in range(40)]
            vec = SplitMix64(seed)
            assert vec.draw(40, n).tolist() == want, (n, seed)
            assert vec._state == rng._state
    for seed in (0, 7):
        rng, vec = SplitMix64(seed), SplitMix64(seed)
        assert vec.draw(25).tolist() == [rng.next_u64() for _ in range(25)]
        assert vec.next_u64() == rng.next_u64()


def test_vectorized_draw_needs_n_at_least_one():
    with pytest.raises(ValueError):
        draw_many(np.zeros(2, dtype=np.uint64), 3, [2, 0])
    with pytest.raises(ValueError):
        SplitMix64(0).below(0)
