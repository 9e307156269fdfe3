import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockfit import sampling
from fockfit.model import FockDistribution, SqueezedThermalState, fock_distribution, to_variances
from fockfit.sampling import (
    MAX_SEED, MAX_SHOTS, SeedSpec, _sample_blocks, _StateWords, _stream_generators,
    sample_histogram,
)

VACUUM_DIST = fock_distribution(to_variances(SqueezedThermalState(0, 0)), 20)
THERMAL_DIST = fock_distribution(to_variances(SqueezedThermalState(0, 1.0)), 10)


class TestSeedSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SeedSpec(-1, 0)
        with pytest.raises(ValueError):
            SeedSpec(2 ** 64, 0)
        with pytest.raises(ValueError):
            SeedSpec(0, -1)
        for master, stream, name in ((7.9, 0, "master_seed"), (7.0, 0, "master_seed"),
                                     (True, 0, "master_seed"), (7, 0.5, "stream_index"),
                                     (7, 1.0, "stream_index"), (7, False, "stream_index")):
            with pytest.raises(ValueError, match=f"^{name} "):
                SeedSpec(master, stream)
        assert SeedSpec(np.uint64(2 ** 64 - 1), np.int64(3)).generator().integers(2 ** 62) == (
            SeedSpec(2 ** 64 - 1, 3).generator().integers(2 ** 62))

    def test_stream_index_bound(self):
        # stream indices are capped at 2**64 - 1, as master seeds are
        for stream in (2 ** 64, 2 ** 70):
            with pytest.raises(ValueError, match=rf"^stream_index must be in \[0, {MAX_SEED}\], "
                                                 rf"got {stream}$"):
                SeedSpec(0, stream)
        want = SeedSpec(3, MAX_SEED).generator().multinomial(100, THERMAL_DIST.all_probs)
        assert np.array_equal(_sample_blocks([(THERMAL_DIST, 100, MAX_SEED, 1)], 3)[0], want)

    def test_streams_differ(self):
        a = SeedSpec(123, 0).generator().random(4)
        b = SeedSpec(123, 1).generator().random(4)
        assert not np.allclose(a, b)


class TestSampleHistogram:
    def test_vacuum_is_deterministic(self):
        h = sample_histogram(VACUUM_DIST, 500, SeedSpec(0, 0))
        assert h.counts[0] == 500
        assert sum(h.counts) + h.overflow_count == 500

    def test_single_shot(self):
        for stream in range(20):
            h = sample_histogram(THERMAL_DIST, 1, SeedSpec(1, stream))
            assert sum(h.counts) + h.overflow_count == 1

    def test_totals_always_match(self):
        for stream in range(50):
            h = sample_histogram(THERMAL_DIST, 997, SeedSpec(5, stream))
            assert sum(h.counts) + h.overflow_count == 997

    def test_thermal_ground_fraction(self):
        # P(0) = 1/2 for nbar = 1; 5 sigma band around the binomial mean
        n = 10 ** 5
        h = sample_histogram(THERMAL_DIST, n, SeedSpec(2, 0))
        sigma = np.sqrt(0.25 / n)
        assert abs(h.counts[0] / n - 0.5) < 5 * sigma

    def test_bit_reproducible(self):
        a = sample_histogram(THERMAL_DIST, 12345, SeedSpec(77, 3))
        b = sample_histogram(THERMAL_DIST, 12345, SeedSpec(77, 3))
        assert a == b

    def test_invalid_shots(self):
        with pytest.raises(ValueError):
            sample_histogram(THERMAL_DIST, 0, SeedSpec(0, 0))
        for n_shots in (1000.5, 1000.0, True):
            with pytest.raises(ValueError, match="^n_shots must be an integer"):
                sample_histogram(THERMAL_DIST, n_shots, SeedSpec(0, 0))

    def test_shots_up_to_the_int64_bound(self):
        # Generator.multinomial counts in int64: MAX_SHOTS draws, one more
        # is named before any stream is made
        assert MAX_SHOTS == 2 ** 63 - 1
        h = sample_histogram(THERMAL_DIST, MAX_SHOTS, SeedSpec(0, 0))
        assert sum(h.counts) + h.overflow_count == h.total == MAX_SHOTS
        for n_shots in (MAX_SHOTS + 1, 10 ** 20):
            with pytest.raises(ValueError, match=rf"^n_shots must be in \[1, {MAX_SHOTS}\]"):
                _sample_blocks([(THERMAL_DIST, n_shots, 0, 1)], 0)


class TestMarginals:
    def test_bin_means_and_chi_squared(self):
        reps, shots = 1000, 500
        expected = np.array(THERMAL_DIST.probs + (THERMAL_DIST.overflow,))
        totals = np.zeros_like(expected)
        for i in range(reps):
            h = sample_histogram(THERMAL_DIST, shots, SeedSpec(9, i))
            totals += np.array(h.counts + (h.overflow_count,))
        n_draws = reps * shots
        freqs = totals / n_draws
        se = np.sqrt(expected * (1.0 - expected) / n_draws)
        assert np.all(np.abs(freqs - expected) <= 5 * se)
        pooled_expected = expected * n_draws
        stat = float(np.sum((totals - pooled_expected) ** 2 / pooled_expected))
        assert stat < _chi2_isf(0.001, len(expected) - 1)

    def test_streams_uncorrelated(self):
        reps = 1000
        a = np.empty(reps)
        b = np.empty(reps)
        for i in range(reps):
            a[i] = sample_histogram(THERMAL_DIST, 200, SeedSpec(21, 2 * i)).counts[0]
            b[i] = sample_histogram(THERMAL_DIST, 200, SeedSpec(21, 2 * i + 1)).counts[0]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 5.0 / np.sqrt(reps)


def _chi2_isf(p: float, df: int) -> float:
    """The chi-squared critical value of upper tail p: the root x of
    Q(df/2, x/2) = p, Q the regularized upper incomplete gamma function."""
    with mp.workdps(30):
        return float(mp.findroot(
            lambda x: mp.gammainc(df / 2, x / 2, mp.inf, regularized=True) - p, df))


def _reference_counts(d: FockDistribution, n_shots: int, seed: SeedSpec, n: int) -> np.ndarray:
    """The conditional-binomial decomposition written out in Python: bin i
    receives a binomial draw of the shots still unassigned, with success
    probability p_i renormalized by the remaining tail mass (clamped to
    [0, 1]); the overflow bin absorbs whatever is left."""
    conditional = []
    tail = 1.0
    for p in d.probs:
        if tail <= 0.0:
            break
        conditional.append(min(max(p / tail, 0.0), 1.0))
        tail -= p
    out = np.zeros((n, d.n_max + 2), dtype=np.int64)
    for row in range(n):
        binomial = SeedSpec(seed.master_seed, seed.stream_index + row).generator().binomial
        counts = [0] * (d.n_max + 2)
        remaining = n_shots
        for i, p in enumerate(conditional):
            if remaining == 0:
                break
            k = int(binomial(remaining, p))
            counts[i] = k
            remaining -= k
        counts[-1] = remaining
        out[row] = counts
    return out


def _dist(r, nbar, n_max):
    return fock_distribution(to_variances(SqueezedThermalState(r, nbar)), n_max)


class TestSampleCounts:
    """One _sample_blocks block draws exactly what the Python
    conditional-binomial loop draws, stream by stream."""

    @pytest.mark.parametrize("dist, n_shots, seed, n", [
        (_dist(0.0, 0.0, 20), 10_000, SeedSpec(3, 0), 50),
        (_dist(1.75, 0.0, 20), 10_000, SeedSpec(4, 0), 50),
        (_dist(2.5, 0.01, 64), 10_000, SeedSpec(5, 0), 50),
        (_dist(0.0, 3.0, 20), 10_000, SeedSpec(6, 0), 50),
        (_dist(1.0, 0.05, 20), 1, SeedSpec(7, 0), 50),
        (_dist(1.0, 0.05, 20), 10 ** 6, SeedSpec(8, 0), 20),
        (_dist(0.5, 1.0, 10), 500, SeedSpec(9, 12_345), 30),
        (_dist(0.5, 1.0, 10), 500, SeedSpec(9, 7), 0),
    ], ids=["vacuum", "squeezed-vacuum", "nmax64", "thermal", "one-shot", "1e6-shots",
            "stream-offset", "no-rows"])
    def test_matches_reference_loop(self, dist, n_shots, seed, n):
        got = _sample_blocks([(dist, n_shots, seed.stream_index, n)], seed.master_seed)
        assert got.shape == (n, dist.n_max + 2) and got.dtype == np.int64
        assert np.array_equal(got, _reference_counts(dist, n_shots, seed, n))
        assert np.all(got.sum(axis=1) == n_shots)

    def test_partial_sums_past_one(self):
        # 0.5 + (0.5 + 1e-13) passes 1 before the overflow bin: bin 1 has a
        # conditional probability above 1 that the loop clamps to 1.
        d = FockDistribution(1, (0.5, 0.5 + 1e-13), 0.0)
        assert d.probs[1] / (1.0 - d.probs[0]) > 1.0
        got = _sample_blocks([(d, 1000, 0, 40)], 10)
        assert np.array_equal(got, _reference_counts(d, 1000, SeedSpec(10, 0), 40))
        assert np.all(got[:, 2] == 0) and np.all(got.sum(axis=1) == 1000)

    def test_integer_arguments_checked(self):
        # numpy's multinomial would truncate 1000.5 to 1000 shots
        for n_shots, n, name in ((1000.5, 3, "n_shots"), (True, 3, "n_shots"),
                                 (500, 3.0, "n"), (500, True, "n")):
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                _sample_blocks([(THERMAL_DIST, n_shots, 0, n)], 0)
        got = _sample_blocks([(THERMAL_DIST, np.int64(500), 0, np.int32(4))], 3)
        assert np.array_equal(got, _sample_blocks([(THERMAL_DIST, 500, 0, 4)], 3))

    @settings(max_examples=60, deadline=None, database=None)
    @given(r=st.floats(0.0, 3.0), nbar=st.floats(0.0, 5.0), n_max=st.sampled_from((1, 20, 64)),
           n_shots=st.integers(1, 10 ** 7), seed=st.integers(0, 2 ** 64 - 1),
           n=st.integers(1, 4))
    def test_rows_nonnegative_with_exact_totals(self, r, nbar, n_max, n_shots, seed, n):
        got = _sample_blocks([(_dist(r, nbar, n_max), n_shots, 0, n)], seed)
        assert got.shape == (n, n_max + 2)
        assert np.all(got >= 0) and np.all(got.sum(axis=1) == n_shots)


# Masters of one and two words, and first streams whose runs cross 2**32
# (a second spawn-key word) or end at the last stream index, 2**64 - 1.
EDGE_MASTERS = [0, 1, 7, 12_345, 2 ** 32, 120_000_000_000_000, 2 ** 64 - 1]
EDGE_FIRSTS = [0, 7, 2 ** 32 - 5, 2 ** 32 - 3, 2 ** 40, 2 ** 63, 2 ** 64 - 3]


class TestStreamSeeding:
    """_stream_generators derives every stream's PCG64 state in one pass;
    the states and the draws are those of SeedSpec.generator()."""

    @pytest.mark.parametrize("master", EDGE_MASTERS)
    @pytest.mark.parametrize("first", EDGE_FIRSTS)
    def test_states_match_generator(self, master, first):
        n = min(6, MAX_SEED + 1 - first)  # the run from 2**64 - 3 ends at the last stream
        got = [g.bit_generator.state for g in _stream_generators(master, [(first, n)])]
        assert got == [SeedSpec(master, first + i).generator().bit_generator.state
                       for i in range(n)]

    def test_no_streams(self):
        assert [g.bit_generator.state for g in _stream_generators(3, [(2 ** 32 - 1, 0)])] == []

    # Scattered one-stream runs (one of them repeated inside a later run),
    # empty runs, runs straddling 2**32 (a second spawn-key word) and 2**63
    # (the high word's top bit), and runs ending at the last stream index,
    # 2**64 - 1, out of order.
    RUNS = [(5, 1), (2 ** 32 - 2, 4), (0, 0), (17, 1), (2 ** 64 - 6, 3), (2 ** 32 - 2, 0),
            (2 ** 63 - 1, 2), (1, 1), (2 ** 64 - 3, 3), (4, 3), (MAX_SEED, 1), (MAX_SEED, 0)]

    @pytest.mark.parametrize("master", [0, 12_345, 2 ** 32, MAX_SEED])
    def test_runs_match_generator(self, master):
        got = [g.bit_generator.state for g in _stream_generators(master, self.RUNS)]
        assert got == [SeedSpec(master, first + i).generator().bit_generator.state
                       for first, n in self.RUNS for i in range(n)]

    def test_only_empty_runs(self):
        assert [g.bit_generator.state for g in _stream_generators(MAX_SEED, [])] == []
        runs = [(0, 0), (MAX_SEED, 0), (7, 0)]
        assert [g.bit_generator.state for g in _stream_generators(MAX_SEED, runs)] == []

    def test_hash_constants_once_per_word_position(self, monkeypatch):
        # Coverage draws its point histograms as one-stream runs: a pass
        # computes both spawn-key word positions' hash constants in one
        # call, and the final hash's in another, however many runs it has
        # and whether or not any stream has a second word.
        calls = []
        hash_constants = sampling._hash_constants

        def counted(*args):
            calls.append(args)
            return hash_constants(*args)

        monkeypatch.setattr(sampling, "_hash_constants", counted)
        for runs in ([(i, 1) for i in range(1000)], [(7, 1)], self.RUNS * 50):
            calls.clear()
            streams = sum(1 for _ in _stream_generators(12_345, runs))
            assert streams == sum(n for _, n in runs)
            assert len(calls) == 2

    # runs anywhere in [0, 2**64 - 1], near 2**32 and near its top, cut
    # where they would run past it
    @settings(max_examples=40, deadline=None, database=None)
    @given(master=st.integers(0, MAX_SEED),
           runs=st.lists(st.tuples(st.one_of(st.integers(0, 2 ** 40),
                                             st.integers(2 ** 32 - 6, 2 ** 32 + 2),
                                             st.integers(2 ** 64 - 6, MAX_SEED),
                                             st.integers(0, MAX_SEED)),
                                   st.integers(0, 5)).map(
                                       lambda run: (run[0], min(run[1], MAX_SEED + 1 - run[0]))),
                         max_size=6))
    def test_any_runs_match_generator(self, master, runs):
        assert [g.bit_generator.state for g in _stream_generators(master, runs)] == [
            SeedSpec(master, first + i).generator().bit_generator.state
            for first, n in runs for i in range(n)]

    def test_state_words_serve_only_four_uint64_words(self):
        words = _StateWords(np.arange(4, dtype=np.uint64))
        assert words.generate_state(4, np.uint64) is words.words
        for args in ((4,), (4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64),
                     (4, np.int64), (4, np.float64)):
            with pytest.raises(ValueError, match="^the state words are 4 uint64"):
                words.generate_state(*args)

    @settings(max_examples=60, deadline=None, database=None)
    @given(master=st.integers(0, 2 ** 64 - 1),
           first=st.one_of(st.integers(0, 2 ** 40), st.integers(2 ** 32 - 40, 2 ** 32)),
           n=st.integers(0, 40), n_shots=st.integers(1, 10 ** 6))
    def test_draws_match_generator(self, master, first, n, n_shots):
        d = _dist(1.0, 0.05, 20)
        got = _sample_blocks([(d, n_shots, first, n)], master)
        want = [SeedSpec(master, first + i).generator().multinomial(n_shots, d.all_probs)
                for i in range(n)]
        assert np.array_equal(got, np.array(want, dtype=np.int64).reshape(n, 22))


# At n_max 20, 0.5 + (0.5 + 1e-13) passes 1 at bin 1: the tail snap.
SNAPPED_DIST = FockDistribution(20, (0.5, 0.5 + 1e-13) + (0.0,) * 19, 0.0)


class TestSampleBlocks:
    """_sample_blocks draws each block from the streams it names; each
    block equals a one-block _sample_blocks at its own first stream."""

    BLOCKS = [(_dist(1.0, 0.05, 20), 1000, 3), (SNAPPED_DIST, 500, 4), (_dist(0.0, 3.0, 20), 7, 0),
              (_dist(2.5, 0.01, 20), 10 ** 6, 5), (_dist(0.5, 1.0, 20), 1, 2)]

    # the second block's streams straddle 2**32 (a second spawn-key word);
    # the 14 streams from 2**64 - 14 end at the last stream index
    @pytest.mark.parametrize("seed", [SeedSpec(MAX_SEED, 2 ** 32 - 5), SeedSpec(MAX_SEED, 0),
                                      SeedSpec(11, 2 ** 32 - 3), SeedSpec(0, 2 ** 64 - 14)])
    def test_blocks_equal_per_block_draws_at_their_offsets(self, seed):
        blocks, first = [], seed.stream_index
        for d, n_shots, n in self.BLOCKS:
            blocks.append((d, n_shots, first, n))
            first += n
        got = _sample_blocks(blocks, seed.master_seed)
        want = [_sample_blocks([(d, n_shots, first, n)], seed.master_seed)
                for d, n_shots, first, n in blocks]
        assert got.dtype == np.int64 and np.array_equal(got, np.concatenate(want))
        assert np.all(got[3:7, 2:] == 0)
        assert got.sum(axis=1).tolist() == [s for _, s, n in self.BLOCKS for _ in range(n)]

    def test_blocks_with_gaps_equal_per_block_draws(self):
        # gaps between blocks, a block before the one drawn ahead of it, an
        # empty block, a block straddling 2**32 and one ending at the last
        # stream index, 2**64 - 1
        firsts = [40, 2 ** 32 - 2, 9, 3, 2 ** 64 - 2]
        blocks = [(d, n_shots, first, n) for (d, n_shots, n), first in zip(self.BLOCKS, firsts)]
        got = _sample_blocks(blocks, MAX_SEED)
        want = [_sample_blocks([(d, n_shots, first, n)], MAX_SEED)
                for d, n_shots, first, n in blocks]
        assert got.dtype == np.int64 and np.array_equal(got, np.concatenate(want))

    def test_peak_memory_of_twenty_thousand_rows(self):
        # tracemalloc sees numpy's array buffers.  The (20000, 22) count
        # matrix is 3.52 MB; the peak, measured at 4.16 MB, adds the
        # streams' 32-byte state words.  The budget is that plus 25%.
        # Python-int states or a dict per stream held across the pass
        # (about 0.55 kB each) would cost 11 MB more.
        d = _dist(1.0, 0.05, 20)
        _sample_blocks([(d, 10 ** 4, 0, 10)], 7)
        tracemalloc.start()
        try:
            _sample_blocks([(d, 10 ** 4, 0, 20_000)], 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.2e6

    def test_bad_count_in_a_later_block_named(self):
        for bad, name in (((THERMAL_DIST, 2.5, 3, 3), "n_shots"), ((THERMAL_DIST, 5, 3, -1), "n")):
            with pytest.raises(ValueError, match=f"^{name} must be"):
                _sample_blocks([(THERMAL_DIST, 5, 0, 3), bad], 0)

    def test_streams_past_the_last_index_named_before_any_stream(self, monkeypatch):
        # a block is checked whole: its last stream must be at most 2**64 - 1
        def no_streams(*args):
            pytest.fail("streams were made before the blocks were checked")

        monkeypatch.setattr(sampling, "_stream_generators", no_streams)
        for blocks, message in (
                ([(THERMAL_DIST, 5, MAX_SEED - 1, 3)],
                 f"first: the 3 streams from {MAX_SEED - 1} run past stream {MAX_SEED}"),
                ([(THERMAL_DIST, 5, 0, 3), (THERMAL_DIST, 5, 2 ** 64, 0)],
                 rf"first must be in \[0, {MAX_SEED}\], got {2 ** 64}"),
                ([(THERMAL_DIST, 5, -1, 0)], rf"first must be in \[0, {MAX_SEED}\], got -1"),
                ([(THERMAL_DIST, 5, 1.0, 1)], r"first must be an integer, got 1\.0")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                _sample_blocks(blocks, 0)
        monkeypatch.undo()
        # a block ending at the last stream, and an empty one there, are drawn
        top = [(THERMAL_DIST, 5, MAX_SEED - 2, 3), (THERMAL_DIST, 5, MAX_SEED, 0)]
        assert _sample_blocks(top, 0).shape == (3, 12)
