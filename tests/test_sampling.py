import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from fockfit.model import FockDistribution, SqueezedThermalState, fock_distribution, to_variances
from fockfit.sampling import SeedSpec, _sample_counts, _stream_states, sample_histogram

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
        assert stat < chi2.isf(0.001, df=len(expected) - 1)

    def test_streams_uncorrelated(self):
        reps = 1000
        a = np.empty(reps)
        b = np.empty(reps)
        for i in range(reps):
            a[i] = sample_histogram(THERMAL_DIST, 200, SeedSpec(21, 2 * i)).counts[0]
            b[i] = sample_histogram(THERMAL_DIST, 200, SeedSpec(21, 2 * i + 1)).counts[0]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 5.0 / np.sqrt(reps)


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
    """_sample_counts draws exactly what the Python conditional-binomial
    loop draws, stream by stream."""

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
        got = _sample_counts(dist, n_shots, seed, n)
        assert got.shape == (n, dist.n_max + 2) and got.dtype == np.int64
        assert np.array_equal(got, _reference_counts(dist, n_shots, seed, n))
        assert np.all(got.sum(axis=1) == n_shots)

    def test_partial_sums_past_one(self):
        # 0.5 + (0.5 + 1e-13) passes 1 before the overflow bin: bin 1 has a
        # conditional probability above 1 that the loop clamps to 1.
        d = FockDistribution(1, (0.5, 0.5 + 1e-13), 0.0)
        assert d.probs[1] / (1.0 - d.probs[0]) > 1.0
        got = _sample_counts(d, 1000, SeedSpec(10, 0), 40)
        assert np.array_equal(got, _reference_counts(d, 1000, SeedSpec(10, 0), 40))
        assert np.all(got[:, 2] == 0) and np.all(got.sum(axis=1) == 1000)

    def test_integer_arguments_checked(self):
        # numpy's multinomial would truncate 1000.5 to 1000 shots
        for n_shots, n, name in ((1000.5, 3, "n_shots"), (True, 3, "n_shots"),
                                 (500, 3.0, "n"), (500, True, "n")):
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                _sample_counts(THERMAL_DIST, n_shots, SeedSpec(0, 0), n)
        got = _sample_counts(THERMAL_DIST, np.int64(500), SeedSpec(3, 0), np.int32(4))
        assert np.array_equal(got, _sample_counts(THERMAL_DIST, 500, SeedSpec(3, 0), 4))

    @settings(max_examples=60, deadline=None, database=None)
    @given(r=st.floats(0.0, 3.0), nbar=st.floats(0.0, 5.0), n_max=st.sampled_from((1, 20, 64)),
           n_shots=st.integers(1, 10 ** 7), seed=st.integers(0, 2 ** 64 - 1),
           n=st.integers(1, 4))
    def test_rows_nonnegative_with_exact_totals(self, r, nbar, n_max, n_shots, seed, n):
        got = _sample_counts(_dist(r, nbar, n_max), n_shots, SeedSpec(seed, 0), n)
        assert got.shape == (n, n_max + 2)
        assert np.all(got >= 0) and np.all(got.sum(axis=1) == n_shots)


# Masters of one and two words, and first streams whose runs cross 2**32
# (a second spawn-key word) or 2**64 (a third).
EDGE_MASTERS = [0, 1, 7, 12_345, 2 ** 32, 120_000_000_000_000, 2 ** 64 - 1]
EDGE_FIRSTS = [0, 7, 2 ** 32 - 5, 2 ** 32 - 3, 2 ** 40, 2 ** 63, 2 ** 64 - 3]


class TestStreamSeeding:
    """_sample_counts derives every stream's PCG64 state in one pass; the
    states and the draws are those of SeedSpec.generator()."""

    @pytest.mark.parametrize("master", EDGE_MASTERS)
    @pytest.mark.parametrize("first", EDGE_FIRSTS)
    def test_states_match_generator(self, master, first):
        got = _stream_states(SeedSpec(master, first), 6)
        assert got == [SeedSpec(master, first + i).generator().bit_generator.state
                       for i in range(6)]

    def test_no_streams(self):
        assert _stream_states(SeedSpec(3, 2 ** 32 - 1), 0) == []

    @settings(max_examples=60, deadline=None, database=None)
    @given(master=st.integers(0, 2 ** 64 - 1),
           first=st.one_of(st.integers(0, 2 ** 40), st.integers(2 ** 32 - 40, 2 ** 32)),
           n=st.integers(0, 40), n_shots=st.integers(1, 10 ** 6))
    def test_draws_match_generator(self, master, first, n, n_shots):
        d = _dist(1.0, 0.05, 20)
        got = _sample_counts(d, n_shots, SeedSpec(master, first), n)
        want = [SeedSpec(master, first + i).generator().multinomial(n_shots, d.all_probs)
                for i in range(n)]
        assert np.array_equal(got, np.array(want, dtype=np.int64).reshape(n, 22))
