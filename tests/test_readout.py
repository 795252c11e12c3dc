import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls  # oracle only: the package does not import it

from ionwalk import cli, fock, readout
from ionwalk.errors import ConfigError, IllConditioned

ETA = 0.31


@pytest.fixture(scope="module")
def cfg():
    return readout.ReadoutConfig(7, ETA)


def random_distribution(rng, support, n_levels):
    p = np.zeros(n_levels)
    p[:support] = rng.random(support)
    return p / p.sum()


class TestSignal:
    def test_ground_state_single_cosine(self, cfg):
        p = np.zeros(8)
        p[0] = 1.0
        signal = readout.bsb_signal(p, cfg)
        omega = readout.rabi_frequencies(ETA, 0, cfg.base_rabi)[0]
        expected = 0.5 * (1.0 + np.cos(omega * cfg.t_grid))
        assert np.max(np.abs(signal - expected)) < 1e-12

    def test_unity_at_time_zero(self, cfg):
        rng = np.random.default_rng(1)
        p = random_distribution(rng, 6, 8)
        assert readout.bsb_signal(p, cfg)[0] == pytest.approx(1.0, abs=1e-12)

    def test_damping_flattens_toward_half(self):
        omega = readout.rabi_frequencies(ETA, 0, 2 * math.pi * 1e5)[0]
        cfg = readout.ReadoutConfig(7, ETA, gamma=omega / 4.0)
        rng = np.random.default_rng(2)
        p = random_distribution(rng, 8, 8)
        signal = readout.bsb_signal(p, cfg)
        assert np.max(np.abs(signal[-20:] - 0.5)) < 0.05

    def test_rejects_unnormalized_input(self, cfg):
        with pytest.raises(ValueError, match="sum to 1"):
            readout.bsb_signal(np.ones(8), cfg)

    @pytest.mark.parametrize("n_levels", [7, 9])
    def test_rejects_a_distribution_of_another_length(self, cfg, n_levels):
        # the level count comes from cfg.n_max, as in invert_bsb
        p = random_distribution(np.random.default_rng(n_levels), n_levels, n_levels)
        with pytest.raises(ValueError, match="n_max \\+ 1 = 8 levels"):
            readout.bsb_signal(p, cfg)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.floats(0.1, 0.9))
    def test_signal_linear_in_distribution(self, seed, weight):
        cfg = readout.ReadoutConfig(7, ETA)
        rng = np.random.default_rng(seed)
        p1 = random_distribution(rng, 8, 8)
        p2 = random_distribution(rng, 8, 8)
        mixed = weight * p1 + (1.0 - weight) * p2
        lhs = readout.bsb_signal(mixed, cfg)
        rhs = weight * readout.bsb_signal(p1, cfg) + (1.0 - weight) * readout.bsb_signal(p2, cfg)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestInversion:
    def test_noiseless_roundtrip(self, cfg):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = random_distribution(rng, 6, 8)
            rec = readout.invert_bsb(readout.bsb_signal(p, cfg), cfg)
            assert np.max(np.abs(rec - p)) < 1e-3
            assert np.all(rec >= 0.0)
            assert rec.sum() == pytest.approx(1.0, abs=1e-6)

    def test_noisy_roundtrip(self, cfg):
        rng = np.random.default_rng(4)
        for _ in range(30):
            p = random_distribution(rng, 6, 8)
            noisy = readout.bsb_signal(p, cfg) + rng.normal(0.0, 0.02, cfg.t_grid.size)
            rec = readout.invert_bsb(noisy, cfg)
            assert np.max(np.abs(rec - p)) < 0.05

    def test_stack_equals_single_calls_bit_for_bit(self, cfg):
        rng = np.random.default_rng(8)
        signals = np.array([
            readout.bsb_signal(random_distribution(rng, support, 8), cfg)
            + rng.normal(0.0, sigma, cfg.t_grid.size)
            for support in (1, 3, 6, 8) for sigma in (0.0, 0.02, 0.2)
        ])
        stacked = readout.invert_bsb(signals, cfg)
        assert stacked.shape == (12, 8)
        assert np.array_equal(stacked, [readout.invert_bsb(s, cfg) for s in signals])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_signal_rejected(self, cfg, bad):
        signal = readout.bsb_signal(random_distribution(np.random.default_rng(9), 6, 8), cfg)
        signal[17] = bad
        for s in (signal, np.array([signal + 0.0, signal])):
            with pytest.raises(ValueError):
                readout.invert_bsb(s, cfg)

    def test_short_grid_rejected(self):
        cfg = readout.ReadoutConfig(3, ETA, t_grid=np.linspace(0.0, 1e-6, 16))
        with pytest.raises(ValueError):
            readout.invert_bsb(np.ones(16), cfg)

    def test_degenerate_dictionary_rejected(self):
        # frequencies nearly repeat on both sides of the coupling peak, so a
        # wide level range is numerically singular even on a long grid
        omega = readout.rabi_frequencies(ETA, 16, 2 * math.pi * 1e5)
        t = np.linspace(0.0, 4 * 2 * math.pi / omega[omega > 0].min(), 120)
        cfg = readout.ReadoutConfig(16, ETA, t_grid=t)
        with pytest.raises(IllConditioned):
            readout.invert_bsb(np.full(120, 0.5), cfg)


def roundtrip_rhs(a, seed, count=100):
    """Right-hand sides of the readout fit: distributions of random support,
    noiseless and with noise 0.02 on the signal, as 2 * signal - 1."""
    rng = np.random.default_rng(seed)
    p = np.zeros((count, a.shape[1]))
    for row in p:
        support = rng.integers(1, row.size + 1)
        row[:support] = rng.random(support)
    b = (p / p.sum(axis=1, keepdims=True)) @ a.T
    b[count // 2:] += 2.0 * rng.normal(0.0, 0.02, (count - count // 2, a.shape[0]))
    return b


class TestNNLS:
    @pytest.mark.parametrize("n_max, bound", [(7, 1e-12), (9, 1e-10), (10, 1e-10), (11, 1e-10)])
    def test_matches_scipy_nnls(self, n_max, bound):
        # condition numbers 24 (the scenario's dictionary), 8.2e4, 2.3e6 and 2.6e7
        a, cond, _, qr = readout._dictionary(readout.ReadoutConfig(n_max, ETA))
        assert cond <= readout.MAX_CONDITION
        b = roundtrip_rhs(a, seed=n_max)
        expected = np.array([nnls(a, row)[0] for row in b])
        assert np.max(np.abs(readout._nnls(qr, b) - expected)) <= bound

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(0, 20),
           st.sampled_from([1e-3, 1.0, 1e3]))
    def test_kkt_conditions_hold(self, seed, n, extra, scale):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n + extra, n))
        b = scale * rng.normal(size=(3, n + extra))
        x = readout._nnls(np.linalg.qr(a, mode="raw"), b)
        grad = (x @ a.T - b) @ a
        tol = 1e-12 * np.linalg.norm(a) * (np.linalg.norm(a) * np.abs(x).max() + np.abs(b).max())
        assert np.all(x >= 0.0)
        assert np.all(np.abs(grad[x > 0.0]) <= tol)
        assert np.all(grad[x == 0.0] >= -tol)

    def test_backup_rule_ends_full_exchange_cycles(self, cfg, monkeypatch):
        a, _, _, qr = readout._dictionary(cfg)
        rng = np.random.default_rng(0)
        p = np.zeros((250, 8))
        p[:, :6] = rng.random((250, 6))
        b = (p / p.sum(axis=1, keepdims=True)) @ a.T + 2.0 * rng.normal(0.0, 0.02, (250, a.shape[0]))
        expected = np.array([nnls(a, row)[0] for row in b])
        assert np.max(np.abs(readout._nnls(qr, b) - expected)) <= 1e-12
        # full exchanges only: some problem of this set cycles until the cap
        monkeypatch.setattr(readout, "NNLS_FULL_EXCHANGES", readout.NNLS_MAX_ITER)
        with pytest.raises(IllConditioned):
            readout._nnls(qr, b)

    def test_iteration_cap_raises(self, cfg, monkeypatch):
        monkeypatch.setattr(readout, "NNLS_MAX_ITER", 1)
        p = random_distribution(np.random.default_rng(10), 6, 8)
        with pytest.raises(IllConditioned):
            readout.invert_bsb(readout.bsb_signal(p, cfg), cfg)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_non_finite_input_rejected(self, cfg, bad):
        a, _, _, qr = readout._dictionary(cfg)
        b = np.ones(a.shape[0])
        b[3] = bad
        with pytest.raises(ValueError):
            readout._nnls(qr, b)


class TestDisambiguation:
    @pytest.fixture(scope="class")
    @staticmethod
    def profiles():
        return {k: np.abs(fock.coherent_state(1.24 * k, 64)) ** 2 for k in range(5)}

    @staticmethod
    def mixture(profiles, weights, shift):
        q = np.zeros(64)
        for k, w in weights.items():
            prof = profiles[abs(k + shift)]
            q += w * np.pad(prof, (0, 64 - prof.size))
        return q

    def test_planted_walk_distribution_recovered(self, profiles):
        weights = {1: 4.0 / 6.0, 3: 1.0 / 6.0, -1: 1.0 / 6.0, -3: 0.0}
        k_values = sorted(weights)
        rec, residual = readout.disambiguate_positions(
            self.mixture(profiles, weights, 0),
            self.mixture(profiles, weights, 1),
            self.mixture(profiles, weights, -1),
            profiles,
            k_values,
            shift_sign=1,
        )
        assert residual < 1e-3
        for k in k_values:
            assert rec[k] == pytest.approx(weights[k], abs=0.03)
        assert rec[1] > rec[-1]
        assert rec[1] / max(rec[-1], 1e-12) > 2.0

    def test_symmetric_state_recovers_equal_weights(self, profiles):
        weights = {2: 0.5, -2: 0.5, 0: 0.0}
        rec, _ = readout.disambiguate_positions(
            self.mixture(profiles, weights, 0),
            self.mixture(profiles, weights, 1),
            self.mixture(profiles, weights, -1),
            profiles,
            [-2, 0, 2],
            shift_sign=1,
        )
        assert rec[2] == pytest.approx(0.5, abs=0.02)
        assert rec[-2] == pytest.approx(0.5, abs=0.02)

    def test_single_position_is_a_delta(self, profiles):
        weights = {3: 1.0, 1: 0.0, -1: 0.0, -3: 0.0}
        rec, _ = readout.disambiguate_positions(
            self.mixture(profiles, weights, 0),
            self.mixture(profiles, weights, 1),
            self.mixture(profiles, weights, -1),
            profiles,
            sorted(weights),
            shift_sign=1,
        )
        assert rec[3] == pytest.approx(1.0, abs=0.02)
        for k in (-3, -1, 1):
            assert rec[k] < 0.02

    @pytest.mark.parametrize("weights, sign", [
        ({1: 4.0 / 6.0, 3: 1.0 / 6.0, -1: 1.0 / 6.0, -3: 0.0}, 1),
        ({1: 0.5, -3: 0.5, -1: 0.0, 3: 0.0}, -1),
        ({2: 0.3, 0: 0.1, -2: 0.6, 1: 0.0, -1: 0.0}, 1),
    ])
    def test_matches_scipy_nnls(self, profiles, weights, sign):
        k_values = sorted(weights)
        rng = np.random.default_rng(len(k_values))
        q = [self.mixture(profiles, weights, shift) + rng.normal(0.0, 1e-3, 64)
             for shift in (0, sign, -sign)]
        rec, residual = readout.disambiguate_positions(*q, profiles, k_values, shift_sign=sign)
        padded = {k: np.pad(prof, (0, 64 - prof.size)) for k, prof in profiles.items()}
        a = np.vstack([np.column_stack([padded[abs(k + shift)] for k in k_values])
                       for shift in (0, sign, -sign)])
        y = np.concatenate(q)
        w = nnls(a, y)[0]
        assert max(abs(rec[k] - wk / w.sum()) for k, wk in zip(k_values, w)) <= 1e-12
        assert residual == pytest.approx(np.linalg.norm(a @ w - y) / math.sqrt(y.size), rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_distribution_rejected(self, profiles, bad):
        q = [self.mixture(profiles, {1: 0.5, -1: 0.5}, shift) for shift in (0, 1, -1)]
        q[1][5] = bad
        with pytest.raises(ValueError):
            readout.disambiguate_positions(*q, profiles, [-1, 1], shift_sign=1)

    def test_opposite_branch_shift_sign(self, profiles):
        # an H-type branch moves down under the shift; same planted weights
        weights = {1: 0.5, -3: 0.5, -1: 0.0, 3: 0.0}
        rec, residual = readout.disambiguate_positions(
            self.mixture(profiles, weights, 0),
            self.mixture(profiles, weights, -1),
            self.mixture(profiles, weights, 1),
            profiles,
            sorted(weights),
            shift_sign=-1,
        )
        assert residual < 1e-3
        assert rec[1] == pytest.approx(0.5, abs=0.02)
        assert rec[-3] == pytest.approx(0.5, abs=0.02)


def test_config_rejects_bad_model_before_numerics(monkeypatch):
    def no_numerics(*args):
        raise AssertionError("sideband frequencies computed for a rejected model")

    monkeypatch.setattr(readout, "sideband_magnitudes", no_numerics)
    for n_max, eta in [(7, 0.0), (7, -1.0), (7, math.nan), (7, math.inf), (-1, ETA), (7.5, ETA)]:
        with pytest.raises(ConfigError):
            readout.ReadoutConfig(n_max, eta)


def test_default_grid_is_five_periods_of_the_slowest_frequency():
    cfg = readout.ReadoutConfig(7, ETA)
    omega = readout.rabi_frequencies(ETA, 7, cfg.base_rabi)
    expected = np.linspace(0.0, 10.0 * math.pi / omega[omega > 0.0].min(), 200)
    assert np.array_equal(cfg.t_grid.view(np.uint64), expected.view(np.uint64))
    assert not cfg.t_grid.flags.writeable


def test_eta_without_a_nonzero_sideband_frequency_needs_a_grid():
    # at eta = 39 every sideband frequency of levels 0..7 underflows to 0
    assert not np.any(readout.rabi_frequencies(39.0, 7, 1.0) > 0.0)
    with pytest.raises(ConfigError, match="eta=39.0 leaves no nonzero sideband frequency.*t_grid"):
        readout.ReadoutConfig(7, 39.0)
    cfg = readout.ReadoutConfig(7, 39.0, t_grid=np.linspace(0.0, 1e-4, 50))
    assert cfg.t_grid.size == 50


def test_signal_follows_the_config_eta():
    # one grid, two models: the dictionary cache must key on eta
    p = random_distribution(np.random.default_rng(12), 6, 8)
    low = readout.ReadoutConfig(7, 0.30)
    high = readout.ReadoutConfig(7, 0.31, t_grid=low.t_grid)
    assert np.max(np.abs(readout.bsb_signal(p, low) - readout.bsb_signal(p, high))) > 1e-3


@pytest.mark.parametrize("field, value", [
    ("t_grid", [0.0, math.nan, 2.0]), ("t_grid", [0.0, 1.0, math.inf]),
    ("gamma", math.nan), ("gamma", math.inf), ("base_rabi", math.nan), ("base_rabi", math.inf),
])
def test_config_rejects_non_finite_values(field, value):
    kwargs = {"t_grid": np.linspace(0.0, 1e-4, 50), "n_max": 3, "eta": ETA, field: value}
    with pytest.raises(ConfigError):
        readout.ReadoutConfig(**kwargs)


def test_signal_rejects_nan_distribution(cfg):
    p = np.full(8, 1.0 / 8.0)
    p[2] = math.nan
    with pytest.raises(ValueError):
        readout.bsb_signal(p, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        readout.ReadoutConfig(3, ETA, t_grid=np.array([0.0]))
    with pytest.raises(ValueError):
        readout.ReadoutConfig(3, ETA, t_grid=np.array([0.0, -1.0]))
    with pytest.raises(ValueError):
        readout.ReadoutConfig(3, ETA, t_grid=np.array([0.0, 1.0]), gamma=-1.0)


def uncached_dictionary(cfg):
    omega = readout.rabi_frequencies(cfg.eta, cfg.n_max, cfg.base_rabi)
    return np.cos(np.outer(cfg.t_grid, omega)) * np.exp(-cfg.gamma * cfg.t_grid)[:, None]


class TestDictionaryCache:
    @pytest.fixture
    def cond_calls(self, monkeypatch):
        readout._dictionary_for.cache_clear()
        calls = []
        cond = np.linalg.cond

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return cond(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cond", counting)
        return calls

    def test_second_inversion_reuses_condition_number(self, cfg, cond_calls):
        p = random_distribution(np.random.default_rng(6), 6, 8)
        signal = readout.bsb_signal(p, cfg)
        first = readout.invert_bsb(signal, cfg)
        second = readout.invert_bsb(signal, cfg)
        assert len(cond_calls) == 1
        assert np.array_equal(first, second)

    def test_cached_matrix_is_read_only(self, cfg):
        a, _, _, (h, tau) = readout._dictionary(cfg)
        for m in (a, h, tau):
            assert not m.flags.writeable
            with pytest.raises(ValueError):
                m[0] = 0.0

    def test_each_model_gets_its_own_entry(self, cfg, cond_calls):
        variants = [
            cfg,
            readout.ReadoutConfig(7, ETA, gamma=1e3, t_grid=cfg.t_grid),
            readout.ReadoutConfig(7, 0.2, t_grid=cfg.t_grid),
            readout.ReadoutConfig(5, ETA, t_grid=cfg.t_grid),
            readout.ReadoutConfig(7, ETA, t_grid=cfg.t_grid[:-1]),
        ]
        for c in variants:
            a, cond, slowest, (h, tau) = readout._dictionary(c)
            expected = uncached_dictionary(c)
            omega = readout.rabi_frequencies(c.eta, c.n_max, c.base_rabi)
            assert np.array_equal(a, expected)
            assert cond == float(np.linalg.cond(expected))
            assert slowest == float(np.min(omega[omega > 0.0]))
            assert all(map(np.array_equal, (h, tau), np.linalg.qr(expected, mode="raw")))
        assert readout._dictionary_for.cache_info().currsize == len(variants)

    def test_readout_roundtrip_builds_one_dictionary(self, tmp_path, cond_calls):
        # the example signal, the trial signals and both inversions of two
        # trial blocks share the model of one ReadoutConfig
        cli.run_scenario("readout-roundtrip", {"trials": cli.READOUT_BLOCK + 10}, str(tmp_path),
                         seed=3)
        assert readout._dictionary_for.cache_info().currsize == 1

    def test_ill_conditioned_dictionary_raises_every_call(self, cond_calls):
        omega = readout.rabi_frequencies(ETA, 16, 2 * math.pi * 1e5)
        t = np.linspace(0.0, 4 * 2 * math.pi / omega[omega > 0].min(), 120)
        cfg16 = readout.ReadoutConfig(16, ETA, t_grid=t)
        for _ in range(2):
            with pytest.raises(IllConditioned):
                readout.invert_bsb(np.full(120, 0.5), cfg16)
        assert len(cond_calls) == 1

    @pytest.mark.parametrize("n_levels, gamma", [(8, 0.0), (5, 2e4), (11, 0.0)])
    def test_signal_matches_direct_formula_bit_for_bit(self, n_levels, gamma):
        c = readout.ReadoutConfig(n_levels - 1, ETA, gamma=gamma)
        p = random_distribution(np.random.default_rng(n_levels), n_levels, n_levels)
        omega = readout.rabi_frequencies(ETA, p.size - 1, c.base_rabi)
        phases = np.outer(c.t_grid, omega)
        damp = np.exp(-c.gamma * c.t_grid)[:, None]
        expected = 0.5 * (1.0 + (np.cos(phases) * damp) @ p)
        assert np.array_equal(readout.bsb_signal(p, c), expected)
