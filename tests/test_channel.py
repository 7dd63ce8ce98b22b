import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwcmoe import channel as ch
from pwcmoe.rng import RngStream


class TestPathLoss:
    def test_reference_point(self):
        # both log terms vanish at f = 1 GHz, d = 1 m
        assert ch.path_loss_db(1.0, 1.0) == pytest.approx(32.4)

    def test_hand_value(self):
        assert ch.path_loss_db(2.4, 100.0) == pytest.approx(100.004, abs=1e-3)

    def test_distance_doubling_slope(self):
        for f in (0.7, 2.4, 28.0):
            delta = ch.path_loss_db(f, 200.0) - ch.path_loss_db(f, 100.0)
            assert delta == pytest.approx(30.0 * math.log10(2.0), abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ch.path_loss_db(0.0, 100.0)
        with pytest.raises(ValueError):
            ch.path_loss_db(2.4, 0.5)

    @given(st.floats(0.5, 100.0), st.floats(0.5, 100.0),
           st.floats(1.0, 10000.0), st.floats(1.0, 10000.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_both_arguments(self, f1, f2, d1, d2):
        # Non-decreasing everywhere; strictly increasing once the inputs differ
        # by more than REL_GAP, since inputs a few ulps apart can round to the
        # same float64 path loss.
        REL_GAP = 1e-9
        lo_f, hi_f = sorted((f1, f2))
        lo_d, hi_d = sorted((d1, d2))
        base = ch.path_loss_db(lo_f, lo_d)
        for pl, lo, hi in ((ch.path_loss_db(hi_f, lo_d), lo_f, hi_f),
                           (ch.path_loss_db(lo_f, hi_d), lo_d, hi_d)):
            assert pl >= base
            if hi > lo * (1.0 + REL_GAP):
                assert pl > base


class TestShadowing:
    def test_degenerate_sigma(self):
        rng = RngStream(0, "shadowing")
        assert ch.sample_shadowing(rng, 0.0) == 1.0

    def test_db_moments(self):
        draws = ch.sample_shadowing(RngStream(1, "shadowing"), 7.8, size=10**6)
        db = 10.0 * np.log10(draws)
        assert db.std() == pytest.approx(7.8, abs=0.05)
        assert db.mean() == pytest.approx(0.0, abs=0.05)


class TestFading:
    def test_mean_one(self):
        chi = ch.sample_fading(RngStream(2, "fading"), size=10**6)
        assert chi.mean() == pytest.approx(1.0, abs=0.01)

    def test_median_ln2(self):
        chi = ch.sample_fading(RngStream(3, "fading"), size=10**6)
        assert np.median(chi) == pytest.approx(math.log(2.0), abs=0.01)

    def test_nonnegative(self):
        chi = ch.sample_fading(RngStream(4, "fading"), size=10**4)
        assert np.all(chi >= 0.0)


class TestGainSnrRate:
    def test_identity_gain(self):
        assert ch.channel_gain(0.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_hand_gain(self):
        assert ch.channel_gain(100.004, 1.0, 1.0) == pytest.approx(9.99e-11, rel=1e-3)

    def test_linear_in_fading(self):
        assert ch.channel_gain(80.0, 1.3, 2.0) == pytest.approx(
            2.0 * ch.channel_gain(80.0, 1.3, 1.0))

    def test_table_snr(self):
        params = ch.ChannelParams()
        pl = ch.path_loss_db(2.4, 100.0)
        snr = ch.snr_linear(ch.channel_gain(pl, 1.0, 1.0), params)
        assert snr == pytest.approx(500.7, rel=1e-3)
        assert 10 * math.log10(snr) == pytest.approx(27.0, abs=0.05)

    def test_zero_gain(self):
        assert ch.snr_linear(0.0, ch.ChannelParams()) == 0.0

    def test_halving_bandwidth_doubles_snr(self):
        p1 = ch.ChannelParams()
        p2 = ch.ChannelParams(bandwidth_hz=5e6)
        h = 1e-10
        assert ch.snr_linear(h, p2) == pytest.approx(2 * ch.snr_linear(h, p1))

    def test_rate_values(self):
        assert ch.rate_bps(0.0, 1e7) == 0.0
        assert ch.rate_bps(1.0, 1e7) == pytest.approx(1e7)
        assert ch.rate_bps(500.7, 1e7) == pytest.approx(8.97e7, rel=1e-3)

    def test_db_vs_linear_unit_discipline(self):
        params = ch.ChannelParams()
        pl = ch.path_loss_db(2.4, 100.0)
        psi, chi = 1.7, 0.4
        linear = ch.snr_linear(ch.channel_gain(pl, psi, chi), params)
        snr_db = (params.tx_power_dbm - pl + 10 * math.log10(psi * chi)
                  - (params.noise_psd_dbm_hz + 10 * math.log10(params.bandwidth_hz)))
        assert linear == pytest.approx(10 ** (snr_db / 10.0), rel=1e-9)


class TestTokenBudget:
    def test_floor(self):
        assert ch.token_budget(1000.0, 1.0, 300) == 3

    def test_hand_value(self):
        assert ch.token_budget(8.97e7, 0.1, 1024) == 8759

    def test_subtoken_budget(self):
        assert ch.token_budget(100.0, 0.1, 1024) == 0

    def test_nonincreasing_in_bits_per_token(self):
        budgets = [ch.token_budget(1e6, 0.1, b) for b in (256, 512, 1024, 4096)]
        assert budgets == sorted(budgets, reverse=True)


class TestDrawRealization:
    def test_deterministic_chain(self):
        params = ch.ChannelParams()
        real = ch.draw_realization(params, RngStream(0, "c"), deterministic=True)
        assert real.pl_db == pytest.approx(100.004, abs=1e-3)
        assert 10 * math.log10(real.snr) == pytest.approx(27.0, abs=0.05)
        assert real.m_ul == ch.token_budget(real.rate_bps, 0.1, 1024)

    def test_same_seed_same_realization(self):
        params = ch.ChannelParams()
        a = ch.draw_realization(params, RngStream(9, "c"))
        b = ch.draw_realization(params, RngStream(9, "c"))
        assert a == b

    def test_median_budget_nonincreasing_in_distance(self):
        medians = []
        for d in (50.0, 100.0, 200.0, 400.0):
            params = ch.ChannelParams(d_c_m=d)
            draws = ch.budget_samples(params, RngStream(5, f"mc{d}"), 10**5)
            medians.append(np.median(draws))
        assert medians == sorted(medians, reverse=True)
