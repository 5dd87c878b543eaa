"""Tests for vantage points, the latency model, pings, and campaign filters."""

import dataclasses
import math

import numpy as np
import pytest

from repro._util import make_rng
from repro.mlab import matrix as matrix_module
from repro.mlab.latency import (
    MAX_INFLATION,
    MIN_INFLATION,
    base_rtt_ms,
    base_rtt_matrix,
    path_inflation,
    vp_pair_floor_matrix,
    vp_pair_floor_rtt_ms,
)
from repro.mlab.matrix import (
    CAMPAIGN_CHUNK,
    LatencyCampaignConfig,
    _cut_campaign_shard,
    _implausible_mask,
    _measure_shard,
    apply_quality_filters,
    measure_offnets,
)
from repro.mlab.pings import PingConfig, Probes, draw_probes, ping_rtts
from repro.mlab.vantage import build_vantage_points
from repro.parallel import Shard

from tests.oracles import implausible_for_single_location


def _ping_row_reference(base_rtts_ms, config, rng, drop_mask=None):
    """The ping model with a fresh temporary per step: the oracle that
    :func:`ping_rtts` and the campaign shard match bit for bit."""
    base = np.asarray(base_rtts_ms, dtype=float)
    n = base.shape[0]
    k = config.pings_per_target
    samples = (
        base[:, None]
        + rng.exponential(config.queueing_mean_ms, size=(n, k))
        + rng.normal(0.0, config.noise_std_ms, size=(n, k))
    )
    samples = np.maximum(samples, base[:, None])
    lost = rng.random((n, k)) < config.loss_probability
    samples[lost] = np.nan
    responses = (~np.isnan(samples)).sum(axis=1)
    samples_sorted = np.sort(samples, axis=1)
    if config.aggregation == "min":
        measured = samples_sorted[:, 0]
    elif config.aggregation == "median":
        with np.errstate(all="ignore"):
            measured = np.nanmedian(samples, axis=1)
    else:
        measured = samples_sorted[:, 1]
    measured[responses < config.min_responses] = np.nan
    measured[np.isnan(base)] = np.nan
    if drop_mask is not None:
        measured[drop_mask] = np.nan
    return measured


def _measure_shard_per_row(stage, ping, lossy_success_rate, shard):
    """The campaign shard as a per-vantage-point loop over the whole
    campaign's arrays (the oracle)."""
    rng = np.random.default_rng(stage["seeds"][shard.index])
    base = stage["base"]
    cols = np.asarray(shard.items, dtype=int)
    k = cols.size
    target_facility = stage["target_facility"][cols]
    alternate_facility = stage["alternate_facility"][cols]
    unresponsive = stage["unresponsive"][cols]
    split = stage["split"][cols]
    lossy = stage["lossy"][cols]
    drop_mask = stage["dropped"][cols] if stage["dropped"] is not None else None
    rtt = np.empty((base.shape[0], k))
    for i in range(base.shape[0]):
        base_row = base[i, target_facility].copy()
        if split.any():
            use_alternate = split & (rng.random(k) < 0.5)
            base_row[use_alternate] = base[i, alternate_facility[use_alternate]]
        base_row[unresponsive] = np.nan
        if lossy.any():
            rate_limited = lossy & (rng.random(k) >= lossy_success_rate)
            base_row[rate_limited] = np.nan
        rtt[i] = _ping_row_reference(base_row, ping, rng, drop_mask=drop_mask)
    return rtt


def _random_shard_case(rng, aggregation, loss_probability):
    """A random campaign and one of its shards: sizes, pathologies and
    probe model vary.  Returns the campaign's arrays (keyed as
    :func:`_cut_campaign_shard` takes them), its ping config, its lossy
    success rate and the shard."""
    n_vps = int(rng.integers(1, 40))
    n_facilities = int(rng.integers(1, 8))
    n_ips = int(rng.integers(1, 50))
    pings = int(rng.integers(2, 10))
    config = PingConfig(
        pings_per_target=pings,
        min_responses=int(rng.integers(2, pings + 1)),
        queueing_mean_ms=float(rng.choice([0.0, 0.4, 3.0])),
        noise_std_ms=float(rng.choice([0.0, 0.05, 1.0])),
        loss_probability=loss_probability,
        aggregation=aggregation,
    )

    def flags(rate):
        return rng.random(n_ips) < rate

    stage = dict(
        base=rng.uniform(1.0, 200.0, size=(n_vps, n_facilities)),
        target_facility=rng.integers(0, n_facilities, size=n_ips),
        alternate_facility=rng.integers(0, n_facilities, size=n_ips),
        unresponsive=flags(rng.choice([0.0, 0.2])),
        split=flags(rng.choice([0.0, 0.3])),
        lossy=flags(rng.choice([0.0, 0.3])),
        dropped=flags(0.2) if rng.random() < 0.3 else None,
        seeds=tuple(
            (int(rng.integers(0, 2**63 - 1)), *map(ord, f"campaign.shard-{i}")) for i in range(3)
        ),
    )
    items = np.sort(rng.choice(n_ips, size=int(rng.integers(1, n_ips + 1)), replace=False))
    shard = Shard(index=int(rng.integers(0, 3)), items=tuple(items.tolist()))
    return stage, config, float(rng.uniform()), shard


@pytest.fixture(scope="module")
def vps(small_internet):
    return build_vantage_points(small_internet.world, 40, seed=3)


@pytest.fixture(scope="module")
def campaign(small_internet, state23, vps):
    ips = [s.ip for s in state23.servers]
    matrix = measure_offnets(small_internet, state23, ips, vps, seed=4)
    ip_to_isp = {s.ip: s.isp.asn for s in state23.servers}
    config = LatencyCampaignConfig(min_vps_per_isp=25)
    return matrix, apply_quality_filters(matrix, ip_to_isp, config)


class TestVantagePoints:
    def test_count(self, vps):
        assert len(vps) == 40

    def test_unique_site_codes(self, vps):
        codes = [vp.site_code for vp in vps]
        assert len(codes) == len(set(codes))

    def test_site_code_style(self, vps):
        for vp in vps:
            assert vp.site_code[:3] == vp.city.iata

    def test_deterministic(self, small_internet):
        a = build_vantage_points(small_internet.world, 10, seed=5)
        b = build_vantage_points(small_internet.world, 10, seed=5)
        assert [vp.site_code for vp in a] == [vp.site_code for vp in b]

    def test_global_spread(self, vps):
        continents = {vp.city.country_code for vp in vps}
        assert len(continents) > 5


class TestLatencyModel:
    def test_inflation_bounds_and_symmetry(self):
        value = path_inflation("lhr", "cdg", seed=7)
        assert MIN_INFLATION <= value <= MAX_INFLATION
        assert value == path_inflation("cdg", "lhr", seed=7)

    def test_inflation_varies_by_pair(self):
        values = {path_inflation("lhr", other, 7) for other in ("cdg", "fra", "nyc", "hnd")}
        assert len(values) > 1

    def test_same_facility_same_base_rtt(self, small_internet, vps, state23):
        servers = state23.servers
        facility = servers[0].facility
        rtt_a = base_rtt_ms(vps[0], facility, seed=7)
        rtt_b = base_rtt_ms(vps[0], facility, seed=7)
        assert rtt_a == rtt_b

    def test_base_rtt_includes_uplink_delay(self, small_internet, vps):
        facility = small_internet.all_facilities[0]
        rtt = base_rtt_ms(vps[0], facility, seed=7)
        assert rtt >= facility.uplink_delay_ms

    def test_matrix_shape(self, small_internet, vps):
        facilities = small_internet.all_facilities[:5]
        matrix = base_rtt_matrix(vps, facilities, seed=7)
        assert matrix.shape == (len(vps), 5)
        assert (matrix > 0).all()

    def test_matrix_equals_scalar_base_rtt(self, small_internet, vps):
        """Hoisting the per-endpoint terms and memoising the inflation per
        city pair changes no bit: every entry is the scalar model's."""
        facilities = small_internet.all_facilities
        matrix = base_rtt_matrix(vps, facilities, seed=7)
        expected = np.array([[base_rtt_ms(vp, f, seed=7) for f in facilities] for vp in vps])
        np.testing.assert_array_equal(matrix, expected)

    def test_vp_floor_rtt_zero_for_same_point(self, vps):
        assert vp_pair_floor_rtt_ms(vps[0], vps[0]) == pytest.approx(0.0)

    def test_intercontinental_rtt_realistic(self, small_internet, vps):
        # Any VP to any facility must be within plausible Internet RTTs.
        facilities = small_internet.all_facilities[:50]
        matrix = base_rtt_matrix(vps, facilities, seed=7)
        assert matrix.max() < 600.0  # ms


def _drawn(n, config, rng):
    """Probes for ``n`` targets, drawn from ``rng`` as a campaign shard draws them."""
    probes = Probes(*(np.empty((n, config.pings_per_target)) for _ in range(3)))
    draw_probes(rng, *probes)
    return probes


class TestPings:
    def test_second_smallest_at_least_base(self):
        base = np.full(100, 10.0)
        measured = ping_rtts(base, PingConfig(), _drawn(100, PingConfig(), make_rng(1)))
        valid = measured[~np.isnan(measured)]
        assert (valid >= 10.0).all()

    def test_nan_base_stays_nan(self):
        base = np.array([np.nan, 5.0])
        measured = ping_rtts(base, PingConfig(), _drawn(2, PingConfig(), make_rng(1)))
        assert np.isnan(measured[0]) and not np.isnan(measured[1])

    def test_high_loss_yields_nan(self):
        base = np.full(200, 10.0)
        config = PingConfig(loss_probability=0.95)
        measured = ping_rtts(base, config, _drawn(200, config, make_rng(1)))
        assert np.isnan(measured).mean() > 0.8

    def test_second_smallest_close_to_base(self):
        base = np.full(500, 20.0)
        measured = ping_rtts(base, PingConfig(), _drawn(500, PingConfig(), make_rng(2)))
        valid = measured[~np.isnan(measured)]
        # The second order statistic of 8 sheds most queueing noise.
        assert valid.mean() - 20.0 < 0.5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PingConfig(pings_per_target=1)
        with pytest.raises(ValueError):
            PingConfig(min_responses=9)

    @pytest.mark.filterwarnings("ignore:All-NaN slice:RuntimeWarning")
    @pytest.mark.parametrize("aggregation", ["second_smallest", "min", "median"])
    def test_same_bits_and_stream_as_reference(self, aggregation):
        """Drawing the probes into buffers and combining them in place
        changes no bit of the result and leaves the stream where the
        reference leaves it."""
        config = PingConfig(aggregation=aggregation, loss_probability=0.3)
        base = np.linspace(1.0, 80.0, 60)
        base[::7] = np.nan
        in_place, reference = make_rng(9), make_rng(9)
        measured = ping_rtts(base, config, _drawn(60, config, in_place))
        expected = _ping_row_reference(base, config, reference)
        assert measured.tobytes() == expected.tobytes()
        assert in_place.random() == reference.random()


class TestCampaign:
    def test_matrix_shape(self, campaign, state23, vps):
        matrix, _ = campaign
        assert matrix.rtt_ms.shape == (len(vps), len(state23.servers))

    def test_unresponsive_ips_all_nan(self, campaign):
        matrix, filtered = campaign
        for ip in filtered.unresponsive_ips:
            assert np.isnan(matrix.column(ip)).all()

    def test_unresponsive_rate_near_config(self, campaign, state23):
        _, filtered = campaign
        rate = len(filtered.unresponsive_ips) / len(state23.servers)
        assert 0.02 < rate < 0.07

    def test_split_location_ips_mostly_caught(self, campaign):
        matrix, filtered = campaign
        if matrix.split_location_ips:
            # Splits between nearby facilities are physically explainable by
            # one midpoint location, so the filter cannot catch everything;
            # the paper likewise only discards the blatant cases.
            caught = set(filtered.implausible_ips) & matrix.split_location_ips
            assert len(caught) / len(matrix.split_location_ips) > 0.35

    def test_plausibility_no_false_positives_on_clean_ips(self, campaign, state23):
        matrix, filtered = campaign
        clean = set(ip for ip in matrix.ips) - matrix.split_location_ips
        false_positives = set(filtered.implausible_ips) & clean
        assert len(false_positives) <= 0.01 * len(clean)

    def test_kept_ips_grouped_by_isp(self, campaign, state23):
        _, filtered = campaign
        for asn, ips in filtered.ips_by_isp.items():
            for ip in ips:
                assert state23.server_at(ip).isp.asn == asn

    def test_lossy_isps_discarded(self, campaign):
        _, filtered = campaign
        assert filtered.discarded_isp_asns  # lossy_isp_fraction > 0

    def test_submatrix_columns_align(self, campaign):
        matrix, filtered = campaign
        asn = filtered.analyzable_isp_asns[0]
        ips = filtered.ips_by_isp[asn]
        sub = matrix.submatrix(ips)
        assert sub.shape[1] == len(ips)
        np.testing.assert_array_equal(sub[:, 0], matrix.column(ips[0]))

    def test_measure_rejects_unknown_ip(self, small_internet, state23, vps):
        with pytest.raises(ValueError):
            measure_offnets(small_internet, state23, [123], vps)

    def test_column_unknown_ip_raises_keyerror_naming_ip(self, campaign):
        matrix, _ = campaign
        missing = max(matrix.ips) + 1
        with pytest.raises(KeyError, match=f"IP {missing} is not a target"):
            matrix.column(missing)

    def test_submatrix_unknown_ip_raises_keyerror_naming_ip(self, campaign):
        matrix, _ = campaign
        missing = max(matrix.ips) + 1
        with pytest.raises(KeyError, match=f"IP {missing} is not a target"):
            matrix.submatrix([matrix.ips[0], missing])
        assert not matrix.has_ip(missing)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LatencyCampaignConfig(lossy_isp_fraction=2.0)


class TestCampaignShard:
    @pytest.mark.filterwarnings("ignore:All-NaN slice:RuntimeWarning")
    @pytest.mark.parametrize("loss_probability", [0.0, 0.02, 0.5])
    @pytest.mark.parametrize("aggregation", ["second_smallest", "min", "median"])
    def test_shard_equals_per_row_loop(self, aggregation, loss_probability):
        """Cutting the shard's facility columns and flags from the whole
        campaign's arrays, and blanking unresponsive, rate-limited and
        dropped targets after the row loop, changes no bit of any column."""
        rng = np.random.default_rng([len(aggregation), int(loss_probability * 100)])
        for case in range(35):
            stage, ping, lossy_success_rate, shard = _random_shard_case(
                rng, aggregation, loss_probability
            )
            expected = _measure_shard_per_row(stage, ping, lossy_success_rate, shard)
            cut = dataclasses.replace(shard, payload=_cut_campaign_shard(shard, **stage))
            measured = _measure_shard(ping, lossy_success_rate, cut, None)
            assert measured.shape == expected.shape, case
            assert measured.tobytes() == expected.tobytes(), (case, ping)


class TestCampaignShardCut:
    def test_cut_ships_each_used_facility_once(self, small_internet, state23, vps, monkeypatch):
        """A shard's targets sit in a few facilities: its cut carries one
        base-RTT column per distinct target or split-alternate facility,
        and indexing that block gives back every target's own columns."""
        cuts = []
        cut_shard = matrix_module._cut_campaign_shard

        def recording(shard, **arrays):
            cut = cut_shard(shard, **arrays)
            cuts.append((shard, arrays, cut))
            return cut

        monkeypatch.setattr(matrix_module, "_cut_campaign_shard", recording)
        ips = [s.ip for s in state23.servers]
        measure_offnets(small_internet, state23, ips, vps, seed=4)
        assert len(cuts) == math.ceil(len(ips) / CAMPAIGN_CHUNK)
        n_split = 0
        for shard, arrays, cut in cuts:
            cols = np.asarray(shard.items)
            base, split = arrays["base"], arrays["split"][cols]
            target, alternate = arrays["target_facility"][cols], arrays["alternate_facility"][cols]
            used = set(target.tolist()) | set(alternate[split].tolist())
            assert cut.base_rtt.shape == (len(vps), len(used))
            np.testing.assert_array_equal(cut.base_rtt[:, cut.target], base[:, target])
            if split.any():
                n_split += 1
                np.testing.assert_array_equal(
                    cut.base_rtt[:, cut.alternate[split]], base[:, alternate[split]]
                )
            else:
                assert cut.alternate is None
        assert n_split > 0


class TestFloorMatrix:
    def test_matches_scalar_pairs(self, vps):
        """Vectorised haversine vs the scalar libm path: identical to well
        below the 0.5 ms plausibility slack (SIMD trig differs by ~1 ulp)."""
        floor = vp_pair_floor_matrix(vps)
        for i in range(0, len(vps), 7):
            for j in range(0, len(vps), 7):
                scalar = vp_pair_floor_rtt_ms(vps[i], vps[j])
                assert floor[i, j] == pytest.approx(scalar, rel=1e-12, abs=1e-9)

    def test_symmetric_with_zero_diagonal(self, vps):
        floor = vp_pair_floor_matrix(vps)
        assert np.array_equal(floor, floor.T)
        assert (np.diag(floor) == 0.0).all()

    def test_distinct_vantage_sets_get_distinct_floors(self, vps):
        floor_all = vp_pair_floor_matrix(vps)
        floor_subset = vp_pair_floor_matrix(vps[:5])
        assert floor_subset.shape == (5, 5)
        assert floor_all.shape == (len(vps), len(vps))


class TestBatchedPlausibility:
    def test_mask_matches_per_ip_reference(self, campaign, vps):
        """The whole-matrix filter agrees with the per-column reference on
        every campaign column (which includes unresponsive, lossy, and
        split-location pathologies)."""
        matrix, _ = campaign
        floor = vp_pair_floor_matrix(vps)
        slack = LatencyCampaignConfig().plausibility_slack_ms
        valid = ~np.isnan(matrix.rtt_ms)
        mask = _implausible_mask(matrix.rtt_ms, valid, valid.sum(axis=0), floor, slack)
        for column_index, ip in enumerate(matrix.ips):
            expected = implausible_for_single_location(matrix.column(ip), vps, floor, slack)
            assert mask[column_index] == expected

    @pytest.mark.parametrize("block", [1, 7])
    def test_block_edges_match_per_ip_reference(self, campaign, vps, monkeypatch, block):
        """Checked a few columns at a time, every column still agrees with
        the per-column reference: the campaign's all-NaN and split-location
        columns, plus single-valid, all-NaN and violating columns placed on
        both sides of block edges."""
        matrix, _ = campaign
        floor = vp_pair_floor_matrix(vps)
        slack = LatencyCampaignConfig().plausibility_slack_ms
        rtts = matrix.rtt_ms.copy()
        for column in (6, 7, 8):
            rtts[:, column] = np.nan
            rtts[column, column] = 5.0
        rtts[:, [13, 14]] = np.nan
        far = np.unravel_index(np.argmax(floor), floor.shape)
        rtts[:, [20, 21]] = np.nan
        rtts[list(far), 20] = rtts[list(far), 21] = 0.1
        monkeypatch.setattr(matrix_module, "PLAUSIBILITY_BLOCK", block)
        valid = ~np.isnan(rtts)
        mask = _implausible_mask(rtts, valid, valid.sum(axis=0), floor, slack)
        expected = [
            implausible_for_single_location(rtts[:, column], vps, floor, slack)
            for column in range(rtts.shape[1])
        ]
        assert mask.tolist() == expected
        assert mask[[20, 21]].all() and not mask[[6, 7, 8, 13, 14]].any()
        assert set(np.flatnonzero(mask)) - {20, 21}

    def test_mask_flags_a_synthetic_violation(self, vps):
        """A column pretending to be 0 ms from two far-apart vantage points
        cannot come from one location."""
        floor = vp_pair_floor_matrix(vps)
        far = np.unravel_index(np.argmax(floor), floor.shape)
        rtts = np.full((len(vps), 1), np.nan)
        rtts[far[0], 0] = 0.1
        rtts[far[1], 0] = 0.1
        valid = ~np.isnan(rtts)
        mask = _implausible_mask(rtts, valid, valid.sum(axis=0), floor, slack_ms=0.5)
        assert mask[0]
        reference = implausible_for_single_location(rtts[:, 0], vps, floor, 0.5)
        assert reference

    def test_single_valid_entry_is_never_implausible(self, vps):
        rtts = np.full((len(vps), 2), np.nan)
        rtts[0, 0] = 5.0
        valid = ~np.isnan(rtts)
        mask = _implausible_mask(rtts, valid, valid.sum(axis=0), floor=vp_pair_floor_matrix(vps), slack_ms=0.5)
        assert not mask.any()

    def test_empty_matrix(self, vps):
        rtts = np.empty((len(vps), 0))
        valid = ~np.isnan(rtts)
        mask = _implausible_mask(rtts, valid, valid.sum(axis=0), vp_pair_floor_matrix(vps), 0.5)
        assert mask.shape == (0,)
