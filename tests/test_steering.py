"""Tests for steering policy, DNS authority, embedded URLs, and mapping."""

import pytest

from repro.steering.dns import DnsQuery, SteeringMode, site_hostname
from repro.steering.mapping import MappingConfig, build_authority, run_client_mapping
from repro.steering.policy import ServingSource, build_steering_policy


@pytest.fixture(scope="module")
def policy(small_internet, state23):
    return build_steering_policy(small_internet, state23)


@pytest.fixture(scope="module")
def google_legacy(small_internet, policy):
    return build_authority(small_internet, policy, "Google", SteeringMode.LEGACY_DNS)


@pytest.fixture(scope="module")
def meta_frontend(small_internet, policy):
    return build_authority(small_internet, policy, "Meta", SteeringMode.FRONTEND)


@pytest.fixture(scope="module")
def akamai_allowlist(small_internet, policy):
    return build_authority(
        small_internet, policy, "Akamai", SteeringMode.ECS_ALLOWLIST, allowlisted_resolvers=(99,)
    )


class TestSteeringPolicy:
    def test_hosting_isp_served_locally(self, small_internet, state23, policy):
        isp = state23.isps_hosting("Google")[0]
        decision = policy.decision("Google", isp)
        assert decision.source is ServingSource.LOCAL_OFFNET
        assert decision.deployment is state23.deployment_of("Google", isp)

    def test_non_hosting_isp_uses_provider_or_onnet(self, small_internet, state23, policy):
        hosting = {i.asn for i in state23.isps_hosting("Google")}
        non_hosting = [i for i in small_internet.access_isps if i.asn not in hosting]
        assert non_hosting
        for isp in non_hosting[:20]:
            decision = policy.decision("Google", isp)
            assert decision.source in (ServingSource.PROVIDER_OFFNET, ServingSource.ONNET)
            if decision.source is ServingSource.PROVIDER_OFFNET:
                assert decision.deployment.isp is not isp

    def test_every_access_isp_has_decisions(self, small_internet, policy):
        for isp in small_internet.access_isps:
            for hypergiant in ("Google", "Netflix", "Meta", "Akamai"):
                assert (hypergiant, isp.asn) in policy.decisions

    def test_serving_ips_belong_to_deployment(self, state23, policy):
        isp = state23.isps_hosting("Netflix")[0]
        decision = policy.decision("Netflix", isp)
        deployment_ips = {s.ip for s in decision.deployment.servers}
        assert set(decision.serving_ips) == deployment_ips


class TestSiteHostnames:
    def test_meta_convention(self):
        assert site_hostname("Meta", 34, "han") == "fhan15-1.fna.fbcdn.net"

    def test_google_convention(self):
        name = site_hostname("Google", 3, "lhr")
        assert name.endswith(".c.googlevideo.com") and "lhr" in name

    def test_unknown_hypergiant(self):
        with pytest.raises(ValueError):
            site_hostname("Cloudflare", 1, "lhr")


class TestDnsAuthority:
    def test_legacy_dns_honours_ecs(self, small_internet, state23, google_legacy):
        isp = state23.isps_hosting("Google")[0]
        client_ip = small_internet.plan.prefixes_of(isp)[0].base + 700
        response = google_legacy.resolve(
            DnsQuery("www.google.com", resolver_ip=0, ecs_client_ip=client_ip)
        )
        assert response.ecs_used
        truth = {s.ip for s in state23.deployment_of("Google", isp).servers}
        assert set(response.answers) <= truth and response.answers

    def test_frontend_never_reveals_offnets(self, small_internet, state23, meta_frontend):
        isp = state23.isps_hosting("Meta")[0]
        client_ip = small_internet.plan.prefixes_of(isp)[0].base + 700
        response = meta_frontend.resolve(
            DnsQuery("www.facebook.com", resolver_ip=0, ecs_client_ip=client_ip)
        )
        offnets = {s.ip for s in state23.servers}
        assert not (set(response.answers) & offnets)
        assert response.answers  # front ends are returned

    def test_site_hostname_resolves_for_everyone(self, small_internet, state23, meta_frontend):
        isp = state23.isps_hosting("Meta")[0]
        names = meta_frontend.site_hostnames_for(isp)
        assert names
        response_a = meta_frontend.resolve(DnsQuery(names[0], resolver_ip=0))
        response_b = meta_frontend.resolve(DnsQuery(names[0], resolver_ip=12345))
        assert response_a.answers == response_b.answers and response_a.answers

    def test_allowlist_gates_ecs(self, small_internet, state23, akamai_allowlist):
        isp = state23.isps_hosting("Akamai")[0]
        client_ip = small_internet.plan.prefixes_of(isp)[0].base + 700
        gated = akamai_allowlist.resolve(
            DnsQuery("a248.e.akamai.net", resolver_ip=0, ecs_client_ip=client_ip)
        )
        assert not gated.ecs_used
        honoured = akamai_allowlist.resolve(
            DnsQuery("a248.e.akamai.net", resolver_ip=99, ecs_client_ip=client_ip)
        )
        assert honoured.ecs_used
        truth = {s.ip for s in state23.deployment_of("Akamai", isp).servers}
        assert set(honoured.answers) <= truth and honoured.answers

    def test_unknown_name_empty(self, google_legacy):
        assert google_legacy.resolve(DnsQuery("nxdomain.example", resolver_ip=0)).answers == ()


class TestEmbeddedUrls:
    """The site hostnames a front end embeds in its pages, resolved as a
    browser inside the ISP would."""

    def test_manifest_points_to_true_serving_sites(self, small_internet, state23, meta_frontend):
        isp = state23.isps_hosting("Meta")[0]
        names = meta_frontend.site_hostnames_for(isp)
        assert names
        ips = {ip for name in names for ip in meta_frontend.resolve(DnsQuery(name, resolver_ip=0)).answers}
        truth = {s.ip for s in state23.deployment_of("Meta", isp).servers}
        assert ips == truth

    def test_manifest_empty_for_onnet_served_isp(self, small_internet, policy, meta_frontend):
        onnet_isps = [
            isp
            for isp in small_internet.access_isps
            if policy.decision("Meta", isp).source is ServingSource.ONNET
        ]
        if onnet_isps:
            assert meta_frontend.site_hostnames_for(onnet_isps[0]) == []


class TestClientMapping:
    def test_legacy_dns_fully_mappable(self, small_internet, google_legacy):
        result = run_client_mapping(small_internet, google_legacy, seed=4)
        assert result.coverage > 0.95
        assert result.false_attribution_rate < 0.05

    def test_frontend_unmappable(self, small_internet, meta_frontend):
        result = run_client_mapping(small_internet, meta_frontend, seed=4)
        assert result.coverage == 0.0

    def test_allowlist_mostly_unmappable(self, small_internet, akamai_allowlist):
        result = run_client_mapping(
            small_internet, akamai_allowlist, MappingConfig(open_resolver_fraction=0.3), seed=4
        )
        # Only ISPs with an open resolver leak their mapping.
        assert 0.0 < result.coverage < 0.5

    def test_allowlisted_measurer_recovers_everything(self, small_internet, policy):
        authority = build_authority(
            small_internet, policy, "Akamai", SteeringMode.ECS_ALLOWLIST, allowlisted_resolvers=(0,)
        )
        result = run_client_mapping(
            small_internet, authority, MappingConfig(open_resolver_fraction=0.0), seed=4
        )
        assert result.coverage > 0.95

    def test_no_open_resolvers_no_leak(self, small_internet, akamai_allowlist):
        result = run_client_mapping(
            small_internet, akamai_allowlist, MappingConfig(open_resolver_fraction=0.0), seed=4
        )
        assert result.coverage == 0.0


class TestExperiment:
    def test_blindness_experiment(self, small_study):
        from repro.experiments.steering_blindness import run_steering_blindness

        result = run_steering_blindness(small_study)
        assert result.coverage("Google", "legacy_dns") > 0.95
        assert result.coverage("Google", "frontend") == 0.0
        assert result.coverage("Meta", "frontend") == 0.0
        assert result.coverage("Akamai", "ecs_allowlist") < 0.5
        assert "mapping coverage" in result.render()
