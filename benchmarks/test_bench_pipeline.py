"""Pipeline-stage benchmarks: how long each measurement stage takes.

Not a paper artifact — these measure the substrate itself (scan, detection,
latency campaign, clustering, traceroute engine) so regressions in the
expensive stages are visible.
"""

import pytest

from repro.clustering.sites import ClusteringConfig, cluster_isp_offnets
from repro.deployment.growth import build_deployment_history
from repro.mlab.matrix import LatencyCampaignConfig, apply_quality_filters, measure_offnets
from repro.mlab.vantage import build_vantage_points
from repro.scan.detection import detect_offnets
from repro.scan.scanner import run_scan
from repro.topology.generator import InternetConfig, generate_internet
from repro.traceroute.engine import TracerouteEngine


@pytest.fixture(scope="module")
def net():
    return generate_internet(InternetConfig(seed=1, n_access_isps=150))


@pytest.fixture(scope="module")
def state(net):
    return build_deployment_history(net, seed=1).state("2023")


@pytest.mark.benchmark(group="pipeline")
def test_bench_generate_internet(benchmark):
    net = benchmark(generate_internet, InternetConfig(seed=2, n_access_isps=150))
    assert len(net.access_isps) >= 140


@pytest.mark.benchmark(group="pipeline")
def test_bench_scan(benchmark, net, state):
    scan = benchmark(run_scan, net, state)
    assert len(scan) > 1000


@pytest.mark.benchmark(group="pipeline")
def test_bench_detection(benchmark, net, state):
    scan = run_scan(net, state)
    inventory = benchmark(detect_offnets, net, scan)
    assert len(inventory) > 1000


@pytest.mark.benchmark(group="pipeline")
def test_bench_latency_campaign(benchmark, net, state):
    vps = build_vantage_points(net.world, 40, seed=3)
    ips = [server.ip for server in state.servers][:2000]

    def campaign():
        matrix = measure_offnets(net, state, ips, vps, seed=4)
        ip_to_isp = {ip: state.server_at(ip).isp.asn for ip in ips}
        # Scale the coverage threshold to the 40-VP campaign (~61%).
        return apply_quality_filters(matrix, ip_to_isp, LatencyCampaignConfig(min_vps_per_isp=24))

    filtered = benchmark.pedantic(campaign, rounds=1, iterations=1)
    assert filtered.ips_by_isp


@pytest.mark.benchmark(group="pipeline")
def test_bench_cluster_one_isp(benchmark, net, state):
    vps = build_vantage_points(net.world, 40, seed=3)
    isp = max(state.hosting_isps(), key=lambda i: len(state.servers_in(i)))
    ips = [server.ip for server in state.servers_in(isp)]
    matrix = measure_offnets(net, state, ips, vps, seed=4)
    (result,) = benchmark(cluster_isp_offnets, matrix.submatrix(ips), ips, [ClusteringConfig(xi=0.9)])
    assert result.site_count >= 1


@pytest.mark.benchmark(group="pipeline")
def test_bench_traceroute(benchmark, net):
    engine = TracerouteEngine(net, seed=1)
    google = net.hypergiant_as("Google")
    targets = [net.plan.prefixes_of(isp)[0].base + 7 for isp in net.access_isps[:50]]

    def campaign():
        return [engine.trace(google, target) for target in targets]

    paths = benchmark(campaign)
    assert all(path.routable for path in paths)
