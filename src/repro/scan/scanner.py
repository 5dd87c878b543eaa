"""Censys-style synthetic IPv4 port-443 scan.

Produces the scan snapshot the detection methodology consumes: for each
responsive IP serving TLS, the certificate presented.  The scan covers:

* every offnet server of the epoch's deployment state (modulo a small
  non-response rate — some servers are firewalled or down during the scan);
* per-ISP infrastructure hosts serving mundane ISP certificates (noise);
* hypergiant onnet servers inside the hypergiants' own ASes (which the
  methodology must *exclude* — same certificates, wrong owner);
* a sprinkling of self-signed impostor certificates on ISP addresses
  (middleboxes), which the issuer check must reject.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import make_rng, require, require_fraction, spawn_rng
from repro.deployment.placement import DeploymentState
from repro.faults import FaultPlan
from repro.obs import Telemetry, ensure_telemetry
from repro.scan.certificates import (
    Certificate,
    certificate_for_server,
    impostor_certificate,
    infrastructure_certificate,
    onnet_certificate,
)
from repro.scan.evasion import (
    CERTLESS_QUIC,
    SHARED_WILDCARD,
    EvasionConfig,
    rotating_san_certificate,
    shared_wildcard_certificate,
)
from repro.topology.generator import Internet


@dataclass(frozen=True)
class ScanRecord:
    """One responsive IP and the certificate it presented."""

    ip: int
    certificate: Certificate


@dataclass(frozen=True)
class ScanConfig:
    """Knobs for :func:`run_scan`."""

    #: Fraction of offnet servers that do not answer the scan.
    offnet_nonresponse_rate: float = 0.02
    #: Infrastructure TLS hosts per ISP (background noise).
    infrastructure_hosts_per_isp: int = 3
    #: Onnet TLS servers per hypergiant (inside the hypergiant's own AS).
    onnet_hosts_per_hypergiant: int = 50
    #: Expected number of impostor (self-signed) certificates per 100 ISPs.
    impostors_per_100_isps: float = 10.0
    #: Adversarial certificate evasion adopted by the offnet fleet
    #: (see :mod:`repro.scan.evasion`).  None = honest certificates.
    evasion: EvasionConfig | None = None

    def __post_init__(self) -> None:
        require_fraction(self.offnet_nonresponse_rate, "offnet_nonresponse_rate")
        require(self.infrastructure_hosts_per_isp >= 0, "bad infrastructure host count")
        require(self.onnet_hosts_per_hypergiant >= 0, "bad onnet host count")
        require(self.impostors_per_100_isps >= 0, "bad impostor rate")


@dataclass
class ScanResult:
    """A scan snapshot: records plus the epoch they were taken in."""

    epoch: str
    records: list[ScanRecord]
    #: Offnet records lost to injected ``scan.record`` faults (0 normally).
    records_dropped: int = 0
    _by_ip: dict[int, ScanRecord] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._by_ip = {}
        for record in self.records:
            if record.ip in self._by_ip:
                raise ValueError(f"duplicate scan record for IP {record.ip}")
            self._by_ip[record.ip] = record

    def __len__(self) -> int:
        return len(self.records)

    def record_at(self, ip: int) -> ScanRecord | None:
        """The record for ``ip`` or None if unresponsive/unscanned."""
        return self._by_ip.get(ip)


def run_scan(
    internet: Internet,
    state: DeploymentState,
    config: ScanConfig | None = None,
    seed: int | np.random.Generator = 0,
    telemetry: Telemetry | None = None,
    faults: FaultPlan | None = None,
) -> ScanResult:
    """Scan the generated Internet at ``state``'s epoch.

    ``faults`` wires the ``scan.record`` injection site: an offnet server
    whose index fires a ``drop`` fault silently vanishes from the snapshot.
    The drop is applied *after* the server's response and certificate draws,
    so injection never shifts the RNG streams of the surviving records.
    """
    config = config or ScanConfig()
    obs = ensure_telemetry(telemetry)
    root = make_rng(seed)
    rng_response = spawn_rng(root, "response")
    rng_certs = spawn_rng(root, "certs")
    rng_noise = spawn_rng(root, "noise")
    records: list[ScanRecord] = []

    # Offnet servers (the signal).
    nonresponders = 0
    records_dropped = 0
    evasion = config.evasion if config.evasion is not None and config.evasion.enabled else None
    certless_endpoints = 0
    rewritten_certificates = 0
    servers = state.servers
    silent = (rng_response.random(len(servers)) < config.offnet_nonresponse_rate).tolist()
    for index, server in enumerate(servers):
        if silent[index]:
            nonresponders += 1
            continue
        # The honest certificate is always drawn, even for evading servers:
        # evasion is a pure (seed, knob, ip) function applied afterwards, so
        # turning it on never shifts the RNG streams of honest records.
        certificate = certificate_for_server(server, state.epoch, rng_certs)
        if evasion is not None:
            mode = evasion.mode_for(server.ip)
            if mode == CERTLESS_QUIC:
                certless_endpoints += 1
                continue
            if mode is not None:
                certificate = (
                    shared_wildcard_certificate()
                    if mode == SHARED_WILDCARD
                    else rotating_san_certificate(server, evasion.seed)
                )
                rewritten_certificates += 1
        record = ScanRecord(server.ip, certificate)
        if faults is not None and faults.fires_ever("scan.record", index):
            records_dropped += 1
            continue
        records.append(record)

    # ISP infrastructure hosts (noise) on the first addresses of each ISP.
    for isp in internet.isps:
        prefix = internet.plan.prefixes_of(isp)[0]
        for host_index in range(config.infrastructure_hosts_per_isp):
            ip = prefix.base + 1 + host_index
            records.append(ScanRecord(ip, infrastructure_certificate(isp, host_index)))

    # Hypergiant onnet servers: same certs, hypergiant-owned addresses.
    for name in sorted(internet.hypergiant_ases):
        hypergiant_as = internet.hypergiant_as(name)
        prefix = internet.plan.prefixes_of(hypergiant_as)[0]
        for host_index in range(config.onnet_hosts_per_hypergiant):
            ip = prefix.base + 1 + host_index
            records.append(ScanRecord(ip, onnet_certificate(name, state.epoch)))

    # Self-signed impostors on random ISP addresses (after the infra block,
    # before the offnet block, so they never collide with real servers).
    n_impostors = int(rng_noise.poisson(config.impostors_per_100_isps * len(internet.isps) / 100.0))
    hypergiant_names = sorted(internet.hypergiant_ases)
    isps = internet.isps
    used_ips = {record.ip for record in records}
    for _ in range(n_impostors):
        isp = isps[int(rng_noise.integers(0, len(isps)))]
        prefix = internet.plan.prefixes_of(isp)[0]
        ip = prefix.base + int(rng_noise.integers(config.infrastructure_hosts_per_isp + 1, 512))
        if ip in used_ips:
            continue
        used_ips.add(ip)
        hypergiant = hypergiant_names[int(rng_noise.integers(0, len(hypergiant_names)))]
        records.append(ScanRecord(ip, impostor_certificate(hypergiant, rng_noise)))

    records.sort(key=lambda r: r.ip)
    n_infra = config.infrastructure_hosts_per_isp * len(internet.isps)
    n_onnet = config.onnet_hosts_per_hypergiant * len(internet.hypergiant_ases)
    obs.count("scan.hosts_probed", len(servers) + n_infra + n_onnet + n_impostors)
    obs.count("scan.offnet_servers", len(servers))
    obs.count("scan.offnet_nonresponders", nonresponders)
    obs.count("scan.records", len(records))
    if records_dropped:
        obs.count("faults.scan_records_dropped", records_dropped)
    if evasion is not None:
        obs.count("scan.evasion_certless", certless_endpoints)
        obs.count("scan.evasion_rewritten", rewritten_certificates)
    obs.log(
        "scan complete",
        epoch=state.epoch,
        records=len(records),
        offnet_nonresponders=nonresponders,
    )
    return ScanResult(epoch=state.epoch, records=records, records_dropped=records_dropped)
