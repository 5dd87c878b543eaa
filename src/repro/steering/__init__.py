"""Request routing: how users actually reach offnets (substrate + §3.2).

§3.2 explains why nobody outside the hypergiants can know which users a
facility serves: the 2013 client-mapping technique (resolve a well-known
hostname from many client subnets and record the returned server) only
works when the hypergiant steers with *DNS*.  Google stopped;
Google/Netflix/Meta now embed customized, site-specific URLs in returned
web pages while hosting the pages themselves onnet; Akamai still uses DNS
but only honours EDNS-Client-Subnet from allow-listed resolvers.

This package builds that machinery — authoritative DNS with ECS and
site-specific hostnames (:mod:`repro.steering.dns`) and the ground-truth
steering policy (:mod:`repro.steering.policy`) — then replays the 2013
technique against it (:mod:`repro.steering.mapping`) and shows exactly
where it goes blind.
"""

from repro.steering.dns import DnsAuthority, DnsQuery, DnsResponse
from repro.steering.mapping import ClientMappingResult, run_client_mapping
from repro.steering.policy import SteeringPolicy, build_steering_policy

__all__ = [
    "ClientMappingResult",
    "DnsAuthority",
    "DnsQuery",
    "DnsResponse",
    "SteeringPolicy",
    "build_steering_policy",
    "run_client_mapping",
]
