"""Synthetic Internet topology substrate.

The real study measures the actual Internet.  This package generates a
seeded, ground-truth-annotated stand-in: countries and cities with
coordinates (:mod:`repro.topology.geo`), autonomous systems with roles and
user populations (:mod:`repro.topology.asn`), inter-AS business relationships
and valley-free routing (:mod:`repro.topology.relationships`), Internet
exchange points (:mod:`repro.topology.ixp`), colocation facilities and racks
(:mod:`repro.topology.facilities`), an IPv4 address plan
(:mod:`repro.topology.prefixes`), and a whole-Internet generator tying them
together (:mod:`repro.topology.generator`).
"""

from repro.topology.asn import AS, ASRole
from repro.topology.facilities import Facility, Rack
from repro.topology.generator import Internet, InternetConfig, generate_internet
from repro.topology.geo import City, Country, World, default_world
from repro.topology.ixp import IXP
from repro.topology.prefixes import Prefix
from repro.topology.relationships import ASGraph

__all__ = [
    "AS",
    "ASGraph",
    "ASRole",
    "City",
    "Country",
    "Facility",
    "IXP",
    "Internet",
    "InternetConfig",
    "Prefix",
    "Rack",
    "World",
    "default_world",
    "generate_internet",
]
