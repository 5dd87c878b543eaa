"""Per-hypergiant parameters.

Numbers are the paper's own (§2.1, §3.2): Sandvine traffic shares, offnet
cache-hit fractions, and the 2021→2023 footprint ratios from Table 1.  The
``adoption_affinity`` knob is ours: it scales how aggressively a hypergiant
recruits ISPs, tuned so footprint *proportions* in the generated Internet
match Table 1 (Google in most offnet-hosting ISPs, Akamai in ~20 %).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import require_fraction, require_positive


@dataclass(frozen=True)
class HypergiantProfile:
    """Deployment and traffic parameters for one hypergiant."""

    name: str
    #: Share of total Internet traffic (Sandvine 2023 via §2.1).
    traffic_share: float
    #: Fraction of the hypergiant's traffic an offnet can serve (§2.1).
    offnet_serve_fraction: float
    #: Fraction of its 2023 ISP footprint already present in 2021 (Table 1).
    footprint_2021_ratio: float
    #: Relative eagerness to deploy into ISPs (scales eligibility odds).
    adoption_affinity: float
    #: Minimum ISP user base the hypergiant considers worth an offnet.
    min_isp_users: int
    #: A *national incumbent* (an ISP holding at least this share of its
    #: country's users) is eligible even below ``min_isp_users`` — this is
    #: how all four hypergiants end up inside the single dominant ISP of
    #: small markets like Mongolia or Greenland (Figure 1c).
    incumbent_country_share: float = 0.45
    #: Adoption-probability multiplier for incumbents (deploying into the
    #: one network that serves a whole country is disproportionately
    #: attractive).
    incumbent_boost: float = 1.8
    #: Whether deployments predate the colocation era (Akamai: servers were
    #: placed before ISPs standardised on hosting hypergiants together).
    legacy_deployment: bool = False
    #: Countries the hypergiant does not deploy offnets in (blocked or
    #: withdrawn markets).  China blocks all four services; Google, Netflix
    #: and Meta have no Russian deployments either.  These markets are why a
    #: quarter of the world's Internet users are in ISPs with no offnets at
    #: all (Figure 2's 76 % coverage headline).
    restricted_countries: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        require_fraction(self.traffic_share, "traffic_share")
        require_fraction(self.offnet_serve_fraction, "offnet_serve_fraction")
        require_fraction(self.footprint_2021_ratio, "footprint_2021_ratio")
        require_positive(self.adoption_affinity, "adoption_affinity")
        require_positive(self.min_isp_users, "min_isp_users")
        require_fraction(self.incumbent_country_share, "incumbent_country_share")
        require_positive(self.incumbent_boost, "incumbent_boost")

    @property
    def servable_traffic_share(self) -> float:
        """Share of a user's *total* traffic an offnet of this HG can serve.

        §3.2's arithmetic: e.g. Google 21 % x 80 % = 17 % of total traffic.
        """
        return self.traffic_share * self.offnet_serve_fraction


#: Paper-derived profiles.  Table 1 ratios: Google 3810/4697, Netflix
#: 2115/2906, Meta 2214/2588, Akamai 1094/1094.  Akamai's traffic share is
#: the midpoint of its claimed 15-20 % of web traffic.
DEFAULT_HYPERGIANT_PROFILES: tuple[HypergiantProfile, ...] = (
    HypergiantProfile(
        name="Google",
        traffic_share=0.21,
        offnet_serve_fraction=0.80,
        footprint_2021_ratio=3810 / 4697,
        adoption_affinity=1.9,
        min_isp_users=100_000,
        restricted_countries=frozenset({"CN", "RU"}),
    ),
    HypergiantProfile(
        name="Netflix",
        traffic_share=0.09,
        offnet_serve_fraction=0.95,
        footprint_2021_ratio=2115 / 2906,
        adoption_affinity=1.3,
        min_isp_users=500_000,
        restricted_countries=frozenset({"CN", "RU"}),
    ),
    HypergiantProfile(
        name="Meta",
        traffic_share=0.15,
        offnet_serve_fraction=0.86,
        footprint_2021_ratio=2214 / 2588,
        adoption_affinity=1.2,
        min_isp_users=500_000,
        restricted_countries=frozenset({"CN", "RU"}),
    ),
    HypergiantProfile(
        name="Akamai",
        traffic_share=0.175,
        offnet_serve_fraction=0.75,
        footprint_2021_ratio=1.0,
        adoption_affinity=3.0,
        min_isp_users=5_000_000,
        legacy_deployment=True,
        restricted_countries=frozenset({"CN"}),
    ),
)


#: The default profiles in name order, the order that per-hypergiant
#: draws and tables walk them in.
NAME_ORDERED_PROFILES: tuple[HypergiantProfile, ...] = tuple(
    sorted(DEFAULT_HYPERGIANT_PROFILES, key=lambda p: p.name)
)


def profile_by_name(name: str) -> HypergiantProfile:
    """Return the default profile named ``name`` (KeyError if absent)."""
    for profile in DEFAULT_HYPERGIANT_PROFILES:
        if profile.name == name:
            return profile
    raise KeyError(f"no hypergiant profile named {name!r}")
