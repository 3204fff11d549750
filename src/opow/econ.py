"""CAPEX/OPEX mining economics.

A fleet is a set of cohorts, each with a hashrate and amortized hardware
(capex) and energy (opex) spending rates.  Hardware cost is sunk: a cohort
shuts off only when its pro-rata share of the block reward no longer covers
its energy bill, which makes capex-heavy fleets insensitive to price drops
and makes a matching-hashrate attack expensive up front.
"""

from __future__ import annotations

from dataclasses import dataclass

SECONDS_PER_DAY = 86_400.0
# Hardware depreciation horizon used to convert an amortized capex
# spending rate back into an up-front purchase price.
AMORTIZATION_SECONDS = 2 * 365 * SECONDS_PER_DAY


@dataclass(frozen=True)
class Cohort:
    hashrate: float     # hashes / s
    capex_rate: float   # $ / s, amortized hardware
    opex_rate: float    # $ / s, energy

    def __post_init__(self):
        if self.hashrate < 0 or self.capex_rate < 0 or self.opex_rate < 0:
            raise ValueError("cohort rates must be nonnegative")


@dataclass(frozen=True)
class MinerFleet:
    cohorts: tuple[Cohort, ...]

    def __post_init__(self):
        object.__setattr__(self, "cohorts", tuple(self.cohorts))
        if not self.cohorts:
            raise ValueError("fleet needs at least one cohort")

    @property
    def total_hashrate(self) -> float:
        return sum(c.hashrate for c in self.cohorts)


@dataclass(frozen=True)
class MarketState:
    reward_value: float    # $ per block
    block_interval: float  # seconds

    def __post_init__(self):
        if self.reward_value <= 0 or self.block_interval <= 0:
            raise ValueError("market parameters must be positive")

    @property
    def reward_rate(self) -> float:
        return self.reward_value / self.block_interval  # $ / s


def active_cohorts(fleet: MinerFleet, market: MarketState) -> list[bool]:
    """Shutdown fixed point, in one pass.

    A cohort stays on while its pro-rata revenue (reward rate times its
    share of currently active hashrate) covers its opex; capex is sunk and
    never forces a shutdown.  Removing the underwater cohorts only raises
    the survivors' shares (float sums and quotients are monotone too), so
    no survivor of one pass over the whole fleet can drop in a second: that
    pass gives the fixed point, and it is unique.
    """
    reward = market.reward_rate
    total = fleet.total_hashrate
    return [c.hashrate > 0 and not reward * (c.hashrate / total) < c.opex_rate
            for c in fleet.cohorts]


def active_hashrate(fleet: MinerFleet, market: MarketState) -> float:
    """Total hashrate of cohorts that stay on at the current reward."""
    active = active_cohorts(fleet, market)
    return sum(c.hashrate for c, a in zip(fleet.cohorts, active) if a)


def active_fraction(fleet: MinerFleet, market: MarketState) -> float:
    total = fleet.total_hashrate
    return active_hashrate(fleet, market) / total if total else 0.0


@dataclass(frozen=True)
class AttackCost:
    capex: float
    opex: float

    @property
    def total(self) -> float:
        return self.capex + self.opex


def attack_cost(fleet: MinerFleet, market: MarketState, duration: float,
                hardware_price_multiple: float = 1.0) -> AttackCost:
    """Cost of matching the active hashrate for `duration` seconds.

    Hardware: replacement capex of every active cohort (amortized rate times
    the depreciation horizon) scaled by the price multiple an attack-sized
    purchase would command.  Energy: the matched fleet's opex for the attack
    duration.
    """
    if duration < 0:
        raise ValueError("duration must be nonnegative")
    if hardware_price_multiple <= 0:
        raise ValueError("hardware_price_multiple must be positive")
    active = active_cohorts(fleet, market)
    capex = sum(c.capex_rate for c, a in zip(fleet.cohorts, active) if a)
    opex = sum(c.opex_rate for c, a in zip(fleet.cohorts, active) if a)
    return AttackCost(capex=hardware_price_multiple * capex * AMORTIZATION_SECONDS,
                      opex=opex * duration)


def resilience_curve(fleet: MinerFleet, market: MarketState,
                     price_multipliers: list[float]) -> list[tuple[float, float]]:
    """Active hashrate fraction under scaled reward values."""
    if any(m <= 0 for m in price_multipliers):
        raise ValueError("price multipliers must be positive")
    rows = []
    for mult in price_multipliers:
        scaled = MarketState(market.reward_value * mult, market.block_interval)
        rows.append((mult, active_fraction(fleet, scaled)))
    return rows


# ---------------------------------------------------------------------------
# fleet constructors


def fleet_from_rates(hashrates: list[float], capex_rates: list[float],
                     opex_rates: list[float]) -> MinerFleet:
    """Explicit fleet from parallel per-cohort rate lists (config input)."""
    if not (len(hashrates) == len(capex_rates) == len(opex_rates)):
        raise ValueError("hashrates, capex_rates, opex_rates must align")
    return MinerFleet(tuple(
        Cohort(h, c, o) for h, c, o in zip(hashrates, capex_rates, opex_rates)))


# Cohorts a generated fleet may hold.  Each is a Python object: 10**5 of them
# take about 18 MB, and an unbounded count grows until memory runs out.
MAX_COHORTS = 10**6


def _equal_cohorts(market: MarketState, n_cohorts: int, margin,
                   capex: bool) -> MinerFleet:
    """`n_cohorts` cohorts of hashrate 1 / n_cohorts.  Cohort i spends
    `margin(i)` of its pro-rata revenue on energy and, with `capex`, the
    rest (never below 0) on hardware."""
    if n_cohorts < 1:
        raise ValueError("bad fleet shape parameters")
    if n_cohorts > MAX_COHORTS:
        raise ValueError(f"n_cohorts must be at most {MAX_COHORTS}")
    h = 1.0 / n_cohorts
    revenue = market.reward_rate / n_cohorts
    opex_rates = [margin(i) * revenue for i in range(n_cohorts)]
    return MinerFleet(tuple(Cohort(h, max(0.0, revenue - o) if capex else 0.0, o)
                            for o in opex_rates))


def synthetic_fleet(opex_share: float, market: MarketState,
                    n_cohorts: int = 100) -> MinerFleet:
    """Equal-hashrate fleet with opex margins spread around `opex_share`.

    Cohort i's opex consumes margin m_i of its baseline pro-rata revenue,
    with m_i uniformly spaced on (opex_share - d, opex_share + d) where
    d = min(opex_share, 1 - opex_share): every cohort is profitable at the
    baseline price, and the marginal cohort sits at margin -> 1 when
    opex_share is high.  Capex absorbs the rest of the reward, so total cost
    per block equals the reward at every opex share.  The fleet's total
    hashrate is 1.
    """
    if not 0.0 < opex_share < 1.0:
        raise ValueError("opex_share must be in (0, 1)")
    half_width = min(opex_share, 1.0 - opex_share)
    return _equal_cohorts(
        market, n_cohorts,
        lambda i: opex_share + half_width * ((2 * i + 1) / n_cohorts - 1.0),
        capex=True)


# Margin ceiling fitted to the late-2018 episode: a 45% price drop (reward
# multiplier 0.55) idled 25/60 of the network, so the marginal active cohort
# at multiplier m has opex margin m, and margins fill (0, 0.55 * 60/35].
BITCOIN_EPISODE_MARGIN_CEILING = 0.55 * 60.0 / 35.0  # = 33/35


def bitcoin_like_fleet(market: MarketState, n_cohorts: int = 100) -> MinerFleet:
    """OPEX-heavy fleet calibrated to the observed hashrate-drop episode.

    Margins are uniformly spread on (0, ceiling) via midpoints, so at reward
    multiplier m the active fraction is m / ceiling (capped at 1): the full
    fleet runs at baseline and a 0.55 multiplier idles ~42% of hashrate.
    The fleet's total hashrate is 1 and its hardware is sunk (no capex).
    """
    return _equal_cohorts(
        market, n_cohorts,
        lambda i: BITCOIN_EPISODE_MARGIN_CEILING * (i + 0.5) / n_cohorts,
        capex=False)
