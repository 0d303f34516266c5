"""Subscriber population builder.

Generates a plant of ``n_lines`` subscribers spread over DSLAMs (several
tens of lines each, per Section 2.1) and BRAS servers, with:

* loop lengths drawn from a right-skewed distribution (a gamma fit to the
  1-18 kft range of real copper plants);
* service tiers assigned by popularity but *provision-checked* against the
  loop: customers on loops beyond a tier's reach are usually provisioned a
  slower tier, with a small misprovisioning rate that leaves some lines
  born marginal (the natural candidates for the paper's "reduce speed to
  stabilize the line" disposition);
* per-line ambient noise and static bridge-tap / crosstalk flags.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.netsim.physics import LoopConditions
from repro.netsim.profiles import PROFILES
from repro.netsim.topology import Binder, Bras, Dslam, Topology

__all__ = ["PopulationConfig", "Population", "build_population"]


@dataclass(frozen=True)
class PopulationConfig:
    """Knobs of the population generator.

    Attributes:
        n_lines: total subscriber count.
        mean_lines_per_dslam: average DSLAM fill ("several tens").
        dslams_per_bras: DSLAMs aggregated under each BRAS.
        loop_shape, loop_scale_kft: gamma parameters of the loop-length
            distribution (shape 2.2, scale 2.6 gives a 5.7 kft mean with a
            long tail past 15 kft).
        mean_lines_per_binder: average pairs per F1/F2 binder group (the
            sub-DSLAM sheath bundles the plant-triage layer groups on).
        misprovision_rate: probability a customer keeps a tier their loop
            cannot support instead of being bumped down.
        ambient_noise_sigma_db: spread of the per-line environmental noise
            penalty (half-normal).
        static_bridge_tap_rate: fraction of loops built with a legacy
            bridge tap.
        static_crosstalk_rate: fraction of loops in high-crosstalk binders.
        seed: generator seed for reproducibility.
    """

    n_lines: int = 10_000
    mean_lines_per_dslam: int = 48
    dslams_per_bras: int = 60
    mean_lines_per_binder: int = 12
    loop_shape: float = 2.2
    loop_scale_kft: float = 2.6
    misprovision_rate: float = 0.05
    ambient_noise_sigma_db: float = 1.5
    static_bridge_tap_rate: float = 0.06
    static_crosstalk_rate: float = 0.08
    seed: int = 7


@dataclass
class Population:
    """A generated subscriber base, as parallel arrays plus the topology.

    All arrays are indexed by line id in ``[0, n_lines)``.
    """

    config: PopulationConfig
    topology: Topology
    loop_kft: np.ndarray
    profile_idx: np.ndarray
    ambient_noise_db: np.ndarray
    static_bridge_tap: np.ndarray
    static_crosstalk: np.ndarray

    @property
    def n_lines(self) -> int:
        return len(self.loop_kft)

    @property
    def dslam_idx(self) -> np.ndarray:
        return self.topology.line_dslam

    @property
    def bras_idx(self) -> np.ndarray:
        return self.topology.line_bras

    @property
    def profile_down_kbps(self) -> np.ndarray:
        return np.array([p.down_kbps for p in PROFILES])[self.profile_idx]

    @property
    def profile_up_kbps(self) -> np.ndarray:
        return np.array([p.up_kbps for p in PROFILES])[self.profile_idx]

    def conditions(self) -> LoopConditions:
        """Bundle the static plant state for the physics layer."""
        down = np.array([p.down_kbps for p in PROFILES])[self.profile_idx]
        up = np.array([p.up_kbps for p in PROFILES])[self.profile_idx]
        return LoopConditions(
            loop_kft=self.loop_kft,
            profile_down_kbps=down,
            profile_up_kbps=up,
            ambient_noise_db=self.ambient_noise_db,
            static_bridge_tap=self.static_bridge_tap,
            static_crosstalk=self.static_crosstalk,
        )


def build_population(config: PopulationConfig | None = None) -> Population:
    """Generate a population from ``config`` (or the defaults)."""
    config = config or PopulationConfig()
    if config.n_lines <= 0:
        raise ValueError("n_lines must be positive")
    if config.mean_lines_per_dslam <= 0:
        raise ValueError("mean_lines_per_dslam must be positive")
    rng = np.random.default_rng(config.seed)
    n = config.n_lines

    loop_kft = rng.gamma(config.loop_shape, config.loop_scale_kft, size=n)
    loop_kft = np.clip(loop_kft, 0.3, 22.0)

    popularity = np.array([p.popularity for p in PROFILES])
    popularity = popularity / popularity.sum()
    desired = rng.choice(len(PROFILES), size=n, p=popularity)

    # Provisioning: bump customers down to the fastest tier their loop
    # supports, except for a small misprovisioned fraction.  Vectorised
    # over the (tiny) tier table so a million-line build stays cheap; the
    # tier picked per line is identical to the per-line scan it replaced.
    max_reach = np.array([p.max_loop_kft for p in PROFILES])
    profile_idx = desired.copy()
    keep_anyway = rng.random(n) < config.misprovision_rate
    need_fix = np.flatnonzero((loop_kft > max_reach[desired]) & ~keep_anyway)
    if need_fix.size:
        n_tiers = len(PROFILES)
        supported = max_reach[None, :] >= loop_kft[need_fix, None]
        candidates = supported & (
            np.arange(n_tiers)[None, :] <= desired[need_fix, None]
        )
        # Fastest supportable tier at or below the desired one, else the
        # slowest supportable, else tier 0 (even basic is marginal).
        last_candidate = n_tiers - 1 - np.argmax(candidates[:, ::-1], axis=1)
        first_supported = np.argmax(supported, axis=1)
        profile_idx[need_fix] = np.where(
            candidates.any(axis=1),
            last_candidate,
            np.where(supported.any(axis=1), first_supported, 0),
        )

    ambient = np.abs(rng.normal(0.0, config.ambient_noise_sigma_db, size=n))
    static_bt = rng.random(n) < config.static_bridge_tap_rate
    static_xt = rng.random(n) < config.static_crosstalk_rate

    topology = _build_topology(n, config, rng)
    return Population(
        config=config,
        topology=topology,
        loop_kft=loop_kft,
        profile_idx=profile_idx,
        ambient_noise_db=ambient,
        static_bridge_tap=static_bt,
        static_crosstalk=static_xt,
    )


def _build_topology(n: int, config: PopulationConfig, rng: np.random.Generator) -> Topology:
    """Assign lines to DSLAMs (variable fill) and DSLAMs to BRAS servers.

    Array-shaped, but draw for draw the per-group loop it replaced: every
    DSLAM or binder fill is one ``rng.normal`` draw, taken in order until
    the lines run out.  The fills are cut from a batch drawn past the
    worst case, then the generator is rewound and exactly the consumed
    draws are taken again, so ``rng`` leaves in the state the loop left it.
    """
    mean_dslam = config.mean_lines_per_dslam
    # Every DSLAM but the last takes >= 8 lines: ceil(n / 8) draws suffice.
    state = rng.bit_generator.state
    fills = _fills(rng, mean_dslam, 8, -(-n // 8))
    cum = np.cumsum(fills)
    n_dslams = int(np.searchsorted(cum, n)) + 1
    fills = fills[:n_dslams]
    fills[-1] = n - (cum[n_dslams - 2] if n_dslams > 1 else 0)
    _rewind(rng, state, mean_dslam, n_dslams)

    line_ids = rng.permutation(n)
    line_dslam = np.empty(n, dtype=int)
    line_dslam[line_ids] = np.repeat(np.arange(n_dslams), fills)
    # DSLAM-major, line-sorted within each DSLAM: every DSLAM's members
    # and every binder's members are one contiguous slice of ``order``.
    order = np.argsort(line_dslam, kind="stable")
    dslam_bounds = np.concatenate(([0], np.cumsum(fills))).tolist()
    geo_buckets = max(1, n_dslams // 4 or 1)
    dslams = [
        Dslam(dslam_id=d, bras_id=d // config.dslams_per_bras,
              geo=d % geo_buckets,
              line_ids=order[dslam_bounds[d]:dslam_bounds[d + 1]])
        for d in range(n_dslams)
    ]

    per_bras = config.dslams_per_bras
    n_brases = (n_dslams + per_bras - 1) // per_bras
    brases = [
        Bras(bras_id=b,
             dslam_ids=np.arange(b * per_bras, min((b + 1) * per_bras, n_dslams)))
        for b in range(n_brases)
    ]
    line_bras = (np.arange(n_dslams) // per_bras)[line_dslam]

    # Binder groups: partition each DSLAM's pairs into F1/F2 sheath
    # bundles.  Drawn last so the per-line population arrays above are
    # bit-identical to topologies built before binders existed.
    binder_sizes, binders_per_dslam = _binder_fills(rng, config, fills)
    n_binders = binder_sizes.size
    line_binder = np.empty(n, dtype=int)
    line_binder[order] = np.repeat(np.arange(n_binders), binder_sizes)
    binder_bounds = np.concatenate(([0], np.cumsum(binder_sizes))).tolist()
    binder_dslam = np.repeat(np.arange(n_dslams), binders_per_dslam).tolist()
    binders = [
        Binder(binder_id=b, dslam_id=binder_dslam[b],
               line_ids=order[binder_bounds[b]:binder_bounds[b + 1]])
        for b in range(n_binders)
    ]

    topology = Topology(
        brases=brases, dslams=dslams, line_dslam=line_dslam,
        line_bras=line_bras, binders=binders, line_binder=line_binder,
    )
    topology.validate()
    return topology


def _fills(rng: np.random.Generator, mean: int, floor: int, size: int) -> np.ndarray:
    """``size`` group fills ``max(floor, int(N(mean, mean / 4)))``."""
    return np.clip(rng.normal(mean, mean * 0.25, size=size), floor, None).astype(int)


def _rewind(rng: np.random.Generator, state: dict, mean: int, used: int) -> None:
    """Reset ``rng`` to ``state`` and consume exactly ``used`` fill draws."""
    rng.bit_generator.state = state
    rng.normal(mean, mean * 0.25, size=used)


def _binder_fills(
    rng: np.random.Generator, config: PopulationConfig, dslam_fills: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Binder sizes in DSLAM order, and the binder count of each DSLAM.

    Each DSLAM takes draws in turn; the first draw that would leave fewer
    than two of its pairs behind closes it and takes the remainder instead.
    """
    mean = max(2, config.mean_lines_per_binder)
    # A DSLAM of s lines closes within (s + 1) // 2 draws of >= 2 pairs.
    bound = int(dslam_fills.sum()) // 2 + dslam_fills.size
    state = rng.bit_generator.state
    draws = _fills(rng, mean, 2, bound)
    cum = np.cumsum(draws)
    cum_list = cum.tolist()
    closing: list[int] = []
    start, base = 0, 0
    for size in dslam_fills.tolist():
        # First draw whose running total reaches size - 1 closes the DSLAM.
        k = bisect_left(cum_list, base + size - 1, lo=start)
        closing.append(k)
        base = cum_list[k]
        start = k + 1
    _rewind(rng, state, mean, start)

    last = np.asarray(closing)
    opened_at = np.concatenate(([0], cum[last[:-1]]))
    closing_sizes = dslam_fills - (cum[last] - draws[last] - opened_at)
    sizes = draws[:start]
    sizes[last] = closing_sizes
    return sizes, np.diff(last, prepend=-1)
