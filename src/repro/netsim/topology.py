"""Object model of the DSL access network hierarchy (Fig. 1).

The hierarchy is: BRAS -> ATM switch -> DSLAM -> dedicated copper line ->
customer home network.  The ATM layer is transparent to everything the
paper measures, so we keep BRAS and DSLAM as the two aggregation levels
(the paper's outage analysis operates on DSLAMs and the traffic analysis
on BRAS servers).

Below the DSLAM, copper pairs do not run individually to each home: they
share **binder groups** -- bundles of 10-25 pairs pulled together through
the F1/F2 plant segments (feeder and distribution cable).  A water-logged
splice case or a rodent-chewed sheath degrades *every pair in the binder*
at once, which is exactly the cross-line signature the plant-triage layer
(:mod:`repro.fleet`) groups on.  Binders are modelled as a partition of
each DSLAM's lines: ``binder_of_line`` / ``lines_of_binder`` give the
id-level lookups, mirroring the DSLAM-level ones.

The heavy per-line state lives in :class:`repro.netsim.population.Population`
as parallel numpy arrays; this module provides the id-and-membership view
used for grouping, reporting and the examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Line", "Dslam", "Binder", "Bras", "Topology"]


@dataclass(frozen=True)
class Line:
    """A dedicated subscriber loop.

    Attributes:
        line_id: index of this line in all population arrays.
        dslam_id: serving DSLAM index.
        bras_id: upstream BRAS index.
        loop_kft: working loop length in kilofeet.
        profile: service-tier name.
    """

    line_id: int
    dslam_id: int
    bras_id: int
    loop_kft: float
    profile: str


@dataclass(frozen=True)
class Dslam:
    """A DSL access multiplexer terminating several tens of lines.

    Attributes:
        dslam_id: index of this DSLAM.
        bras_id: upstream BRAS index.
        geo: coarse geolocation bucket (used only for reporting).
        line_ids: indices of the lines this DSLAM serves.
    """

    dslam_id: int
    bras_id: int
    geo: int
    line_ids: np.ndarray


@dataclass(frozen=True)
class Binder:
    """A shared F1/F2 binder segment: copper pairs bundled in one sheath.

    Attributes:
        binder_id: index of this binder.
        dslam_id: the DSLAM whose lines run through this binder (binders
            are modelled as sub-bundles of one DSLAM's plant).
        line_ids: indices of the lines sharing the binder.
    """

    binder_id: int
    dslam_id: int
    line_ids: np.ndarray


@dataclass(frozen=True)
class Bras:
    """A broadband remote access server aggregating many DSLAMs."""

    bras_id: int
    dslam_ids: np.ndarray


@dataclass
class Topology:
    """The assembled hierarchy with id-based lookups.

    ``binders`` / ``line_binder`` are optional (older hand-built
    topologies may omit them); when present they must partition the lines
    exactly like the DSLAM membership does.
    """

    brases: list[Bras] = field(default_factory=list)
    dslams: list[Dslam] = field(default_factory=list)
    line_dslam: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    line_bras: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    binders: list[Binder] = field(default_factory=list)
    line_binder: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    @property
    def n_lines(self) -> int:
        return len(self.line_dslam)

    @property
    def n_dslams(self) -> int:
        return len(self.dslams)

    @property
    def n_brases(self) -> int:
        return len(self.brases)

    @property
    def n_binders(self) -> int:
        return len(self.binders)

    @property
    def has_binders(self) -> bool:
        """Whether this topology carries the binder-group layer."""
        return len(self.binders) > 0

    def lines_of_dslam(self, dslam_id: int) -> np.ndarray:
        """Line indices served by a DSLAM."""
        return self.dslams[dslam_id].line_ids

    def lines_of_bras(self, bras_id: int) -> np.ndarray:
        """Line indices aggregated under a BRAS."""
        return np.flatnonzero(self.line_bras == bras_id)

    def binder_of_line(self, line_id: int) -> int:
        """Binder index of a line (-1 when the topology has no binders)."""
        if not self.has_binders:
            return -1
        return int(self.line_binder[line_id])

    def lines_of_binder(self, binder_id: int) -> np.ndarray:
        """Line indices sharing a binder segment."""
        return self.binders[binder_id].line_ids

    def dslam_of_binder(self, binder_id: int) -> int:
        """The DSLAM whose plant a binder belongs to."""
        return self.binders[binder_id].dslam_id

    def validate(self) -> None:
        """Check referential integrity; raises ValueError on any breakage.

        Every check is one array operation over the concatenated
        memberships, so validating a million-line plant costs a few
        passes over its line ids rather than one Python step per group.
        """
        n = self.n_lines
        if len(self.line_bras) != n:
            raise ValueError("line_bras and line_dslam cover different lines")
        dslam_bras = _ids(self.dslams, "bras_id")
        bad = (dslam_bras < 0) | (dslam_bras >= self.n_brases)
        if bad.any():
            dslam = self.dslams[int(np.argmax(bad))]
            raise ValueError(f"DSLAM {dslam.dslam_id} references bad BRAS")
        sizes = _sizes(self.dslams)
        if (sizes == 0).any():
            dslam = self.dslams[int(np.argmax(sizes == 0))]
            raise ValueError(f"DSLAM {dslam.dslam_id} serves no lines")
        lines, owner = _members(self.dslams, sizes)
        bad = (lines < 0) | (lines >= n)
        if bad.any():
            dslam = self.dslams[int(owner[np.argmax(bad)])]
            raise ValueError(
                f"DSLAM {dslam.dslam_id} references out-of-range lines"
            )
        served = np.bincount(lines, minlength=n)
        if (served > 1).any():
            raise ValueError("a line is served by two DSLAMs")
        if (self.line_dslam[lines] != _ids(self.dslams, "dslam_id")[owner]).any():
            raise ValueError("line_dslam disagrees with DSLAM membership")
        if (served == 0).any():
            raise ValueError("some lines are not served by any DSLAM")

        uplinks = [np.asarray(b.dslam_ids).astype(np.intp) for b in self.brases]
        listed = np.concatenate(uplinks) if uplinks else np.empty(0, np.intp)
        lister = np.repeat(np.arange(len(uplinks)), [u.size for u in uplinks])
        bad = (listed < 0) | (listed >= self.n_dslams)
        if bad.any():
            bras = self.brases[int(lister[np.argmax(bad)])]
            raise ValueError(f"BRAS {bras.bras_id} references out-of-range DSLAM")
        if (dslam_bras[listed] != _ids(self.brases, "bras_id")[lister]).any():
            raise ValueError("BRAS membership disagrees with DSLAM uplink")
        if self.has_binders:
            self._validate_binders(n)
        elif self.line_binder.size:
            raise ValueError("line_binder set but no binders defined")

    def _validate_binders(self, n: int) -> None:
        if len(self.line_binder) != n:
            raise ValueError("line_binder does not cover every line")
        binder_ids = _ids(self.binders, "binder_id")
        if (binder_ids != np.arange(self.n_binders)).any():
            raise ValueError("binder ids must match their list position")
        binder_dslam = _ids(self.binders, "dslam_id")
        bad = (binder_dslam < 0) | (binder_dslam >= self.n_dslams)
        if bad.any():
            raise ValueError(f"binder {int(np.argmax(bad))} references bad DSLAM")
        sizes = _sizes(self.binders)
        if (sizes == 0).any():
            raise ValueError(f"binder {int(np.argmax(sizes == 0))} holds no lines")
        lines, owner = _members(self.binders, sizes)
        bad = (lines < 0) | (lines >= n)
        if bad.any():
            raise ValueError(
                f"binder {int(owner[np.argmax(bad)])} references out-of-range lines"
            )
        threaded = np.bincount(lines, minlength=n)
        if (threaded > 1).any():
            raise ValueError("a line runs through two binders")
        if (self.line_dslam[lines] != binder_dslam[owner]).any():
            raise ValueError(
                "binder members are not all served by the binder's DSLAM"
            )
        if (self.line_binder[lines] != owner).any():
            raise ValueError("line_binder disagrees with binder membership")
        if (threaded == 0).any():
            raise ValueError("some lines run through no binder")


def _ids(groups: list, attr: str) -> np.ndarray:
    """One integer attribute of every group, as an array."""
    return np.fromiter((getattr(g, attr) for g in groups), dtype=np.int64,
                       count=len(groups))


def _sizes(groups: list) -> np.ndarray:
    return np.fromiter((g.line_ids.size for g in groups), dtype=np.intp,
                       count=len(groups))


def _members(groups: list, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All member line ids, concatenated, and each one's group position."""
    if not groups:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    lines = np.concatenate([g.line_ids for g in groups])
    return lines, np.repeat(np.arange(len(groups)), sizes)
