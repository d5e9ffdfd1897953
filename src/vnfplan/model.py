"""Core data model: service classes, compute demand model, VNF chains, clouds."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional


class ConfigError(ValueError):
    """Raised when a compute model or instance file is malformed."""


@dataclass(frozen=True)
class ServiceClass:
    """A 5G service type and its radio/latency parameters.

    latency_profile holds the backward (towards the radio head) latency
    bound of each VNF in the chain, in milliseconds, ordered from the
    lowest layer upwards.  Its length fixes the chain length.
    """

    name: str
    rb: int                           # resource blocks
    mcs_dl: int                       # downlink modulation and coding scheme index
    mcs_ul: int                       # uplink index
    latency_profile: tuple[float, ...]  # ms, one entry per VNF position

    @property
    def chain_length(self) -> int:
        return len(self.latency_profile)


@dataclass(frozen=True)
class ComputeModel:
    """Per-VNF computational demand model.

    Demand is a quadratic polynomial of the MCS indices, scaled by the
    resource block count and by the capacity of the reference machine the
    coefficients were fitted on.  coeffs maps VNF position (1-based) to
    {"dl": (a0, a1, a2), "ul": (a0, a1, a2)}.
    """

    ref_gflops: float                 # reference machine capacity, GFLOPS/s
    ref_cpu_ghz: float                # reference machine CPU clock, GHz
    coeffs: Mapping[int, Mapping[str, tuple[float, float, float]]]


@dataclass(frozen=True)
class VnfSpec:
    """One virtualized function: demand plus its two latency bounds."""

    gflops: float    # computational demand per served request
    fwd_ms: float    # forward latency bound (towards the next VNF)
    bwd_ms: float    # backward latency bound (towards the radio head)


@dataclass(frozen=True)
class ChainRequest:
    """An ordered VNF chain bound to one radio head."""

    id: str
    service: Optional[ServiceClass]
    rrh: str
    vnfs: tuple[VnfSpec, ...]

    def __len__(self) -> int:
        return len(self.vnfs)


@dataclass(frozen=True)
class CloudNode:
    id: int          # 0 is the central cloud by convention
    capacity: float  # GFLOPS/s


@dataclass(frozen=True)
class Infrastructure:
    """Cloud sites, fiber distances and the propagation speed.

    Distances are in meters.  fiber_speed is in meters per microsecond,
    so distance / fiber_speed is a one-way delay in microseconds.
    """

    clouds: tuple[CloudNode, ...]
    rrh_distances: Mapping[str, Mapping[int, float]]    # rrh -> cloud id -> m
    cloud_distances: Mapping[int, Mapping[int, float]]  # cloud -> cloud -> m
    fiber_speed: float = 200.0                          # m/us

    def cloud_ids(self) -> tuple[int, ...]:
        return tuple(sorted(c.id for c in self.clouds))

    def capacity(self, k: int) -> float:
        for c in self.clouds:
            if c.id == k:
                return c.capacity
        raise KeyError(f"unknown cloud id {k}")

    def rrh_dist(self, rrh: str, k: int) -> float:
        return self.rrh_distances[rrh][k]

    def dist(self, k: int, j: int) -> float:
        if k == j:
            return 0.0
        return self.cloud_distances[k][j]


@dataclass(frozen=True)
class Instance:
    infra: Infrastructure
    chains: tuple[ChainRequest, ...]

    def subset(self, chain_ids) -> "Instance":
        """A copy keeping only the named chains, in the original order."""
        wanted = set(chain_ids)
        kept = tuple(c for c in self.chains if c.id in wanted)
        return Instance(infra=self.infra, chains=kept)


def vnf_demand(model: ComputeModel, service: ServiceClass, position: int) -> float:
    """Computational demand of one VNF position for a service, in GFLOPS.

    Evaluates the fitted polynomial in the DL and UL MCS indices and
    scales by resource blocks and the reference machine ratio.
    """
    try:
        row = model.coeffs[position]
        dl = row["dl"]
        ul = row["ul"]
    except KeyError as exc:
        raise ConfigError(
            f"compute model has no coefficient row for VNF position {position}"
        ) from exc
    i_dl = service.mcs_dl
    i_ul = service.mcs_ul
    poly = (
        dl[0] + dl[1] * i_dl + dl[2] * i_dl * i_dl
        + ul[0] + ul[1] * i_ul + ul[2] * i_ul * i_ul
    )
    return (model.ref_gflops * service.rb / model.ref_cpu_ghz) * poly


def build_chain(model: ComputeModel, service: ServiceClass, rrh: str,
                chain_id: str) -> ChainRequest:
    """Instantiate a chain for a service bound to one radio head.

    Backward bounds come straight from the latency profile.  The forward
    bound of VNF n is the backward bound of VNF n+1; the last VNF reuses
    the final profile entry as its forward bound.
    """
    profile = service.latency_profile
    n_vnfs = len(profile)
    vnfs = []
    for n in range(1, n_vnfs + 1):
        bwd = profile[n - 1]
        fwd = profile[n] if n < n_vnfs else profile[-1]
        vnfs.append(VnfSpec(gflops=vnf_demand(model, service, n),
                            fwd_ms=fwd, bwd_ms=bwd))
    return ChainRequest(id=chain_id, service=service, rrh=rrh, vnfs=tuple(vnfs))


def validate_instance(inst: Instance) -> list[str]:
    """Check every structural invariant and report all violations found.

    Returns an empty list iff the instance is well formed.  Never raises:
    this is the reporting entry point for files a user hand edited.
    """
    problems: list[str] = []
    infra = inst.infra

    if not infra.clouds:
        problems.append("infrastructure has no clouds")
    seen_ids: set[int] = set()
    for c in infra.clouds:
        if c.id in seen_ids:
            problems.append(f"duplicate cloud id {c.id}")
        seen_ids.add(c.id)
        if not c.capacity > 0:
            problems.append(f"cloud {c.id} capacity must be positive, got {c.capacity}")

    if not infra.fiber_speed > 0:
        problems.append(f"fiber speed must be positive, got {infra.fiber_speed}")

    ids = sorted(seen_ids)
    for k in ids:
        for j in ids:
            try:
                d_kj = infra.dist(k, j)
            except KeyError:
                problems.append(f"missing cloud distance entry ({k},{j})")
                continue
            if k == j:
                continue
            if d_kj < 0:
                problems.append(f"cloud distance ({k},{j}) is negative")
            try:
                d_jk = infra.dist(j, k)
            except KeyError:
                continue
            if d_kj != d_jk:
                problems.append(f"cloud distances ({k},{j}) and ({j},{k}) differ")
    for k in ids:
        raw = infra.cloud_distances.get(k, {})
        if raw.get(k, 0.0) != 0.0:
            problems.append(f"cloud distance ({k},{k}) must be zero")

    seen_chain_ids: set[str] = set()
    for chain in inst.chains:
        if chain.id in seen_chain_ids:
            problems.append(f"duplicate chain id {chain.id}")
        seen_chain_ids.add(chain.id)
        if not chain.vnfs:
            problems.append(f"chain {chain.id} has no VNFs")
        if chain.rrh not in infra.rrh_distances:
            problems.append(f"chain {chain.id} references unknown RRH {chain.rrh}")
        else:
            row = infra.rrh_distances[chain.rrh]
            for k in ids:
                if k not in row:
                    problems.append(
                        f"RRH {chain.rrh} has no distance to cloud {k}")
                elif row[k] < 0:
                    problems.append(
                        f"RRH {chain.rrh} distance to cloud {k} is negative")
        for n, vnf in enumerate(chain.vnfs, start=1):
            if vnf.gflops < 0:
                problems.append(f"chain {chain.id} VNF {n} demand is negative")
            if not vnf.fwd_ms > 0:
                problems.append(f"chain {chain.id} VNF {n} forward bound must be positive")
            if not vnf.bwd_ms > 0:
                problems.append(f"chain {chain.id} VNF {n} backward bound must be positive")
        svc = chain.service
        if svc is not None:
            if svc.rb < 1:
                problems.append(f"service {svc.name}: rb must be at least 1")
            for label, mcs in (("dl", svc.mcs_dl), ("ul", svc.mcs_ul)):
                if not 0 <= mcs <= 28:
                    problems.append(f"service {svc.name}: mcs_{label} out of range 0..28")
            if any(not entry > 0 for entry in svc.latency_profile):
                problems.append(f"service {svc.name}: latency profile entries must be positive")

    return problems
