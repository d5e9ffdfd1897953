"""YAML serialization of compute models, service classes and instances."""
from __future__ import annotations

import functools
from importlib import resources
from typing import Optional

import yaml

from .model import (
    ChainRequest,
    CloudNode,
    ComputeModel,
    ConfigError,
    Infrastructure,
    Instance,
    ServiceClass,
    VnfSpec,
    build_chain,
    whole,
)

# libyaml's parser and emitter when PyYAML was built with it.  The Python
# constructor and representer run either way, so the loaded objects and the
# written bytes are the same; libyaml only does the scanning and emitting
# several times faster.
if yaml.__with_libyaml__:
    _Loader, _Dumper = yaml.CSafeLoader, yaml.CSafeDumper
else:
    _Loader, _Dumper = yaml.SafeLoader, yaml.SafeDumper


def _quadratic(values) -> tuple[float, float, float]:
    """One polynomial's three coefficients; any other count is a ValueError."""
    a0, a1, a2 = (float(v) for v in values)
    return a0, a1, a2


def parse_model_section(data: dict) -> ComputeModel:
    try:
        coeffs = {}
        for pos, row in data["coeffs"].items():
            coeffs[whole("coefficient position", pos)] = {
                "dl": _quadratic(row["dl"]), "ul": _quadratic(row["ul"])}
        ref_cpu_ghz = float(data["ref_cpu_ghz"])
        if not ref_cpu_ghz > 0.0:
            raise ValueError(f"ref_cpu_ghz must be positive, got {ref_cpu_ghz}")
        return ComputeModel(
            ref_gflops=float(data["ref_gflops"]),
            ref_cpu_ghz=ref_cpu_ghz,
            coeffs=coeffs,
        )
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad compute model section: {exc}") from exc


def parse_services_section(data: dict) -> dict[str, ServiceClass]:
    services = {}
    try:
        for name, row in data.items():
            services[str(name)] = ServiceClass(
                name=str(name),
                rb=whole("rb", row["rb"]),
                mcs_dl=whole("mcs_dl", row["mcs_dl"]),
                mcs_ul=whole("mcs_ul", row["mcs_ul"]),
                latency_profile=tuple(float(v) for v in row["latency_profile"]),
            )
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad services section: {exc}") from exc
    return services


@functools.lru_cache(maxsize=1)
def _load_defaults() -> tuple[ComputeModel, dict[str, ServiceClass],
                              dict[str, tuple[VnfSpec, ...]]]:
    text = resources.files("vnfplan").joinpath("data/default_model.yaml").read_text()
    data = yaml.load(text, Loader=_Loader)
    model = parse_model_section(data["model"])
    services = parse_services_section(data["services"])
    vnfs = {name: build_chain(model, svc, "", "").vnfs for name, svc in services.items()}
    return model, services, vnfs


def default_model() -> ComputeModel:
    """The packaged demand model.  Its coefficients are synthetic."""
    return _load_defaults()[0]


def default_services() -> dict[str, ServiceClass]:
    """The four packaged service classes (eMBB, mMTC, URLLC1, URLLC2)."""
    return dict(_load_defaults()[1])


def default_vnfs() -> dict[str, tuple[VnfSpec, ...]]:
    """The VNF tuple of each packaged service's chain under the packaged
    model, by service name; every call hands out the same tuples."""
    return dict(_load_defaults()[2])


def _parse_infrastructure(data: dict) -> Infrastructure:
    try:
        clouds = tuple(
            CloudNode(id=whole("cloud id", c["id"]), capacity=float(c["capacity"]))
            for c in data["clouds"]
        )
        order = [c.id for c in clouds]
        matrix = data["cloud_distances"]
        if len(matrix) != len(order) or any(len(row) != len(order) for row in matrix):
            raise ValueError(f"cloud_distances must be a {len(order)}x{len(order)} matrix")
        cloud_distances = {k: {other: float(matrix[i][j]) for j, other in enumerate(order)}
                           for i, k in enumerate(order)}
        rrh_distances = {
            str(rrh): {whole("RRH distance cloud id", k): float(d) for k, d in row.items()}
            for rrh, row in data["rrh_distances"].items()
        }
        return Infrastructure(
            clouds=clouds,
            rrh_distances=rrh_distances,
            cloud_distances=cloud_distances,
            fiber_speed=float(data.get("fiber_speed", 200.0)),
        )
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        raise ConfigError(f"bad infrastructure section: {exc}") from exc


def _parse_chain(row: dict, model: ComputeModel,
                 services: dict[str, ServiceClass]) -> ChainRequest:
    if not isinstance(row, dict):
        raise ConfigError(f"chain entry {row!r} is not a mapping")
    if row.get("id") is None or row.get("rrh") is None:
        raise ConfigError(f"chain entry {row!r} needs an id and an rrh")
    chain_id, rrh = str(row["id"]), str(row["rrh"])
    service: Optional[ServiceClass] = None
    if "service" in row:
        name = str(row["service"])
        if name not in services:
            raise ConfigError(f"chain {chain_id} uses unknown service {name}")
        service = services[name]
    if "vnfs" in row:
        try:
            vnfs = tuple(
                VnfSpec(gflops=float(v["gflops"]), fwd_ms=float(v["fwd_ms"]),
                        bwd_ms=float(v["bwd_ms"]))
                for v in row["vnfs"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"chain {chain_id} has a bad vnfs list: {exc}") from exc
        return ChainRequest(id=chain_id, service=service, rrh=rrh, vnfs=vnfs)
    if service is None:
        raise ConfigError(f"chain {chain_id} needs either a service or a vnfs list")
    return build_chain(model, service, rrh, chain_id)


def load_instance(path) -> Instance:
    """Read an instance file.  Raises ConfigError on any malformed content."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path} does not hold an instance mapping")
    model = parse_model_section(data["model"]) if "model" in data else default_model()
    services = (parse_services_section(data["services"]) if "services" in data
                else default_services())
    if "infrastructure" not in data:
        raise ConfigError(f"{path} has no infrastructure section")
    infra = _parse_infrastructure(data["infrastructure"])
    rows = data.get("chains", [])
    if not isinstance(rows, list):
        raise ConfigError(f"{path} has a chains section that is not a list")
    chains = tuple(_parse_chain(row, model, services) for row in rows)
    return Instance(infra=infra, chains=chains)


def instance_to_dict(inst: Instance, model: Optional[ComputeModel] = None,
                     services: Optional[dict[str, ServiceClass]] = None) -> dict:
    """Serialize an instance (plus optional model context) to plain data.

    VNFs are always written out explicitly so a round trip reproduces the
    exact floats regardless of the model file in effect at load time.
    """
    out: dict = {}
    if model is not None:
        out["model"] = {
            "ref_gflops": model.ref_gflops,
            "ref_cpu_ghz": model.ref_cpu_ghz,
            "coeffs": {
                pos: {"dl": list(row["dl"]), "ul": list(row["ul"])}
                for pos, row in sorted(model.coeffs.items())
            },
        }
    if services is not None:
        out["services"] = {
            name: {
                "rb": svc.rb,
                "mcs_dl": svc.mcs_dl,
                "mcs_ul": svc.mcs_ul,
                "latency_profile": list(svc.latency_profile),
            }
            for name, svc in sorted(services.items())
        }
    infra = inst.infra
    order = [c.id for c in infra.clouds]
    out["infrastructure"] = {
        "fiber_speed": infra.fiber_speed,
        "clouds": [{"id": c.id, "capacity": c.capacity} for c in infra.clouds],
        "cloud_distances": [
            [infra.dist(k, j) for j in order] for k in order
        ],
        "rrh_distances": {
            rrh: {k: infra.rrh_distances[rrh][k] for k in sorted(infra.rrh_distances[rrh])}
            for rrh in sorted(infra.rrh_distances)
        },
    }
    out["chains"] = []
    for chain in inst.chains:
        row: dict = {"id": chain.id, "rrh": chain.rrh}
        if chain.service is not None:
            row["service"] = chain.service.name
        row["vnfs"] = [
            {"gflops": v.gflops, "fwd_ms": v.fwd_ms, "bwd_ms": v.bwd_ms}
            for v in chain.vnfs
        ]
        out["chains"].append(row)
    return out


def save_instance(path, inst: Instance, model: Optional[ComputeModel] = None,
                  services: Optional[dict[str, ServiceClass]] = None) -> None:
    data = instance_to_dict(inst, model=model, services=services)
    with open(path, "w", encoding="utf-8") as fh:
        yaml.dump(data, fh, Dumper=_Dumper, sort_keys=False, default_flow_style=False)
