"""Mechanical service-time model for one disk request.

Given a :class:`~repro.disk.specs.DiskSpec`, the head position and the
request's target cylinder, :func:`service_components` computes the
seek / rotational-latency / transfer breakdown DiskSim would produce, at the
current rotational speed.  The model is deliberately at the "detailed
analytical" level rather than sector-accurate: the paper's results depend on
request *durations* and the busy/idle structure, not on sector phase.
"""

from __future__ import annotations

from dataclasses import dataclass

from .specs import DiskSpec

__all__ = ["ServiceComponents", "service_components", "lba_to_cylinder"]


@dataclass(frozen=True)
class ServiceComponents:
    """Breakdown of one request's service time (seconds)."""

    seek: float
    rotational_latency: float
    transfer: float

    @property
    def total(self) -> float:
        return self.seek + self.rotational_latency + self.transfer


def lba_to_cylinder(spec: DiskSpec, lba: int) -> int:
    """Map a logical block address (in bytes) to a cylinder index.

    Uses a uniform bytes-per-cylinder layout — adequate for seek-distance
    estimation (zoned recording would only skew the distance distribution
    slightly).
    """
    bytes_per_cylinder = max(1, spec.capacity_bytes // spec.cylinders)
    cyl = (lba // bytes_per_cylinder) % spec.cylinders
    return int(cyl)


def service_components(
    spec: DiskSpec,
    head_cylinder: int,
    cylinder: int,
    nbytes: int,
    rpm: int,
    sequential_hint: bool = False,
) -> ServiceComponents:
    """Compute the mechanical service-time components of one request
    whose target is ``cylinder`` (see :func:`lba_to_cylinder`).

    ``sequential_hint`` marks a request that directly follows its
    predecessor on disk (same stream): seek and rotational latency collapse
    to (almost) zero, which is what makes grouped sequential access cheap.
    """
    if nbytes < 0:
        raise ValueError(f"negative request size: {nbytes}")
    if rpm <= 0:
        raise ValueError(f"non-positive rpm: {rpm}")

    if sequential_hint:
        seek = 0.0
        rot = spec.head_switch_time  # occasional head/track switch
    else:
        distance = abs(cylinder - head_cylinder) / max(1, spec.cylinders - 1)
        seek = spec.seek_time(distance)
        rot = spec.avg_rotational_latency(rpm)

    transfer = spec.transfer_time(nbytes, rpm)
    return ServiceComponents(seek=seek, rotational_latency=rot, transfer=transfer)
