"""Resource versions: the characterized implementations of Table 1.

A *version* is one concrete hardware implementation of a resource type
— e.g. "Adder 1" is the ripple-carry adder with area 1 unit, delay 2
clock cycles and reliability 0.999.  The synthesis algorithm chooses a
version per operation, trading reliability against area and delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, Mapping

from repro.errors import LibraryError


#: Every version ever constructed, keyed by its field values: equal
#: versions are one object, so hashing is by identity and equality
#: short-circuits.  Libraries hold a handful of versions, so the table
#: stays small.
_INTERNED: Dict[tuple, "ResourceVersion"] = {}


@dataclass(frozen=True, order=True, init=False)
class ResourceVersion:
    """One implementation of a resource type.

    Versions are interned: constructing one with the field values of a
    version built before returns that very object (pickle, copy and
    :func:`dataclasses.replace` go through the constructor too).  The
    hash is therefore the C-level identity hash — versions sit in
    every engine memo key, so a Python-level ``__hash__`` would run
    hundreds of thousands of times per cache export — while ``==``
    keeps the dataclass value comparison.

    Attributes
    ----------
    rtype:
        Resource class this version implements (``"add"``, ``"mul"``).
    name:
        Version name, unique within the library (e.g. ``"adder1"``).
    area:
        Area in abstract units (Table 1, column 2).
    delay:
        Latency in clock cycles (Table 1, column 3).
    reliability:
        Probability of soft-error-free operation over the reference
        interval (Table 1, column 4); must lie in (0, 1].
    description:
        Optional provenance note (e.g. ``"ripple-carry"``).
    """

    rtype: str
    name: str
    area: int
    delay: int
    reliability: float
    description: str = ""

    def __new__(cls, rtype: str, name: str, area: int, delay: int,
                reliability: float, description: str = ""):
        if not rtype:
            raise LibraryError("version rtype must be non-empty")
        if not name:
            raise LibraryError("version name must be non-empty")
        if area <= 0:
            raise LibraryError(
                f"version {name!r}: area must be positive, got {area}")
        if delay <= 0:
            raise LibraryError(
                f"version {name!r}: delay must be positive, got {delay}")
        if not (0.0 < reliability <= 1.0):
            raise LibraryError(
                f"version {name!r}: reliability must be in (0, 1], "
                f"got {reliability}")
        key = (rtype, name, area, delay, reliability, description)
        canonical = _INTERNED.get(key)
        if canonical is not None:
            return canonical
        version = super().__new__(cls)
        for field_name, value in zip(_FIELDS, key):
            object.__setattr__(version, field_name, value)
        # setdefault is atomic: racing threads all get the first object
        return _INTERNED.setdefault(key, version)

    __hash__ = object.__hash__

    def __reduce__(self):
        return (ResourceVersion, (self.rtype, self.name, self.area,
                                  self.delay, self.reliability,
                                  self.description))

    @property
    def failure_rate(self) -> float:
        """Failure rate λ implied by R = exp(−λ) per reference interval."""
        return -math.log(self.reliability)

    def dominates(self, other: "ResourceVersion") -> bool:
        """True if this version is no worse than *other* on every axis
        (area, delay, reliability) and strictly better on one."""
        if self.rtype != other.rtype:
            return False
        no_worse = (self.area <= other.area and self.delay <= other.delay
                    and self.reliability >= other.reliability)
        strictly = (self.area < other.area or self.delay < other.delay
                    or self.reliability > other.reliability)
        return no_worse and strictly

    def to_dict(self) -> dict:
        """Serialize to a plain dictionary (JSON-friendly)."""
        return {
            "rtype": self.rtype,
            "name": self.name,
            "area": self.area,
            "delay": self.delay,
            "reliability": self.reliability,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ResourceVersion":
        """Inverse of :meth:`to_dict`."""
        try:
            return cls(
                rtype=str(data["rtype"]),
                name=str(data["name"]),
                area=int(data["area"]),
                delay=int(data["delay"]),
                reliability=float(data["reliability"]),
                description=str(data.get("description", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise LibraryError(f"malformed version dict: {exc}") from exc


_FIELDS = tuple(f.name for f in fields(ResourceVersion))
