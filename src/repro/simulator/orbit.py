"""LEO constellation geometry.

The paper's target environment (Section 2.1) is a network of low-
altitude satellites (~1000 km) with point-to-point laser inter-satellite
links of 2,000–10,000 km, time-varying distance (hence time-varying
round-trip time ``R_t`` with large variance — the reason HDLC's timeout
``t_out = R + alpha`` needs a large margin ``alpha``), and short link
lifetimes on the order of minutes.

This module supplies exactly what the protocol analysis needs from the
physical layer: satellite positions on circular orbits, inter-satellite
distance as a function of time, line-of-sight visibility windows
(Earth occlusion + maximum laser range), and the derived quantities
``R(t)``, ``mean R``, ``var R_t`` and ``alpha >= R_max - R``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .link import LIGHT_SPEED_KM_S

__all__ = [
    "EARTH_RADIUS_KM",
    "EARTH_MU",
    "Satellite",
    "IsolatedLinkGeometry",
    "VisibilityWindow",
    "link_distance_km",
    "visibility_windows",
    "rtt_statistics",
]

EARTH_RADIUS_KM = 6371.0
EARTH_MU = 398_600.4418  # km^3 / s^2, Earth's gravitational parameter
ATMOSPHERE_MARGIN_KM = 100.0
"""Laser paths grazing below this altitude are treated as occluded."""


@dataclass(frozen=True)
class Satellite:
    """A satellite on a circular orbit.

    Parameters
    ----------
    altitude_km:
        Height above the Earth's surface (paper: ~1000 km).
    inclination_deg:
        Orbital plane inclination.
    raan_deg:
        Right ascension of the ascending node (plane orientation).
    phase_deg:
        Argument of latitude at ``t = 0`` (position along the orbit).
    """

    name: str
    altitude_km: float = 1000.0
    inclination_deg: float = 60.0
    raan_deg: float = 0.0
    phase_deg: float = 0.0

    def __post_init__(self) -> None:
        if self.altitude_km <= 0:
            raise ValueError("altitude must be positive")

    @property
    def orbit_radius_km(self) -> float:
        """Distance from Earth's centre."""
        return EARTH_RADIUS_KM + self.altitude_km

    @property
    def angular_rate(self) -> float:
        """Mean motion in radians/second (Kepler, circular orbit)."""
        return math.sqrt(EARTH_MU / self.orbit_radius_km**3)

    @property
    def period_s(self) -> float:
        """Orbital period in seconds."""
        return 2 * math.pi / self.angular_rate

    def position(self, t: float | np.ndarray) -> np.ndarray:
        """ECI position in km at time(s) *t* (shape ``(..., 3)``)."""
        u = math.radians(self.phase_deg) + self.angular_rate * np.asarray(t, dtype=float)
        inc = math.radians(self.inclination_deg)
        raan = math.radians(self.raan_deg)
        # Position in the orbital plane, then rotate by inclination and RAAN.
        x_orb = self.orbit_radius_km * np.cos(u)
        y_orb = self.orbit_radius_km * np.sin(u)
        x = x_orb * math.cos(raan) - y_orb * math.cos(inc) * math.sin(raan)
        y = x_orb * math.sin(raan) + y_orb * math.cos(inc) * math.cos(raan)
        z = y_orb * math.sin(inc)
        return np.stack([x, y, z], axis=-1)


def link_distance_km(a: Satellite, b: Satellite, t: float | np.ndarray) -> np.ndarray:
    """Inter-satellite distance in km at time(s) *t*."""
    diff = a.position(t) - b.position(t)
    return np.linalg.norm(diff, axis=-1)


def _line_of_sight_clear(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """True where the A–B segment stays above the occlusion radius."""
    occlusion_radius = EARTH_RADIUS_KM + ATMOSPHERE_MARGIN_KM
    ab = pb - pa
    ab_len2 = np.sum(ab * ab, axis=-1)
    # Parameter of the closest approach of the segment to the origin.
    s = np.clip(-np.sum(pa * ab, axis=-1) / np.where(ab_len2 > 0, ab_len2, 1.0), 0.0, 1.0)
    closest = pa + s[..., None] * ab
    return np.linalg.norm(closest, axis=-1) >= occlusion_radius


@dataclass(frozen=True)
class VisibilityWindow:
    """One contiguous interval during which a laser link can exist."""

    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def visibility_windows(
    a: Satellite,
    b: Satellite,
    t_start: float,
    t_end: float,
    max_range_km: float = 10_000.0,
    step_s: float = 1.0,
) -> list[VisibilityWindow]:
    """Link-lifetime windows in ``[t_start, t_end]``.

    A link exists while the satellites are within laser range *and* have
    a clear line of sight.  Sampled at *step_s* resolution — fine enough
    for minutes-long windows.
    """
    if t_end <= t_start:
        raise ValueError("t_end must exceed t_start")
    times = np.arange(t_start, t_end + step_s, step_s)
    pa, pb = a.position(times), b.position(times)
    distance = np.linalg.norm(pa - pb, axis=-1)
    visible = (distance <= max_range_km) & _line_of_sight_clear(pa, pb)
    windows: list[VisibilityWindow] = []
    start: Optional[float] = None
    for time, ok in zip(times, visible):
        if ok and start is None:
            start = float(time)
        elif not ok and start is not None:
            windows.append(VisibilityWindow(start, float(time)))
            start = None
    if start is not None:
        windows.append(VisibilityWindow(start, float(times[-1])))
    return windows


def rtt_statistics(
    a: Satellite,
    b: Satellite,
    t_start: float,
    t_end: float,
    step_s: float = 1.0,
) -> dict[str, float]:
    """Round-trip-time statistics over a window: the paper's ``R_t`` model.

    Returns mean/min/max/variance of the propagation RTT plus the
    derived HDLC timeout margin lower bound ``alpha >= R_max - R``
    (Section 4) with ``R = (R_min + R_max) / 2``.
    """
    times = np.arange(t_start, t_end + step_s, step_s)
    rtt = 2.0 * link_distance_km(a, b, times) / LIGHT_SPEED_KM_S
    r_min, r_max = float(rtt.min()), float(rtt.max())
    r_mid = 0.5 * (r_min + r_max)
    return {
        "mean": float(rtt.mean()),
        "min": r_min,
        "max": r_max,
        "variance": float(rtt.var()),
        "stdev": float(rtt.std()),
        "midrange": r_mid,
        "alpha_min": r_max - r_mid,
    }


class IsolatedLinkGeometry:
    """Convenience wrapper for a single A–B link's time-varying delay.

    Bundles the distance function, the one-way propagation delay
    callable (pluggable straight into
    :class:`~repro.simulator.link.FullDuplexLink`), and the RTT stats
    needed to size HDLC's timeout.
    """

    def __init__(self, a: Satellite, b: Satellite) -> None:
        self.a = a
        self.b = b

    def distance_km(self, t: float) -> float:
        return float(link_distance_km(self.a, self.b, t))

    def one_way_delay(self, t: float) -> float:
        """One-way light-speed propagation delay in seconds at time *t*."""
        return self.distance_km(t) / LIGHT_SPEED_KM_S

    def delay_fn(self) -> Callable[[float], float]:
        """The delay callable for a :class:`SimplexChannel`."""
        return self.one_way_delay

    def windows(self, t_start: float, t_end: float, max_range_km: float = 10_000.0,
                step_s: float = 1.0) -> list[VisibilityWindow]:
        return visibility_windows(self.a, self.b, t_start, t_end, max_range_km, step_s)

    def rtt_stats(self, t_start: float, t_end: float, step_s: float = 1.0) -> dict[str, float]:
        return rtt_statistics(self.a, self.b, t_start, t_end, step_s)
