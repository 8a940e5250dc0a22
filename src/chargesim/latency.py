"""Per-link network delay models and scalar timing budgets.

Each link's delay is a weighted mixture of bell-shaped components, clamped to
a hard maximum, with an optional hour-of-week profile that scales component
locations (and only locations, so the support range never changes across
hours). Mixture draws use a 12-uniform near-Gaussian kernel instead of libm's
``exp``/``log`` so that traces replay bit-identically across platforms.
"""
from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence

from .sim import ordered_sum

MIN_LATENCY_S = 1e-9
HOURS_PER_WEEK = 168
FLAT = (1.0,) * HOURS_PER_WEEK  # the diurnal profile that scales no hour
_WEIGHT_TOL = 1e-9


class LinkKind(Enum):
    ETHERNET = "ethernet"
    WIFI = "wifi"
    THREE_G = "threeg"


def _near_gauss(rng) -> float:
    # Sum of 12 uniforms, centered: mean 0, variance 1, support (-6, 6).
    # Pure arithmetic keeps draws bit-identical across libm implementations,
    # and the explicit left-to-right adds keep them identical across Python
    # versions (``sum()`` of floats is compensated from 3.12 on).
    r = rng.random
    return (r() + r() + r() + r() + r() + r()
            + r() + r() + r() + r() + r() + r()) - 6.0


class MixtureComponent(NamedTuple):
    weight: float
    location: float
    spread: float


class LatencyModel:
    """Delay distribution for one network segment.

    Every sampled value lies in (0, hard_max]. The component family is a
    clamped near-Gaussian; swap components in config for other shapes.

    ``diurnal`` holds one multiplier of the component locations per hour of
    the week. Each lies in (0, 1]: hours can only get faster, never slower,
    so ``hard_max`` stays an honest bound at every hour.
    """

    __slots__ = ("components", "hard_max", "diurnal", "_table", "_scale")

    def __init__(self, components: tuple, hard_max: float, diurnal: tuple = FLAT):
        if len(diurnal) != HOURS_PER_WEEK:
            raise ValueError(f"diurnal profile needs {HOURS_PER_WEEK} hourly multipliers, got {len(diurnal)}")
        for i, s in enumerate(diurnal):
            if not 0.0 < s <= 1.0:
                raise ValueError(f"diurnal multiplier [{i}] = {s!r} outside (0, 1]")
        if not components:
            raise ValueError("latency model needs at least one mixture component")
        # (cumulative weight, location, spread) per component; the weights
        # are added left to right, the order a plain per-draw sum adds them in
        total = 0.0
        table = []
        for i, c in enumerate(components):
            if c.weight <= 0:
                raise ValueError(f"component [{i}] weight {c.weight!r} must be positive")
            if c.location < 0 or c.spread < 0:
                raise ValueError(f"component [{i}] location/spread must be non-negative")
            total += c.weight
            table.append((total, c.location, c.spread))
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"mixture weights sum to {total!r}, expected 1")
        if hard_max <= 0:
            raise ValueError(f"hard_max {hard_max!r} must be positive")
        self.components = components
        self.hard_max = hard_max
        self.diurnal = diurnal
        self._table = tuple(table)
        # x * 1.0 == x exactly, so a flat profile needs no multiply
        self._scale = None if all(s == 1.0 for s in diurnal) else diurnal

    def __eq__(self, other):
        if type(other) is not LatencyModel:
            return NotImplemented
        return ((self.components, self.hard_max, self.diurnal)
                == (other.components, other.hard_max, other.diurnal))

    def sample(self, rng, at: float = 0.0) -> float:
        u = rng.random()
        for acc, loc, spread in self._table:
            if u <= acc:
                break
        # a u above the last cumulative weight (it may sum to just under 1)
        # leaves the loop on the last component
        scale = self._scale
        if scale is not None:
            loc = loc * scale[int(at // 3600.0) % HOURS_PER_WEEK]
        value = loc if spread == 0.0 else loc + spread * _near_gauss(rng)
        if value < MIN_LATENCY_S:
            value = MIN_LATENCY_S
        if value > self.hard_max:
            value = self.hard_max
        return value

    def analytic_mean(self, hours: Sequence[int]) -> float:
        """Closed-form mixture mean of draws spread over the week as ``hours``
        counts them, ``hours[h]`` draws at hour ``h``: each hour's multiplier
        is weighted by its count. With no draws it reads hour 0's multiplier.
        On a flat profile the weighted multiplier is exactly 1.0. The clamp is
        still ignored, which is negligible when spreads are small relative to
        the distance to the bounds."""
        count = sum(hours)
        mult = (ordered_sum(n * s for n, s in zip(hours, self.diurnal)) / count
                if count else self.diurnal[0])
        return ordered_sum(c.weight * c.location * mult for c in self.components)


class TimingBudget(NamedTuple):
    """Scalar timing symbols for analytic delay budgets: the collector's
    in-station hop to a meter, the round trip of the station's uplink
    (whichever link that is) and a meter's reading time."""

    t_bus: float = 0.0
    t_uplink: float = 0.0
    t_metering: float = 0.0


class LinkModelSet(NamedTuple):
    """The full set of segment models one experiment samples from.

    ``metering`` is the time a meter takes to produce a reading (its local
    radio hop folded in); ``local_bus`` is the collector's wired hop to a
    meter inside the station. ``cloud`` is the fixed server-to-cloud plus
    in-cloud time that every server round trip adds to its link transit.
    """

    ethernet: LatencyModel
    wifi: LatencyModel
    threeg: LatencyModel
    local_bus: LatencyModel
    metering: LatencyModel
    cloud: float = 0.0

    def for_link(self, link: LinkKind) -> LatencyModel:
        # each LinkKind's value is the name of its model's field
        return getattr(self, link.value)


# --- default models -------------------------------------------------------
# The four-peak cellular mixture is a synthetic fit to the measured shape
# (four modes, 4.5 s worst case); the peak positions/weights themselves are
# not measured ground truth. WiFi is Ethernet shifted +20 ms pending a real
# worst-case figure.


def default_models() -> LinkModelSet:
    return LinkModelSet(
        ethernet=LatencyModel(components=(MixtureComponent(1.0, 5e-05, 1e-05),),
                              hard_max=1e-03),
        wifi=LatencyModel(components=(MixtureComponent(1.0, 0.02005, 0.004),),
                          hard_max=0.05),
        threeg=LatencyModel(
            components=(
                MixtureComponent(0.4, 0.8, 0.15),
                MixtureComponent(0.3, 1.5, 0.15),
                MixtureComponent(0.2, 2.5, 0.15),
                MixtureComponent(0.1, 4.0, 0.15),
            ),
            hard_max=4.5,
        ),
        local_bus=LatencyModel(components=(MixtureComponent(1.0, 0.001, 0.0002),),
                               hard_max=0.005),
        metering=LatencyModel(components=(MixtureComponent(1.0, 0.2, 0.02),),
                              hard_max=0.5),
    )


def worst_case_budget(models: LinkModelSet, link: LinkKind) -> TimingBudget:
    """Budget whose fields upper-bound every sample the model set can draw
    for a station whose uplink is ``link``; used for hard staleness bounds."""
    return TimingBudget(
        t_bus=models.local_bus.hard_max,
        t_uplink=models.for_link(link).hard_max,
        t_metering=models.metering.hard_max,
    )


# --- histograms -----------------------------------------------------------

MODE_REL_HEIGHT = 0.05    # a peak reaches this fraction of the tallest bin
MODE_VALLEY_RATIO = 0.5   # peaks merge unless the valley dips below this share


class Histogram(NamedTuple):
    edges: list
    counts: list

    def rows(self) -> list:
        """(bin_low, bin_high, count) rows, the CSV export shape."""
        return [
            (self.edges[i], self.edges[i + 1], self.counts[i])
            for i in range(len(self.counts))
        ]


def histogram_of(values: Sequence[float], bins: int, low: float, high: float) -> Histogram:
    if bins < 1:
        raise ValueError(f"need at least one bin, got {bins}")
    if high <= low:
        raise ValueError("histogram range must be non-empty")
    width = (high - low) / bins
    counts = [0] * bins
    last = bins - 1
    for v in values:
        # clamped with comparisons: a min(max()) per value costs three times as much
        idx = int((v - low) / width)
        if idx > last:
            idx = last
        elif idx < 0:
            idx = 0
        counts[idx] += 1
    edges = [low + i * width for i in range(bins + 1)]
    return Histogram(edges=edges, counts=counts)


def count_modes(counts: Sequence[int]) -> int:
    """Count distinct peaks in a binned distribution.

    A bin is a candidate peak if, after light smoothing, it dominates its
    neighbors and reaches ``MODE_REL_HEIGHT`` of the tallest bin. Adjacent
    candidates are merged unless a valley between them dips below
    ``MODE_VALLEY_RATIO`` of the smaller peak.
    """
    k = len(counts)
    if k == 0:
        return 0
    smooth = []
    for i in range(k):
        lo, hi = max(0, i - 1), min(k - 1, i + 1)
        window = counts[lo:hi + 1]
        smooth.append(sum(window) / len(window))
    top = max(smooth)
    if top <= 0:
        return 0
    threshold = MODE_REL_HEIGHT * top
    candidates = []
    for i in range(k):
        left = smooth[i - 1] if i > 0 else -1.0
        right = smooth[i + 1] if i < k - 1 else -1.0
        if smooth[i] > left and smooth[i] >= right and smooth[i] >= threshold:
            candidates.append(i)
    modes: list[int] = []
    for c in candidates:
        if modes:
            prev = modes[-1]
            valley = min(smooth[prev:c + 1])
            if valley > MODE_VALLEY_RATIO * min(smooth[prev], smooth[c]):
                if smooth[c] > smooth[prev]:
                    modes[-1] = c
                continue
        modes.append(c)
    return len(modes)

