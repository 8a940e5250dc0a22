"""Latency model tests: mixtures, bounds, diurnal scaling, histograms."""
import random

import pytest
from hypothesis import given, strategies as st

from chargesim.latency import (
    HOURS_PER_WEEK,
    MIN_LATENCY_S,
    LatencyModel,
    LinkKind,
    MixtureComponent,
    count_modes,
    default_models,
    histogram_of,
    hour_of_week,
    worst_case_budget,
    _near_gauss,
)
from chargesim.sim import substream


def histograms_indistinguishable(a, b, alpha):
    """Two-sample chi-square homogeneity test on shared bins.

    Returns True when the hypothesis "same underlying distribution" is NOT
    rejected at level ``alpha``. Bins whose combined count is below 10 are
    pooled to keep the test valid.
    """
    from scipy.stats import chi2_contingency

    assert len(a.counts) == len(b.counts), "histograms must share binning"
    col_a: list = []
    col_b: list = []
    pool_a = pool_b = 0
    for ca, cb in zip(a.counts, b.counts):
        pool_a += ca
        pool_b += cb
        if pool_a + pool_b >= 10:
            col_a.append(pool_a)
            col_b.append(pool_b)
            pool_a = pool_b = 0
    if pool_a + pool_b > 0 and col_a:
        col_a[-1] += pool_a
        col_b[-1] += pool_b
    if len(col_a) < 2:
        return True  # everything in one bin: trivially identical shape
    _, p_value, _, _ = chi2_contingency([col_a, col_b])
    return bool(p_value >= alpha)


def fixed_model(location, hard_max=None):
    return LatencyModel(
        components=(MixtureComponent(1.0, location, 0.0),),
        hard_max=hard_max if hard_max is not None else max(location * 2, 1e-6),
    )


def draws_histogram(model, n, bins, rng):
    """Histogram of ``n`` draws over (0, hard_max], equal-width bins."""
    return histogram_of([model.sample(rng) for _ in range(n)], bins, 0.0, model.hard_max)


def reference_sample(model, rng, at=0.0):
    """The sampler written plainly: component pick, diurnal multiply on every
    draw, a 12-uniform loop summed left to right, then min/max clamping."""
    u = rng.random()
    acc = 0.0
    comp = model.components[-1]
    for c in model.components:
        acc += c.weight
        if u <= acc:
            comp = c
            break
    loc = comp.location * model.diurnal[int(at // 3600.0) % HOURS_PER_WEEK]
    if comp.spread == 0.0:
        value = loc
    else:
        total = 0.0
        for _ in range(12):
            total += rng.random()
        value = loc + comp.spread * (total - 6.0)
    return min(model.hard_max, max(MIN_LATENCY_S, value))


class TestKernel:
    def test_near_gauss_pinned_values(self):
        # recorded on Python 3.11; any interpreter must reproduce these bits
        rng = random.Random(0)
        assert [repr(_near_gauss(rng)) for _ in range(8)] == [
            "0.757963494141995", "2.134233842499661", "0.46810099915626946",
            "0.1720141721470796", "0.21290752281033498", "0.17767011558112067",
            "1.9891549902996202", "2.680339772350914",
        ]

    @pytest.mark.parametrize("model", [
        default_models().threeg,
        default_models().ethernet,
        LatencyModel(components=default_models().threeg.components,
                     hard_max=4.5, diurnal=(0.6, 1.0) * 84),
        # hard_max below MIN_LATENCY_S: the clamp order matters
        LatencyModel(components=(MixtureComponent(1.0, 1e-10, 1e-9),), hard_max=1e-12),
        # most draws clamp at MIN_LATENCY_S
        LatencyModel(components=(MixtureComponent(0.5, 0.0, 0.0), MixtureComponent(0.5, 0.0, 1.0)),
                     hard_max=2.0),
    ], ids=["threeg", "ethernet", "threeg-diurnal", "tiny-hard-max", "clamped-low"])
    def test_sample_matches_reference_bit_for_bit(self, model):
        fast, ref = random.Random(11), random.Random(11)
        for i in range(3000):
            at = i * 1800.0
            assert repr(model.sample(fast, at)) == repr(reference_sample(model, ref, at))


class _ScriptedRng:
    """Hands out the given uniforms in order."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


class TestSampling:
    def test_draw_above_last_cumulative_weight_falls_through_to_last_component(self):
        # weights summing to 1 - 5e-10, inside the tolerance the model allows
        model = LatencyModel(
            components=(MixtureComponent(0.5, 1.0, 0.0),
                        MixtureComponent(0.5 - 5e-10, 3.0, 0.1)),
            hard_max=5.0,
        )
        last = model.components[-1]
        u = 1.0 - 1e-10
        assert u > model.components[0].weight + last.weight
        script = [u] + [0.75] * 12  # near-Gaussian 12 * 0.75 - 6 = 3
        value = model.sample(_ScriptedRng(script))
        assert value == last.location + last.spread * 3.0
        assert repr(value) == repr(reference_sample(model, _ScriptedRng(script)))

    def test_for_link_returns_the_named_model(self):
        links = default_models()
        named = {LinkKind.ETHERNET: links.ethernet, LinkKind.WIFI: links.wifi,
                 LinkKind.THREE_G: links.threeg}
        assert set(named) == set(LinkKind)
        for kind, model in named.items():
            assert links.for_link(kind) is model

    def test_degenerate_model_is_constant(self):
        model = fixed_model(0.2)
        rng = substream(1, "t")
        assert all(model.sample(rng) == 0.2 for _ in range(100))

    def test_default_threeg_bounded_by_worst_case(self):
        model = default_models().threeg
        rng = substream(2, "t")
        draws = [model.sample(rng) for _ in range(20000)]
        assert max(draws) <= 4.5
        assert min(draws) > 0.0

    def test_default_ethernet_is_microsecond_band(self):
        model = default_models().ethernet
        rng = substream(3, "t")
        assert all(model.sample(rng) <= 1e-3 for _ in range(5000))

    def test_default_threeg_has_four_components(self):
        assert len(default_models().threeg.components) == 4

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            LatencyModel(
                components=(MixtureComponent(0.5, 1.0, 0.1), MixtureComponent(0.4, 2.0, 0.1)),
                hard_max=5.0,
            )

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(
                components=(MixtureComponent(0.0, 1.0, 0.1), MixtureComponent(1.0, 2.0, 0.1)),
                hard_max=5.0,
            )

    @pytest.mark.parametrize("components, hard_max, message", [
        ((), 5.0, "latency model needs at least one mixture component"),
        ((MixtureComponent(1.0, -0.1, 0.1),), 5.0,
         r"component \[0\] location/spread must be non-negative"),
        ((MixtureComponent(0.5, 1.0, 0.1), MixtureComponent(0.5, 1.0, -0.1)), 5.0,
         r"component \[1\] location/spread must be non-negative"),
        ((MixtureComponent(1.0, 1.0, 0.1),), 0.0, r"hard_max 0\.0 must be positive"),
        ((MixtureComponent(1.0, 1.0, 0.1),), -1.0, r"hard_max -1\.0 must be positive"),
    ], ids=["no-components", "negative-location", "negative-spread", "zero-hard-max",
            "negative-hard-max"])
    def test_invalid_model_rejected_with_its_reason(self, components, hard_max, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            LatencyModel(components=components, hard_max=hard_max)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_samples_always_in_support(self, seed):
        model = default_models().threeg
        rng = substream(seed, "support")
        x = model.sample(rng)
        assert 0.0 < x <= model.hard_max


class TestDiurnal:
    def test_profile_validates_length_and_range(self):
        components = default_models().threeg.components
        with pytest.raises(ValueError):
            LatencyModel(components, hard_max=4.5, diurnal=(1.0,) * 167)
        with pytest.raises(ValueError):
            LatencyModel(components, hard_max=4.5, diurnal=(0.0,) + (1.0,) * 167)

    def test_fast_hours_scale_location_but_not_support(self):
        fast = (0.5,) * 24 + (1.0,) * 144
        model = LatencyModel(
            components=default_models().threeg.components,
            hard_max=4.5,
            diurnal=fast,
        )
        rng_fast = substream(9, "d")
        rng_slow = substream(9, "d")
        fast_hour = [model.sample(rng_fast, at=3600.0) for _ in range(4000)]       # inside fast day
        slow_hour = [model.sample(rng_slow, at=3600.0 * 30) for _ in range(4000)]  # later in the week
        assert sum(fast_hour) / 4000 < sum(slow_hour) / 4000
        # support invariance: the clamp still rules at every hour
        for hour in range(0, 168, 13):
            rng = substream(9, f"h{hour}")
            assert max(model.sample(rng, at=hour * 3600.0) for _ in range(2000)) <= 4.5

    def test_multiplier_is_week_periodic(self):
        # a pinned model (no spread) draws exactly its scaled location
        model = LatencyModel(components=(MixtureComponent(1.0, 1.0, 0.0),), hard_max=2.0,
                             diurnal=(1.0,) * 5 + (0.25,) + (1.0,) * 162)
        rng = random.Random(0)
        assert model.sample(rng, 5 * 3600.0) == 0.25
        assert model.sample(rng, (5 + 168) * 3600.0) == 0.25
        assert model.sample(rng, 6 * 3600.0) == 1.0

    def test_a_draw_takes_the_multiplier_of_its_hour_of_the_week(self):
        # the hour the compare fold tallies a trial under is the hour whose
        # multiplier the trial's draws took
        profile = tuple(1.0 - h / 200 for h in range(HOURS_PER_WEEK))
        model = LatencyModel(components=(MixtureComponent(1.0, 1.0, 0.0),), hard_max=2.0,
                             diurnal=profile)
        times = (0.0, 3599.999, 3600.0, 167 * 3600.0, 168 * 3600.0, 1e6)
        assert [hour_of_week(at) for at in times] == [0, 0, 1, 167, 0, 109]
        rng = random.Random(0)
        assert [model.sample(rng, at) for at in times] == [profile[hour_of_week(at)]
                                                           for at in times]

    def test_analytic_mean_weights_each_hour_by_its_count(self):
        model = LatencyModel(components=(MixtureComponent(1.0, 2.0, 0.1),), hard_max=4.0,
                             diurnal=(1.0,) + (0.5,) * 167)
        hours = [1, 3] + [0] * 166
        assert model.analytic_mean(hours) == 2.0 * (1.0 + 3 * 0.5) / 4
        # with no draws counted, hour 0's multiplier
        assert model.analytic_mean([0] * HOURS_PER_WEEK) == 2.0
        # a flat profile ignores the counts, bit for bit
        flat = default_models().threeg
        assert flat.analytic_mean([(7 * h) % 23 for h in range(HOURS_PER_WEEK)]) == \
            flat.analytic_mean(())


class TestRoundTrip:
    def test_worst_case_budget_bounds_models(self):
        models = default_models()
        budget = worst_case_budget(models, LinkKind.THREE_G)
        assert budget.t_uplink == models.threeg.hard_max
        assert budget.t_metering == models.metering.hard_max
        assert budget.t_bus == models.local_bus.hard_max


class TestHistogram:
    def test_degenerate_model_fills_one_bin(self):
        hist = draws_histogram(fixed_model(0.2, hard_max=1.0), 500, 10, substream(1, "h"))
        assert sum(1 for c in hist.counts if c > 0) == 1
        assert sum(hist.counts) == 500

    def test_values_outside_the_range_land_in_the_end_bins(self):
        # [1, 2) in four bins of 0.25; each value is counted once
        hist = histogram_of([0.5, 1.0, 1.3, 1.99, 2.0, 7.0, -3.0], 4, 1.0, 2.0)
        assert hist.counts == [3, 1, 0, 3]
        assert hist.edges == [1.0, 1.25, 1.5, 1.75, 2.0]

    def test_zero_bins_rejected(self):
        with pytest.raises(ValueError):
            histogram_of([0.2] * 10, 0, 0.0, 0.4)

    def test_default_threeg_shows_four_modes_at_1e5(self):
        hist = draws_histogram(default_models().threeg, 100_000, 45, substream(4, "h"))
        assert count_modes(hist.counts) == 4

    def test_mixture_mean_matches_analytic_within_one_percent(self):
        # closed form: 0.4*0.8 + 0.3*1.5 + 0.2*2.5 + 0.1*4.0 = 1.67
        model = default_models().threeg
        assert model.analytic_mean(()) == pytest.approx(1.67, abs=1e-12)
        rng = substream(6, "mean")
        n = 100_000
        draws_mean = sum(model.sample(rng) for _ in range(n)) / n
        assert draws_mean == pytest.approx(1.67, rel=0.01)

    def test_count_modes_on_synthetic_shapes(self):
        assert count_modes([0, 2, 10, 2, 0, 0, 2, 9, 2, 0]) == 2
        assert count_modes([5, 5, 5]) == 1
        assert count_modes([]) == 0
        assert count_modes([0, 0, 0]) == 0

    def test_same_model_different_streams_indistinguishable(self):
        model = default_models().threeg
        h1 = draws_histogram(model, 30_000, 30, substream(12, "loc-a"))
        h2 = draws_histogram(model, 30_000, 30, substream(12, "loc-b"))
        assert histograms_indistinguishable(h1, h2, alpha=0.01)

    def test_shifted_model_is_distinguishable(self):
        base = default_models().threeg
        shifted = LatencyModel(
            components=tuple(
                MixtureComponent(c.weight, c.location + 0.3, c.spread)
                for c in base.components
            ),
            hard_max=4.8,
        )
        h1 = draws_histogram(base, 30_000, 30, substream(12, "loc-a"))
        # same binning is required: rebin shifted draws over base's range
        rng = substream(12, "loc-b")
        draws = [min(shifted.sample(rng), base.hard_max) for _ in range(30_000)]
        h2 = histogram_of(draws, 30, 0.0, base.hard_max)
        assert not histograms_indistinguishable(h1, h2, alpha=0.01)
