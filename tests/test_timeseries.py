"""Tests for the time-varying (diurnal) traffic model."""

import pytest

from repro.topology.cities import DEFAULT_CITIES
from repro.topology.timeseries import (
    TimeVaryingTrafficMatrix,
    diurnal_factor,
    timezone_offset_hours,
)
from repro.topology.traffic import gravity_traffic_matrix


class TestDiurnalFactor:
    def test_peak_is_one(self):
        assert diurnal_factor(20.0) == pytest.approx(1.0)

    def test_trough_twelve_hours_later(self):
        assert diurnal_factor(8.0, trough_ratio=0.3) == pytest.approx(0.3)

    def test_periodic(self):
        assert diurnal_factor(3.0) == pytest.approx(diurnal_factor(27.0))

    def test_bounded(self):
        for hour in range(0, 24):
            factor = diurnal_factor(float(hour), trough_ratio=0.25)
            assert 0.25 <= factor <= 1.0

    def test_invalid_trough_rejected(self):
        with pytest.raises(ValueError):
            diurnal_factor(0.0, trough_ratio=0.0)


class TestTimezones:
    def test_east_coast_behind_utc(self):
        nyc = next(c for c in DEFAULT_CITIES if c.name == "NYC")
        assert -6 < timezone_offset_hours(nyc) < -4  # ~UTC-5

    def test_west_coast_three_hours_behind_east(self):
        nyc = next(c for c in DEFAULT_CITIES if c.name == "NYC")
        sfo = next(c for c in DEFAULT_CITIES if c.name == "SFO")
        delta = timezone_offset_hours(nyc) - timezone_offset_hours(sfo)
        assert delta == pytest.approx(3.2, abs=0.5)


class TestTimeVaryingMatrix:
    def make(self):
        base = gravity_traffic_matrix(DEFAULT_CITIES, 100.0)
        return TimeVaryingTrafficMatrix(base, DEFAULT_CITIES)

    def test_coastal_peaks_are_offset(self):
        tvm = self.make()
        nyc_peak = max(range(24), key=lambda h: tvm.factor_at("NYC", h))
        sfo_peak = max(range(24), key=lambda h: tvm.factor_at("SFO", h))
        # SFO's local evening comes ~3 hours later in UTC.
        assert (sfo_peak - nyc_peak) % 24 == 3

    def test_chain_demand_factors_follow_ingress(self):
        tvm = self.make()
        factors = tvm.chain_demand_factors(
            {"c-east": "NYC", "c-west": "SFO"}, utc_hour=1.0
        )
        # 1:00 UTC is 20:00 in NYC (peak) but 17:00 in SFO.
        assert factors["c-east"] > factors["c-west"]

    def test_unknown_node_rejected(self):
        base = gravity_traffic_matrix(DEFAULT_CITIES, 100.0)
        with pytest.raises(ValueError):
            TimeVaryingTrafficMatrix(base, DEFAULT_CITIES[:3])
