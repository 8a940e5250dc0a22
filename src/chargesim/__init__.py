"""Deterministic discrete-event testbed for smart EV-charging telemetry and
control: per-meter pull, aggregated pull, and periodic push protocols over
configurable link models, plus the station-local collector firmware and
charging schedulers."""

__version__ = "0.1.0"
