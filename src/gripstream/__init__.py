"""gripstream: a desk-scale grip-force glove telemetry pipeline.

Emulates a 12-sensor force glove emitting voltage frames stamped at
50 Hz, decodes and records the stream, converts voltages to forces, and
runs the grip-force analyses (profiles, contribution shares, ANOVA,
expertise benchmarking) plus real-time over-force alerting.
"""

from gripstream.core import (
    Calibration,
    ConversionMode,
    Dominance,
    GloveConfig,
    Hand,
    SensorLocus,
    Side,
    force_from_voltage,
    voltage_from_force,
)
from gripstream.errors import ConfigError, DomainError, GripstreamError
from gripstream.ingest import Session, SessionBuilder, load_session, record_session
from gripstream.protocol import Frame, decode_frame, encode_frame, scan_stream_offsets

__version__ = "0.1.0"

__all__ = [
    "Calibration",
    "ConfigError",
    "ConversionMode",
    "DomainError",
    "Dominance",
    "Frame",
    "GloveConfig",
    "GripstreamError",
    "Hand",
    "SensorLocus",
    "Session",
    "SessionBuilder",
    "Side",
    "__version__",
    "decode_frame",
    "encode_frame",
    "force_from_voltage",
    "load_session",
    "record_session",
    "scan_stream_offsets",
    "voltage_from_force",
]
