"""Miniature encrypted transport with a reversed wire format.

Two wire layouts share one engine. The baseline serializes frames the
conventional way and pays a reassembly copy on receive; the reversed
layout puts stream data first and control information after it, so an
in-order packet can be decrypted straight into application-owned stream
storage and committed without copying. The package bundles the codec,
the connection state machine, a deterministic pipe simulator, and a
benchmark harness that quantifies the difference.
"""

from .crypto import KeySchedule, derive_keys
from .endpoint import Connection, Metrics, Role
from .errors import (
    EncodingOverflow,
    FinalSizeError,
    MalformedFrame,
    MalformedHeader,
    ProtocolViolation,
    TransportError,
)
from .harness import (
    BatchResult,
    PipeConfig,
    TransferReport,
    bench_modes,
    run_transfer,
    sweep_modes,
)
from .mode import WireMode, parse_mode
from .stream_buf import AppRecvBufMap, StreamRecvBuffer

__version__ = "0.1.0"

__all__ = [
    "AppRecvBufMap",
    "BatchResult",
    "Connection",
    "EncodingOverflow",
    "FinalSizeError",
    "KeySchedule",
    "MalformedFrame",
    "MalformedHeader",
    "Metrics",
    "PipeConfig",
    "ProtocolViolation",
    "Role",
    "StreamRecvBuffer",
    "TransferReport",
    "TransportError",
    "WireMode",
    "bench_modes",
    "derive_keys",
    "parse_mode",
    "run_transfer",
    "sweep_modes",
    "__version__",
]
