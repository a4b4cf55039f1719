"""Exception hierarchy shared across the library."""


class TransportError(Exception):
    """Base class for all protocol and codec errors."""


class EncodingOverflow(TransportError):
    """Value does not fit any variable-length integer class."""


class KeyDerivationError(TransportError):
    """Bad input to the key schedule derivation."""


class BufferTooSmall(TransportError):
    """Destination region cannot hold the output."""


class TruncationRangeError(TransportError):
    """Value too far from the reference for a 4-byte truncation."""


class StreamIdOverflow(TransportError):
    """Stream identifier at or above 2**30."""


class PacketTooShortForSampling(TransportError):
    """Packet shorter than the header-protection sample window."""


class MalformedHeader(TransportError):
    """Header failed structural checks after unprotection."""


class MalformedFrame(TransportError):
    """Frame fields truncated or structurally invalid."""


class ProtocolViolation(TransportError):
    """Peer sent something the protocol rules forbid."""


class FinalSizeError(TransportError):
    """Data received past, or inconsistent with, the stream's final size."""


class ConsumeOutOfRange(TransportError):
    """Application consumed more than was readable."""


class StreamNotFound(TransportError):
    """No receive state exists for the stream."""


class SendAfterFin(TransportError):
    """Application queued data on a stream already finished."""
