"""Wire mode selector.

BASELINE is the conventional forward layout: header fields then frames,
everything parsed left to right, stream data last inside its frame.
REVERSO flips both levels: each frame's fields are serialized in reverse
order ending with the type byte, the first stream frame's data sits at
plaintext position 0, and the receiver parses right to left. The header
additionally carries the stream id and the whole offset so the receiver
can pick the decryption destination before opening the payload.
"""

import enum


class WireMode(enum.Enum):
    BASELINE = "baseline"
    REVERSO = "reverso"


def parse_mode(text: str) -> WireMode:
    try:
        return WireMode(text.lower())
    except ValueError:
        raise ValueError(f"unknown mode {text!r}; expected baseline or reverso") from None
