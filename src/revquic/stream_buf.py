"""Application-owned contiguous receive buffers.

The receive path's goal is that in-order stream data is written exactly
once: the AEAD open targets the stream's contiguous tail directly, and
the footer bytes that follow the data are treated as scratch to be
overwritten by the next packet. Everything here exists to make that
safe: before authentication the receiver may only write past the
committed region; commitment happens after.

Buffer recycling: the map keeps one spare buffer. The receiver opens a
new stream's first packet into it and binds it to the stream id only
once the packet authenticates, so a flood of forged first-packets costs
zero allocations after the first spare exists.
"""

from __future__ import annotations

from bisect import bisect_right

from .errors import ConsumeOutOfRange, FinalSizeError

DEFAULT_CAPACITY = 1 << 20
STASH_CAP = 16 << 20  # per stream; beyond this fragments are dropped


class StreamRecvBuffer:
    """Contiguous storage for one stream plus its out-of-order stash.

    Offsets are stream offsets; storage position = offset - base_offset.
    Invariant: base_offset <= consumed_offset <= contiguous_offset, and
    storage between the consumed and contiguous watermarks is never
    rewritten until consumed.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.storage = bytearray(capacity)
        # one view serves every AEAD destination slice; building a view
        # per packet costs more than slicing this one
        self.storage_view = memoryview(self.storage)
        self.base_offset = 0
        self.contiguous_offset = 0
        self.consumed_offset = 0
        self.scratch_end = 0  # storage index past the last decrypt footprint
        self.fin_offset: int | None = None
        self.stash = OooStash()
        self.grows = 0  # storage reallocations, summed by AppRecvBufMap

    @property
    def capacity(self) -> int:
        return len(self.storage)

    def ensure_room(self, end_index: int) -> int:
        """Grow storage (doubling) so end_index fits; returns allocations."""
        if end_index <= len(self.storage):
            return 0
        new_cap = len(self.storage)
        while new_cap < end_index:
            new_cap *= 2
        # a fresh bytearray sidesteps resize failures while views are
        # exported; only committed bytes move, and this is allocator
        # traffic, not payload copying
        fresh = bytearray(new_cap)
        live = self.contiguous_offset - self.base_offset
        fresh[:live] = self.storage[:live]
        self.storage = fresh
        self.storage_view = memoryview(fresh)
        self.grows += 1
        return 1

    def set_fin(self, final_offset: int) -> None:
        if self.fin_offset is not None and self.fin_offset != final_offset:
            raise FinalSizeError(
                f"final size changed from {self.fin_offset} to {final_offset}"
            )
        if final_offset < self.contiguous_offset:
            raise FinalSizeError(
                f"final size {final_offset} below received {self.contiguous_offset}"
            )
        self.fin_offset = final_offset

    def commit_zero_copy(self, end: int, fin: bool, scratch_end: int) -> int:
        """Advance the watermark to stream offset end over data decrypted
        at the contiguous tail.

        The data was written by the AEAD open itself; no copy happens
        for it. scratch_end is the storage index past the full plaintext
        footprint (data, footer, any trailing frames), all of which
        becomes scratch past the new watermark. The caller has both
        values at hand, which keeps this per-packet call short. Returns
        bytes copied by draining newly contiguous stash entries.
        """
        if fin:
            self.set_fin(end)
        elif self.fin_offset is not None and end > self.fin_offset:
            raise FinalSizeError("data past final size")
        self.contiguous_offset = end
        if self.scratch_end < scratch_end:
            self.scratch_end = scratch_end
        if self.stash._offsets:
            return self._drain_stash()
        return 0

    def append_in_order(self, data, fin: bool) -> int:
        """Copy data to the contiguous tail (reassembly path).

        Returns bytes copied, including any stash drains it unlocks.
        """
        n = len(data)
        if fin:
            self.set_fin(self.contiguous_offset + n)
        elif self.fin_offset is not None and self.contiguous_offset + n > self.fin_offset:
            raise FinalSizeError("data past final size")
        dest = self.contiguous_offset - self.base_offset
        if dest + n > len(self.storage):
            self.ensure_room(dest + n)
        self.storage[dest : dest + n] = data
        self.contiguous_offset += n
        if self.scratch_end < dest + n:
            self.scratch_end = dest + n
        if not self.stash._offsets:
            return n
        return n + self._drain_stash()

    def stash_out_of_order(self, offset: int, data, fin: bool) -> int:
        """Hold a fragment that arrived past the contiguous tail.

        Overlap with committed data or existing entries is trimmed, so
        the stash stays disjoint. Returns bytes copied into the stash;
        sets stash_overflow when the cap forces a drop.
        """
        if fin:
            self.set_fin(offset + len(data))
        return self.stash.insert(offset, data, self.contiguous_offset)

    def _drain_stash(self) -> int:
        copied = 0
        while True:
            entry = self.stash.pop_contiguous(self.contiguous_offset)
            if entry is None:
                break
            offset, data = entry
            skip = self.contiguous_offset - offset
            chunk = memoryview(data)[skip:]
            dest = self.contiguous_offset - self.base_offset
            self.ensure_room(dest + len(chunk))
            self.storage[dest : dest + len(chunk)] = chunk
            self.contiguous_offset += len(chunk)
            if self.scratch_end < dest + len(chunk):
                self.scratch_end = dest + len(chunk)
            copied += len(chunk)
        return copied

    def readable_span(self):
        """The committed, unconsumed bytes as (view, length, fin_reached).

        The view aliases storage; it stays valid until the next call
        into the library for this stream.
        """
        start = self.consumed_offset - self.base_offset
        end = self.contiguous_offset - self.base_offset
        fin_reached = self.fin_offset is not None and self.contiguous_offset == self.fin_offset
        return self.storage_view[start:end], end - start, fin_reached

    def consume(self, n: int) -> None:
        if n < 0 or n > self.contiguous_offset - self.consumed_offset:
            raise ConsumeOutOfRange(
                f"consume {n} of {self.contiguous_offset - self.consumed_offset} readable"
            )
        self.consumed_offset += n
        # slide the window start only when nothing unconsumed remains;
        # unconsumed bytes are never relocated
        if self.consumed_offset == self.contiguous_offset:
            self.base_offset = self.consumed_offset
            self.scratch_end = 0


class OooStash:
    """Disjoint out-of-order fragments ordered by stream offset."""

    def __init__(self) -> None:
        self._offsets: list[int] = []
        self._chunks: list[bytearray] = []
        self.total_bytes = 0
        self.overflowed = False

    def __len__(self) -> int:
        return len(self._offsets)

    def insert(self, offset: int, data, contiguous: int) -> int:
        data = memoryview(data)
        # trim anything at or below the contiguous watermark
        if offset < contiguous:
            skip = contiguous - offset
            if skip >= len(data):
                return 0
            data = data[skip:]
            offset += skip
        copied = 0
        i = bisect_right(self._offsets, offset)
        # predecessor may swallow our head
        if i > 0:
            prev_end = self._offsets[i - 1] + len(self._chunks[i - 1])
            if prev_end > offset:
                if prev_end - offset >= len(data):
                    return 0
                data = data[prev_end - offset :]
                offset = prev_end
        # walk successors, storing only the uncovered pieces
        while len(data) > 0:
            if i < len(self._offsets):
                nxt_off = self._offsets[i]
                if nxt_off <= offset:
                    covered = nxt_off + len(self._chunks[i]) - offset
                    if covered >= len(data):
                        return copied
                    data = data[covered:]
                    offset += covered
                    i += 1
                    continue
                if nxt_off < offset + len(data):
                    piece = data[: nxt_off - offset]
                    copied += self._store(i, offset, piece)
                    i += 1
                    data = data[len(piece) :]
                    offset = nxt_off
                    continue
            copied += self._store(i, offset, data)
            break
        return copied

    def _store(self, index: int, offset: int, data) -> int:
        if self.total_bytes + len(data) > STASH_CAP:
            self.overflowed = True
            return 0
        self._offsets.insert(index, offset)
        self._chunks.insert(index, bytearray(data))
        self.total_bytes += len(data)
        return len(data)

    def pop_contiguous(self, contiguous: int):
        """Remove and return (offset, data) if the first entry touches
        the contiguous watermark, else None."""
        while self._offsets:
            offset = self._offsets[0]
            chunk = self._chunks[0]
            if offset > contiguous:
                return None
            self._offsets.pop(0)
            self._chunks.pop(0)
            self.total_bytes -= len(chunk)
            if offset + len(chunk) > contiguous:
                return offset, chunk
            # entirely stale; discard and keep looking
        return None

    def take_overflow(self) -> bool:
        flag = self.overflowed
        self.overflowed = False
        return flag


class AppRecvBufMap:
    """Per-stream receive buffers plus the recycling spare.

    The spare exists before any packet is examined; the receiver opens a
    fresh stream's first packet into it and binds it only after the tag
    verifies, keeping the allocation count flat under forged-packet
    floods.
    """

    def __init__(self, default_capacity: int = DEFAULT_CAPACITY) -> None:
        self.default_capacity = default_capacity
        self.buffers: dict[int, StreamRecvBuffer] = {}
        self.spare: StreamRecvBuffer | None = StreamRecvBuffer(default_capacity)
        self._created = 1

    @property
    def allocations(self) -> int:
        """Buffers created plus every storage growth among them.

        Growth is counted where it happens, in ensure_room, so every
        receive lane of both modes reports it alike.
        """
        held = list(self.buffers.values())
        if self.spare is not None:
            held.append(self.spare)
        return self._created + sum(b.grows for b in held)

    def _materialize_spare(self) -> StreamRecvBuffer:
        spare = self.spare
        if spare is None:
            spare = self.spare = StreamRecvBuffer(self.default_capacity)
            self._created += 1
        return spare

    def adopt(self, stream_id: int) -> StreamRecvBuffer:
        """Buffer for a stream, binding the spare (or a fresh one) on
        first sight; callers bind only authenticated stream ids."""
        buf = self.buffers.get(stream_id)
        if buf is None:
            buf = self._materialize_spare()
            self.spare = None
            self.buffers[stream_id] = buf
        return buf

    def get(self, stream_id: int) -> StreamRecvBuffer | None:
        return self.buffers.get(stream_id)
