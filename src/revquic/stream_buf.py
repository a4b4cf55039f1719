"""Application-owned contiguous receive buffers.

The receive path's goal is that stream data is written exactly once,
into its final place. The AEAD open targets the header's offset in the
stream's storage directly, the tail or a hole past it, leaving the
anchor's type byte and any trailing control frames in the hole as
scratch. A fragment opened elsewhere is copied once to its own offset
in the same storage. The stream keeps a sorted list of the ranges it
has received past the tail, and the watermark moves over a range,
without a copy, once the tail reaches it. One routine, _record_hole,
alone edits the ranges: it records a hole write opened there (commit)
or copied there (place's loop, once per part of a fragment not yet
received). Everything here exists to make that safe: before
authentication the receiver may only write into a hole, in storage
that already exists; commitment happens after.

One handle: storage is a memoryview over a bytearray nothing else
names, so every write is a view assignment, one memmove. A bytearray
slice assignment from a view first copies it into a hidden temporary,
a copy the meter would miss (under tracemalloc a 100 000-byte write
peaks at 100 057 B through the bytearray, at 0 B through the view).

Storage size: a stream starts with DEFAULT_CAPACITY, 256 KiB, the
smallest power of two that holds two full send windows (2 x SEND_WINDOW
x MAX_DATAGRAM = 172 800 B). A stream whose application keeps up never
outgrows it, so in-order data always opens at its offset. A stream that
holds more (a gap pending under loss, an application that does not
consume) makes room in ensure_room, only after the tag verifies: its
live bytes slide to the front of the storage when they then fit, else
move to new storage doubled until they do (on the seed-0 4 MiB,
8-stream lossy simulate: 8 growths and 5 slides, 3 379 550 bytes
moved). Until then a packet past the capacity opens in the datagram and
is copied. Every new stream's first storage is zero-filled before its
first packet can open into it, so this size sets the cost of first
contact and the memory each stream holds whether it uses it or not.
Storage changes size only in ensure_room; consume releases it once the
final size is consumed, and Connection.readable lists a stream whose fin
came after every byte was read, so that consume (of 0 bytes) comes too.

Buffer recycling: the map keeps one spare buffer. The receiver opens a
new stream's first packet into it and binds it to the stream id only
once the packet authenticates, so a flood of forged first-packets costs
zero allocations after the first spare exists.
"""

from __future__ import annotations

from bisect import bisect_right

from .errors import ConsumeOutOfRange, FinalSizeError

DEFAULT_CAPACITY = 1 << 18  # two send windows, rounded up to a power of two
WINDOW = 16 << 20  # a fragment ending further past the tail is dropped
_RELEASED = memoryview(bytearray())  # every finished stream's storage


class StreamRecvBuffer:
    """Contiguous storage for one stream: committed bytes, then the
    ranges received past them.

    Offsets are stream offsets; storage position = offset - base_offset.
    Invariant: base_offset <= consumed_offset <= contiguous_offset <
    every start in starts; committed bytes are never rewritten until
    consumed, and received ranges never until the tail passes them.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.initial_capacity = capacity
        # the one handle on the stream's bytes (see the module docstring)
        self.storage = memoryview(bytearray(capacity))
        self.base_offset = 0
        self.contiguous_offset = 0
        self.consumed_offset = 0
        self.fin_offset: int | None = None
        # the disjoint ranges [starts[i], ends[i]) received past the tail,
        # sorted; touching ranges merge, so none touches another or the tail
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.grows = 0  # storage growths, summed by AppRecvBufMap
        self.bytes_moved = 0  # bytes ensure_room moved to index 0, grown or slid

    def ensure_room(self, end_index: int) -> int:
        """Make storage index end_index fit; returns allocations.

        Storage rebases to consumed_offset: the bytes from there to the
        highest received end move to index 0, within the storage when
        end_index then fits it, else into a fresh bytearray doubled until
        it does (fresh, to sidestep resize failures while views are
        exported). Capacity follows what is unconsumed or pending, not
        the stream's length. Callers recompute their storage indices, and
        a view readable_span gave out before is stale.
        """
        if end_index <= len(self.storage):
            return 0
        lo = self.consumed_offset - self.base_offset
        hi = (self.ends[-1] if self.ends else self.contiguous_offset) - self.base_offset
        src = self.storage
        grow = end_index - lo > len(self.storage)
        if grow:
            new_cap = len(self.storage) or self.initial_capacity
            while new_cap < end_index - lo:
                new_cap *= 2
            self.storage = memoryview(bytearray(new_cap))
            self.grows += 1
        # a memoryview assignment memmoves, so a slide may overlap itself
        self.storage[: hi - lo] = src[lo:hi]
        self.base_offset = self.consumed_offset
        self.bytes_moved += hi - lo
        return int(grow)

    def set_fin(self, final_offset: int) -> None:
        if self.fin_offset is not None and self.fin_offset != final_offset:
            raise FinalSizeError(
                f"final size changed from {self.fin_offset} to {final_offset}"
            )
        received = self.ends[-1] if self.ends else self.contiguous_offset
        if final_offset < received:
            raise FinalSizeError(f"final size {final_offset} below received {received}")
        self.fin_offset = final_offset

    def commit(self, offset: int, end: int, fin) -> bool:
        """Record [offset, end), which the AEAD open wrote into a hole at
        or past the tail, as received without a copy. The footprint ended
        by the next received range with the anchor's type byte past the
        data, so end stays short of that range: the data moves the
        watermark, or _record_hole records it as place records a hole
        write. Returns False, recording nothing, when end lies more than
        WINDOW past the tail: the fragment is dropped, its packet
        unacknowledged."""
        tail = self.contiguous_offset
        if end - tail > WINDOW:
            return False
        if fin:
            self.set_fin(end)
        elif self.fin_offset is not None and end > self.fin_offset:
            raise FinalSizeError(f"data up to {end} past final size {self.fin_offset}")
        if offset == tail:
            self.contiguous_offset = end
        elif offset < end:
            self._record_hole(offset, end)
        return True

    def _record_hole(self, offset: int, end: int, k: int | None = None) -> None:
        """Record [offset, end), written into a hole at or past the tail,
        non-empty; k = bisect_right(ends, offset), the next range's index,
        found here when the caller has not."""
        ends = self.ends
        if ends and ends[-1] == offset:
            # extends the highest range, none past it: under loss, the
            # common case, and it needs no search
            ends[-1] = end
            return
        starts = self.starts
        if k is None:
            k = bisect_right(ends, offset)
        if k < len(starts) and starts[k] == end:  # joins the range past it
            end = ends[k]
            del starts[k], ends[k]
        if offset == self.contiguous_offset:
            self.contiguous_offset = end
        elif k and ends[k - 1] == offset:
            ends[k - 1] = end
        else:
            starts.insert(k, offset)
            ends.insert(k, end)

    def place(self, offset: int, data, fin: bool) -> int:
        """Copy an authenticated fragment to offset - base_offset.

        A fragment in a hole is copied whole and recorded as commit
        records one. Otherwise a loop writes each part not yet received
        as a hole write, jumping over received ranges, so committed and
        received bytes keep their first write. Returns the bytes copied,
        or -1 when the fragment ends more than WINDOW past the tail: it
        is dropped, and its packet goes unacknowledged.
        """
        n = len(data)
        end = offset + n
        tail = self.contiguous_offset
        if end - tail > WINDOW:
            return -1
        if fin:
            self.set_fin(end)
        elif self.fin_offset is not None and end > self.fin_offset:
            raise FinalSizeError(f"data up to {end} past final size {self.fin_offset}")
        base = self.base_offset
        if end - base > len(self.storage):
            self.ensure_room(end - base)
            base = self.base_offset
        starts = self.starts
        if offset == tail and not starts:
            # in order with nothing pending: one write, through the view
            # that is the only handle on storage, so no bytearray slice
            # assignment can add the temporary copy the meter misses
            self.storage[tail - base : end - base] = data
            self.contiguous_offset = end
            return n
        dst = self.storage
        ends = self.ends
        if tail <= offset < end:
            k = bisect_right(ends, offset)
            if k == len(ends) or end <= starts[k]:
                # a hole write: one copy, recorded as commit records it
                dst[offset - base : end - base] = data
                self._record_hole(offset, end, k)
                return n
        # each part not yet received is a hole write; received ranges are skipped
        copied = 0
        cur = offset if offset > tail else tail
        while cur < end:
            k = bisect_right(ends, cur)
            stop = starts[k] if k < len(ends) and starts[k] < end else end
            nxt = ends[k] if k < len(ends) else end
            if cur < stop:
                dst[cur - base : stop - base] = memoryview(data)[cur - offset : stop - offset]
                self._record_hole(cur, stop, k)
                copied += stop - cur
            cur = nxt
        return copied

    def readable_span(self):
        """The committed, unconsumed bytes as (view, length, fin_reached).

        The view aliases storage; it stays valid until the next call
        into the library for this stream.
        """
        start = self.consumed_offset - self.base_offset
        end = self.contiguous_offset - self.base_offset
        fin_reached = self.fin_offset is not None and self.contiguous_offset == self.fin_offset
        return self.storage[start:end], end - start, fin_reached

    def consume(self, n: int) -> None:
        if n < 0 or n > self.contiguous_offset - self.consumed_offset:
            raise ConsumeOutOfRange(
                f"consume {n} of {self.contiguous_offset - self.consumed_offset} readable"
            )
        self.consumed_offset += n
        # slide the window start only when nothing unconsumed or pending
        # remains (those bytes move only in ensure_room); storage keeps
        # its size, except that a finished stream's is released
        if self.consumed_offset == self.contiguous_offset and not self.starts:
            self.base_offset = self.consumed_offset
            if self.fin_offset == self.consumed_offset:
                self.storage = _RELEASED


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

    @property
    def allocations(self) -> int:
        """Buffers created, each bound or the spare as none is dropped,
        plus the growths ensure_room counted among them (a spare never
        grows), so every receive lane of both modes reports them alike."""
        buffers = self.buffers.values()
        return len(buffers) + (self.spare is not None) + sum(b.grows for b in buffers)

    @property
    def bytes_moved(self) -> int:
        """Bytes copied by every storage growth or slide, summed as
        allocations sums them: what making room moves beside the
        protocol's own copies."""
        return sum(b.bytes_moved for b in self.buffers.values())

    def _materialize_spare(self) -> StreamRecvBuffer:
        spare = self.spare
        if spare is None:
            spare = self.spare = StreamRecvBuffer(self.default_capacity)
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
