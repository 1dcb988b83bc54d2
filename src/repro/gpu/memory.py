"""Simulated global memory: a flat 64-bit address space over numpy buffers.

Pointers in the simulator are plain 64-bit addresses.  Each allocation
reserves an aligned region; loads/stores gather/scatter through numpy and
record coalescing statistics (32-byte transaction segments per warp access),
which feed the memory-latency model in :mod:`repro.gpu.timing`.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Memory transaction segment size in bytes (V100 L2 sector granularity).
SEGMENT_BYTES = 32

_DTYPES = {
    "i8": np.int8,
    "i16": np.int16,
    "i32": np.int32,
    "i64": np.int64,
    "f32": np.float32,
    "f64": np.float64,
}


@dataclass
class Buffer:
    """One allocation in the flat address space."""

    name: str
    start: int
    elem_size: int
    data: np.ndarray
    end: int = field(init=False)  # One past the last mapped byte.

    def __post_init__(self) -> None:
        self.end = self.start + self.data.size * self.elem_size


#: Everything a launch can read of a memory: the buffer layout — (name,
#: start, dtype, count) per buffer — and a copy of each buffer's bytes.
MemoryImage = Tuple[Tuple[Tuple[str, int, str, int], ...], Tuple[bytes, ...]]

#: What a launch wrote: (buffer index, its bytes afterwards) per buffer
#: that changed.
MemoryChanges = Tuple[Tuple[int, bytes], ...]


@dataclass
class MemoryStats:
    """Traffic counters, summed over every access to the memory (a
    launch reports the difference across it)."""

    load_requests: int = 0
    store_requests: int = 0
    load_transactions: int = 0
    store_transactions: int = 0
    bytes_loaded: int = 0
    bytes_stored: int = 0


class Memory:
    """Flat simulated device memory."""

    def __init__(self) -> None:
        #: Allocation is address-monotonic: ``_starts[i]`` is
        #: ``_buffers[i].start``, ascending, for ``_find`` to bisect.
        self._buffers: List[Buffer] = []
        self._starts: List[int] = []
        self._by_name: Dict[str, Buffer] = {}
        self._next_addr = 0x1000  # Null page stays unmapped.
        self.stats = MemoryStats()

    # -- allocation --------------------------------------------------------
    def alloc(self, name: str, dtype: str, count: int,
              init: Optional[np.ndarray] = None) -> int:
        """Allocate ``count`` elements of ``dtype``; returns the base address."""
        np_dtype = _DTYPES[dtype]
        elem_size = np.dtype(np_dtype).itemsize
        if init is not None:
            data = np.ascontiguousarray(init, dtype=np_dtype).copy()
            if data.size != count:
                raise ValueError(
                    f"initializer size {data.size} != count {count}")
        else:
            data = np.zeros(count, dtype=np_dtype)
        start = (self._next_addr + 255) & ~255  # 256-byte alignment.
        buf = Buffer(name, start, elem_size, data)
        self._next_addr = buf.end
        self._buffers.append(buf)
        self._starts.append(start)
        self._by_name[name] = buf
        return start

    def buffer(self, name: str) -> Buffer:
        return self._by_name[name]

    def read_back(self, name: str) -> np.ndarray:
        """Copy of a buffer's current contents (host-side view)."""
        return self._by_name[name].data.copy()

    # -- images --------------------------------------------------------------
    def layout(self) -> Tuple[Tuple[str, int, str, int], ...]:
        """(name, start, dtype, count) per buffer, in address order."""
        return tuple((buf.name, buf.start, buf.data.dtype.str, buf.data.size)
                     for buf in self._buffers)

    def image(self) -> MemoryImage:
        """The layout and a copy of every buffer's bytes."""
        return (self.layout(),
                tuple(buf.data.tobytes() for buf in self._buffers))

    def digest(self) -> int:
        """A checksum of :meth:`image`, taken without copying it.  Equal
        images check equal; a caller that acts on an equal digest still
        compares the images (:meth:`matches`), so a CRC — several times
        cheaper than a cryptographic hash — is enough."""
        crc = zlib.crc32(repr(self.layout()).encode())
        for buf in self._buffers:
            crc = zlib.crc32(buf.data, crc)
        return crc

    def matches(self, image: MemoryImage) -> bool:
        """The memory holds ``image``, layout and every byte."""
        return self.image() == image

    def changes_since(self, image: MemoryImage) -> Optional[MemoryChanges]:
        """The buffers whose bytes differ from ``image``; None when the
        layout changed (a buffer was allocated since)."""
        layout, before = image
        if self.layout() != layout:
            return None
        changed = []
        for index, (buf, old) in enumerate(zip(self._buffers, before)):
            now = buf.data.tobytes()
            if now != old:
                changed.append((index, now))
        return tuple(changed)

    def restore(self, changes: Sequence[Tuple[int, bytes]]) -> None:
        """Write back what :meth:`changes_since` returned, on a memory
        of the same layout."""
        for index, data in changes:
            buf = self._buffers[index]
            buf.data[:] = np.frombuffer(data, dtype=buf.data.dtype)

    # -- access --------------------------------------------------------------
    def _find(self, addr: int) -> Buffer:
        i = bisect_right(self._starts, addr) - 1
        if i >= 0 and addr < self._buffers[i].end:
            return self._buffers[i]
        # The null page, a gap between aligned buffers, one past an end.
        raise MemoryError(f"simulated segfault: address {addr:#x} unmapped")

    def _resolve(self, addrs: np.ndarray, mask: np.ndarray):
        """What one warp access touches.

        Returns ``(lane_addrs, lanes, buf)``: the active lanes' addresses
        as an array and as Python ints (at most 32, so bounds and
        segments are cheaper on ints than through numpy), and the buffer
        that holds them all — None when they span buffers (the per-lane
        slow path) or no lane is active.
        """
        lane_addrs = addrs[mask]
        lanes = lane_addrs.tolist()
        buf = None
        if lanes:
            buf = self._find(lanes[0])
            if not (buf.start <= min(lanes) and max(lanes) < buf.end):
                buf = None
        return lane_addrs, lanes, buf

    def load(self, addrs: np.ndarray, mask: np.ndarray,
             elem_size: int) -> Tuple[np.ndarray, int]:
        """Gather one element per active lane (``mask`` is boolean).

        Returns ``(values, transactions)`` where values for inactive lanes
        are zero and ``transactions`` is the number of 32-byte segments the
        warp access touched (the coalescing metric).
        """
        lane_addrs, lanes, buf = self._resolve(addrs, mask)
        if not lanes:
            # Nothing is touched; the zero fill takes the element type of
            # the buffer lane 0 points into (float64, as on the per-lane
            # path, when it points nowhere).
            try:
                dtype = self._find(int(addrs[0])).data.dtype
            except MemoryError:
                dtype = np.float64
            return np.zeros(addrs.shape[0], dtype=dtype), 0
        if buf is not None:
            out = buf.data[(lane_addrs - buf.start) // buf.elem_size]
            if len(lanes) != addrs.shape[0]:
                gathered = out
                out = np.zeros(addrs.shape[0], dtype=gathered.dtype)
                out[mask] = gathered
        else:
            out = np.zeros(addrs.shape[0], dtype=np.float64)
            for lane, addr in zip(np.flatnonzero(mask).tolist(), lanes):
                buf = self._find(addr)
                out[lane] = buf.data[(addr - buf.start) // buf.elem_size]
        transactions = len({addr // SEGMENT_BYTES for addr in lanes})
        self.stats.load_requests += 1
        self.stats.load_transactions += transactions
        self.stats.bytes_loaded += len(lanes) * elem_size
        return out, transactions

    def store(self, addrs: np.ndarray, values: np.ndarray,
              mask: np.ndarray, elem_size: int) -> int:
        """Scatter one element per active lane; returns transaction count."""
        lane_addrs, lanes, buf = self._resolve(addrs, mask)
        if not lanes:
            return 0
        if buf is not None:
            buf.data[(lane_addrs - buf.start) // buf.elem_size] = values[mask]
        else:
            for lane, addr in zip(np.flatnonzero(mask).tolist(), lanes):
                buf = self._find(addr)
                buf.data[(addr - buf.start) // buf.elem_size] = values[lane]
        transactions = len({addr // SEGMENT_BYTES for addr in lanes})
        self.stats.store_requests += 1
        self.stats.store_transactions += transactions
        self.stats.bytes_stored += len(lanes) * elem_size
        return transactions
