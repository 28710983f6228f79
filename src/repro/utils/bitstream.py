"""Bit-granular serialization used by the encoders and compressors.

The TEPIC image formats in this project are not byte aligned: operations are
40 bits in the baseline ISA, arbitrary widths in the tailored ISA, and
variable-length Huffman codes in the compressed encodings.  ``BitWriter`` and
``BitReader`` provide the single place where bit packing happens so that the
rest of the code never manipulates raw shifts.

Bits are written most-significant-first within the stream, matching the way
instruction formats are drawn in the paper's Table 2 (bit 0 is the leftmost
``T`` bit).

``BitWriter`` packs into a ``bytearray`` behind a small spill register, so a
stream of n bits costs O(n) total.  The original big-int accumulator — O(n²)
in stream bits because every ``to_int`` re-shifts the whole prefix — survives
only as the test oracle ``tests/oracles.py``; the differential tests prove the
two produce byte-identical streams.
"""

from __future__ import annotations


class BitWriter:
    """Accumulates an MSB-first bit stream and renders it to bytes.

    Complete bytes live in ``_buffer``; the last 0–7 bits wait in the
    ``_acc``/``_nbits`` spill register until a write completes them.
    """

    __slots__ = ("_buffer", "_acc", "_nbits")

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._acc = 0  # pending bits, right-aligned
        self._nbits = 0  # number of pending bits, 0..7

    def __len__(self) -> int:
        """Number of bits written so far."""
        return len(self._buffer) * 8 + self._nbits

    @property
    def bit_length(self) -> int:
        return len(self._buffer) * 8 + self._nbits

    def write(self, value: int, width: int) -> None:
        """Append ``width`` bits holding ``value`` (big-endian bit order)."""
        if width < 0:
            raise ValueError(f"negative width {width}")
        if value < 0:
            raise ValueError(f"negative value {value}; encode sign explicitly")
        if width == 0:
            if value:
                raise ValueError("nonzero value with zero width")
            return
        if value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        acc = (self._acc << width) | value
        nbits = self._nbits + width
        if nbits >= 8:
            spill = nbits & 7
            self._buffer += (acc >> spill).to_bytes((nbits - spill) >> 3,
                                                    "big")
            acc &= (1 << spill) - 1
            nbits = spill
        self._acc = acc
        self._nbits = nbits

    def write_bits(self, bits: str) -> None:
        """Append a string of '0'/'1' characters."""
        for ch in bits:
            if ch == "0":
                self.write(0, 1)
            elif ch == "1":
                self.write(1, 1)
            else:
                raise ValueError(f"invalid bit character {ch!r}")

    def align_to_byte(self) -> int:
        """Pad with zero bits to the next byte boundary; return pad count."""
        pad = (-self.bit_length) % 8
        if pad:
            self.write(0, pad)
        return pad

    def to_int(self) -> int:
        """Return the stream as a single integer (MSB = first bit written)."""
        return (int.from_bytes(self._buffer, "big") << self._nbits) | self._acc

    def to_bytes(self) -> bytes:
        """Return the stream as bytes, zero-padded at the end to a byte."""
        if self._nbits:
            return bytes(self._buffer) + bytes(
                ((self._acc << (8 - self._nbits)),)
            )
        return bytes(self._buffer)

    def to_bitstring(self) -> str:
        """Return the stream as a '0'/'1' string (debugging, tests)."""
        out = "".join(format(b, "08b") for b in self._buffer)
        if self._nbits:
            out += format(self._acc, f"0{self._nbits}b")
        return out


class BitReader:
    """Reads an MSB-first bit stream produced by :class:`BitWriter`."""

    __slots__ = ("_data", "_pos", "_bit_length")

    def __init__(self, data: bytes, bit_length: int | None = None) -> None:
        self._data = data
        self._pos = 0
        max_bits = len(data) * 8
        if bit_length is None:
            bit_length = max_bits
        if bit_length > max_bits:
            raise ValueError(
                f"bit_length {bit_length} exceeds data size {max_bits}"
            )
        self._bit_length = bit_length

    @classmethod
    def from_writer(cls, writer: BitWriter) -> "BitReader":
        return cls(writer.to_bytes(), writer.bit_length)

    @property
    def position(self) -> int:
        """Current bit offset from the start of the stream."""
        return self._pos

    @property
    def bit_length(self) -> int:
        return self._bit_length

    @property
    def remaining(self) -> int:
        return self._bit_length - self._pos

    def seek(self, bit_offset: int) -> None:
        if not 0 <= bit_offset <= self._bit_length:
            raise ValueError(f"seek target {bit_offset} out of range")
        self._pos = bit_offset

    def read(self, width: int) -> int:
        """Read ``width`` bits and return them as an unsigned integer."""
        if width < 0:
            raise ValueError(f"negative width {width}")
        if width == 0:
            return 0
        pos = self._pos
        end = pos + width
        if end > self._bit_length:
            raise EOFError(
                f"read of {width} bits at offset {pos} passes end "
                f"({self._bit_length} bits)"
            )
        # One slice + one int covers the whole span; the tail shift drops
        # the bits past ``end`` inside the last byte.
        first = pos >> 3
        last = (end - 1) >> 3
        chunk = int.from_bytes(self._data[first : last + 1], "big")
        self._pos = end
        return (chunk >> (((last + 1) << 3) - end)) & ((1 << width) - 1)

    def read_bit(self) -> int:
        return self.read(1)

    def align_to_byte(self) -> int:
        """Skip to the next byte boundary; return number of bits skipped."""
        skip = (-self._pos) % 8
        if skip:
            self.read(skip)
        return skip
