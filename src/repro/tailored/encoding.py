"""Tailored-ISA image re-encoding.

:class:`TailoredScheme` implements the same interface as the Huffman
compressors so the experiment layer treats every encoding uniformly, but
it performs *no entropy coding*: each op is its fixed tailored width
(header + narrowed format body).  Decoding therefore needs no dictionary
— only the PLA programmed from the spec (see
:mod:`repro.tailored.verilog`), which is the paper's argument for the
scheme's low hardware cost.
"""

from __future__ import annotations

from typing import Optional

from repro.compression.schemes import CompressedImage, CompressionScheme
from repro.errors import CompressionError
from repro.isa.formats import FORMATS
from repro.isa.image import ProgramImage
from repro.isa.operation import Operation
from repro.tailored.analysis import TailoredSpec, analyze_image
from repro.utils.bitstream import BitReader, BitWriter


class TailoredImage(CompressedImage):
    """A compressed image that also carries its tailored spec."""

    def __init__(self, spec: TailoredSpec, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.spec = spec


class TailoredScheme(CompressionScheme):
    """Re-encode a program in its custom-tailored ISA."""

    name = "tailored"

    def __init__(self) -> None:
        super().__init__(max_code_length=None)

    # ------------------------------------------------------------ encode
    def compress(self, image: ProgramImage) -> TailoredImage:
        spec = analyze_image(image)
        payloads = []
        bit_lengths = []
        for block in image:
            writer = BitWriter()
            for op in block.ops:
                self._encode_op(spec, op, writer)
            bit_lengths.append(writer.bit_length)
            writer.align_to_byte()
            payloads.append(writer.to_bytes())
        return TailoredImage(
            spec, self, image, payloads, bit_lengths, streams=()
        )

    def _encode_op(
        self, spec: TailoredSpec, op: Operation, writer: BitWriter
    ) -> None:
        writer.write(int(op.tail), 1)
        if spec.speculative_used:
            writer.write(int(op.speculative), 1)
        writer.write(spec.opcode_selector[op.opcode], spec.selector_width)
        tf = spec.formats[op.opcode.format_name]
        values = op.field_values()
        for fu in tf.fields:
            width = fu.tailored_width
            if width == 0:
                continue
            if fu.signed:
                raw = (op.imm or 0) & ((1 << width) - 1)
            else:
                raw = values[fu.name]
            writer.write(raw, width)

    # ------------------------------------------------------------ decode
    def decode_block(
        self, compressed: CompressedImage, block_id: int
    ) -> list[int]:
        if not isinstance(compressed, TailoredImage):
            raise CompressionError(
                "tailored decode requires a TailoredImage"
            )
        spec = compressed.spec
        reader = BitReader(compressed.block_bytes(block_id))
        block = compressed.image.block(block_id)
        return [
            self._decode_op(spec, reader) for _ in range(block.op_count)
        ]

    def _decode_op(self, spec: TailoredSpec, reader: BitReader) -> int:
        tail = reader.read(1)
        spec_bit = reader.read(1) if spec.speculative_used else 0
        selector = reader.read(spec.selector_width)
        opcode = spec.opcode_for_selector(selector)
        fmt = FORMATS[opcode.format_name]
        values: dict[str, int] = {
            "t": tail,
            "s": spec_bit,
            "opt": opcode.optype.value,
            "opcode": opcode.code,
        }
        tf = spec.formats[opcode.format_name]
        for fu in tf.fields:
            width = fu.tailored_width
            if width == 0:
                values[fu.name] = 0
                continue
            raw = reader.read(width)
            if fu.signed and raw & (1 << (width - 1)):
                raw -= 1 << width
            if fu.signed:
                values[fu.name] = raw & 0xFFFFF  # back to 20-bit field
            else:
                values[fu.name] = raw
        return fmt.encode(values)


def tailor_image(image: ProgramImage) -> TailoredImage:
    """Convenience: compress ``image`` under its tailored ISA."""
    return TailoredScheme().compress(image)


def tailored_ratio(image: ProgramImage) -> float:
    """Code-segment size as % of baseline under the tailored ISA."""
    return tailor_image(image).ratio_percent()


def spec_for(image: ProgramImage) -> Optional[TailoredSpec]:
    return analyze_image(image)
