"""Versioned streaming binary codec for per-warp instruction/address traces.

A trace file is a gzip stream (written with ``mtime=0`` so identical content
produces identical bytes) wrapping a struct-packed payload::

    magic      8s   b"POISETRC"
    version    <H   format version (currently 1)
    flags      <H   reserved, must be 0
    meta_len   <I   length of the metadata blob
    meta       ...  UTF-8 JSON object (kernel name, source, counts, ...)
    num_warps  <I
    num_warps warp sections, each:
        0xA0   <I warp_id   (each of 0 .. num_warps-1 exactly once)
        records:
            0x01  ALU      <I pc
            0x02  LOAD     <I pc  <H dep_distance  <Q line_addr
            0x03  ALU_RUN  <I count  <I pc_start   (pcs pc_start .. +count-1)
        0xAF   end of warp
    0xEE  end of trace

Consecutive ALU instructions with sequential PCs — the overwhelmingly common
pattern — collapse into one ``ALU_RUN`` record, so a multi-million-instruction
trace stays compact even before gzip.

Writing packs each warp section into one buffer, one ``Struct.pack`` per
record, and hands it to the gzip stream in one write, compressed at zlib's
default level (:data:`COMPRESS_LEVEL`).  The content hash is defined over
the *uncompressed* payload, so the compression level changes the file's
bytes but never a hash, a cache key or a pinned ``trace_hash``.

Reading is *streaming and lazy per warp*: :class:`TraceReader` reads the
decompressed payload in 64 KiB blocks (:data:`_BLOCK_SIZE`), hashing each
block once, and parses records in place with ``Struct.unpack_from``.  It
decodes one warp section at a time, so iterating a huge trace holds one
block, one warp's program and the interned loads, never the whole kernel
(:func:`trace_stats` keeps only per-warp counts).  ALU runs decode to slices of
the interned ALU table (:func:`repro.gpu.isa.alu_run`), and equal LOAD records
decode to one shared instruction per reader (up to :data:`_LOAD_INTERN_LIMIT`
distinct ones).  Truncated, corrupted or wrong-version files raise
:class:`TraceFormatError` — never garbage programs.

Everything here is stdlib-only (``struct`` + ``gzip`` + ``json``).
"""

from __future__ import annotations

import gzip
import hashlib
import json
import struct
import zlib
from collections.abc import Sequence
from pathlib import Path
from typing import Any, BinaryIO, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.gpu.isa import Instruction, Opcode, alu, alu_run, load

MAGIC = b"POISETRC"
FORMAT_VERSION = 1
TRACE_SUFFIX = ".trc"

#: zlib level of the gzip stream: the default, about as small as level 9
#: (0.3% larger on the chip-graph traces) for a twelfth of its CPU time.
COMPRESS_LEVEL = 6

_REC_ALU = 0x01
_REC_LOAD = 0x02
_REC_ALU_RUN = 0x03
_WARP_START = 0xA0
_WARP_END = 0xAF
_TRACE_END = 0xEE

_HEADER = struct.Struct("<8sHHI")
_U32 = struct.Struct("<I")
#: Whole records, kind byte included (a warp start has the ALU's layout).
_ALU_RECORD = struct.Struct("<BI")
_LOAD_RECORD = struct.Struct("<BIHQ")
_RUN_RECORD = struct.Struct("<BII")

_MAX_PC = (1 << 32) - 1
_MAX_DEP = (1 << 16) - 1
_MAX_ADDR = (1 << 64) - 1

#: Bytes of decompressed payload the reader takes from gzip per read.
_BLOCK_SIZE = 1 << 16
#: The longest record, a LOAD: the reader keeps this many bytes buffered
#: ahead of each record until the payload runs out.
_MAX_RECORD = _LOAD_RECORD.size
#: Distinct LOAD records a reader interns; later ones decode to fresh
#: instructions, so a trace of unique loads cannot grow the table unbounded.
_LOAD_INTERN_LIMIT = 1 << 16

#: The writer tests ``opcode is _LOAD`` rather than the ``is_load``
#: property, which costs a call per instruction.
_LOAD = Opcode.LOAD


class TraceFormatError(ValueError):
    """A trace file is malformed: wrong magic/version, truncated or corrupt."""


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


class _HashingSink:
    """Forwards writes to the gzip stream while hashing the uncompressed bytes.

    The trace's content hash is defined over the *uncompressed* payload, so it
    is independent of gzip implementation details and compression level.
    """

    def __init__(self, stream: BinaryIO) -> None:
        self.stream = stream
        self.digest = hashlib.sha256()

    def write(self, data: bytes) -> None:
        self.digest.update(data)
        self.stream.write(data)


def _alu_record(run_start: int, run_length: int) -> bytes:
    """The record of ``run_length`` sequential-pc ALUs from ``run_start``."""
    if run_length == 1:
        return _ALU_RECORD.pack(_REC_ALU, run_start)
    return _RUN_RECORD.pack(_REC_ALU_RUN, run_length, run_start)


class TraceWriter:
    """Streams per-warp instruction sequences into a trace file.

    Usage::

        with TraceWriter(path, meta={"kernel": "mvt_k0"}, num_warps=24) as w:
            for warp_id, program in enumerate(programs):
                w.write_warp(warp_id, program)
        print(w.content_hash)

    ``write_warp`` accepts any iterable of :class:`Instruction`, so a capture
    or a generator can stream instructions without holding the whole kernel
    in memory.  The writer refuses out-of-range fields (pc, dep_distance,
    address) and warp ids outside ``[0, num_warps)`` or written twice,
    instead of silently writing a file its reader would refuse.
    """

    def __init__(self, path: Union[str, Path], meta: Dict[str, Any], num_warps: int) -> None:
        if num_warps < 0:
            raise ValueError("num_warps must be non-negative")
        self.path = Path(path)
        self.num_warps = num_warps
        self._warp_ids: set = set()
        self._closed = False
        self.content_hash: Optional[str] = None
        self._gzip = gzip.GzipFile(
            filename="",
            mode="wb",
            fileobj=open(self.path, "wb"),
            compresslevel=COMPRESS_LEVEL,
            mtime=0,
        )
        self._sink = _HashingSink(self._gzip)
        meta_blob = json.dumps(meta or {}, sort_keys=True, separators=(",", ":")).encode("utf-8")
        self._sink.write(
            _HEADER.pack(MAGIC, FORMAT_VERSION, 0, len(meta_blob))
            + meta_blob
            + _U32.pack(num_warps)
        )

    # -- context manager ---------------------------------------------------------

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()

    # -- writing -----------------------------------------------------------------

    def write_warp(self, warp_id: int, instructions: Iterable[Instruction]) -> int:
        """Append one warp section; returns the number of instructions written.

        The section is packed into one buffer and written once, so a warp
        the writer refuses leaves nothing of itself in the stream.
        """
        if self._closed:
            raise ValueError("trace writer is closed")
        # In-range, distinct ids also cap the sections at num_warps.
        if not 0 <= warp_id < self.num_warps:
            raise ValueError(f"warp id {warp_id} outside [0, {self.num_warps})")
        if warp_id in self._warp_ids:
            raise ValueError(f"duplicate warp id {warp_id}")
        section = bytearray(_ALU_RECORD.pack(_WARP_START, warp_id))
        count = 0
        run_start = 0
        run_length = 0
        for instruction in instructions:
            pc = instruction.pc
            if not 0 <= pc <= _MAX_PC:
                raise ValueError(f"pc {pc} out of the codec's 32-bit range")
            if instruction.opcode is _LOAD:
                if run_length:
                    section += _alu_record(run_start, run_length)
                    run_length = 0
                dep_distance = instruction.dep_distance
                if not 0 <= dep_distance <= _MAX_DEP:
                    raise ValueError(
                        f"dep_distance {dep_distance} out of the codec's 16-bit range"
                    )
                line_addr = instruction.line_addr
                if not 0 <= line_addr <= _MAX_ADDR:
                    raise ValueError(
                        f"line address {line_addr} out of the codec's 64-bit range"
                    )
                section += _LOAD_RECORD.pack(_REC_LOAD, pc, dep_distance, line_addr)
            elif run_length and pc == run_start + run_length:
                run_length += 1  # extend the current sequential-PC ALU run
            else:
                if run_length:
                    section += _alu_record(run_start, run_length)
                run_start, run_length = pc, 1
            count += 1
        if run_length:
            section += _alu_record(run_start, run_length)
        section.append(_WARP_END)
        self._sink.write(section)
        self._warp_ids.add(warp_id)
        return count

    def close(self) -> str:
        """Finalise the trace; returns the content hash of the payload."""
        if self._closed:
            assert self.content_hash is not None
            return self.content_hash
        if len(self._warp_ids) != self.num_warps:
            self.abort()
            raise ValueError(
                f"trace declared {self.num_warps} warps but {len(self._warp_ids)} were written"
            )
        self._sink.write(bytes((_TRACE_END,)))
        self.content_hash = self._sink.digest.hexdigest()
        raw = self._gzip.fileobj
        self._gzip.close()
        raw.close()
        self._closed = True
        return self.content_hash

    def abort(self) -> None:
        """Close the underlying file without finalising (leaves a torn file)."""
        if not self._closed:
            raw = self._gzip.fileobj
            self._gzip.close()
            raw.close()
            self._closed = True


def write_trace(
    path: Union[str, Path],
    programs: Iterable[Iterable[Instruction]],
    meta: Optional[Dict[str, Any]] = None,
) -> str:
    """Write complete per-warp programs to ``path``; returns the content hash.

    Programs that are already sequences (lists, lazily filled warp
    programs) are written as they are; only one-shot iterables are copied.
    """
    programs = [
        program if isinstance(program, Sequence) else list(program) for program in programs
    ]
    meta = dict(meta or {})
    meta.setdefault("instruction_counts", [len(program) for program in programs])
    with TraceWriter(path, meta=meta, num_warps=len(programs)) as writer:
        for warp_id, program in enumerate(programs):
            writer.write_warp(warp_id, program)
    assert writer.content_hash is not None
    return writer.content_hash


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


class TraceReader:
    """Streaming reader: header eagerly, warp sections lazily one at a time."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._digest = hashlib.sha256()
        #: The buffered payload and the offset of its first unparsed byte.
        self._buffer = b""
        self._offset = 0
        #: Interned LOAD instructions, keyed by their 14-byte record body.
        self._loads: Dict[bytes, Instruction] = {}
        try:
            self._stream: BinaryIO = gzip.open(self.path, "rb")
        except OSError as error:
            raise TraceFormatError(f"cannot open trace {self.path}: {error}") from error
        try:
            header = self._take(_HEADER.size)
            magic, version, flags, meta_len = _HEADER.unpack(header)
            if magic != MAGIC:
                raise TraceFormatError(f"{self.path} is not a Poise trace (bad magic)")
            if version != FORMAT_VERSION:
                raise TraceFormatError(
                    f"{self.path} has unsupported trace format version {version} "
                    f"(this codec reads version {FORMAT_VERSION})"
                )
            if flags != 0:
                raise TraceFormatError(f"{self.path} uses unknown trace flags 0x{flags:04x}")
            try:
                self.meta: Dict[str, Any] = json.loads(self._take(meta_len).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise TraceFormatError(f"{self.path} has a corrupt metadata block") from error
            (self.num_warps,) = _U32.unpack(self._take(4))
        except TraceFormatError:
            self.close()
            raise

    def close(self) -> None:
        try:
            self._stream.close()
        except OSError:
            pass

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- low-level ----------------------------------------------------------------

    def _read_block(self) -> bytes:
        """The next block of the decompressed payload (empty at its end),
        hashed as it is read.  Every failure mode — gzip CRC errors, torn
        members, I/O errors — becomes a TraceFormatError."""
        try:
            block = self._stream.read(_BLOCK_SIZE)
        except (EOFError, zlib.error, gzip.BadGzipFile, OSError) as error:
            raise TraceFormatError(f"{self.path} is truncated or corrupt: {error}") from error
        self._digest.update(block)
        return block

    def _fill(self, size: int) -> None:
        """Buffer at least ``size`` unparsed bytes, or all that remain of
        the payload when fewer do."""
        while len(self._buffer) - self._offset < size:
            block = self._read_block()
            if not block:
                return
            self._buffer = self._buffer[self._offset:] + block
            self._offset = 0

    def _take(self, size: int) -> bytes:
        """The next ``size`` payload bytes; a short payload is a truncated file."""
        self._fill(size)
        start = self._offset
        if len(self._buffer) - start < size:
            raise TraceFormatError(f"{self.path} is truncated (unexpected end of stream)")
        self._offset = start + size
        return self._buffer[start:self._offset]

    # -- iteration ----------------------------------------------------------------

    def iter_warps(self) -> Iterator[Tuple[int, List[Instruction]]]:
        """Yield ``(warp_id, program)`` one warp at a time.

        Only the warp currently being yielded is materialised; callers that
        stream (e.g. ``trace info``) can process arbitrarily large traces in
        bounded memory.  A warp id outside ``[0, num_warps)`` or seen twice
        raises TraceFormatError.
        """
        seen = set()
        loads = self._loads
        # The record loop runs once per record: bind what it calls.
        unpack_load = _LOAD_RECORD.unpack_from
        unpack_run = _RUN_RECORD.unpack_from
        unpack_alu = _ALU_RECORD.unpack_from
        load_size, run_size, alu_size = _MAX_RECORD, _RUN_RECORD.size, _ALU_RECORD.size
        for _ in range(self.num_warps):
            marker = self._take(1)[0]
            if marker != _WARP_START:
                raise TraceFormatError(
                    f"{self.path}: expected warp section, found record 0x{marker:02x}"
                )
            (warp_id,) = _U32.unpack(self._take(4))
            if warp_id >= self.num_warps:
                raise TraceFormatError(
                    f"{self.path}: warp id {warp_id} outside [0, {self.num_warps})"
                )
            if warp_id in seen:
                raise TraceFormatError(f"{self.path}: duplicate warp id {warp_id}")
            seen.add(warp_id)
            program: List[Instruction] = []
            append = program.append
            buffer, offset = self._buffer, self._offset
            # Every record starting at or before ``whole`` is in the buffer.
            whole = len(buffer) - load_size
            try:
                while True:
                    if offset > whole:
                        self._offset = offset
                        self._fill(load_size)
                        buffer, offset = self._buffer, self._offset
                        whole = len(buffer) - load_size
                    # Past ``whole`` only at the end of the payload: a record
                    # cut short there fails with IndexError or struct.error.
                    kind = buffer[offset]
                    if kind == _REC_LOAD:
                        body = buffer[offset + 1:offset + load_size]
                        instruction = loads.get(body)
                        if instruction is None:
                            _kind, pc, dep, line_addr = unpack_load(buffer, offset)
                            instruction = load(line_addr, dep_distance=dep, pc=pc)
                            if len(loads) < _LOAD_INTERN_LIMIT:
                                loads[body] = instruction
                        append(instruction)
                        offset += load_size
                    elif kind == _REC_ALU_RUN:
                        _kind, count, pc_start = unpack_run(buffer, offset)
                        program += alu_run(pc_start, pc_start + count)
                        offset += run_size
                    elif kind == _REC_ALU:
                        append(alu(unpack_alu(buffer, offset)[1]))
                        offset += alu_size
                    elif kind == _WARP_END:
                        offset += 1
                        break
                    else:
                        raise TraceFormatError(
                            f"{self.path}: unknown record kind 0x{kind:02x} in warp {warp_id}"
                        )
            except (IndexError, struct.error) as error:
                raise TraceFormatError(
                    f"{self.path} is truncated (unexpected end of stream)"
                ) from error
            self._offset = offset
            yield warp_id, program
        if self._take(1)[0] != _TRACE_END:
            raise TraceFormatError(f"{self.path}: missing end-of-trace marker")

    def content_hash(self) -> str:
        """Hash of the full uncompressed payload (must be called after a
        complete iteration; drains any unread remainder first)."""
        while self._read_block():
            pass
        return self._digest.hexdigest()


def read_trace_meta(path: Union[str, Path]) -> Tuple[Dict[str, Any], int]:
    """Read only the header: ``(meta, num_warps)`` without decoding any warp."""
    with TraceReader(path) as reader:
        return dict(reader.meta), reader.num_warps


def read_trace_programs_with_hash(
    path: Union[str, Path],
) -> Tuple[List[List[Instruction]], str]:
    """Decode the full trace and its content hash in one streaming pass.

    This is the replay entry point: the simulator needs whole programs, so
    laziness does not apply here — but decode and integrity check still cost
    only a single pass.  Returns ``(programs ordered by warp id, hash)``.
    """
    with TraceReader(path) as reader:
        # iter_warps admits each id in [0, num_warps) once, so a complete
        # pass holds every id.
        programs = dict(reader.iter_warps())
        ordered = [programs[warp_id] for warp_id in range(reader.num_warps)]
        return ordered, reader.content_hash()


def read_trace_programs(path: Union[str, Path]) -> List[List[Instruction]]:
    """Decode the full trace into per-warp programs ordered by warp id."""
    return read_trace_programs_with_hash(path)[0]


def trace_content_hash(path: Union[str, Path]) -> str:
    """Content hash of a trace: SHA-256 over the uncompressed payload.

    Validates the whole file as a side effect (raises
    :class:`TraceFormatError` on any damage), so a hash in hand means the
    trace decodes cleanly.
    """
    with TraceReader(path) as reader:
        for _warp_id, _program in reader.iter_warps():
            pass
        return reader.content_hash()


def trace_stats(path: Union[str, Path]) -> Dict[str, Any]:
    """Summary statistics computed in one lazy pass (used by ``trace info``)."""
    with TraceReader(path) as reader:
        per_warp: List[Dict[str, int]] = []
        unique_lines: set = set()
        total_instructions = 0
        total_loads = 0
        for warp_id, program in reader.iter_warps():
            loads = sum(1 for instruction in program if instruction.is_load)
            per_warp.append(
                {"warp_id": warp_id, "instructions": len(program), "loads": loads}
            )
            unique_lines.update(
                instruction.line_addr for instruction in program if instruction.is_load
            )
            total_instructions += len(program)
            total_loads += loads
        return {
            "path": str(path),
            "meta": dict(reader.meta),
            "num_warps": reader.num_warps,
            "instructions": total_instructions,
            "loads": total_loads,
            "unique_lines": len(unique_lines),
            "per_warp": per_warp,
            "content_hash": reader.content_hash(),
        }
