"""Codec tests: Hypothesis round-trips plus malformed-file behaviour.

The codec's contract: any per-warp instruction stream survives a
write→read round trip exactly, identical content always produces identical
bytes and content hashes, and every damaged input — truncation, corruption,
a foreign file, a future format version — raises :class:`TraceFormatError`
rather than yielding garbage programs.
"""

from __future__ import annotations

import gzip
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.isa import Instruction, Opcode, alu, load
from repro.trace.codec import (
    FORMAT_VERSION,
    MAGIC,
    TraceFormatError,
    TraceReader,
    TraceWriter,
    read_trace_meta,
    read_trace_programs,
    trace_content_hash,
    trace_stats,
    write_trace,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_alu = st.builds(alu, pc=st.integers(min_value=0, max_value=2**32 - 1))
_load = st.builds(
    load,
    st.integers(min_value=0, max_value=2**64 - 1),
    dep_distance=st.integers(min_value=0, max_value=2**16 - 1),
    pc=st.integers(min_value=0, max_value=2**32 - 1),
)
_program = st.lists(st.one_of(_alu, _load), max_size=120)
_programs = st.lists(_program, min_size=0, max_size=6)


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(programs=_programs)
def test_roundtrip_arbitrary_streams(tmp_path_factory, programs):
    path = tmp_path_factory.mktemp("codec") / "t.trc"
    write_trace(path, programs, meta={"kernel": "hyp"})
    assert read_trace_programs(path) == programs


@settings(max_examples=25, deadline=None)
@given(programs=_programs, meta_extra=st.dictionaries(st.text(max_size=8), st.integers(), max_size=3))
def test_meta_roundtrip(tmp_path_factory, programs, meta_extra):
    path = tmp_path_factory.mktemp("codec") / "t.trc"
    meta = {"kernel": "hyp", **{f"x_{k}": v for k, v in meta_extra.items()}}
    write_trace(path, programs, meta=meta)
    read_meta, num_warps = read_trace_meta(path)
    assert num_warps == len(programs)
    for key, value in meta.items():
        assert read_meta[key] == value
    assert read_meta["instruction_counts"] == [len(p) for p in programs]


def test_sequential_alu_runs_collapse_and_restore(tmp_path):
    # The ALU_RUN record: sequential-PC ALU stretches are the common case and
    # must restore instruction-for-instruction.
    program = [alu(pc=pc) for pc in range(50)]
    program.append(load(123, dep_distance=3, pc=7))
    program.extend(alu(pc=pc) for pc in range(90, 95))
    program.append(alu(pc=17))  # non-sequential ALU after a run
    path = tmp_path / "runs.trc"
    write_trace(path, [program], meta={"kernel": "runs"})
    assert read_trace_programs(path) == [program]


def test_decoded_alus_are_the_interned_table(tmp_path):
    # Single ALU records and ALU_RUN records both decode to the shared
    # one-object-per-pc instructions, not to fresh copies.
    program = [Instruction(Opcode.ALU, pc=pc) for pc in range(40)]
    program.append(load(5, dep_distance=1, pc=3))
    program.append(Instruction(Opcode.ALU, pc=9))
    path = tmp_path / "interned.trc"
    write_trace(path, [program], meta={"kernel": "interned"})
    (decoded,) = read_trace_programs(path)
    assert decoded == program
    assert all(inst is alu(inst.pc) for inst in decoded if not inst.is_load)


def test_identical_content_identical_bytes_and_hash(tmp_path):
    program = [alu(pc=0), load(42, dep_distance=2, pc=1), alu(pc=2)]
    h1 = write_trace(tmp_path / "a.trc", [program], meta={"kernel": "k"})
    h2 = write_trace(tmp_path / "b.trc", [program], meta={"kernel": "k"})
    assert h1 == h2
    assert (tmp_path / "a.trc").read_bytes() == (tmp_path / "b.trc").read_bytes()
    assert trace_content_hash(tmp_path / "a.trc") == h1


def test_different_content_different_hash(tmp_path):
    h1 = write_trace(tmp_path / "a.trc", [[load(1, pc=0)]], meta={"kernel": "k"})
    h2 = write_trace(tmp_path / "b.trc", [[load(2, pc=0)]], meta={"kernel": "k"})
    assert h1 != h2


def test_lazy_iteration_stops_early(tmp_path):
    programs = [[alu(pc=i) for i in range(20)] for _ in range(4)]
    path = tmp_path / "lazy.trc"
    write_trace(path, programs, meta={"kernel": "k"})
    with TraceReader(path) as reader:
        warp_id, first = next(reader.iter_warps())
    assert warp_id == 0
    assert first == programs[0]


def test_stats_summarise_without_materialising(tmp_path):
    programs = [
        [alu(pc=0), load(10, pc=1), load(10, pc=2)],
        [load(11, pc=0)],
    ]
    path = tmp_path / "stats.trc"
    write_trace(path, programs, meta={"kernel": "k"})
    stats = trace_stats(path)
    assert stats["num_warps"] == 2
    assert stats["instructions"] == 4
    assert stats["loads"] == 3
    assert stats["unique_lines"] == 2
    assert [row["instructions"] for row in stats["per_warp"]] == [3, 1]


# ---------------------------------------------------------------------------
# Writer validation
# ---------------------------------------------------------------------------


def test_writer_rejects_out_of_range_fields(tmp_path):
    with pytest.raises(ValueError, match="16-bit"):
        write_trace(tmp_path / "dep.trc", [[load(1, dep_distance=1 << 16, pc=0)]])
    with pytest.raises(ValueError, match="32-bit"):
        write_trace(tmp_path / "pc.trc", [[alu(pc=1 << 32)]])


def test_writer_enforces_declared_warp_count(tmp_path):
    writer = TraceWriter(tmp_path / "short.trc", meta={}, num_warps=2)
    writer.write_warp(0, [alu(pc=0)])
    with pytest.raises(ValueError, match="2 warps but 1"):
        writer.close()
    with pytest.raises(ValueError, match="closed"):
        writer.write_warp(1, [])


# ---------------------------------------------------------------------------
# Malformed files
# ---------------------------------------------------------------------------


def _valid_trace(tmp_path, warps: int = 3):
    programs = [
        [alu(pc=i) for i in range(30)] + [load(100 + w, dep_distance=1, pc=31)]
        for w in range(warps)
    ]
    path = tmp_path / "valid.trc"
    write_trace(path, programs, meta={"kernel": "victim"})
    return path


def test_truncated_file_raises(tmp_path):
    path = _valid_trace(tmp_path)
    data = path.read_bytes()
    for cut in (0, 10, len(data) // 2, len(data) - 2):
        (tmp_path / "cut.trc").write_bytes(data[:cut])
        with pytest.raises(TraceFormatError):
            read_trace_programs(tmp_path / "cut.trc")


def test_not_a_gzip_file_raises(tmp_path):
    path = tmp_path / "garbage.trc"
    path.write_bytes(b"this is definitely not a trace file, not even gzip")
    with pytest.raises(TraceFormatError):
        read_trace_programs(path)


def test_wrong_magic_raises(tmp_path):
    path = tmp_path / "foreign.trc"
    with gzip.open(path, "wb") as stream:
        stream.write(struct.pack("<8sHHI", b"NOTPOISE", FORMAT_VERSION, 0, 0))
    with pytest.raises(TraceFormatError, match="magic"):
        read_trace_programs(path)


def test_version_mismatch_raises(tmp_path):
    path = tmp_path / "future.trc"
    with gzip.open(path, "wb") as stream:
        stream.write(struct.pack("<8sHHI", MAGIC, 99, 0, 0))
    with pytest.raises(TraceFormatError, match="version 99"):
        read_trace_programs(path)


def test_unknown_flags_raise(tmp_path):
    path = tmp_path / "flags.trc"
    with gzip.open(path, "wb") as stream:
        stream.write(struct.pack("<8sHHI", MAGIC, FORMAT_VERSION, 0x8000, 0))
    with pytest.raises(TraceFormatError, match="flags"):
        read_trace_programs(path)


def test_corrupt_metadata_raises(tmp_path):
    path = tmp_path / "meta.trc"
    blob = b"{not json"
    with gzip.open(path, "wb") as stream:
        stream.write(struct.pack("<8sHHI", MAGIC, FORMAT_VERSION, 0, len(blob)))
        stream.write(blob)
    with pytest.raises(TraceFormatError, match="metadata"):
        read_trace_programs(path)


def test_unknown_record_kind_raises(tmp_path):
    path = tmp_path / "record.trc"
    meta = json.dumps({}).encode()
    with gzip.open(path, "wb") as stream:
        stream.write(struct.pack("<8sHHI", MAGIC, FORMAT_VERSION, 0, len(meta)))
        stream.write(meta)
        stream.write(struct.pack("<I", 1))  # one warp
        stream.write(bytes((0xA0,)) + struct.pack("<I", 0))  # warp start
        stream.write(bytes((0x77,)))  # bogus record kind
    with pytest.raises(TraceFormatError, match="unknown record kind"):
        read_trace_programs(path)


def test_flipped_payload_byte_never_yields_wrong_programs(tmp_path):
    """Bit flips in the compressed stream must surface as TraceFormatError
    (zlib/CRC/structural), never as a silently different program."""
    path = _valid_trace(tmp_path)
    original = read_trace_programs(path)
    data = bytearray(path.read_bytes())
    detected = 0
    for offset in range(12, len(data) - 9, 7):  # skip gzip header, vary offsets
        mutated = bytearray(data)
        mutated[offset] ^= 0xFF
        target = tmp_path / "flip.trc"
        target.write_bytes(bytes(mutated))
        try:
            programs = read_trace_programs(target)
            # The flip may land in bytes gzip tolerates (e.g. ISIZE field);
            # if the decode succeeds the content must be untouched.
            assert programs == original
        except TraceFormatError:
            detected += 1
    assert detected > 0  # most flips must be caught loudly
