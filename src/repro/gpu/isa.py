"""A two-operation ISA sufficient to express the paper's execution model.

Kernels are represented as per-warp instruction streams.  Only two behaviours
matter for the TLP / memory-system trade-off Poise studies:

* ``ALU`` — an instruction that keeps the SM's functional units busy for one
  issue slot and never stalls the warp.
* ``LOAD`` — a global memory load of one (fully coalesced) cache line.  Each
  load carries ``dep_distance``: the number of subsequent instructions in the
  same warp that are independent of the load.  The instruction at
  ``issue_index + dep_distance + 1`` uses the loaded value, so the warp stalls
  there until the load returns (the ``Id`` quantity of the analytical model).

Instructions are frozen, and an ALU is fully described by its pc, so
:func:`alu` interns them: every program shares one object per pc.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional


class Opcode(Enum):
    ALU = "alu"
    LOAD = "load"


@dataclass(frozen=True, slots=True)
class Instruction:
    """One warp-wide instruction.

    Attributes:
        opcode: the operation class.
        line_addr: cache-line address touched by a LOAD (``None`` for ALU).
        dep_distance: for LOADs, the number of following independent
            instructions before the first use of the loaded value.
        pc: a static program-counter tag used by instruction-based cache
            management policies (e.g. the APCM baseline).
    """

    opcode: Opcode
    line_addr: Optional[int] = None
    dep_distance: int = 0
    pc: int = 0

    def __post_init__(self) -> None:
        if self.opcode is Opcode.LOAD and self.line_addr is None:
            raise ValueError("LOAD instructions require a line address")
        if self.opcode is Opcode.ALU and self.line_addr is not None:
            raise ValueError("ALU instructions must not carry an address")
        if self.dep_distance < 0:
            raise ValueError("dep_distance must be non-negative")

    @property
    def is_load(self) -> bool:
        return self.opcode is Opcode.LOAD


#: Interned ALU instructions, indexed by pc.  An ALU carries nothing but its
#: pc, so one frozen object per pc serves every program: synthetic kernels,
#: trace families and decoded traces all share these objects instead of
#: each building its own.
_ALU_TABLE: List[Instruction] = []
_ALU_TABLE_LOCK = threading.Lock()
#: pcs at or beyond this bound are built fresh rather than interned, so a
#: trace with huge pcs cannot grow the table without limit.
_ALU_TABLE_LIMIT = 1 << 16


def _grow_alu_table(stop: int) -> None:
    with _ALU_TABLE_LOCK:
        start = len(_ALU_TABLE)
        stop = min(_ALU_TABLE_LIMIT, max(stop, 2 * start))
        _ALU_TABLE.extend(Instruction(Opcode.ALU, pc=pc) for pc in range(start, stop))


def alu(pc: int = 0) -> Instruction:
    """The ALU instruction at ``pc``: ``alu(7) is alu(7)`` for every pc in
    ``[0, 2**16)``; other pcs get a fresh instruction."""
    if 0 <= pc < len(_ALU_TABLE):
        return _ALU_TABLE[pc]
    if 0 <= pc < _ALU_TABLE_LIMIT:
        _grow_alu_table(pc + 1)
        return _ALU_TABLE[pc]
    return Instruction(Opcode.ALU, pc=pc)


def alu_run(start: int, stop: int) -> List[Instruction]:
    """A new list of the ALU instructions with pcs ``start`` to ``stop - 1``
    (``start >= 0``): a slice of the interned table."""
    if stop > len(_ALU_TABLE):
        _grow_alu_table(stop)
    run = _ALU_TABLE[start:stop]
    if stop > _ALU_TABLE_LIMIT:
        run.extend(map(alu, range(max(start, _ALU_TABLE_LIMIT), stop)))
    return run


def load(line_addr: int, dep_distance: int = 0, pc: int = 0) -> Instruction:
    """Convenience constructor for a LOAD instruction."""
    return Instruction(Opcode.LOAD, line_addr=line_addr, dep_distance=dep_distance, pc=pc)
