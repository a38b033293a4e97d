"""The synthetic stream before its loads were interned: the reference every
interned program must equal.

This is ``repro.workloads.generator._SyntheticStream`` as it was before fills
shared their private- and shared-region loads, kept unchanged but for its
name: every load is a fresh instruction.  :func:`oracle_program` builds a
warp's whole stream in one chunk, which a sequential stream makes equal to
any split into fills.  ``tests/test_synthetic_interning.py`` asserts the
interned programs equal it element-wise.
"""

from __future__ import annotations

import random
from typing import List

from repro.gpu.isa import Instruction, alu_run, load
from repro.workloads.generator import (
    _PC_LOAD_BASE,
    _PRIVATE_REGION_STRIDE,
    _SHARED_REGION_BASE,
    _STREAM_REGION_BASE,
)
from repro.workloads.spec import KernelSpec


class OracleStream:
    """The generator state of one synthetic warp: its RNG, streaming cursor
    and load-site layout, resumed by every :meth:`chunk`."""

    __slots__ = (
        "_spec",
        "_rng",
        "_private_base",
        "_stream_base",
        "_stream_cursor",
        "_dep",
        "_load_sites",
    )

    def __init__(self, spec: KernelSpec, warp_id: int) -> None:
        self._spec = spec
        self._rng = random.Random((spec.seed << 20) ^ (warp_id * 0x9E3779B1))
        self._private_base = (warp_id + 1) * _PRIVATE_REGION_STRIDE + spec.seed * 131
        self._stream_base = (
            _STREAM_REGION_BASE + warp_id * _PRIVATE_REGION_STRIDE + spec.seed * 977
        )
        self._stream_cursor = 0
        group = spec.instructions_per_load
        self._dep = min(spec.dep_distance, group - 1)
        self._load_sites = max(1, min(8, spec.private_lines // 64 + 1))

    def chunk(self, start: int, stop: int) -> List[Instruction]:
        """The instructions at indices ``start`` to ``stop - 1``: the ALU run
        of the whole range, with every ``In``-th slot a load."""
        spec = self._spec
        rng = self._rng
        group = spec.instructions_per_load
        intra = spec.intra_warp_fraction
        local = intra + spec.inter_warp_fraction
        shared_base = _SHARED_REGION_BASE + spec.seed * 7919
        chunk = alu_run(start, stop)
        for index in range(start + (group - 1 - start) % group, stop, group):
            draw = rng.random()
            if draw < intra:
                line = self._private_base + rng.randrange(spec.private_lines)
                pc_tag = _PC_LOAD_BASE + (index % self._load_sites)
            elif draw < local:
                line = shared_base + rng.randrange(spec.shared_lines)
                pc_tag = _PC_LOAD_BASE + 100 + (index % self._load_sites)
            else:
                line = self._stream_base + self._stream_cursor
                self._stream_cursor += 1
                pc_tag = _PC_LOAD_BASE + 200  # a single streaming load site
            chunk[index - start] = load(line, dep_distance=self._dep, pc=pc_tag)
        return chunk


def oracle_program(spec: KernelSpec, warp_id: int) -> List[Instruction]:
    """The warp's whole stream, every load a fresh instruction."""
    return OracleStream(spec, warp_id).chunk(0, spec.instructions_per_warp)
