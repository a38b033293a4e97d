"""Unit tests for repro.gpu.isa."""

import pytest

from repro.gpu.isa import Instruction, Opcode, alu, alu_run, load


class TestInstruction:
    def test_alu_constructor(self):
        instruction = alu(pc=7)
        assert instruction.opcode is Opcode.ALU
        assert instruction.line_addr is None
        assert instruction.pc == 7
        assert not instruction.is_load

    def test_load_constructor(self):
        instruction = load(123, dep_distance=3, pc=9)
        assert instruction.opcode is Opcode.LOAD
        assert instruction.line_addr == 123
        assert instruction.dep_distance == 3
        assert instruction.is_load

    def test_load_requires_address(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.LOAD)

    def test_alu_must_not_carry_address(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.ALU, line_addr=5)

    def test_negative_dep_distance_rejected(self):
        with pytest.raises(ValueError):
            load(1, dep_distance=-1)

    def test_instructions_are_immutable(self):
        instruction = load(1)
        with pytest.raises(Exception):
            instruction.line_addr = 2

    def test_instructions_are_hashable_and_comparable(self):
        assert load(1, dep_distance=2, pc=3) == load(1, dep_distance=2, pc=3)
        assert len({load(1), load(1), load(2)}) == 2


class TestAluInterning:
    def test_one_object_per_pc(self):
        assert alu(7) is alu(7)
        assert alu(pc=7) is alu(7)
        assert alu(7) is not alu(8)
        assert alu(40_000) is alu(40_000)

    def test_runs_are_table_slices(self):
        run = alu_run(3, 600)
        assert [inst.pc for inst in run] == list(range(3, 600))
        assert all(inst is alu(inst.pc) for inst in run)
        run[0] = load(1)  # a new list: writing to it leaves the table alone
        assert alu(3).opcode is Opcode.ALU

    def test_out_of_table_pcs_are_still_valid_alus(self):
        for pc in (-1, 1 << 16, 2**32 - 1):
            assert alu(pc) == Instruction(Opcode.ALU, pc=pc)
        tail = alu_run((1 << 16) - 2, (1 << 16) + 2)
        assert [inst.pc for inst in tail] == list(range((1 << 16) - 2, (1 << 16) + 2))
