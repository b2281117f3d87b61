"""The 64-bit X86 subset: registers, operands, opcodes, parsing, semantics.

Typical usage::

    from repro.x86 import parse_program
    prog = parse_program('''
        movq rdi, rax
        addq rsi, rax
    ''')
"""

from repro.x86.effects import FlagEffects, flag_effects
from repro.x86.instruction import Instruction, UNUSED, is_unused
from repro.x86.isa import OPCODES, Opcode, opcode
from repro.x86.latency import instruction_latency, program_latency
from repro.x86.operands import Imm, Label, Mem, Operand, Reg
from repro.x86.parser import parse_instruction, parse_program
from repro.x86.printer import format_instruction, format_program
from repro.x86.program import Program, program
from repro.x86.registers import (FLAG_NAMES, REGISTERS, Register,
                                 gprs_of_width, lookup, view)

__all__ = [
    "FLAG_NAMES", "FlagEffects", "Imm", "Instruction", "Label", "Mem",
    "OPCODES", "Opcode", "Operand", "Program", "REGISTERS", "Reg",
    "Register", "UNUSED", "flag_effects", "format_instruction",
    "format_program", "gprs_of_width", "instruction_latency", "is_unused",
    "lookup", "opcode", "parse_instruction", "parse_program", "program",
    "program_latency", "view",
]
