"""Flag effects, read off the shared instruction semantics.

:func:`flag_effects` runs ``execute()`` (``cc_value`` for a ``jcc``)
on a Machine whose state is unknown, once per answer to the runtime
zero tests (a count in ``cl``, a divisor, a quotient fit); an
immediate count is known and takes one path.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.x86.algebra import INT_ALGEBRA
from repro.x86.instruction import Instruction
from repro.x86.semantics import cc_value, execute

_UNKNOWN = object()


class FlagEffects(NamedTuple):
    """An instruction's flag def/use sets."""

    read: frozenset[str]        # read on some path
    defined: frozenset[str]     # written on every path, not left undefined
    touched: frozenset[str]     # written or left undefined on some path


class _PartialAlgebra:
    """The integer algebra over known values; unknown in, unknown out.
    Each operation is built on first use and kept as an attribute."""

    def __getattr__(self, name: str):
        op = getattr(INT_ALGEBRA, name)
        setattr(self, name, lambda *a: _UNKNOWN if _UNKNOWN in a else op(*a))
        return getattr(self, name)


class _Recorder:
    """A Machine of unknown state that notes its flag accesses."""

    alg = _PartialAlgebra()

    def __init__(self, script: tuple[bool, ...]) -> None:
        self.script, self.tests = script, 0     # answers to zero tests
        self.reads: set[str] = set()
        self.flags: dict[str, bool] = {}    # flag -> left defined

    def read_flag(self, name: str):
        self.reads.add(name)
        return _UNKNOWN

    def write_flag(self, name: str, value) -> None:
        self.flags[name] = True

    def set_flag_undefined(self, name: str) -> None:
        self.flags[name] = False

    def known_zero(self, width: int, value) -> bool:
        if value is not _UNKNOWN:
            return value == 0
        self.tests += 1
        return self.tests > len(self.script) or self.script[self.tests - 1]

    def read_full(self, *args):
        return _UNKNOWN

    def write_full(self, *args) -> None:
        pass

    read_mem = read_full
    write_mem = check_reg_defined = mark_reg_defined = fpe = write_full


def flag_effects(instr: Instruction) -> FlagEffects:
    """Derive ``instr``'s flag effects from the shared semantics."""
    runs, scripts = [], [()]
    while scripts:
        m = _Recorder(scripts.pop())
        if not instr.is_jump:
            execute(instr, m)
        elif instr.opcode.cc is not None:
            cc_value(m, instr.opcode.cc)
        if m.tests > len(m.script):     # branch on the unanswered test
            scripts += [m.script + (True,), m.script + (False,)]
        else:
            runs.append(m)
    return FlagEffects(
        frozenset().union(*(m.reads for m in runs)),
        frozenset.intersection(*(frozenset(f for f, kept in m.flags.items()
                                           if kept) for m in runs)),
        frozenset().union(*(m.flags for m in runs)))
