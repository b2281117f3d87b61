"""Memory sandbox policy (Section 5.1).

The set of addresses dereferenced by the *target* on each testcase
defines the sandbox in which candidate rewrites execute. A rewrite that
touches any other address takes a (counted) segfault and reads a
constant zero, exactly as the paper describes: "Attempts to dereference
invalid addresses are trapped and replaced by instructions which produce
a constant zero value."
"""

from __future__ import annotations


class Sandbox:
    """Address validity policy for one testcase.

    In *recording* mode every access is legal and is remembered; running
    the target in recording mode builds the valid set that is then
    enforced against rewrites.

    ``check(addr)`` is True if the byte address may be dereferenced.
    Compiled memory steps call it once per byte, so an enforcing sandbox
    binds it straight to the valid set's C-level membership test.
    """

    __slots__ = ("valid", "recording", "accessed", "check")

    def __init__(self, valid: frozenset[int] | None = None, *,
                 recording: bool = False) -> None:
        self.valid: frozenset[int] = valid if valid is not None \
            else frozenset()
        self.recording = recording
        self.accessed: set[int] = set()
        self.check = self._record if recording else self.valid.__contains__

    @classmethod
    def recorder(cls) -> "Sandbox":
        return cls(recording=True)

    def _record(self, addr: int) -> bool:
        self.accessed.add(addr)
        return True

    def frozen(self) -> "Sandbox":
        """An enforcing sandbox covering everything this one accessed."""
        return Sandbox(frozenset(self.accessed) | self.valid)


PERMISSIVE = Sandbox(recording=True)
"""A shared always-allow sandbox for tests and target instrumentation."""
