"""The ``kind[:key=value,...]`` reader shared by the engine's specs.

Budgets (``adaptive:stable=2``), fault plans (``faults:crash=0.2``) and
executors (``pool:n=4``) all read through :func:`read_spec`, so each
rejects a typo the same way, and print numbers through
:func:`format_number`, because their strings are resume fingerprints.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.errors import RegistryError, unknown_name_message

#: One kind's parameters: name -> converter from the value text.
Params = Mapping[str, Callable[[str], object]]


def format_number(value: float) -> str:
    """Canonical numeric form: no trailing zeros (``1`` not ``1.0``).

    The spec string is a resume *fingerprint*: two different parameter
    values must never print the same, so when ``%g``'s 6 significant
    digits would lose precision the exact ``repr`` is used instead.
    """
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def read_spec(text: str, what: str, kinds: Mapping[str, Params], *,
              implicit: str | None = None) -> tuple[str, dict]:
    """Split ``kind[:key=value,...]`` into its kind and converted values.

    ``kinds`` maps every known kind to its parameters; ``what`` names
    the spec in errors. With ``implicit``, text naming no known kind is
    all parameters of that kind. A repeated key keeps its last value.
    """
    kind, _, body = text.strip().partition(":")
    kind = kind.strip()
    if kind not in kinds:
        if implicit is None:
            raise RegistryError(unknown_name_message(what, kind, kinds))
        kind, body = implicit, text
    params = kinds[kind]
    if not params and body.strip():
        raise RegistryError(f"{what} {kind!r} takes no parameters, got "
                            f"{body.strip()!r}")
    values: dict = {}
    for part in body.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or key not in params:
            expected = " or ".join(f"{name}=..." for name in params)
            raise RegistryError(f"bad {what} parameter {part!r} "
                                f"(expected {expected})")
        try:
            values[key] = params[key](value)
        except ValueError:
            wanted = "an integer" if params[key] is int else "a number"
            raise RegistryError(f"bad {what} parameter value {value!r} "
                                f"({key} needs {wanted})") from None
    return kind, values
