"""One declared field: the row type of the run-spec table
(:data:`repro.session.simulation.SPEC_FIELDS`) and of the campaign
request table (:data:`repro.sweep.fields.FIELDS`), and the one check
both apply to a value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Field:
    """One field: its name, type, default, minimum or choices, and
    whether ``None`` is a value (``nullable``).

    Spec rows say whether ``to_spec`` leaves the key out at its
    default (``omit_default``; a ``None`` default is then left out
    too) and whether results depend on it (``affects_results``: the
    engine tier does not, so it stays out of canonical specs and cache
    keys).  Campaign rows add the request kinds they apply to
    (``kinds``, empty: every kind), their ``resim sweep``/``search``
    flag (a name without dashes is a positional's metavar) and help,
    and ``record_key``, which places a region-sampling parameter in
    the nested ``sampling`` record.
    """

    name: str
    type: type
    default: Any
    help: str = ""
    flag: str | None = None
    minimum: int | None = None
    choices: tuple[str, ...] = ()
    kinds: tuple[str, ...] = ()
    omit_default: bool = False
    nullable: bool = False
    affects_results: bool = True
    record_key: str | None = None
    metavar: str | None = None

    def check(self, value: Any, error: type[BaseException]) -> Any:
        """``value`` if this field accepts it; else raise ``error``
        naming the field.  Integers and booleans are never coerced:
        ``"500"``, ``500.5`` and ``True`` are not integers."""
        if value is None and self.nullable:
            return value
        if self.type is bool and not isinstance(value, bool):
            raise error(f"{self.name} must be a boolean, got {value!r}")
        if self.type is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise error(
                    f"{self.name} must be an integer, got {value!r}")
            if self.minimum is not None and value < self.minimum:
                raise error(
                    f"{self.name} must be >= {self.minimum}, got {value}")
        elif self.choices and value not in self.choices:
            raise error(f"unknown {self.name} {value!r}; choose from "
                        f"{', '.join(self.choices)}")
        return value
