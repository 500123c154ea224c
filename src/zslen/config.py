"""Resource budgets.

All potentially expensive computations take a :class:`ResourceConfig`.
Defaults are sized so the whole default verification run finishes in about
a second; larger jobs opt in explicitly.  The environment
variable ``ZSLEN_BUDGET`` overrides individual fields, e.g.
``ZSLEN_BUDGET="max_atoms=200000,max_nodes=5000000"``.  Every field is at
least 1; a smaller value is an :class:`InputError`, wherever it comes from.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import InputError

ENV_VAR = "ZSLEN_BUDGET"


@dataclass(frozen=True)
class ResourceConfig:
    max_atoms: int = 1_000_000      # atoms emitted per enumeration
    max_nodes: int = 10_000_000     # search-tree nodes per enumeration
    max_states: int = 2_000_000     # zero-sum length set: sub-multisets of the
                                    # target; rank-one monoid: cosets of its
                                    # table, and cells of a length set's target
    max_supports: int = 500_000     # distinct support unions per scan

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if getattr(self, name) < 1:
                raise InputError(f"budget {name} must be >= 1, got {getattr(self, name)}")

    def with_overrides(self, **kwargs: int | None) -> "ResourceConfig":
        fields = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **fields) if fields else self


def _parse_env(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise InputError(f"bad {ENV_VAR} entry {part!r}: expected key=value")
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in ResourceConfig.__dataclass_fields__:
            raise InputError(f"unknown {ENV_VAR} field {key!r}")
        try:
            out[key] = int(value)
        except ValueError:
            raise InputError(f"bad {ENV_VAR} value for {key!r}: {value!r}") from None
    return out


def default_config() -> ResourceConfig:
    """Built-in defaults, adjusted by ``ZSLEN_BUDGET`` when set."""
    cfg = ResourceConfig()
    env = os.environ.get(ENV_VAR)
    if env:
        cfg = cfg.with_overrides(**_parse_env(env))
    return cfg
