"""Resource ceilings, optionally overridden by a JSON config file.

The config file path is taken from the COMODFILT_CONFIG environment
variable; config values override the defaults.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

CONFIG_ENV = "COMODFILT_CONFIG"


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds a configured resource ceiling."""


@dataclass(frozen=True)
class Limits:
    max_coalgebra_dim: int = 30      # largest sub-coalgebra for cobar/injectivity
    max_chain_dim: int = 100000      # largest CH^n of the full cobar complex
    # retraction unknowns of `injective_test`, s*m (stage 1) and t*m (stage 2):
    # it bounds only the solve path, as the profile over Ga and U solves nothing
    max_solver_unknowns: int = 20000
    max_dmax: int = 64               # largest CLI filtration sweep


class ConfigError(ValueError):
    """The config file is missing, unreadable or holds an invalid value."""


def load_limits() -> Limits:
    limits = Limits()
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return limits
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {CONFIG_ENV} file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{CONFIG_ENV} file {path} must hold a JSON object")
    values = {}
    for key, value in data.items():
        if key not in Limits.__dataclass_fields__:
            raise ConfigError(f"unknown key {key!r} in {CONFIG_ENV} file {path}; "
                              f"known keys: {', '.join(Limits.__dataclass_fields__)}")
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ConfigError(f"{key} must be an integer >= 1 in {CONFIG_ENV} file "
                              f"{path}, got {value!r}")
        values[key] = value
    return replace(limits, **values)


def check_limit(value: int, ceiling: int, what: str):
    if value > ceiling:
        raise ResourceLimitError(
            f"{what} = {value} exceeds the configured ceiling {ceiling}")
