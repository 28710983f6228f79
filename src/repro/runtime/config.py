"""Runtime configuration: where the artifact cache lives and how it runs.

The configuration is resolved once from the environment and can be
overridden programmatically (tests and the CLI's ``--no-cache`` /
``--jobs`` flags do).  Worker processes receive a pickled snapshot so a
parent's overrides survive the fan-out.

Environment variables:

``REPRO_CACHE``
    ``0`` / ``false`` / ``off`` / ``no`` disables the persistent store
    (the opt-out the paper-regeneration CLI exposes as ``--no-cache``).
``REPRO_CACHE_DIR``
    Store root (default ``~/.cache/repro``).
``REPRO_CACHE_MAX_BYTES``
    LRU size cap for the store (default 512 MiB).
``REPRO_JOBS``
    Default ``--jobs`` for the scheduler (default 1 = in-process).
``REPRO_STUDY_CACHE_CAP``
    Capacity of the in-process study LRU (default 16; read by
    :mod:`repro.core.study` at import through :func:`env_int`).
"""

from __future__ import annotations

import os
import pathlib
import warnings
from dataclasses import dataclass, replace
from typing import List, Optional

_FALSEY = {"0", "false", "off", "no"}
_TRUTHY = {"1", "true", "on", "yes", ""}

DEFAULT_MAX_BYTES = 512 * 1024 * 1024

#: Integer ``REPRO_*`` knobs and their smallest legal value.
_INT_MINIMUMS = {
    "REPRO_CACHE_MAX_BYTES": 0,
    "REPRO_JOBS": 1,
    "REPRO_STUDY_CACHE_CAP": 1,
}

_warned: set = set()


def _warn_once(message: str) -> None:
    if message in _warned:
        return
    _warned.add(message)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


@dataclass(frozen=True)
class RuntimeConfig:
    """One immutable snapshot of the runtime's knobs."""

    enabled: bool = True
    cache_dir: pathlib.Path = pathlib.Path.home() / ".cache" / "repro"
    max_bytes: int = DEFAULT_MAX_BYTES
    jobs: int = 1


def environment_problems(environ=None) -> List[str]:
    """Complaints about malformed ``REPRO_*`` values (empty = all good).

    The CLI treats any entry here as a :class:`ConfigurationError` (exit
    code 2); :func:`config_from_env` merely warns once per problem and
    falls back to the documented default, so library use keeps working.
    """
    env = os.environ if environ is None else environ
    problems: List[str] = []
    cache = env.get("REPRO_CACHE")
    if cache is not None:
        value = cache.strip().lower()
        if value not in _FALSEY and value not in _TRUTHY:
            choices = sorted((_FALSEY | _TRUTHY) - {""})
            problems.append(
                f"REPRO_CACHE={cache!r} is not a recognised switch "
                f"(expected one of: {', '.join(choices)})"
            )
    for name, minimum in _INT_MINIMUMS.items():
        raw = env.get(name)
        problem = None if raw is None else _int_problem(name, raw, minimum)
        if problem:
            problems.append(problem)
    return problems


def _int_problem(name: str, raw: str, minimum: int) -> Optional[str]:
    try:
        value = int(raw)
    except ValueError:
        return f"{name}={raw!r} is not an integer"
    if value < minimum:
        return f"{name}={raw!r} must be >= {minimum}"
    return None


def env_int(name: str, default: int, environ=None) -> int:
    """The integer knob ``name``, or ``default`` when unset or malformed.

    A malformed value warns once (:class:`RuntimeWarning`), the same
    message :func:`config_from_env` gives; the CLI rejects it outright
    through :func:`environment_problems`.
    """
    env = os.environ if environ is None else environ
    raw = env.get(name)
    if raw is None:
        return default
    problem = _int_problem(name, raw, _INT_MINIMUMS[name])
    if problem:
        _warn_once(f"{problem}; using the default")
        return default
    return int(raw)


def config_from_env(environ=None) -> RuntimeConfig:
    """Build a :class:`RuntimeConfig` from environment variables.

    Malformed values warn once (:class:`RuntimeWarning`) and fall back
    to their defaults; use :func:`environment_problems` to reject them
    outright, as the CLI does.
    """
    env = os.environ if environ is None else environ
    for problem in environment_problems(env):
        _warn_once(f"{problem}; using the default")
    enabled = env.get("REPRO_CACHE", "1").strip().lower() not in _FALSEY
    cache_dir = pathlib.Path(
        env.get("REPRO_CACHE_DIR")
        or pathlib.Path.home() / ".cache" / "repro"
    )
    max_bytes = env_int("REPRO_CACHE_MAX_BYTES", DEFAULT_MAX_BYTES, env)
    jobs = env_int("REPRO_JOBS", 1, env)
    return RuntimeConfig(
        enabled=enabled, cache_dir=cache_dir, max_bytes=max_bytes, jobs=jobs
    )


_active: Optional[RuntimeConfig] = None


def runtime_config() -> RuntimeConfig:
    """The active configuration (resolved lazily from the environment)."""
    global _active
    if _active is None:
        _active = config_from_env()
    return _active


def set_runtime_config(config: RuntimeConfig) -> RuntimeConfig:
    """Install ``config`` as the active configuration."""
    global _active
    _active = config
    return config


def configure(**overrides) -> RuntimeConfig:
    """Override fields of the active configuration (returns the new one)."""
    if "cache_dir" in overrides:
        overrides["cache_dir"] = pathlib.Path(overrides["cache_dir"])
    return set_runtime_config(replace(runtime_config(), **overrides))


def reset_runtime_config() -> None:
    """Forget overrides; the next access re-reads the environment."""
    global _active
    _active = None
