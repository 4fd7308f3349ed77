"""Global registry of optimisation passes and named pipelines.

The registry is the single namespace the pipeline parser, the flows, the
CLI (``python -m repro passes``, ``--opt``) and the exploration engine
resolve names against.  Pass aliases (the ABC-style short names such as
``b`` / ``rw`` / ``rf``) share the namespace with canonical names and
named pipeline specs; unknown names raise :class:`UnknownPassError`
carrying a did-you-mean suggestion computed over every known spelling.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.opt.passes import Pass
from repro.utils.names import closest_name, did_you_mean

__all__ = [
    "UnknownPassError",
    "available_passes",
    "get_pass",
    "named_pipelines",
    "register_pass",
    "register_pipeline",
    "unregister_pass",
]


class UnknownPassError(ValueError):
    """An ``--opt`` spec referenced a name the registry does not know."""

    def __init__(self, name: str, suggestion: Optional[str] = None):
        super().__init__(
            f"unknown pass or pipeline {name!r}{did_you_mean(suggestion)}"
        )
        self.unknown_name = name
        self.suggestion = suggestion


#: canonical pass name -> Pass
_PASSES: Dict[str, Pass] = {}
#: alias -> canonical pass name
_ALIASES: Dict[str, str] = {}
#: pipeline name -> (spec, description)
_PIPELINES: Dict[str, tuple] = {}


def _known_names() -> List[str]:
    return sorted({*_PASSES, *_ALIASES, *_PIPELINES})


def register_pass(pass_: Pass, replace: bool = False) -> Pass:
    """Register a pass under its canonical name and all of its aliases.

    ``replace=False`` (the default) rejects collisions with existing
    passes, aliases or pipeline names, so a plugin cannot silently shadow
    a built-in.  Returns the pass for decorator-style chaining.
    """
    names = (pass_.name, *pass_.aliases)
    if not replace:
        for name in names:
            if name in _PASSES or name in _ALIASES or name in _PIPELINES:
                raise ValueError(
                    f"name {name!r} is already registered; pass replace=True "
                    "to override"
                )
    _PASSES[pass_.name] = pass_
    for alias in pass_.aliases:
        _ALIASES[alias] = pass_.name
    return pass_


def unregister_pass(name: str) -> None:
    """Remove a pass (by canonical name) and its aliases from the registry."""
    pass_ = _PASSES.pop(name, None)
    if pass_ is None:
        raise UnknownPassError(name, closest_name(name, _known_names()))
    for alias in pass_.aliases:
        _ALIASES.pop(alias, None)


def get_pass(name: str) -> Pass:
    """Resolve a canonical name or alias to its pass.

    Raises :class:`UnknownPassError` (a ``ValueError``) with a
    did-you-mean suggestion for unknown names.
    """
    if name in _PASSES:
        return _PASSES[name]
    if name in _ALIASES:
        return _PASSES[_ALIASES[name]]
    raise UnknownPassError(name, closest_name(name, _known_names()))


def available_passes(network_type: Optional[str] = None) -> List[Pass]:
    """Registered passes sorted by name, optionally filtered by network type."""
    passes = sorted(_PASSES.values(), key=lambda p: p.name)
    if network_type is None:
        return passes
    return [p for p in passes if network_type in p.network_types]


def register_pipeline(
    name: str, spec: str, description: str = "", replace: bool = False
) -> None:
    """Register a named pipeline: a spec string resolvable by the parser.

    Named pipelines are expanded inline wherever a pass name could appear
    in a spec, so ``"xmg-default"`` is itself a valid ``--opt`` argument.
    """
    if not replace and (
        name in _PASSES or name in _ALIASES or name in _PIPELINES
    ):
        raise ValueError(
            f"name {name!r} is already registered; pass replace=True to "
            "override"
        )
    _PIPELINES[name] = (spec, description)


def named_pipelines() -> Dict[str, tuple]:
    """``name -> (spec, description)`` of every registered pipeline."""
    return dict(_PIPELINES)


def _pipeline_spec(name: str) -> Optional[str]:
    """The spec of a named pipeline, or ``None`` (parser hook)."""
    entry = _PIPELINES.get(name)
    return entry[0] if entry is not None else None
