"""Registry of pebbling strategies, mirroring :mod:`repro.opt.registry`.

Pebbling strategies used to be a hard-coded ``if/elif`` chain inside
:func:`repro.reversible.pebbling.make_schedule`; they are now registered
:class:`PebblingStrategy` entries resolved by name, exactly like
optimisation passes.  The registry is the single namespace both
hierarchical flows, the CLI ``--strategy`` flag and the exploration engine
resolve against; aliases (``per_output`` for ``eager``) share the
namespace, and unknown names raise :class:`UnknownStrategyError` listing
every known spelling, with a did-you-mean suggestion.

The built-in strategies register themselves when their defining modules
load: ``bennett`` / ``eager`` / ``bounded`` from
:mod:`repro.reversible.pebbling` and ``exact`` from
:mod:`repro.reversible.exact_pebbling`.  :func:`get_strategy` imports both
lazily, so looking a name up never depends on import order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.utils.names import closest_name, did_you_mean

__all__ = [
    "PebblingStrategy",
    "UnknownStrategyError",
    "available_strategies",
    "get_strategy",
    "register_strategy",
    "unregister_strategy",
]


class UnknownStrategyError(ValueError):
    """A ``strategy=`` spec referenced a name the registry does not know."""

    def __init__(self, name: str, suggestion: Optional[str] = None):
        known = ", ".join(
            repr(strategy.name)
            + "".join(f" (alias {alias!r})" for alias in strategy.aliases)
            for strategy in sorted(_STRATEGIES.values(), key=lambda s: s.name)
        )
        super().__init__(
            f"unknown pebbling strategy {name!r} for the 'strategy' parameter; "
            f"expected one of {known}{did_you_mean(suggestion)}"
        )
        self.unknown_name = name
        self.suggestion = suggestion


@dataclass(frozen=True)
class PebblingStrategy:
    """One named scheduling strategy.

    ``build`` takes ``(mapping, max_pebbles=None, **options)`` and returns
    a :class:`~repro.reversible.pebbling.PebbleSchedule`; strategy-specific
    options (the exact engine's ``time_budget``) arrive as keyword
    arguments and must be accepted or rejected by the builder itself.
    """

    name: str
    build: Callable = field(compare=False)
    description: str = ""
    aliases: Tuple[str, ...] = ()


#: canonical strategy name -> PebblingStrategy
_STRATEGIES: Dict[str, PebblingStrategy] = {}
#: alias -> canonical strategy name
_ALIASES: Dict[str, str] = {}

_BUILTIN_MODULES = (
    "repro.reversible.pebbling",
    "repro.reversible.exact_pebbling",
)


def _ensure_builtins() -> None:
    """Import the modules whose load registers the built-in strategies."""
    import importlib

    for module in _BUILTIN_MODULES:
        importlib.import_module(module)


def _known_names() -> List[str]:
    return sorted({*_STRATEGIES, *_ALIASES})


def register_strategy(
    strategy: PebblingStrategy, replace: bool = False
) -> PebblingStrategy:
    """Register a strategy under its canonical name and all aliases.

    ``replace=False`` (the default) rejects collisions with existing names
    or aliases, so a plugin cannot silently shadow a built-in.  Returns the
    strategy for decorator-style chaining.
    """
    names = (strategy.name, *strategy.aliases)
    if not replace:
        for name in names:
            if name in _STRATEGIES or name in _ALIASES:
                raise ValueError(
                    f"name {name!r} is already registered; pass replace=True "
                    "to override"
                )
    _STRATEGIES[strategy.name] = strategy
    for alias in strategy.aliases:
        _ALIASES[alias] = strategy.name
    return strategy


def unregister_strategy(name: str) -> None:
    """Remove a strategy (by canonical name) and its aliases."""
    strategy = _STRATEGIES.pop(name, None)
    if strategy is None:
        raise UnknownStrategyError(name, closest_name(name, _known_names()))
    for alias in strategy.aliases:
        _ALIASES.pop(alias, None)


def get_strategy(name: str) -> PebblingStrategy:
    """Resolve a canonical name or alias to its strategy.

    Raises :class:`UnknownStrategyError` (a ``ValueError``) with a
    did-you-mean suggestion for unknown names.
    """
    _ensure_builtins()
    if name in _STRATEGIES:
        return _STRATEGIES[name]
    if name in _ALIASES:
        return _STRATEGIES[_ALIASES[name]]
    raise UnknownStrategyError(name, closest_name(name, _known_names()))


def available_strategies() -> List[PebblingStrategy]:
    """Registered strategies sorted by name."""
    _ensure_builtins()
    return sorted(_STRATEGIES.values(), key=lambda s: s.name)
