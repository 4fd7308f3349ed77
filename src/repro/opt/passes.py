"""The :class:`Pass` object model of the pass manager.

A pass is a *purely functional* transformation of an optimisation target:
it receives a target — a :class:`~repro.logic.network.LogicNetwork`
(``aig`` / ``xmg``), a reversible Toffoli cascade (``rev``) or an explicit
Clifford+T circuit (``qc``) — returns a target of the same type and never
mutates its input.  When nothing changed, a pass may return its input
object itself (the reversible and XMG passes do), and
:meth:`repro.opt.pipeline.Pipeline.run`'s fixed-point exit relies on that
identity.  The class wraps the bare function with the
metadata the registry, the pipelines and the CLI need — name, aliases,
applicable target types, a one-line description — and with uniform
before/after accounting (:class:`PassReport`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Tuple

from repro.logic.network import NetworkStats
from repro.opt.targets import TARGET_KINDS, target_kind, target_stats

__all__ = ["Pass", "PassReport"]

#: Target types a pass may declare (``aig`` / ``xmg`` / ``rev`` / ``qc``).
NETWORK_TYPES = TARGET_KINDS


@dataclass(frozen=True)
class PassReport:
    """Before/after accounting of one pass application."""

    pass_name: str
    before: NetworkStats
    after: NetworkStats
    runtime_seconds: float

    @property
    def gate_delta(self) -> int:
        """Gate-count change (negative is an improvement)."""
        return self.after.num_gates - self.before.num_gates

    @property
    def depth_delta(self) -> int:
        """Depth change (negative is an improvement)."""
        return self.after.depth - self.before.depth

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.pass_name}: gates {self.before.num_gates} -> "
            f"{self.after.num_gates}, depth {self.before.depth} -> "
            f"{self.after.depth} ({self.runtime_seconds:.3f} s)"
        )


class Pass:
    """A named, registrable optimisation pass.

    ``func`` is the underlying transformation (``target -> target``);
    ``network_types`` the target kinds it accepts (any subset of ``aig`` /
    ``xmg`` / ``rev`` / ``qc``); ``aliases`` the short ABC-style names the
    pipeline parser also resolves (e.g. ``"b"`` for ``balance`` or ``"rc"``
    for ``rev_cancel``).
    """

    def __init__(
        self,
        name: str,
        func: Callable[[Any], Any],
        network_types: Iterable[str] = ("aig",),
        description: str = "",
        aliases: Iterable[str] = (),
    ) -> None:
        if not name:
            raise ValueError("a pass needs a non-empty name")
        self.name = name
        self._func = func
        self.network_types = frozenset(network_types)
        unknown = self.network_types.difference(NETWORK_TYPES)
        if not self.network_types or unknown:
            raise ValueError(
                f"pass {name!r} declares invalid network types "
                f"{sorted(unknown) or '(none)'}; expected a subset of "
                f"{NETWORK_TYPES}"
            )
        self.description = description
        self.aliases = tuple(aliases)

    def applies_to(self, network: Any) -> bool:
        """True if the pass accepts this target's type."""
        return target_kind(network) in self.network_types

    def apply(self, network: Any) -> Any:
        """Run the bare transformation (type-checked, no accounting)."""
        kind = target_kind(network)
        if kind not in self.network_types:
            raise TypeError(
                f"pass {self.name!r} does not apply to {kind!r} networks "
                f"(accepts: {', '.join(sorted(self.network_types))})"
            )
        return self._func(network)

    def run(self, network: Any) -> Tuple[Any, PassReport]:
        """Run the pass and return ``(result, before/after report)``."""
        before = target_stats(network)
        start = time.perf_counter()
        result = self.apply(network)
        runtime = time.perf_counter() - start
        report = PassReport(
            pass_name=self.name,
            before=before,
            after=target_stats(result),
            runtime_seconds=runtime,
        )
        return result, report

    def __call__(self, network: Any) -> Any:
        return self.apply(network)

    def __repr__(self) -> str:
        return (
            f"Pass(name={self.name!r}, "
            f"networks={'/'.join(sorted(self.network_types))})"
        )
