"""ABC-style optimisation pipelines: parsing, execution, keep-best, guard.

A pipeline spec is a semicolon- (or whitespace-) separated sequence of
registered pass (or named pipeline) names with optional round repetition::

    b;rw;rf              three passes, ABC short names
    dc2*3                one script pass repeated three times
    (xst;xrf)*2          a parenthesised group repeated twice
    xmg-default          a registered named pipeline, expanded inline
    none                 the empty pipeline (also "" and "off")

Groups and repetitions are expanded at parse time, so a
:class:`Pipeline` is simply a flat pass list; ``str(pipeline)`` prints the
canonical names and re-parses to the same passes (round-trip property,
relied on by the cache keys and the sweep labels).

Execution (:meth:`Pipeline.run`) threads the target through every pass,
records a :class:`~repro.opt.passes.PassReport` per application, keeps the
best intermediate result under the per-target lexicographic
:func:`~repro.opt.targets.target_cost` objective — ``(gates, depth)`` for
AIGs, ``(MAJ, gates, depth)`` for XMGs, ``(T-count, gates)`` for reversible
cascades and Clifford+T circuits — and can guard every pass with the
differential equivalence checker of :mod:`repro.verify` (modes ``off`` /
``sampled`` / ``full`` / ``auto``; quantum circuits are compared as
unitaries with :func:`~repro.verify.differential.check_quantum_equivalent`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Set, Tuple, Union

from repro.opt.passes import NETWORK_TYPES, Pass, PassReport
from repro.opt.registry import _pipeline_spec, get_pass
from repro.opt.targets import target_copy, target_cost, target_kind

__all__ = [
    "Pipeline",
    "PipelineError",
    "PipelineResult",
    "PipelineVerificationError",
    "as_pipeline",
    "parse_pipeline",
]

#: Spellings of the empty pipeline accepted by :func:`parse_pipeline`.
_EMPTY_SPECS = ("", "none", "off")


class PipelineError(ValueError):
    """A pipeline spec could not be parsed or applied."""


class PipelineVerificationError(RuntimeError):
    """The per-pass equivalence guard caught a functional change."""


@dataclass
class PipelineResult:
    """Outcome of one pipeline execution."""

    network: Any
    reports: List[PassReport] = field(default_factory=list)
    #: Lexicographic cost of the returned network.
    cost: Tuple[int, ...] = ()
    #: Guard mode the run used (``"off"`` when unguarded).
    guard: str = "off"

    @property
    def total_runtime(self) -> float:
        """Summed pass runtimes in seconds."""
        return sum(report.runtime_seconds for report in self.reports)


_TOKEN = re.compile(r"\s*([A-Za-z0-9_./+-]+|[();*])")


def _tokenize(spec: str) -> List[str]:
    tokens: List[str] = []
    position = 0
    while position < len(spec):
        match = _TOKEN.match(spec, position)
        if match is None:
            remainder = spec[position:].strip()
            if not remainder:
                break
            raise PipelineError(
                f"invalid pipeline spec {spec!r}: cannot parse {remainder!r}"
            )
        tokens.append(match.group(1))
        position = match.end()
    return tokens


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens: List[str], spec: str, depth: int):
        self.tokens = tokens
        self.spec = spec
        self.position = 0
        self.depth = depth

    def peek(self) -> Optional[str]:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise PipelineError(f"unexpected end of pipeline spec {self.spec!r}")
        self.position += 1
        return token

    def parse_sequence(self) -> List[Pass]:
        passes: List[Pass] = []
        while True:
            token = self.peek()
            if token is None or token == ")":
                return passes
            if token == ";":
                self.take()
                continue
            passes.extend(self.parse_term())

    def parse_term(self) -> List[Pass]:
        token = self.take()
        if token == "(":
            group = self.parse_sequence()
            if self.peek() != ")":
                raise PipelineError(
                    f"unbalanced parentheses in pipeline spec {self.spec!r}"
                )
            self.take()
        elif token in (";", ")", "*"):
            raise PipelineError(
                f"unexpected {token!r} in pipeline spec {self.spec!r}"
            )
        else:
            group = self.resolve_name(token)
        if self.peek() == "*":
            self.take()
            rounds_token = self.take()
            try:
                rounds = int(rounds_token)
            except ValueError:
                raise PipelineError(
                    f"invalid round count {rounds_token!r} in pipeline spec "
                    f"{self.spec!r}"
                ) from None
            if rounds < 0:
                raise PipelineError(
                    f"negative round count in pipeline spec {self.spec!r}"
                )
            group = group * rounds
        return group

    def resolve_name(self, name: str) -> List[Pass]:
        nested_spec = _pipeline_spec(name)
        if nested_spec is not None:
            if self.depth >= 8:
                raise PipelineError(
                    f"named pipeline {name!r} nests too deeply (cycle?)"
                )
            return _parse(nested_spec, depth=self.depth + 1).passes
        return [get_pass(name)]


class Pipeline:
    """A flat, executable sequence of registered passes."""

    def __init__(self, passes: Sequence[Pass] = ()):
        self.passes: List[Pass] = list(passes)

    # -- introspection ---------------------------------------------------------

    def pass_names(self) -> List[str]:
        """Canonical names of the passes, in execution order."""
        return [p.name for p in self.passes]

    def network_types(self) -> frozenset:
        """Target types every pass of the pipeline accepts."""
        if not self.passes:
            return frozenset(NETWORK_TYPES)
        types = self.passes[0].network_types
        for p in self.passes[1:]:
            types = types & p.network_types
        return types

    def applies_to(self, network: Any) -> bool:
        """True if every pass accepts this target's type."""
        return target_kind(network) in self.network_types()

    def __str__(self) -> str:
        return ";".join(self.pass_names())

    def __repr__(self) -> str:
        return f"Pipeline({str(self) or 'none'!r})"

    def __len__(self) -> int:
        return len(self.passes)

    def __iter__(self):
        return iter(self.passes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pipeline):
            return NotImplemented
        return self.pass_names() == other.pass_names()

    def __hash__(self) -> int:
        return hash(tuple(self.pass_names()))

    # -- execution -------------------------------------------------------------

    def run(
        self,
        network: Any,
        guard: Union[str, bool, None] = "off",
        keep_best: bool = True,
        guard_samples: int = 256,
        guard_seed: int = 1,
    ) -> PipelineResult:
        """Thread a target through every pass.

        The input is never mutated.  With ``keep_best`` (default) the
        returned target is the best seen — the isolated input included —
        under the per-target lexicographic :func:`target_cost` objective;
        each pass still consumes its predecessor's output, so a
        size-neutral restructuring pass can enable later gains without
        losing the incumbent.

        ``guard`` enables the per-pass equivalence check (``"sampled"`` /
        ``"full"`` / ``"auto"``, or booleans with their historical
        meaning): each pass output is differentially compared against its
        input — bit-parallel simulation for logic networks and reversible
        cascades, statevector comparison for quantum circuits — and a
        mismatch raises :class:`PipelineVerificationError` naming the
        offending pass, turning a silently wrong optimisation into a loud,
        attributable failure.

        Fixed-point exit: a pass that returned its input object unchanged
        is skipped (and reports nothing) until some pass returns a
        different object.  Only object identity counts, never structural
        equality, so the exit is exact for any pure pass.
        """
        from repro.verify.differential import (
            check_equivalent,
            check_quantum_equivalent,
            normalize_verify_mode,
        )

        mode = normalize_verify_mode(guard)
        current = target_copy(network)
        best = current
        best_cost = target_cost(current)
        reports: List[PassReport] = []
        # Passes that returned ``current`` itself.
        settled: Set[Pass] = set()
        for pass_ in self.passes:
            if pass_ in settled:
                continue
            if not pass_.applies_to(current):
                raise PipelineError(
                    f"pass {pass_.name!r} does not apply to "
                    f"{target_kind(current)!r} networks (accepts: "
                    f"{', '.join(sorted(pass_.network_types))})"
                )
            previous = current
            current, report = pass_.run(current)
            reports.append(report)
            if current is previous:
                settled.add(pass_)
            else:
                settled.clear()
            if mode != "off":
                checker = (
                    check_quantum_equivalent
                    if target_kind(current) == "qc"
                    else check_equivalent
                )
                check = checker(
                    previous,
                    current,
                    mode=mode,
                    num_samples=guard_samples,
                    seed=guard_seed,
                )
                if not check:
                    raise PipelineVerificationError(
                        f"pass {pass_.name!r} broke equivalence: "
                        f"{check.message}"
                    )
            cost = target_cost(current)
            if cost < best_cost:
                best, best_cost = current, cost
        result = best if keep_best else current
        return PipelineResult(
            network=result,
            reports=reports,
            cost=target_cost(result),
            guard=mode,
        )


def _parse(spec: str, depth: int = 0) -> Pipeline:
    text = spec.strip()
    if text.lower() in _EMPTY_SPECS:
        return Pipeline()
    parser = _Parser(_tokenize(text), spec, depth)
    passes = parser.parse_sequence()
    if parser.peek() is not None:
        raise PipelineError(
            f"unbalanced parentheses in pipeline spec {spec!r}"
        )
    return Pipeline(passes)


def parse_pipeline(spec: str) -> Pipeline:
    """Parse a pipeline spec into an executable :class:`Pipeline`.

    Unknown names raise :class:`~repro.opt.registry.UnknownPassError`
    with a did-you-mean suggestion; structural errors raise
    :class:`PipelineError`.  ``str(parse_pipeline(spec))`` re-parses to
    the same pass sequence.
    """
    return _parse(spec)


def as_pipeline(value: Union[str, Pipeline, None]) -> Pipeline:
    """Coerce a spec string, a :class:`Pipeline` or ``None`` to a pipeline.

    ``None`` (like ``""`` / ``"none"`` / ``"off"``) is the empty pipeline.
    """
    if value is None:
        return Pipeline()
    if isinstance(value, Pipeline):
        return value
    if isinstance(value, str):
        return parse_pipeline(value)
    raise TypeError(
        f"expected a pipeline spec string or Pipeline, got {type(value).__name__}"
    )
