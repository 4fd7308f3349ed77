"""The fixed-point exit of :meth:`repro.opt.pipeline.Pipeline.run`.

A pass that handed back the current target object itself is skipped
until some pass returns a different object.  Passes are pure, so the
skipped runs would have returned that same object: the exit must give
exactly the result of running every listed pass, while ``str(pipeline)``,
labels and cache keys stay as they were.
"""

import random

import pytest

from oracles.circuits import (
    cancel_adjacent_gates_reference,
    merge_not_gates_reference,
)
from repro.core.cache import cache_key
from repro.core.flows import make_flow
from repro.hdl.designs import intdiv_verilog
from repro.hdl.synthesize import synthesize_reciprocal_design
from repro.io.aiger import write_aiger
from repro.opt import Pass, Pipeline, as_pipeline, parse_pipeline
from repro.reversible.circuit import ReversibleCircuit
from repro.reversible.gates import ToffoliGate
from repro.reversible.optimize import cancel_adjacent_gates, merge_not_gates

REV_DEFAULT_NAMES = "rev_not_merge;rev_cancel;" * 3 + "rev_not_merge;rev_cancel"


def _four_reference_rounds(circuit):
    for _ in range(4):
        circuit = cancel_adjacent_gates_reference(merge_not_gates_reference(circuit))
    return circuit


def _columns(circuit):
    return tuple(tuple(column) for column in circuit.gate_store().columns())


def _rewritable_cascade(rng):
    """A random cascade with planted NOT sandwiches and cancelling pairs.

    In half of the cascades each sandwich hides a cancelling pair, so
    ``rn`` finds it only after ``rc`` has run once.
    """
    hidden = rng.random() < 0.5
    num_lines = rng.randint(3, 7)
    circuit = ReversibleCircuit()
    for line in range(num_lines):
        circuit.add_line(f"l{line}")
    for _ in range(rng.randint(5, 30)):
        target = rng.randrange(num_lines)
        others = [line for line in range(num_lines) if line != target]
        controls = tuple(
            (line, rng.random() < 0.7)
            for line in rng.sample(others, rng.randint(0, min(3, len(others))))
        )
        gate = ToffoliGate(controls, target)
        pattern = rng.random()
        if pattern < 0.3 and controls:
            line = controls[0][0]
            inner = [gate, gate, gate] if hidden else [gate]
            circuit.extend([ToffoliGate.x(line), *inner, ToffoliGate.x(line)])
        elif pattern < 0.6:
            circuit.extend([gate, gate])
        else:
            circuit.append(gate)
    return circuit


def test_rev_default_stops_after_one_round_on_the_table2_cascade(
    intdiv8_symbolic_cascade,
):
    circuit = intdiv8_symbolic_cascade
    result = as_pipeline("rev-default").run(circuit)
    assert [report.pass_name for report in result.reports] == [
        "rev_not_merge",
        "rev_cancel",
    ]
    assert _columns(result.network) == _columns(_four_reference_rounds(circuit))
    assert result.network.num_gates() == 967


def test_fuzzed_cascades_match_four_full_rounds():
    rng = random.Random(18)
    rewritten = 0
    for _ in range(60):
        circuit = _rewritable_cascade(rng)
        if cancel_adjacent_gates(merge_not_gates(circuit)) is circuit:
            continue
        rewritten += 1
        result = as_pipeline("rev-default").run(circuit)
        assert len(result.reports) > 2
        expected = _four_reference_rounds(circuit)
        assert result.network.gates() == expected.gates()
        assert _columns(result.network) == _columns(expected)
    assert rewritten >= 40


def _counting_pass(name, func, calls):
    def run(circuit):
        calls.append(name)
        return func(circuit)

    return Pass(name, run, network_types=("rev",))


def test_a_pass_runs_again_once_the_target_object_changes():
    calls = []
    keep = _counting_pass("keep", lambda circuit: circuit, calls)
    copy = _counting_pass("copy", lambda circuit: circuit.copy(), calls)
    circuit = ReversibleCircuit()
    circuit.add_line("a")
    circuit.append(ToffoliGate.x(0))
    result = Pipeline([keep, keep, copy, keep, copy, keep, keep]).run(circuit)
    assert calls == ["keep", "copy", "keep", "copy", "keep"]
    assert [report.pass_name for report in result.reports] == calls


def test_aig_balance_rounds_all_run_even_at_a_structural_fixed_point():
    # balance always builds a new AIG object, so the exit never fires on
    # it, even when round 2 rebuilds round 1's network node for node.
    _, aig = synthesize_reciprocal_design("intdiv", 4)
    balanced = parse_pipeline("b").run(aig).network
    result = parse_pipeline("(b)*2").run(balanced)
    assert [report.pass_name for report in result.reports] == [
        "balance",
        "balance",
    ]
    assert write_aiger(result.network) == write_aiger(balanced)


@pytest.mark.parametrize("spec", ["(rn;rc)*4", "rev-default"])
def test_rev_pipeline_text_round_trips(spec):
    pipeline = parse_pipeline(spec)
    assert str(pipeline) == REV_DEFAULT_NAMES
    assert parse_pipeline(str(pipeline)) == pipeline
    assert len(pipeline) == 8


def test_cache_keys_are_unchanged():
    source = intdiv_verilog(8)

    def key(flow, parameters):
        # The parameters an engine run with verify=True hands the flow.
        chain = make_flow(flow).prefix_keys(
            "intdiv", 8, {**parameters, "verify": "auto"}
        )
        return cache_key(source, flow, chain[-1])

    assert key("symbolic", {"rev_opt": "rev-default"}) == (
        "b995c98de5837dc8f30f5a942d870756d89bcf93c486130ef2f95c04338f9af4"
    )
    assert key("esop", {"p": 0, "rev_opt": "(rn;rc)*4"}) == (
        "769fa6e7befc6dada8c2e4c45d731f17a4b78258f975b6feaee194a86ccd79df"
    )
