"""Verification micro-benchmark: bit-parallel vs per-input simulation.

The verify subsystem's reason to exist is that simulating every test
vector of a batch in one int per signal makes the ABC-``cec``-style check
much cheaper than one pass per input.  This bench measures exactly that on
an 8-input design (the paper's default bit-width): the exhaustive
256-pattern check of the synthesised reversible circuit and of the
bit-blasted AIG, once per input (``circuit.evaluate``, and
``aig.simulate_words`` on 1-bit patterns) and once on the whole batch
(:mod:`repro.verify.bitsim`, ``aig.simulate_words`` on 256-bit patterns).
The acceptance bar is a >= 10x speedup on the reversible-circuit check; in
practice the margin is much larger.
"""

from __future__ import annotations

import time

from conftest import write_result
from repro.core.flows import run_flow
from repro.utils.tables import format_table
from repro.verify import bitsim

BITWIDTH = 8
REPEATS = 3


def _best_of(repeats, fn):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_bit_parallel_vs_per_input(benchmark):
    flow_result = run_flow(
        "hierarchical", "intdiv", BITWIDTH, verify=False, strategy="bennett"
    )
    circuit = flow_result.circuit
    aig = flow_result.context["aig"]
    num_patterns = 1 << circuit.num_inputs()
    (batch,) = bitsim.exhaustive_chunks(circuit.num_inputs())

    loop_seconds, loop_words = _best_of(
        REPEATS, lambda: [circuit.evaluate(x) for x in range(num_patterns)]
    )
    parallel_seconds, outputs = _best_of(
        REPEATS, lambda: bitsim.simulate_reversible(circuit, batch)
    )
    # Identical verdicts: the bit-parallel engine computes the very same
    # output words as the per-input loop.
    assert [
        bitsim.output_word_at(outputs, x) for x in range(num_patterns)
    ] == loop_words

    def aig_per_input():
        words = []
        for x in range(num_patterns):
            bits = [(x >> i) & 1 for i in range(aig.num_pis())]
            outputs = aig.simulate_words(bits, 1)
            words.append(sum(bit << j for j, bit in enumerate(outputs)))
        return words

    aig_loop_seconds, aig_words = _best_of(REPEATS, aig_per_input)
    aig_parallel_seconds, aig_outputs = _best_of(
        REPEATS, lambda: aig.simulate_words(batch.inputs, batch.num_patterns)
    )
    assert [
        bitsim.output_word_at(aig_outputs, x) for x in range(num_patterns)
    ] == aig_words

    circuit_speedup = loop_seconds / parallel_seconds
    aig_speedup = aig_loop_seconds / aig_parallel_seconds
    rows = [
        (
            f"reversible circuit ({circuit.num_gates()} gates)",
            f"{loop_seconds * 1e3:.2f}",
            f"{parallel_seconds * 1e3:.2f}",
            f"{circuit_speedup:.1f}x",
        ),
        (
            f"bit-blasted AIG ({aig.num_nodes()} ands)",
            f"{aig_loop_seconds * 1e3:.2f}",
            f"{aig_parallel_seconds * 1e3:.2f}",
            f"{aig_speedup:.1f}x",
        ),
    ]
    text = format_table(
        ["structure", "per-input [ms]", "bit-parallel [ms]", "speedup"],
        rows,
        title=(
            f"Exhaustive verification of INTDIV({BITWIDTH}) "
            f"({num_patterns} patterns)"
        ),
    )
    write_result(
        "verify_bit_parallel",
        text,
        metrics={
            "circuit_speedup": round(circuit_speedup, 2),
            "aig_speedup": round(aig_speedup, 2),
            "circuit_gates": circuit.num_gates(),
            "aig_ands": aig.num_nodes(),
        },
        config={
            "design": "intdiv",
            "bitwidth": BITWIDTH,
            "patterns": num_patterns,
            "min_speedup": 10.0,
        },
    )

    # The acceptance bar of the subsystem: >= 10x on an 8-input design.
    assert circuit_speedup >= 10.0, f"only {circuit_speedup:.1f}x on the circuit"

    benchmark.pedantic(
        bitsim.simulate_reversible,
        args=(circuit, batch),
        rounds=5,
        iterations=1,
    )
