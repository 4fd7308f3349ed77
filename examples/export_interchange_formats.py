#!/usr/bin/env python3
"""Exporting flow results to standard interchange formats.

The paper's tool chain moves designs between ABC, CirKit, RevKit and REVS as
files; this example shows the equivalent exports offered by the library so
that circuits can be inspected with external tools:

* the bit-blasted AIG as ASCII AIGER (``.aag``),
* the ESOP cover as a Berkeley PLA file (``.type fr``),
* the reversible circuit as RevLib ``.real``,
* the Clifford+T expansion as OpenQASM 2.0.

Run with::

    python examples/export_interchange_formats.py [n] [output-directory]
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro import run_flow
from repro.hdl.synthesize import synthesize_reciprocal_design
from repro.io.aiger import write_aiger
from repro.io.pla import write_pla
from repro.io.qasm import write_qasm
from repro.io.realfmt import write_real
from repro.logic.collapse import collapse_to_esop
from repro.opt import parse_pipeline
from repro.quantum.mapping import map_to_clifford_t


def main(bitwidth: int = 4, output_dir: str = "export_output") -> None:
    directory = Path(output_dir)
    directory.mkdir(exist_ok=True)

    verilog, aig = synthesize_reciprocal_design("intdiv", bitwidth)
    (directory / "intdiv.v").write_text(verilog)
    optimized = parse_pipeline("dc2").run(aig).network
    (directory / "intdiv.aag").write_text(write_aiger(optimized))

    cover = collapse_to_esop(optimized)
    (directory / "intdiv.pla").write_text(
        write_pla(cover, input_names=aig.pi_names(), output_names=aig.po_names())
    )

    result = run_flow("esop", "intdiv", bitwidth, p=0)
    (directory / "intdiv.real").write_text(write_real(result.circuit))

    quantum = map_to_clifford_t(result.circuit)
    (directory / "intdiv.qasm").write_text(write_qasm(quantum))

    print(f"INTDIV({bitwidth}) exported to {directory}/:")
    for path in sorted(directory.iterdir()):
        print(f"  {path.name:14s} {path.stat().st_size:6d} bytes")
    print()
    print(f"AIG: {optimized.num_nodes()} AND nodes   ESOP: {cover.num_terms()} terms")
    print(
        f"reversible: {result.report.qubits} qubits, {result.report.t_count} T   "
        f"Clifford+T: {quantum.num_qubits} qubits, {quantum.num_gates()} gates"
    )


if __name__ == "__main__":
    bitwidth = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    output = sys.argv[2] if len(sys.argv) > 2 else "export_output"
    main(bitwidth, output)
