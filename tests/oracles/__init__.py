"""Reference implementations the production kernels are tested against.

Each oracle is the original, plainly written version of a kernel that
``repro`` now implements exactly one way (vectorised, iterative or
mask-native).  The property tests compare the two on random inputs:

* :mod:`oracles.logic` — cut truth tables, PSDKRO extraction, AIG and
  XMG simulation by per-minterm walks and by every node's truth table
  (``simulate_minterm`` / ``node_truth_tables``), ``Aig.create_and`` and
  ``Aig.cleanup``, ``Xmg.create_maj`` / ``create_xor`` and
  ``Xmg.cleanup``, and the refactor/balance scripts before the
  factored-form memo, plus the minimum-cost
  ESOP of every small function by shortest path (a quality bound, not a
  former kernel),
* :mod:`oracles.circuits` — T-count, depth and resource sweeps, the
  reversible peephole passes, cascade simulation on ``uint64`` word rows,
  transformation-based synthesis and the greedy bounded pebbling
  scheduler.
"""
