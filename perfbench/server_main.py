"""``repro serve`` with the benchmark's probes installed.

    python3 perfbench/server_main.py OUT [--trace] serve --port 0 ...

Runs the program's own ``serve`` command in this process.  Around every
flow the worker thread runs, it times the flow and takes a speed sample
of :mod:`calibrate` before and after it.  With ``--trace`` it also wraps
each layer in the spans of :mod:`spans`.  When the server has drained it
writes the flow timings, the speed samples and the span read-out to
``OUT``, and the spans to ``OUT`` with the suffix ``.trace.json`` (Chrome
trace-event format).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import spans  # noqa: E402


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = None
    if argv[:1] == ["--trace"]:
        argv = argv[1:]
        tracer = spans.Tracer()
        spans.install_layers(tracer)

    import repro.core.explorer as explorer

    run_flow = explorer.run_flow
    flows, samples = [], []

    def timed(*args, **kwargs):
        samples.append(calibrate.sample())
        start = time.perf_counter()
        try:
            return run_flow(*args, **kwargs)
        finally:
            flows.append((start, time.perf_counter()))
            samples.append(calibrate.sample())

    explorer.run_flow = timed
    from repro.cli import main as cli_main

    code = cli_main(argv)
    result = {"flows": flows, "samples": samples}
    if tracer is not None:
        tracer.write_chrome_trace(str(out.with_suffix(".trace.json")))
        result["trace"] = tracer.summary()
    out.write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
