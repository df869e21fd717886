"""One benchmark run in a fresh process.

Usage: ``python3 child.py '<json spec>'``, with ``PYTHONPATH`` naming the
checkout's ``src``.  The child imports oqst and parses the configuration,
which is the set-up, then, unless ``spec["setup_only"]`` is set, times

- ``oqst.cli.execute`` on the parsed ``argv`` (spec ``mode`` ``cli``), or
- ``run_cavity`` on the ``cavity`` keyword arguments (``mode`` ``library``).

The child writes a JSON result to ``spec["result"]``: the moment set-up
ended (``time.perf_counter``, which is system-wide on Linux, so the parent
can subtract its spawn time), the run's wall time, and whatever the
parent needs to check the outputs.  With ``spec["trace"]`` set, the run is
traced and the trace is written next to the result.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from pathlib import Path

from checks import LEDGER_COLUMNS, law_flags


def main(spec: dict) -> int:
    mode = spec["mode"]
    if mode == "library":
        from oqst.scenarios import CavityConfig, run_cavity

        config = CavityConfig(**spec["cavity"])
    else:
        from oqst import cli

        config = cli.parse_config(spec["argv"])
    result = {"ready": time.perf_counter()}
    if spec.get("setup_only"):
        Path(spec["result"]).write_text(json.dumps(result))
        return 0

    tracer = None
    if spec.get("trace"):
        from tracer import Tracer, install_oqst

        tracer = Tracer(spec["trace"]["trace_id"], spec["trace"]["part_dir"])
        install_oqst(tracer)
        if mode == "library":
            run_cavity = sys.modules["oqst.scenarios.cavity"].run_cavity

    with open(spec["stdout"], "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        if mode == "library":
            report = run_cavity(config)
        else:
            result["exit_code"] = cli.execute(config)
        result["wall_s"] = time.perf_counter() - t0

    if mode == "library":
        result["flags"] = law_flags(report.law_checks)
        result["records"] = [
            {
                "outcomes": list(rec.outcomes),
                "kinds": list(rec.kinds),
                "columns": {f: [getattr(l, f) for l in rec.ledgers] for f in LEDGER_COLUMNS.values()},
            }
            for rec in report.records
        ]
    if tracer is not None:
        trace = tracer.snapshot()
        emit_bytes = 0
        if "cli.emit_outputs" in trace["stats"]:
            emit_bytes = sum(p.stat().st_size for p in Path(config.out_dir).iterdir() if p.is_file())
        trace["extra"] = {"emit_bytes": emit_bytes}
        Path(spec["trace"]["path"]).write_text(json.dumps(trace))
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
