"""Write reference.json and reference.npz: every benchmark input's outputs on the current code.

    python3 bench/record_reference.py

The file is the reference that run.py checks each iteration against, so
record it only on code whose outputs are the accepted ones.  For each
input it holds the output fingerprint (check.py), whose float columns
are kept in reference.npz, and the counts the traced run measured, which
run.py compares with the closed-form counts that its throughput metrics
divide by.  Recording again on the same code rewrites both files byte
for byte.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import check
import run
import spans
import workloads


def record(engine, workload, work, arrays: dict) -> dict:
    scenario = engine.build_scenario(workload.doc)
    tracer = spans.Tracer()
    with tracer.installed():
        bundle, files = run.iteration(engine, scenario, work / f"{workload.name}{workload.variant}")
    hold_calls = tracer.stats.get("analog.set_hold", [0])[run.CALLS]
    return {
        "measured": {
            "switch_events": tracer.counts["engine.run_generic.events"],
            "dac_moves": hold_calls // workloads.N_CELLS,
            "samples": tracer.counts["engine.run_generic.samples"],
        },
        "output": check.store(check.fingerprint(bundle, files), arrays),
    }


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from clfgsim import engine

    reference: dict = {}
    arrays: dict = {}
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=run.WORK))
    try:
        for name in workloads.NAMES:
            seeds = range(workloads.VARIANTS) if name in ("pulse", "refresh") else (0,)
            reference[name] = {}
            for seed in seeds:
                workload = workloads.make(name, seed)
                reference[name][str(workload.variant)] = record(engine, workload, work, arrays)
            print(f"{name}: {len(reference[name])} inputs recorded")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    check.write_arrays(run.REFERENCE_ARRAYS, arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main())
