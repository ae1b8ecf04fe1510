#!/usr/bin/env python3
"""Record reference.json: checked output values of the default-seed first passes.

Run from the root of a checkout, on the commit whose outputs are the
reference:

    python3 bench/record_reference.py

Every request of the first pass of every workload for the default seed
runs once; the values that ``checks.reference_values`` picks are stored.
Later runs with the default seed must reproduce them to
``checks.REFERENCE_RTOL``.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def main() -> int:
    cli = run.import_cli()
    machine = run.machine_record()
    recorded = {}
    failed = 0
    for name in workloads.WORKLOADS:
        first_pass = workloads.generate(name, run.DEFAULT_SEED, workloads.cycle_length(name))
        runner = run.Runner(cli, run.WORK / name)
        recorded[name] = {}
        for req in first_pass:
            tally = run.Tally()
            runner.execute(req, tally)
            if tally.failed:
                failed += 1
                print(f"{name} request {req.index} failed: {tally.failures}", file=sys.stderr)
                continue
            values = checks.reference_values(req, runner.out_path)
            if values:
                recorded[name][str(req.index)] = values
    run.REFERENCE.write_text(json.dumps({
        "seed": run.DEFAULT_SEED,
        "rtol": checks.REFERENCE_RTOL,
        "commit": machine["commit"],
        "src_sha256": machine["src_sha256"],
        "workloads": recorded,
    }, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
