"""Record perfbench/references.json from the code in this checkout.

    python3 perfbench/record.py --seeds 0-19

Runs every instance of every workload once (the sweep once per seed) and
stores each instance's exit code and the SHA-256 of its report.json,
decay.csv and massmap.csv, with the environment they were recorded in.
Record again only when a change is meant to alter those bytes, and say in
CHANGES.md which bytes changed and why.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def observed(bench: run.Bench, scratch: Path) -> dict:
    result = bench.run_pass(scratch)
    if result["errors"]:
        raise RuntimeError(f"instances raised: {result['errors']}")
    return {
        name: {"exit": obs["exit"], "sha256": obs["sha256"]}
        for name, obs in sorted(result["observed"].items())
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-19", help="sweep seeds to record, as 'first-last'")
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    shipped = set(workloads.SWEEP_SHIPPED)
    recorded: dict = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as scratch:
        for workload in workloads.WORKLOADS:
            seeds = range(first, last + 1) if workload == "sweep" else [first]
            for seed in seeds:
                out = observed(run.Bench(workload, seed), Path(scratch) / f"{workload}-{seed}")
                by_seed = recorded.setdefault(workload, {})
                if workload == "sweep":
                    by_seed["*"] = {k: v for k, v in out.items() if k in shipped}
                    by_seed[str(seed)] = {k: v for k, v in out.items() if k not in shipped}
                else:
                    by_seed["*"] = out
                print(f"{workload} seed {seed}: {len(out)} instances", file=sys.stderr)
    payload = {"environment": run.environment(), "workloads": recorded}
    run.REFERENCES.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
