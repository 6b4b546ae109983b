"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

1. Two traced runs of each workload, in separate processes, report the
   same problem-size and call counts, and each finds its traced artifacts
   byte-identical to its untraced ones.
2. Negative controls: a corrupted reference digest, and an artifact byte
   changed by the program, each give a nonzero failed fraction while the
   end-to-end metrics are still reported.
3. A sweep seed with no recorded references passes when every generated
   instance exits 0 and repeats its bytes from pass to pass.

Exits 0 when every check holds.  It takes about two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import workloads

UNRECORDED_SEED = 1000


def traced_counts(workload: str) -> tuple[dict, bool]:
    command = [
        sys.executable, str(run.HERE / "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", "1", "--trace", "1",
    ]
    done = subprocess.run(command, cwd=run.ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    counts = {k: m["value"] for k, m in result["metrics"].items() if m["unit"] != "s"}
    return counts, result["correct"]


def negative_control(tamper) -> dict:
    bench, first_setup_s = run.set_up("golden", 0)
    tamper(bench)
    result, _ = run.measure(bench, 0.1, False, first_setup_s)
    return result


def corrupt_reference(bench) -> None:
    digests = bench.expected[bench.instances[0].name]["sha256"]
    old = digests["report.json"]
    digests["report.json"] = ("0" if old[0] != "0" else "1") + old[1:]


def change_artifact_byte(bench) -> None:
    cli = bench.cli
    write_report = cli.write_report

    def write_changed(results, path):
        write_report(results, path)
        with open(path, "a", encoding="utf-8") as f:
            f.write(" ")

    cli.write_report = write_changed


def main() -> int:
    problems = []
    for workload in workloads.WORKLOADS:
        first, first_ok = traced_counts(workload)
        second, second_ok = traced_counts(workload)
        print(f"{workload}: counts {json.dumps(first, sort_keys=True)}")
        if first != second:
            problems.append(f"{workload}: counts differ between runs: {first} != {second}")
        if not (first_ok and second_ok):
            problems.append(f"{workload}: a traced run was not correct")
    for name, tamper in (("corrupted reference", corrupt_reference), ("changed byte", change_artifact_byte)):
        result = negative_control(tamper)
        fraction = result["failed"] / result["attempted"]
        print(f"negative control, {name}: failed_fraction {fraction} ({result['failed']} of {result['attempted']})")
        if result["failed"] == 0 or result["correct"] or "pass_rel" not in result["metrics"]:
            problems.append(f"negative control {name} was not caught: {result}")
    bench, first_setup_s = run.set_up("sweep", UNRECORDED_SEED)
    shipped = set(workloads.SWEEP_SHIPPED)
    if any(e["sha256"] for name, e in bench.expected.items() if name not in shipped):
        problems.append(f"seed {UNRECORDED_SEED} has recorded references; pick another")
    for _ in range(2):  # the second pass must repeat the first one's bytes
        result, _ = run.measure(bench, 0.1, False, first_setup_s)
        print(f"unrecorded sweep seed {UNRECORDED_SEED}: {result['attempted']} instance runs, {result['failed']} failed")
        if not result["correct"]:
            problems.append(f"unrecorded sweep seed: {result}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
