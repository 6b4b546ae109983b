"""Benchmark of the toruslab pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload golden --seed 1 --seconds 55 --trace 0

The benchmark imports toruslab from ``src/``, sets up its workload (see
workloads.py) and runs timed passes until ``--seconds`` have elapsed,
setting the workload up afresh after each pass so that set-up is timed
across the run.  A pass parses every instance's config and runs its stages
with ``toruslab.cli.run_pipeline``, writing the artifacts to a scratch
directory inside the checkout.  After each pass, outside the timed region,
every instance's exit code and the SHA-256 of its report.json, decay.csv
and massmap.csv are checked against perfbench/references.json.  A
generated instance of a seed with no recorded references must exit 0 and
write the same bytes in every pass.

With ``--trace 0`` the result holds the end-to-end metrics: ``setup_s``,
the median set-up time; ``pass_rel`` and ``cpu_rel``, the median over
passes of a pass's wall and CPU time divided by the mean time of a fixed
calibration loop run between its instances (see ``calibrate``); and
``peak_rss_mb``.  On a shared machine whose speed swings by tens of
percent for minutes at a time, raw pass times spread that much from run
to run, while their ratio to the calibration stays within a few percent.
The raw median pass time ``pass_s``, its tail and ``cpu_s`` are printed
too.

With ``--trace 1`` untraced and traced passes alternate, the traced
passes' artifacts must match the untraced ones byte for byte, and the
result holds the per-layer self times and counts of one traced pass (see
tracing.py) and the tracing overhead.  The spans are written to
``.perfbench-trace/<workload>.json``, replacing the last run's.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give every
metric in words, the failed fraction with its base, the problem sizes and
the environment.  BLAS runs on one thread, and the benchmark starts no
threads or processes of its own.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, process_time

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

REFERENCES = HERE / "references.json"
HASHED = ("report.json", "decay.csv", "massmap.csv")
# A calibration takes about 15 ms and runs about every quarter second.
CALIBRATION_STEPS = 20000
CALIBRATE_EVERY_S = 0.25


def import_toruslab():
    """Import the package under ``src/`` afresh and return its modules."""
    src = ROOT / "src"
    if not (src / "toruslab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no toruslab package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "toruslab" or m.startswith("toruslab.")]:
        del sys.modules[name]
    modules = {
        name: importlib.import_module(f"toruslab.{name}")
        for name in ("cli", "quasimode", "wavefront", "trigpoly")
    }
    if Path(modules["cli"].__file__).resolve().parent != (src / "toruslab").resolve():
        raise ImportError("toruslab was not imported from this checkout")
    return modules


def load_references(workload: str, seed: int) -> dict:
    """Recorded {instance: {"exit", "sha256"}} for the workload and seed."""
    recorded = json.loads(REFERENCES.read_text())["workloads"].get(workload, {})
    refs = dict(recorded.get("*", {}))
    refs.update(recorded.get(str(seed), {}))
    return refs


class Bench:
    """One workload, set up and ready for timed passes."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.modules = import_toruslab()
        self.cli = self.modules["cli"]
        self.instances = workloads.instances(ROOT, workload, seed)
        for instance in self.instances:
            self.cli.parse_config(instance.text)
        refs = load_references(workload, seed)
        self.expected = {
            inst.name: refs.get(inst.name, {"exit": 0, "sha256": None})
            for inst in self.instances
        }

    def run_pass(self, out_root: Path, tracer=None) -> dict:
        """Run every instance once; return the pass's wall and CPU seconds,
        the mean wall and CPU seconds of the calibrations taken during it,
        the observed outputs and the instances that raised.

        Between instances, once CALIBRATE_EVERY_S seconds have passed
        since the last calibration, the clocks stop and ``calibrate`` runs,
        so calibrations sample the machine's speed throughout the pass.
        """
        cli = self.cli
        codes, errors = {}, {}
        wall = cpu = 0.0
        calibrations = [calibrate()]
        since = 0.0
        for instance in self.instances:
            if tracer is not None:
                tracer.request += 1
            wall0, cpu0 = perf_counter(), process_time()
            try:
                config = cli.parse_config(instance.text)
                codes[instance.name], _ = cli.run_pipeline(
                    config, instance.stages, out_root / instance.name
                )
            except cli.ConfigError:
                codes[instance.name] = cli.EXIT_USAGE
            except Exception:  # an instance that raises fails; the run goes on
                errors[instance.name] = traceback.format_exc()
            elapsed = perf_counter() - wall0
            wall, cpu, since = wall + elapsed, cpu + process_time() - cpu0, since + elapsed
            if since >= CALIBRATE_EVERY_S:
                calibrations.append(calibrate())
                since = 0.0
        if since > 0.0:
            calibrations.append(calibrate())
        observed = {name: observe(out_root / name, code) for name, code in codes.items()}
        return {
            "wall": wall,
            "cpu": cpu,
            "calibration_wall": statistics.fmean(c[0] for c in calibrations),
            "calibration_cpu": statistics.fmean(c[1] for c in calibrations),
            "observed": observed,
            "errors": errors,
        }

    def check(self, result: dict) -> list[str]:
        """Names of the instances whose outputs differ from the expected
        ones.  An unrecorded instance's first output becomes its expected
        one, so later passes must repeat it byte for byte."""
        failed = []
        for instance in self.instances:
            name = instance.name
            expected = self.expected[name]
            got = result["observed"].get(name)
            if name in result["errors"]:
                print(f"instance {name} raised:\n{result['errors'][name]}", file=sys.stderr)
                failed.append(name)
            elif got["exit"] != expected["exit"]:
                print(f"instance {name}: exit {got['exit']}, expected {expected['exit']}", file=sys.stderr)
                failed.append(name)
            elif expected["sha256"] is None:
                self.expected[name] = {"exit": got["exit"], "sha256": got["sha256"]}
            elif got["sha256"] != expected["sha256"]:
                changed = sorted(
                    f for f in set(got["sha256"]) | set(expected["sha256"])
                    if got["sha256"].get(f) != expected["sha256"].get(f)
                )
                print(f"instance {name}: {', '.join(changed)} differ from the reference", file=sys.stderr)
                failed.append(name)
        return failed


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed piece of interpreter work that
    allocates nothing the garbage collector tracks, so no change to
    toruslab can alter its cost: it measures how fast the machine runs at
    that moment."""
    wall0, cpu0 = perf_counter(), process_time()
    total = 0
    for i in range(CALIBRATION_STEPS):
        total += len(format(i * 0.7071067811865476, ".17g"))
    return perf_counter() - wall0, process_time() - cpu0


def observe(out_dir: Path, code: int) -> dict:
    """Exit code, artifact digests and sizes of one instance's output."""
    digests, csv_rows, nbytes, family_files = {}, 0, 0, 0
    for path in sorted(out_dir.rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        nbytes += len(data)
        if path.name in HASHED and path.parent == out_dir:
            digests[path.name] = hashlib.sha256(data).hexdigest()
        if path.suffix == ".csv":
            csv_rows += data.count(b"\n") - 1
        if path.parent.name == "family":
            family_files += 1
    return {
        "exit": code,
        "sha256": digests,
        "sizes": {"cli.csv_rows": csv_rows, "cli.artifact_bytes": nbytes, "quasimode.family_files": family_files},
    }


def digests(passes: list[dict]) -> set:
    """Every (instance, exit, artifact digests) the passes produced."""
    return {
        (name, obs["exit"], tuple(sorted(obs["sha256"].items())))
        for p in passes
        for name, obs in p["observed"].items()
    }


def tail(samples: list[float]):
    """(percentile, value): the highest of the usual percentiles with at
    least ten samples above it, by nearest rank; None for too few."""
    ordered = sorted(samples)
    n = len(ordered)
    for percentile in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(percentile / 100 * n)
        if n - rank >= 10:
            return percentile, ordered[rank - 1]
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def set_up(workload: str, seed: int) -> tuple[Bench, float]:
    """A fresh set-up of the workload and the seconds it took."""
    t0 = perf_counter()
    bench = Bench(workload, seed)
    return bench, perf_counter() - t0


def measure(bench: Bench, seconds: float, traced: bool, first_setup_s: float):
    """Run passes for ``seconds``; return the result object and the lines
    that describe it.

    After every round the workload is set up once more and the set-up
    discarded, so that set-up times are sampled across the whole run, as
    pass times are; ``bench`` serves every pass.
    """
    workload, seed = bench.workload, bench.seed
    setup_times = [first_setup_s]
    tracer = None
    if traced:
        m = bench.modules
        tracer = tracing.Tracer(tracing.probes(m["cli"], m["quasimode"], m["wavefront"], m["trigpoly"]))
    passes, traced_passes, layer_totals, failed_names, rounds = [], [], [], [], []
    attempted = 0
    start = perf_counter()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        scratch = Path(scratch)
        # A round is one pass, or an untraced and a traced pass; stop before
        # a round that would likely end after the deadline.
        while not rounds or perf_counter() - start + statistics.median(rounds) <= seconds:
            round_start = perf_counter()
            for with_trace in ((False, True) if traced else (False,)):
                out_root = scratch / f"pass{len(passes) + len(traced_passes)}"
                if with_trace:
                    tracer.take_totals()
                    tracer.install()
                    try:
                        result = bench.run_pass(out_root, tracer)
                    finally:
                        tracer.remove()
                    layer_totals.append(tracer.take_totals())
                    traced_passes.append(result)
                else:
                    result = bench.run_pass(out_root)
                    passes.append(result)
                attempted += len(bench.instances)
                failed_names += bench.check(result)
                shutil.rmtree(out_root, ignore_errors=True)
            setup_times.append(set_up(workload, seed)[1])
            rounds.append(perf_counter() - round_start)
    if traced:
        tracer.write(ROOT / ".perfbench-trace" / f"{workload}.json", start)

    last = passes[-1]["observed"]
    sizes = {
        key: sum(obs["sizes"][key] for obs in last.values())
        for key in ("cli.csv_rows", "cli.artifact_bytes", "quasimode.family_files")
    }
    lines = [
        f"workload {workload}, seed {seed}, {len(bench.instances)} instances; "
        + json.dumps(environment(), sort_keys=True)
    ]
    failed = len(failed_names)
    correct = failed == 0
    walls = [p["wall"] for p in passes]
    cpus = [p["cpu"] for p in passes]
    if traced:
        traced_walls = [p["wall"] for p in traced_passes]
        fastest = layer_totals[traced_walls.index(min(traced_walls))]
        metrics = {}
        for key, value in fastest.items():
            is_time = key in tracer.time_metrics
            metrics[key] = {"value": value, "unit": "s" if is_time else "count"}
            values = {totals[key] for totals in layer_totals}
            if not is_time and len(values) != 1:
                print(f"count {key} differs between traced passes: {sorted(values)}", file=sys.stderr)
                correct = False
        identical = digests(traced_passes) == digests(passes)
        correct = correct and identical
        lines.append(f"traced artifacts identical to untraced: {str(identical).lower()}")
        for key, value in sizes.items():
            metrics[key] = {"value": value, "unit": "bytes" if key == "cli.artifact_bytes" else "count"}
        # each round runs an untraced and a traced pass back to back
        overheads = [t - u for t, u in zip(traced_walls, walls)]
        metrics["trace.overhead_s"] = {"value": statistics.median(overheads), "unit": "s"}
        lines.append(
            f"{len(traced_walls)} traced and {len(walls)} untraced passes; per-layer values are "
            "those of the fastest traced pass, times are self times"
        )
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "pass_rel": {
                "value": statistics.median(p["wall"] / p["calibration_wall"] for p in passes),
                "unit": "ratio",
            },
            "cpu_rel": {
                "value": statistics.median(p["cpu"] / p["calibration_cpu"] for p in passes),
                "unit": "ratio",
            },
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
        lines.append(
            f"setup_s: median of {len(setup_times)} set-ups; the first, "
            f"which also imports numpy, took {setup_times[0]:.4f} s"
        )
        lines.append(f"pass_s {statistics.median(walls):.6g} s (median of {len(walls)} passes)")
        found = tail(walls)
        if found is None:
            lines.append(f"pass_s_tail omitted: {len(walls)} passes are too few")
        else:
            lines.append(f"pass_s_tail {found[1]:.6g} s (p{found[0]:g} of {len(walls)} passes)")
        lines.append(f"cpu_s {statistics.median(cpus):.6g} s (median of {len(walls)} passes)")
        calibration = statistics.median(p["calibration_wall"] for p in passes)
        lines.append(
            f"calibration_s {calibration:.6g} s (median over passes of the mean calibration); "
            "pass_rel and cpu_rel are the medians of pass wall and CPU time over it"
        )
        lines.append(f"sizes per pass: {json.dumps(sizes, sort_keys=True)}")
    lines.append(f"failed_fraction {failed / attempted:.6g} ratio ({failed} of {attempted} instance runs)")
    for name, metric in metrics.items():
        lines.append(f"{name} {metric['value']:.6g} {metric['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bench, first_setup_s = set_up(args.workload, args.seed)
        result, lines = measure(bench, args.seconds, bool(args.trace), first_setup_s)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
