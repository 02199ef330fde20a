"""Benchmark of wsqopt, run from the root of a source checkout.

    python3 wsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports the package from the checkout's ``src``, writes seeded instances
under ``.wsbench-runs/``, runs whole rounds of the workload's operations for
about S seconds (at least one round), checks every output against the
benchmark's own reference code and prints one JSON object as the last line
of standard output. ``--trace 0`` reports the end-to-end metrics, ``--trace
1`` wraps the package's layer functions and reports per-layer metrics; the
names and units are those of BENCHMARK.json. An operation whose output is
wrong because of a known fault of the program fails in every round and is
counted in ``failed``. The exit code is 0 only when every other check
passed.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread, whatever the caller's shell sets: on a small shared
# machine a second thread mostly waits for the core the first one uses.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("recursion", "statevector")
# fresh interpreters whose set-up is timed besides this process's own
SETUP_PROBES = 4
PROBE_FLAG = "--probe-setup"


def process_age() -> float:
    """Seconds since this process started, from /proc; else since this file ran."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            start_ticks = int(handle.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        age = -1.0
    fallback = time.perf_counter() - _START
    return age if fallback <= age < fallback + 60.0 else fallback


def import_program():
    """Import wsqopt from the checkout's src; fail if it is found elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import wsqopt
    import wsqopt.cli
    import wsqopt.diffusion
    import wsqopt.io
    import wsqopt.relaxation

    if Path(wsqopt.__file__).resolve().parent.parent != src:
        raise ImportError(f"wsqopt imported from {wsqopt.__file__}, not from {src}")
    return wsqopt


def probe_setup() -> float:
    """Set-up time of a fresh interpreter that runs this file with PROBE_FLAG."""
    probe = subprocess.run(
        [sys.executable, __file__, PROBE_FLAG], capture_output=True, text=True, timeout=60, check=True
    )
    return float(probe.stdout.split()[-1])


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Seeded benchmark of wsqopt.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_rounds(workload, seconds: float):
    """Whole rounds until the next one would end after ``seconds``.

    Returns the wall time of every round, the fastest time of each
    operation over the rounds, and how many operations raised.
    """
    rounds, fastest, raised = [], {}, 0
    start = time.perf_counter()
    while True:
        workload.clear()
        began = time.perf_counter()
        op_times = {}
        for label, op in workload.ops:
            op_began = time.perf_counter()
            try:
                op()
            except Exception:  # counted, and the run goes on to report it
                raised += 1
                print(f"operation {label} failed:\n{traceback.format_exc()}", file=sys.stderr)
            op_times[label] = time.perf_counter() - op_began
            fastest[label] = min(fastest.get(label, float("inf")), op_times[label])
        took = time.perf_counter() - began
        per_op = {label: round(t, 3) for label, t in op_times.items()}
        print(f"round {len(rounds)}: {took:.3f} s, per operation {per_op}", file=sys.stderr)
        rounds.append(took)
        workload.collect()
        if time.perf_counter() - start + took > seconds:
            return rounds, fastest, raised


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(correct: bool, attempted: int, failed: int, values: dict, units: dict):
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == [PROBE_FLAG]:
        import_program()
        print(process_age())
        return 0
    args = parse_args(argv)
    began_import = time.perf_counter()
    program = import_program()
    import_s = time.perf_counter() - began_import
    # median of cold set-ups: this process's and those of fresh interpreters
    setups = [process_age()] + [probe_setup() for _ in range(SETUP_PROBES)]
    print(f"set-up times {[round(t, 3) for t in setups]} s", file=sys.stderr)
    setup_s = statistics.median(setups)
    units = declared_units(bool(args.trace))

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import Tracer
    from workloads import WORKLOADS, CheckFailed

    workdir = ROOT / ".wsbench-runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](program, args.seed, workdir)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    rounds, fastest, raised = run_rounds(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(rounds) * len(workload.ops)
    print(
        f"{args.workload} seed {args.seed}: {len(rounds)} round(s) of {len(workload.ops)} operations, "
        f"round wall times {[round(r, 3) for r in rounds]} s",
        file=sys.stderr,
    )
    if raised:
        # the checks need every operation's output
        report(False, attempted, raised, {}, units)
        return 1
    try:
        ratios = workload.check()
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        report(False, attempted, len(rounds) * len(workload.faults), {}, units)
        return 1
    for label, why in workload.faults.items():
        print(f"operation {label} failed in every round: {why}", file=sys.stderr)
    failed = len(rounds) * len(workload.faults)

    if tracer:
        tracer.write(workdir / "trace.json")
        values = tracer.layer_metrics(len(rounds))
        values["import.wsqopt_s"] = import_s
        # both per round on average, so that they compare like with like
        values["trace.wall_s"] = statistics.fmean(rounds)
        values["trace.top_level_s"] = tracer.top_level_seconds() / len(rounds)
    else:
        values = {
            "setup_s": setup_s,
            # each operation at its fastest: the machine's slow spells last
            # seconds and would otherwise decide which rounds count
            "wall_s": sum(fastest.values()),
            "peak_rss_mb": peak_rss_mb,
            "approx_ratio": statistics.fmean(ratios),
        }
    missing = set(units) - set(values)
    if missing:
        raise KeyError(f"metrics listed in BENCHMARK.json but not measured: {sorted(missing)}")
    report(True, attempted, failed, values, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
