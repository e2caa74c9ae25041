"""Config-to-report benchmark of the elliptic-inclusions CLI.

Run from the repository root:

    python3 perfbench/run.py --workload verify_small_sign --seed 1 \
        --seconds 25 --trace 0

One process serves one workload as a closed loop with a single client: it
calls ``elliptic_inclusions.cli.main([cmd, "--config", p, "--report", out])``
in-process on seeded configs, one request after the other, for
``--seconds``.  Every report is then checked from outside (see check.py),
and the first config is run once more to check that its report bytes,
``timing`` aside, repeat.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
config twice, untraced and traced in alternating order, prints the
per-layer metrics (means per traced request) and the tracing overhead,
pins the restriction and parse counts, and writes the spans to
``.perfbench_out/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: on these small dense problems a second OpenBLAS thread
# makes most requests slower (up to 3x on the 261x200 elastic pair) and
# far noisier, and it leaves the second core to the rest of the machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the thread settings)
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 6  # extra fresh processes that time set-up alone
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
CPUS = sorted(os.sched_getaffinity(0))


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="print the set-up time and exit (used for set-up probes)")
    return p.parse_args(argv)


def tail(values):
    """Highest percentile with TAIL_BEYOND samples above it: (value, pct, n).

    With TAIL_BEYOND or fewer samples no percentile qualifies, and the
    maximum is returned with pct 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = n - TAIL_BEYOND  # 1-based rank of the order statistic
    if k < 1:
        return ordered[-1], 100.0, n
    return ordered[k - 1], 100.0 * k / n, n


def _environment(args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _setup_probe_seconds(args):
    """Set-up time of fresh processes, each importing and generating anew."""
    out = []
    for i in range(SETUP_PROBES):
        _take_turn(i)  # the probe inherits this CPU
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(done.stdout.split()[-1]))
    os.sched_setaffinity(0, CPUS)
    return out


def _take_turn(i):
    """Pin this process to the i-th of its CPUs, round robin.

    The cores of a shared machine slow down independently, for seconds to
    minutes, under load from outside.  A process left where the scheduler
    put it mostly stays on one core, whose state then decides the run.
    Taking turns spreads every run over all the cores it may use.
    """
    os.sched_setaffinity(0, {CPUS[i % len(CPUS)]})


@dataclass
class Request:
    config: int  # index into the config pool
    seconds: float
    exit_code: int
    report: Path
    traced: bool


def main(argv=None):
    args = _args(argv)
    if not (SRC / "elliptic_inclusions" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from elliptic_inclusions import cli

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        configs = workloads.generate(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - _STARTED
        if args.setup_only:
            print(f"{setup_s!r}")
            return 0
        return _measure(args, workload, configs, workdir, cli, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload, configs, workdir, cli, setup_s):
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    requests = []
    layer_rows = []  # (config, per-layer metrics) of each traced request

    def run(index, traced):
        index %= len(configs)  # past the pool, configs repeat
        _take_turn(len(requests))
        report = workdir / f"report_{len(requests):04d}.json"
        argv = [workload.command, "--config", str(configs[index]),
                "--report", str(report)]
        start = time.perf_counter()
        try:
            if traced:
                with tracer.installed():
                    code = tracer.call(len(requests), cli.main, argv)
            else:
                code = cli.main(argv)
        except Exception as exc:  # a crash is a failed request, not a crash here
            print(f"request {len(requests)} raised {exc!r}", file=sys.stderr)
            code = -1
        seconds = time.perf_counter() - start
        if traced:
            layer_rows.append((index, tracer.request_metrics(len(requests))))
        requests.append(Request(index, seconds, code, report, traced))

    loop_start = time.perf_counter()
    index = 0
    while time.perf_counter() - loop_start < args.seconds:
        if tracer is None:
            run(index, False)
        else:
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                run(index, traced)
        index += 1
    loop_s = time.perf_counter() - loop_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed = len(requests)
    run(0, tracer is not None)  # repeat of the first config: bytes and counts

    failed = _check(requests, configs)
    certified = sum(1 for i in range(timed) if i not in failed)
    correct = not failed
    properties = _properties(requests[:timed], configs)
    notes = {}
    if tracer is None:
        times = [r.seconds for r in requests[:timed]]
        tail_s, tail_pct, n = tail(times)
        setups = [setup_s] + _setup_probe_seconds(args)
        metrics = {
            "request_s_p50": (statistics.median(times), "s"),
            "request_s_tail": (tail_s, "s"),
            "requests_per_s": (certified / loop_s, "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        notes["request_s_tail"] = f"p{tail_pct:.1f} of {n} requests"
        notes["setup_s"] = (f"median of this process and {SETUP_PROBES} fresh "
                            "ones: " + ", ".join(f"{s:.4f}" for s in setups))
    else:
        units = spans.metric_units()
        pins = _pins(workload, layer_rows, units)
        correct = correct and not pins
        for message in pins:
            print(f"self-test: {message}", file=sys.stderr)
        rows = [row for _, row in layer_rows[:-1]]  # the repeat is not averaged
        metrics = {m: (statistics.fmean(r[m] for r in rows), unit)
                   for m, unit in units.items()}
        traced = [r.seconds for r in requests[:timed] if r.traced]
        untraced = [r.seconds for r in requests[:timed] if not r.traced]
        metrics["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(untraced), "s")
        notes["trace.overhead_s"] = ("traced minus untraced request_s_p50 over "
                                     f"the same {len(traced)} configs")
        properties["restrictions_per_request"] = metrics[
            "hilbert_core.restrict_calls"][0]
        properties["dr_iterations_per_solve"] = (
            metrics["relations.dr_iterations"][0]
            / max(1.0, metrics["relations.dr_calls"][0]))
    failed_ratio = len(failed) / len(requests)
    environment = _environment(args)

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(out_dir / f"{stem}-spans.jsonl")
    (out_dir / f"{stem}.json").write_text(json.dumps({
        "metrics": metrics, "notes": notes, "failed_ratio": failed_ratio,
        "properties": properties, "environment": environment,
        "request_seconds": [[r.config, r.traced, r.seconds] for r in requests],
    }, indent=1, sort_keys=True))

    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value!r} {unit}{note}")
    print(f"failed_ratio = {failed_ratio!r} 1  ({len(failed)} of {len(requests)}; "
          "also the top-level failed/attempted)")
    print("properties " + json.dumps(properties, sort_keys=True))
    print("environment " + json.dumps(environment, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(requests),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _check(requests, configs):
    """Indices of failed requests: outside checks plus repeated-config bytes."""
    import check

    checker = check.Checker()
    failed = set()
    first_text = {}
    for i, req in enumerate(requests):
        config = configs[req.config]
        report_bytes = req.report.read_bytes() if req.report.exists() else b"{}"
        problems = checker.problems(config, req.exit_code, report_bytes)
        if not problems:
            text = check.without_timing(report_bytes)
            if text != first_text.setdefault(req.config, text):
                problems.append("report bytes differ from an earlier run of "
                                "the same config")
        if problems:
            failed.add(i)
            print(f"request {i} ({config.name}) failed: {'; '.join(problems)}",
                  file=sys.stderr)
    return failed


def _properties(requests, configs):
    """Input properties the workload is meant to have, measured on this run."""
    stuck = []
    iterations = []
    for req in requests:
        if req.exit_code != 0:
            continue
        report = json.loads(req.report.read_bytes())
        x = np.abs(np.asarray(report["solution"]["certificate"]["x"]))
        stuck.append(float(np.mean(x <= 1e-8 * max(1.0, float(x.max())))))
        iterations.append(report["iterations"])
    # configs in the order the run first visited them
    visited = list(dict.fromkeys(req.config for req in requests))
    operators = [json.dumps(json.loads(configs[i].read_text())["operator"],
                            sort_keys=True) for i in visited]
    return {
        "requests": len(requests),
        "stuck_share": statistics.fmean(stuck) if stuck else 0.0,
        "operator_repeat_share": 1.0 - len(set(operators)) / len(operators),
        "main_solve_dr_iterations": statistics.fmean(iterations) if iterations else 0.0,
    }


def _pins(workload, layer_rows, units):
    """Counts fixed by the code paths; a miss means a wrapper lost a call site."""
    out = []
    for index, row in layer_rows:
        if row["hilbert_core.restrict_calls"] != workload.restrictions_per_request:
            out.append(f"config {index}: {row['hilbert_core.restrict_calls']:.0f} "
                       f"restrictions, expected {workload.restrictions_per_request}")
        if row["cli.parse_calls"] != workload.parses_per_request:
            out.append(f"config {index}: {row['cli.parse_calls']:.0f} parses, "
                       f"expected {workload.parses_per_request}")
    counts = [{k: v for k, v in row.items() if units[k] != "s"}
              for index, row in layer_rows if index == 0]
    if any(c != counts[0] for c in counts[1:]):
        out.append("counts (DR iterations among them) of the repeated first "
                   "config differ between its two traced runs")
    return out


if __name__ == "__main__":
    sys.exit(main())
