"""End-to-end benchmark of the ``tmcount`` command line.

    python3 perfbench/run.py --workload staircase --seed 1 --seconds 30 --trace 0

Writes the workload's bar files with ``tmcount gen-anderson`` from the
seed, then runs whole rounds of the workload's ``count``, ``exponents``
and ``check`` commands through ``tmcount.cli.main`` in this process
until ``--seconds`` would be exceeded.  Afterwards, outside every timed
span, it checks each output against the independent reference of
``reference.py`` and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` two untraced rounds are followed by one traced round,
the metrics are the per-layer ones, and the machine and the full span
table go to ``.perfbench_out/trace-<workload>-seed<seed>.json``.

The program is imported from ``src/`` of the checkout that holds this
file; it is never looked up elsewhere.  BLAS runs on one thread.
"""

import os
import time

_SCRIPT_START = time.perf_counter()

#: BLAS threads, fixed before numpy loads so every run uses the same
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def _since_process_start() -> float:
    """Seconds since this process started, from the kernel's start time."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - _SCRIPT_START


@dataclass
class OpResult:
    op: object
    seconds: float
    exit_code: int
    output: bytes


#: exit code recorded for a command that raised instead of returning
RAISED = -1


def _call(cli, argv):
    """Run one command in this process; returns (exit code, stdout, stderr).

    An exception that escapes ``main`` counts as a failed command, so that
    the run still ends with its JSON line.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = RAISED
    return code, out.getvalue(), err.getvalue()


def _paths(work, op):
    bar = work / f"{op.bar.name}.json"
    csv = work / f"{op.kind}-{op.bar.name}.csv"
    return str(bar), (str(csv) if op.kind != "check" else None)


def run_round(cli, workload, work) -> list:
    results = []
    for op in workload.ops:
        system, csv = _paths(work, op)
        argv = op.argv(system, csv)
        # collect the previous command's garbage outside the timed span
        gc.collect()
        t0 = time.perf_counter()
        code, stdout, stderr = _call(cli, argv)
        dt = time.perf_counter() - t0
        output = Path(csv).read_bytes() if csv is not None and code == 0 else stdout.encode()
        if code != 0:
            print(f"perfbench: {' '.join(argv)} exited {code}: {stderr.strip()}",
                  file=sys.stderr)
        results.append(OpResult(op, dt, code, output))
    return results


def end_to_end(rounds, setup_s, peak_rss_mb) -> dict:
    """The end-to-end metrics, from each command's median time over the rounds."""
    units = {"count": 0, "exponents": 0, "check": 0}
    seconds = dict.fromkeys(units, 0.0)
    for i, res in enumerate(rounds[0]):
        units[res.op.kind] += res.op.units
        seconds[res.op.kind] += statistics.median(r[i].seconds for r in rounds)
    return {
        "setup_s": (setup_s, "s"),
        "levels_per_s": (units["count"] / seconds["count"], "levels/s"),
        "exponents_per_s": (units["exponents"] / seconds["exponents"], "exponents/s"),
        "check_s": (seconds["check"], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def verify(workload, work, rounds) -> list:
    """Every problem found in the outputs of the ops that did not fail."""
    import checks
    import reference
    from workloads import LOCATE_TOL

    refs, sums = {}, {}
    for bar in workload.bars:
        path = str(work / f"{bar.name}.json")
        refs[bar.name] = (reference.clean_exponents(bar.wx, bar.wy, bar.energy)
                          if bar.clean else
                          reference.transfer_exponents(path, complex(bar.energy)))
        sums[bar.name] = reference.total_exponent_sum(path)

    problems = []
    first = rounds[0]
    for res in first:
        if res.exit_code != 0:
            continue
        op, text = res.op, res.output.decode()
        ref = refs[op.bar.name]
        where = f"{op.kind} {op.bar.name}"
        try:
            if op.kind == "count":
                margin = 5.0 / (op.bar.length * op.n_phi)
                found = checks.check_count(text, op.grid(), ref, margin)
            elif op.kind == "exponents":
                found = checks.check_exponents(text, ref, sums[op.bar.name], LOCATE_TOL)
            else:
                found = checks.check_identity_report(text, res.exit_code)
        except (ValueError, KeyError, IndexError) as exc:
            found = [f"unreadable output ({exc})"]
        problems += [f"{where}: {p}" for p in found]
    # CSVs are promised byte-stable; the check report prints residuals at
    # rounding level, so later rounds only have to pass again
    for later in rounds[1:]:
        for a, b in zip(first, later):
            where = f"{a.op.kind} {a.op.bar.name}"
            if b.exit_code != 0:
                continue
            if a.op.kind == "check":
                problems += [f"{where}: {p}" for p in
                             checks.check_identity_report(b.output.decode(), b.exit_code)]
            else:
                problems += checks.check_identical(a.output, b.output, where)
    return problems


def machine() -> dict:
    import numpy as np
    import scipy
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def parse_args(argv):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description="Benchmark of the tmcount command line.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    return args


def write_bars(cli, workload, work, tracer) -> bool:
    """Write every bar file of the workload, traced when ``--trace 1``."""
    try:
        for bar in workload.bars:
            code, _, err = _call(cli, bar.gen_argv(str(work / f"{bar.name}.json")))
            if code != 0:
                print(f"perfbench: gen-anderson failed for {bar.name}: {err}", file=sys.stderr)
                return False
    finally:
        tracer.uninstall()
    return True


def warm_up(cli, work):
    """First calls into LAPACK and the count and check paths, on a bar
    outside the workload; exponents reuses their factor and solve code."""
    from workloads import Bar, Op
    warm = Bar("warmup-2x1-n4", 2, 1, 4, 18.0, 0, 0.5)
    _call(cli, warm.gen_argv(str(work / f"{warm.name}.json")))
    for op in (Op("count", warm, (-2.0, 2.0, 3)), Op("check", warm)):
        _call(cli, op.argv(*_paths(work, op)))


def timed_rounds(cli, workload, work, seconds) -> list:
    """Whole rounds until the next would end after ``seconds``; at least
    two, so that every run compares two passes of each command."""
    rounds = []
    t_begin = time.perf_counter()
    while True:
        rounds.append(run_round(cli, workload, work))
        spent = time.perf_counter() - t_begin
        if len(rounds) >= 2 and spent + spent / len(rounds) > seconds:
            return rounds


def traced_report(workload, work, seed, rounds, tracer, setup_tracer, problems) -> dict:
    """Per-layer metrics of the traced round; writes the trace file."""
    import checks
    untraced, traced = rounds[-2:]
    overhead = sum(r.seconds for r in traced) - sum(r.seconds for r in untraced)
    metrics = tracer.metrics(overhead, setup_tracer.seconds["anderson.generate"])
    try:
        n_phi = sum(int(row["n_phi"]) for res in traced
                    if res.op.kind == "count" and res.exit_code == 0
                    for row in checks.parse_count_csv(res.output.decode()))
    except ValueError:
        n_phi = 0
    if tracer.calls["hamiltonian.factor"] < n_phi:
        problems.append(f"{tracer.calls['hamiltonian.factor']} factorizations "
                        f"traced, fewer than the {n_phi} samples the CSVs report")
    doc = {"workload": workload.name, "seed": seed, "machine": machine(),
           "metrics": {k: v for k, (v, _) in metrics.items()},
           "calls": dict(sorted(tracer.calls.items())),
           "seconds": dict(sorted(tracer.seconds.items())),
           "self_s": dict(sorted(tracer.self_s.items())),
           "ops": [{"argv": t.op.argv(*_paths(work, t.op)), "untraced_s": u.seconds,
                    "traced_s": t.seconds} for u, t in zip(untraced, traced)]}
    (OUT / f"trace-{workload.name}-seed{seed}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return metrics


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (SRC / "tmcount" / "cli.py").is_file():
        print(f"perfbench: no tmcount sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tmcount import cli
    if Path(cli.__file__).resolve().parent != SRC / "tmcount":
        print(f"perfbench: tmcount was imported from {cli.__file__}", file=sys.stderr)
        return 2
    from layers import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    work = OUT / f"{workload.name}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    setup_tracer = Tracer()
    if args.trace:
        setup_tracer.install()
    if not write_bars(cli, workload, work, setup_tracer):
        return 1
    warm_up(cli, work)
    setup_s = _since_process_start()

    if args.trace:
        # the first round after set-up runs slower; the overhead is taken
        # against the second
        rounds = [run_round(cli, workload, work), run_round(cli, workload, work)]
        tracer = Tracer()
        tracer.install()
        try:
            rounds.append(run_round(cli, workload, work))
        finally:
            tracer.uninstall()
    else:
        rounds = timed_rounds(cli, workload, work, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = verify(workload, work, rounds)
    if args.trace:
        metrics = traced_report(workload, work, args.seed, rounds, tracer,
                                setup_tracer, problems)
    else:
        metrics = end_to_end(rounds, setup_s, peak_rss_mb)

    for i, res in enumerate(rounds[0]):
        times = " ".join(f"{r[i].seconds:8.3f}" for r in rounds)
        print(f"perfbench: {res.op.kind:9s} {res.op.bar.name:28s} {times} s",
              file=sys.stderr)
    for p in problems:
        print(f"perfbench: INCORRECT {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(r) for r in rounds),
        "failed": sum(1 for r in rounds for res in r if res.exit_code != 0),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
