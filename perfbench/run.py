"""Run one workload of the curvecount benchmark and print its metrics.

    python3 perfbench/run.py --workload tube-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.  The
load is a closed loop: one client, one process, one thread (BLAS and OpenMP
pools pinned to one thread), each operation starting when the previous one
has finished.  A pass is the workload's fixed list of operations; passes
repeat until ``--seconds`` is spent (at least three), every result of every
pass is checked against ``references.json``, and timings are medians.

A shared host runs the cores of a small virtual machine at speeds that
drift by up to about 1.6× over seconds to minutes (other tenants share the
physical cores).  So every timing is scaled to a fixed reference speed: a
fixed pure-Python loop is timed between operations (and around each
set-up), and a time measured while that loop took ``k`` times its reference
time counts ``1/k`` of itself.  See NOTES.md, "Steadiness".

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: time of one untraced pass (the time to solution), taken as the
  sum over operations of each operation's median scaled time across passes;
* ``setup_s``: median over seven fresh processes of the scaled time of
  importing ``curvecount`` (and its CLI), loading the references, building
  one pass of inputs and a warm-up, up to the first timed operation;
* ``peak_rss_mb``: peak resident memory of this process;
* ``correct_share``: operations that agree with their reference, over
  operations attempted (1 − the failed share; an operation fails when it
  raises, or returns ``certified=True`` and disagrees with the reference);
* ``certified_share``: ``certified`` flags that are true, over results that
  carry the flag (1 − the uncertified share).

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``spans.py`` (means over traced passes) and
``trace_overhead_ratio`` (traced over untraced pass time, both taken like
``wall_s``).  Spans are written
to ``perfbench/out/``, with the run's metadata.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is true
when every result was checked and every failure reproduces a known defect
recorded in the references (the certified-boundary case of ``tube-sweep``);
known defects still count in ``failed`` and ``correct_share``.
"""

import sys
import time

CALIBRATION_LOOPS = 4000
# the loop's time at full speed on the machine the benchmark was defined on
# (2-vCPU Intel Xeon VM, Python 3.11.7); scaled times are seconds at the
# speed at which the loop takes this long
REFERENCE_CALIBRATION_S = 240e-6


def calibrate() -> float:
    """Time of a fixed pure-Python loop: it tracks the machine's current
    speed, and no change to the library can move it."""
    t0 = time.perf_counter()
    s = 0
    for i in range(CALIBRATION_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


def calibrate_median() -> float:
    return sorted(calibrate() for _ in range(3))[1]


# a set-up probe samples the machine's speed just before it starts the clock
_CALIB_BEFORE = calibrate_median() if "--setup-probe" in sys.argv else None
_START = time.perf_counter()  # setup_s is measured from here

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
MIN_PASSES = 3
MIN_TRACED_PASSES = 4    # two untraced and two traced
SETUP_TIMEOUT_S = 120
# as in workloads.py, which needs the library and so cannot be imported
# before the arguments are parsed
WORKLOADS = ("tube-sweep", "gap-energy", "exact-algebra")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "correct_share": "share", "certified_share": "share"}


class BenchError(Exception):
    """The run cannot produce trustworthy metrics."""


def load_library():
    """Import curvecount from this checkout's src/, and nothing else."""
    pkg = SRC / "curvecount"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"no curvecount package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import curvecount
    if Path(curvecount.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"imported curvecount from {curvecount.__file__}")
    import curvecount.cli  # noqa: F401  (part of a fresh user's import)
    return curvecount


def load_references() -> dict:
    path = HERE / "references.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    return json.loads(path.read_text())


def prepare(workload: str, seed: int):
    """Everything set-up does: library, references, inputs, warm-up."""
    load_library()
    import workloads
    refs = load_references()
    ops = workloads.build(workload, seed, refs)
    workloads.warm_up(workload)
    return ops, refs


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

@dataclass
class PassResult:
    wall: float = 0.0
    op_times: list = field(default_factory=list)
    calib: list = field(default_factory=list)   # before op 0, after each op
    attempted: int = 0
    failed: int = 0
    known: int = 0
    flags: int = 0
    certified: int = 0
    tube_failed: int = 0
    tube_uncertified: int = 0
    errors: list = field(default_factory=list)


def run_pass(ops) -> PassResult:
    """Time every operation, then check its result outside the timing.

    Every operation is attempted and every result that did not raise is
    checked; a check that cannot run raises, and the run ends without
    metrics.
    """
    res = PassResult(calib=[calibrate()])
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # an operation that raises has failed
            res.op_times.append(time.perf_counter() - t0)
            res.calib.append(calibrate())
            res.failed += 1
            res.tube_failed += op.tube_result
            res.errors.append(f"{op.key}: {type(exc).__name__}: {exc}")
            continue
        res.op_times.append(time.perf_counter() - t0)
        res.calib.append(calibrate())
        verdict = op.check(out)
        res.flags += len(verdict.flags)
        res.certified += sum(verdict.flags)
        if op.tube_result:
            res.tube_uncertified += len(verdict.flags) - sum(verdict.flags)
        if not verdict.ok:
            res.failed += 1
            res.known += verdict.known_defect
            res.tube_failed += op.tube_result
            res.errors.append(f"{op.key}: " + (
                "known defect, the recorded wrong answer"
                if verdict.known_defect else "disagrees with its reference")
                + (f" ({verdict.detail})" if verdict.detail else ""))
    res.attempted = len(res.op_times)
    res.wall = sum(res.op_times)
    return res


def scaled(t: float, calib) -> float:
    """``t`` at the reference speed, given the calibrations around it."""
    return t * len(calib) * REFERENCE_CALIBRATION_S / sum(calib)


def scaled_times(res: PassResult) -> list:
    """Each operation's time at the reference speed, from the calibrations
    just before and just after it."""
    return [scaled(t, (c0, c1))
            for t, c0, c1 in zip(res.op_times, res.calib, res.calib[1:])]


def median_wall(results, scale=True) -> float:
    """Time of one pass: the sum over operations of each one's median
    (scaled, unless ``scale`` is false) time across passes, so a burst of
    machine noise in one pass is outvoted operation by operation."""
    per_pass = [scaled_times(r) if scale else r.op_times for r in results]
    return sum(statistics.median(times) for times in zip(*per_pass))


def run_traced_pass(ops):
    import spans
    with spans.Tracer() as tracer:
        res = run_pass(ops)
    tracer.settle()
    layer = spans.layer_metrics(tracer.spans, tracer.counters)
    layer["trace.wall_s"] = res.wall
    layer["trace.bench_own_s"] = res.wall - layer["trace.top_level_busy_s"]
    layer["tube.failed"] = res.tube_failed
    layer["tube.uncertified"] = res.tube_uncertified
    return res, layer, tracer


def run_passes(workload, seed, refs, seconds, min_passes, max_passes, trace):
    """Repeat passes until the next one would overrun ``seconds``.

    In a traced run every second pass is traced, so traced and untraced
    passes see the same machine conditions and their ratio is the overhead.
    """
    import workloads
    plain, traced, layers, tracers = [], [], [], []
    start = time.perf_counter()
    while len(plain) + len(traced) < max_passes:
        pass_start = time.perf_counter()
        ops = workloads.build(workload, seed, refs)
        if trace and len(plain) > len(traced):
            res, layer, tracer = run_traced_pass(ops)
            traced.append(res)
            layers.append(layer)
            tracers.append(tracer)
        else:
            res = run_pass(ops)
            plain.append(res)
        now = time.perf_counter()
        if len(plain) + len(traced) >= min_passes \
                and (now - start) + (now - pass_start) > seconds:
            break
    return plain, traced, layers, tracers


# ---------------------------------------------------------------------------
# Set-up time, metadata, output
# ---------------------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> dict:
    prepare(workload, seed)
    elapsed = time.perf_counter() - _START
    return {"setup_s": elapsed, "calib": [_CALIB_BEFORE, calibrate_median()]}


def measure_setup(workload: str, seed: int, repeats: int) -> list:
    """Set-up times and calibrations of fresh processes, run one after
    another."""
    probes = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return probes


def metadata(workload, seed, trace) -> dict:
    import numpy
    import scipy
    files = sorted((SRC / "curvecount").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "commit": git_commit(), "src_sha256": digest.hexdigest(),
        "src_lines": lines, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                          "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")},
        "load": "closed loop, 1 client, 1 process, 1 thread",
    }


def git_commit():
    """HEAD when the checkout is its own git work tree, else None."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT.resolve():
        return None
    return lines[1]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            short: bool = False) -> dict:
    """Run the workload and return the result object (not yet printed)."""
    if not trace:
        probes = measure_setup(workload, seed, 1 if short else SETUP_REPEATS)
    _, refs = prepare(workload, seed)
    if short:
        min_passes = max_passes = 2 if trace else 1
    else:
        min_passes, max_passes = (MIN_TRACED_PASSES if trace else MIN_PASSES,
                                  10 ** 6)
    plain, traced, layers, tracers = run_passes(
        workload, seed, refs, seconds, min_passes, max_passes, trace)
    results = plain + traced
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    known = sum(r.known for r in results)
    flags = sum(r.flags for r in results)
    if trace:
        metrics = {k: statistics.fmean(layer[k] for layer in layers)
                   for k in layers[0]}
        metrics["trace_overhead_ratio"] = (median_wall(traced)
                                           / median_wall(plain))
        import spans
        units = spans.metric_units()
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{workload}-s{seed}.jsonl", "w") as fh:
            for i, tracer in enumerate(tracers):
                for name, start, end, parent in tracer.spans:
                    fh.write(json.dumps([i, name, start, end, parent]) + "\n")
    else:
        if not flags:
            raise BenchError("no result carried a certified flag")
        metrics = {
            "wall_s": median_wall(results),
            "setup_s": statistics.median(scaled(p["setup_s"], p["calib"])
                                         for p in probes),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "correct_share": (attempted - failed) / attempted,
            "certified_share": sum(r.certified for r in results) / flags,
        }
        units = END_TO_END_UNITS
    meta = metadata(workload, seed, int(trace))
    meta.update(passes=len(results),
                calibration_ref_s=REFERENCE_CALIBRATION_S,
                unscaled_wall_s=median_wall(plain, scale=False),
                pass_wall_s=[r.wall for r in plain],
                traced_pass_wall_s=[r.wall for r in traced],
                op_times_s=[r.op_times for r in plain],
                calibration_s=[r.calib for r in plain],
                setup_probes=None if trace else probes,
                errors=sorted({e for r in results for e in r.errors}))
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{workload}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps(meta, indent=2) + "\n")
    return {"meta": meta, "correct": failed == known, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in sorted(metrics.items())}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="one set-up probe and one pass of each kind")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            print(json.dumps(setup_probe(args.workload, args.seed)))
            return 0
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.short)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    meta = result.pop("meta")
    print(f"# {args.workload} seed={args.seed} commit={meta['commit']} "
          f"src_lines={meta['src_lines']} passes={meta['passes']}")
    for err in meta["errors"]:
        print(f"# failed: {err}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
