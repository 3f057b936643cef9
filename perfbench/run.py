"""Benchmark entry point for oriconv.

    python3 perfbench/run.py --workload train_detect --seed 1 --seconds 55 --trace 0

Runs one workload (see workloads.py and README.md) in this process: sets it
up SETUP_REPEATS times, runs timed ops closed loop for --seconds, checks every
output, and prints each metric by name with its unit. The last line of
standard output is one JSON object {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. A stamped results file (and with --trace 1 a span dump) is written
under perfbench/results/. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOAD_NAMES = ("train_detect", "detect", "train_orient", "verify")
# Set-up is repeated and its fastest time reported, like the ops'. The first
# set-up runs before the timed loop and the others at even intervals inside it
# (their time is not op time), so they sample the host's load across the run
# and not one moment of it.
SETUP_REPEATS = 20
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description="oriconv benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def limit_blas_threads(nproc):
    """Cap every BLAS thread setting at nproc before numpy loads; default to
    one thread. Returns warnings for settings that asked for more.

    One thread is the default because the package's GEMMs are small: on two
    shared cores a second BLAS thread made a training step slower and its
    run-to-run spread wider."""
    warnings = []
    for var in BLAS_THREAD_VARS:
        raw = os.environ.get(var)
        if raw is None:
            continue
        try:
            wanted = int(raw)
        except ValueError:
            wanted = nproc + 1
        if wanted > nproc:
            warnings.append(f"{var}={raw} exceeds nproc={nproc}; using {nproc}")
            os.environ[var] = str(nproc)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    return warnings


def blas_info(np):
    """(vendor string, thread count or None) of the BLAS numpy loaded."""
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{cfg.get('name', '?')} {cfg.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        vendor = "unknown"
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return vendor, int(fn())
    return vendor, None


def git_commit(root):
    """HEAD commit read from .git without starting git; "unknown" outside a
    repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def time_setup(cls, seed):
    t0 = perf_counter()
    workload = cls(seed)
    return workload, perf_counter() - t0


def timed_loop(cls, seed, seconds, tracer):
    """Set up workload `cls`, then run a closed loop of ops for `seconds` of
    loop time with the other set-ups spread over it. With a tracer, odd ops
    are traced and even ops not, so both halves see the same drift in weights
    and machine load; `images` and `busy` count the untraced ops."""
    workload, first_setup = time_setup(cls, seed)
    setup_s = [first_setup]
    plain, traced, traced_by_op = [], [], {}
    attempted = failed = images = 0
    busy = paused = 0.0
    errors = []
    start = perf_counter()
    i = 0
    while True:
        i += 1
        trace_this = tracer is not None and i % 2 == 1
        result, problem = None, None
        if trace_this:
            tracer.install(i)
        t0 = perf_counter()
        try:
            result = workload.op(i)
        except Exception:
            problem = traceback.format_exc(limit=3)
        finally:
            t1 = perf_counter()
            if trace_this:
                tracer.remove()
        attempted += 1
        if problem is None:
            problem = workload.check(result)
        dt = t1 - t0
        if problem is None:
            if trace_this:
                traced.append(dt)
                traced_by_op[i] = dt
            else:
                plain.append(dt)
                images += workload.images_per_op
                busy += dt
        else:
            failed += 1
            errors.append(f"op {i}: {problem}")
        elapsed = t1 - start - paused
        while len(setup_s) < SETUP_REPEATS and elapsed >= seconds * len(setup_s) / SETUP_REPEATS:
            _, dt = time_setup(cls, seed)
            setup_s.append(dt)
            paused += dt
        if elapsed >= seconds:
            break
    return {
        "plain": plain, "traced": traced, "traced_by_op": traced_by_op,
        "attempted": attempted, "failed": failed, "images": images, "busy": busy,
        "errors": errors, "setup_s": setup_s,
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "oriconv", "__init__.py")):
        print(f"error: no oriconv package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    warnings = limit_blas_threads(nproc)
    sys.path.insert(0, SRC)

    import numpy as np
    import oriconv

    if not os.path.abspath(oriconv.__file__).startswith(SRC + os.sep):
        print(f"error: imported oriconv from {oriconv.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import reference
    import tracing
    from workloads import WORKLOADS

    vendor, blas_threads = blas_info(np)
    if blas_threads is not None and blas_threads > nproc:
        warnings.append(f"BLAS runs {blas_threads} threads on {nproc} processors")
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "python": sys.version.split()[0],
        "numpy": np.__version__, "blas": vendor, "blas_threads": blas_threads,
        "git_commit": git_commit(ROOT),
    }
    print("stamp: " + " ".join(f"{k}={v}" for k, v in stamp.items()))

    cls = WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    run = timed_loop(cls, args.seed, args.seconds, tracer)
    # read before the checks below, which build networks of their own
    rss_mb = peak_rss_mb()
    setup_s = run["setup_s"]
    errors = run["errors"]
    attempted, failed = run["attempted"], run["failed"]

    if args.workload in reference.TRAINING:
        # the replay of the reference steps counts as one more op
        attempted += 1
        try:
            problem = reference.check(cls(reference.REFERENCE_SEED))
        except Exception:
            problem = traceback.format_exc(limit=3)
        if problem is not None:
            failed += 1
            errors.append(f"loss reference: {problem}")
    if args.workload == "detect":
        # `verify` is not gated in BENCHMARK.json (see README.md); its exact
        # quarter-turn check runs once here and counts as one more op.
        attempted += 1
        try:
            check = WORKLOADS["verify"](args.seed)
            problem = check.check(check.op(1))
        except Exception:
            problem = traceback.format_exc(limit=3)
        if problem is not None:
            failed += 1
            errors.append(f"quarter-turn check: {problem}")
    correct = not errors
    plain = sorted(run["plain"])
    report = {"stamp": stamp, "setup_s": setup_s, "op_s": run["plain"], "errors": errors}
    os.makedirs(RESULTS, exist_ok=True)
    base = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    if args.trace:
        traced = run["traced"]
        n_traced = max(len(traced), 1)
        summary = tracer.summarize(run["traced_by_op"])
        metrics = tracing.per_layer_metrics(
            tracer, summary, n_traced,
            1e3 * statistics.median(traced) if traced else 0.0,
            1e3 * statistics.median(plain) if plain else 0.0,
        )
        tracer.write(base + ".spans.jsonl")
        report.update(traced_op_s=traced, span_summary=summary, absent=tracer.absent)
    else:
        # Fastest set-up and fastest op: on a shared host the medians and the
        # statistics below move with the neighbours' load (see README.md).
        metrics = {
            "setup_s": {"value": min(setup_s), "unit": "s"},
            "op_min_ms": {"value": 1e3 * plain[0] if plain else 0.0, "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    info = {
        "op_p50_ms": {"value": 1e3 * statistics.median(plain) if plain else 0.0, "unit": "ms"},
        "op_p90_ms": {"value": 1e3 * p90(plain) if plain else 0.0, "unit": "ms"},
        "images_per_s": {"value": run["images"] / run["busy"] if run["busy"] else 0.0,
                         "unit": "images/s"},
        "error_rate": {"value": failed / attempted, "unit": "ratio"},
    }
    report.update(metrics=metrics, info=info)
    with open(base + ".json", "w") as fh:
        json.dump(report, fh, indent=1)

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, m in info.items():
        print(f"info: {name} = {m['value']:.6g} {m['unit']}")
    print(f"info: {attempted} ops attempted, {failed} failed, {len(plain)} untraced samples")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
