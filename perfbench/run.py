#!/usr/bin/env python3
"""End-to-end benchmark of the NOPE reproduction (toy profile, Groth16).

    python3 perfbench/run.py --workload {issue,connect,revisit} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The first Groth16 run in a checkout
makes the trusted setup and the pre-issued certificates (a few minutes)
and caches them under ``.bench_build/perfbench/``; see README.md.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is the result as one JSON object;
lines before it describe the run.  The exit code is 0 only when every
operation reached its expected verdict.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from hostspeed import SETUP_SAMPLE_EVERY_S, HostMeter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: set-ups per run (this process and fresh processes); setup_s is their median
SETUP_REPEATS = 3
BUILD_TIMEOUT_S = 850
SETUP_TIMEOUT_S = 60
FIELD_BACKEND = "native"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("issue", "connect", "revisit"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # the harness self-test runs the simulation backend; results on it
    # are not the benchmark's
    parser.add_argument("--backend", choices=("groth16", "simulation"),
                        default="groth16", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--build-cache", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.build_cache:
        parser.error("--workload is required")
    return args


def import_program():
    """Put the checkout's ``src`` first on the path and import the program
    and the benchmark's modules that use it; returns (layers, world,
    workloads), or None when the checkout holds no program."""
    os.environ["REPRO_FIELD_BACKEND"] = FIELD_BACKEND
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    try:
        import repro
    except ImportError:
        return None
    if Path(repro.__file__).resolve().parent != src / "repro":
        return None
    import layers
    import world
    import workloads
    return layers, world, workloads


def child(args, *extra, timeout):
    """Run this script in a fresh process; its last stdout line as JSON."""
    cmd = [sys.executable, str(Path(__file__).resolve()), *extra]
    if args.workload:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--backend", args.backend]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout,
                         check=True, cwd=str(ROOT))
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def main(argv=None):
    args = parse_args(argv)
    # set-up is the program's imports plus building the world, less any
    # one-time cache build; each part is timed as measured and at the
    # reference host speed
    meter = HostMeter()
    modules, imported_s, norm_imported_s = meter.time(
        import_program, SETUP_SAMPLE_EVERY_S)
    if modules is None:
        print("perfbench: no importable program under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    layers, W, workloads = modules
    from repro.engine import get_engine
    from repro.telemetry import git_rev

    if args.build_cache:
        print(json.dumps(W.build_cache()))
        return 0
    cache_build = None
    if args.backend == "groth16" and not all(
            p.exists() for p in W.cache_paths()):
        print("perfbench: building the trusted setup and pre-issued "
              "certificates (once per checkout)", file=sys.stderr)
        cache_build = child(args, "--build-cache", timeout=BUILD_TIMEOUT_S)
        meter.restart()
    cls = workloads.WORKLOADS[args.workload]
    tracer = layers.Tracer() if args.trace else None

    def load():
        return W.load_world(args.backend, cls.with_prover)

    if tracer is not None:
        meter.on_sample = tracer.exclude
        with tracer, tracer.phase("setup"):
            world, loaded_s, norm_loaded_s = meter.time(
                load, SETUP_SAMPLE_EVERY_S)
    else:
        world, loaded_s, norm_loaded_s = meter.time(load, SETUP_SAMPLE_EVERY_S)
    setup_s = imported_s + loaded_s
    norm_setup_s = norm_imported_s + norm_loaded_s
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "norm_setup_s": norm_setup_s}))
        return 0

    setups = [(setup_s, norm_setup_s)]
    if tracer is None:
        for _ in range(SETUP_REPEATS - 1):
            again = child(args, "--setup-only", timeout=SETUP_TIMEOUT_S)
            setups.append((again["setup_s"], again["norm_setup_s"]))
        meter.restart()
    phase = workloads.run_phase(cls(world, args.seed), args.seconds,
                                meter=meter)
    result = {
        "correct": phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
    }
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "backend": args.backend,
        "loop": "closed, 1 caller",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "REPRO_FIELD_BACKEND": os.environ.get("REPRO_FIELD_BACKEND"),
        "engine_workers": get_engine().workers,
        "git_rev": git_rev(str(ROOT)),
        "r1cs.constraints": world.build["constraints"],
        "setup_s_each": [round(s, 4) for s, _ in setups],
        "norm_setup_s_each": [round(s, 4) for _, s in setups],
        "cache_build": cache_build or world.build,
        "samples": phase.attempted,
        "failed_frac": phase.failed / phase.attempted,
        "ts_fallback_verifications": phase.fallbacks,
        # one caller and workers=1: nothing ever waits in a queue
        "queue_wait_s": 0.0,
    }
    # as measured, before scaling to the reference speed; tails only where
    # at least ten samples lie beyond them
    context["latency_p50_ms"] = 1000 * statistics.median(phase.latencies)
    context["ops_per_s"] = phase.attempted / phase.elapsed
    context["host_slowdown"] = (
        sum(phase.latencies) / sum(phase.norm_latencies))
    for q, name in ((0.95, "latency_p95_ms"), (0.99, "latency_p99_ms")):
        if phase.attempted * (1 - q) >= 10:
            context[name] = 1000 * percentile(phase.latencies, q)
    if phase.failures:
        context["failures"] = phase.failures[:10]

    if tracer is None:
        result["metrics"] = _end_to_end(
            phase, statistics.median(s for _, s in setups))
    else:
        # the per-layer numbers come from a second timed phase, on a
        # freshly built world, with the wrappers installed
        reference = phase
        del world
        world = load()
        counters = layers.CounterDelta()
        meter.restart()
        with tracer:
            phase = workloads.run_phase(cls(world, args.seed), args.seconds,
                                        tracer, counters, meter=meter)
        result["attempted"] += phase.attempted
        result["failed"] += phase.failed
        result["correct"] = result["failed"] == 0
        if phase.failures:
            context.setdefault("failures", []).extend(phase.failures[:10])
        result["metrics"] = _per_layer(layers, tracer, counters, phase,
                                       reference, world)
    print("perfbench: " + json.dumps(context, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(phase, setup_s):
    return {
        "setup_s": _metric(setup_s, "s"),
        "norm_latency_p50_ms": _metric(
            1000 * statistics.median(phase.norm_latencies), "ms"),
        "norm_ops_per_s": _metric(
            phase.attempted / sum(phase.norm_latencies), "1/s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "chain_bytes": _metric(
            statistics.fmean(s[0] for s in phase.sizes), "B"),
    }


def _per_layer(layers, tracer, counters, phase, reference, world):
    out = {}
    out.update(layers.layer_metrics(tracer.sinks["op"]))
    out.update(layers.layer_metrics(
        tracer.sinks["setup"], layers.SETUP_LAYERS, prefix="setup."))
    op_busy = sum(phase.latencies)
    unattributed = tracer.sinks["op"].get(layers.OP, (0, 0.0, 0))[1]
    ok = fails = 0
    for name in ("groth16.verify", "groth16.verify_batch"):
        calls, _, failed = tracer.sinks["op"].get(name, (0, 0.0, 0))
        ok += calls - failed
        fails += failed
    hits, misses = counters.count("cache.hit"), counters.count("cache.miss")
    # at the reference speed, so the host's swings between the two
    # phases do not read as tracing overhead
    traced_p50 = statistics.median(phase.norm_latencies)
    untraced_p50 = statistics.median(reference.norm_latencies)
    out.update({
        # made once per checkout, with the cache; the cache is keyed by
        # the program's source, so this is the current program's time
        "setup.groth16.setup.busy_s": (world.build["trusted_setup_s"], "s"),
        "ops.busy_s": (op_busy, "s"),
        "ops.unattributed_s": (unattributed, "s"),
        "trace.coverage": (1 - unattributed / op_busy if op_busy else 0.0,
                           "ratio"),
        "trace.norm_latency_p50_ms": (1000 * traced_p50, "ms"),
        "trace.untraced.norm_latency_p50_ms": (1000 * untraced_p50, "ms"),
        "trace.overhead_frac": (traced_p50 / untraced_p50 - 1, "ratio"),
        "engine.msm.points": (counters.sum("msm.points"), "count"),
        "msm.bucket_adds": (counters.count("msm.bucket_adds"), "count"),
        "fft.size.count": (counters.count("fft.size"), "count"),
        "fft.size.sum": (counters.sum("fft.size"), "count"),
        "r1cs.rows.incremental": (counters.sum("r1cs.rows.incremental"),
                                  "count"),
        "r1cs.rows.full": (counters.count("r1cs.rows.full"), "count"),
        "r1cs.constraints": (world.build["constraints"], "count"),
        "batch.size.sum": (counters.sum("batch.size"), "count"),
        "cache.hit": (hits, "count"),
        "cache.miss": (misses, "count"),
        "cache.expired": (counters.count("cache.expired"), "count"),
        "cache.revocation_refused": (
            counters.count("cache.revocation_refused"), "count"),
        "cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0,
                            "ratio"),
        "groth16.verify.useful_ratio": (
            ok / (ok + fails) if ok + fails else 0.0, "ratio"),
        "verify.ts_fallbacks": (phase.fallbacks, "count"),
        "ca.screen_refused": (
            tracer.sinks["op"].get("ca.authority.screen", (0, 0.0, 0))[2],
            "count"),
        "x509.san_proof_bytes": (
            statistics.fmean(s[1] for s in phase.sizes), "B"),
        "wire.envelope_bytes": (
            statistics.fmean(s[2] for s in phase.sizes), "B"),
    })
    return {name: _metric(value, unit) for name, (value, unit) in out.items()}


if __name__ == "__main__":
    sys.exit(main())
