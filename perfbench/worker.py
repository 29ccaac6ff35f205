"""One fresh process of the benchmark; run.py starts it and reads its last line.

    python3 perfbench/worker.py MODE WORKLOAD SEED T0

T0 is the parent's time.monotonic() just before it started this process,
so setup time counts from process start.  MODE is

  setup      import ficat, build the workload's rings and categories, stop
  solve      setup, then one timed round and its checks
  trace      the same round with spans and the profiler on
  cli-trace  import ficat.cli, then call main() in this process for each
             README command of the workload, with the profiler on

The line printed last is one JSON object.  Only the standard library and
the ficat sources under src/ are used.
"""

import os
import sys
import time

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "ficat")


# Set-up of each workload: import ficat and build its rings and categories.
# The benchmark's own modules are imported after set-up time is taken.

def setup_homology():
    from ficat import coef_field, make_ring, make_si_category, make_vic_category
    from ficat.catcore import FiCategory

    r2 = make_ring("Z/2")
    return {
        "cats": {"FI": FiCategory(), "VIC": make_vic_category(r2), "SI": make_si_category(r2)},
        "fields": {name: coef_field(name) for name in ("Q", "F3", "F2")},
    }


def setup_axioms():
    from ficat import make_ovic_category, make_ring, make_si_category, make_vic_category
    from ficat.catcore import FiCategory

    r2, r4, r6 = make_ring("Z/2"), make_ring("Z/4"), make_ring("Z/6")
    return {"cats": [
        FiCategory(),
        make_vic_category(r4, units=(1, 3)),
        make_vic_category(r6),
        make_si_category(r2),
        make_ovic_category(r4),
    ]}


def setup_normal_forms():
    from ficat import make_osi_category, make_ovic_category, make_ring, make_si_category

    r2, r4, r6 = make_ring("Z/2"), make_ring("Z/4"), make_ring("Z/6")
    return {
        "rings": {2: r2, 4: r4, 6: r6},
        "ovic": make_ovic_category(r4),
        "si": make_si_category(r2),
        "osi": make_osi_category(r2),
    }


def setup_algebra():
    # separate categories per part, so that neither part fills the other's
    # hom caches
    return {"axioms": setup_axioms(), "normal_forms": setup_normal_forms()}


SETUPS = {
    "homology": setup_homology,
    "algebra": setup_algebra,
}


def main():
    mode, workload, seed, t0 = sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4])
    if mode == "cli-trace":
        return _cli_trace(workload)
    ns = SETUPS[workload]()
    setup_s = time.monotonic() - t0
    if mode == "setup":
        return {"setup_s": setup_s}

    import resource

    import tracing
    import workloads

    solve, verify, make_inputs = workloads.WORKLOADS[workload]

    tracer = tracing.Tracer() if mode == "trace" else tracing.NullTracer()
    rnd = workloads.Round(tracer, seed)
    args = (ns,) if make_inputs is None else (ns, make_inputs(ns, seed))
    profile = None
    if mode == "trace":
        import cProfile

        profile = cProfile.Profile()
        profile.enable()
    start, start_cpu = time.perf_counter(), time.process_time()
    out = solve(rnd, *args)
    solve_s, solve_cpu_s = time.perf_counter() - start, time.process_time() - start_cpu
    if profile is not None:
        profile.disable()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verify(rnd, *args, out)
    result = {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "solve_cpu_s": solve_cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": rnd.attempted,
        "failed": rnd.failed,
        "problems": rnd.problems[:20],
        "counts": rnd.counts,
    }
    if profile is not None:
        result.update(_layers(tracer, profile))
    return result


def _layers(tracer, profile):
    import tracing

    self_s, calls = tracing.profile_by_module(profile, PACKAGE)
    return {
        "spans": tracer.totals(),
        "span_records": tracer.records(),
        "self_s": self_s,
        "calls": calls,
    }


def _cli_trace(workload):
    import cProfile
    import contextlib
    import io

    import tracing
    import workloads

    start = time.perf_counter()
    from ficat.cli import main as cli_main

    import_ms = (time.perf_counter() - start) * 1000.0
    profile = cProfile.Profile()
    main_ms = {}
    problems = []
    for name, argv in workloads.readme_commands(workload):
        buf = io.StringIO()
        begin = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            profile.enable()
            code = cli_main(list(argv))
            profile.disable()
        main_ms[name] = (time.perf_counter() - begin) * 1000.0
        problems.extend(workloads.check_readme_output(name, argv, code, buf.getvalue()))
    self_s, calls = tracing.profile_by_module(profile, PACKAGE)
    return {
        "import_ms": import_ms,
        "main_ms": main_ms,
        "attempted": len(main_ms),
        "failed": 0,
        "problems": problems,
        "self_s": self_s,
        "calls": calls,
    }


if __name__ == "__main__":
    try:
        result = main()
    except Exception as exc:  # report, so the parent can mark the run incorrect
        import traceback

        traceback.print_exc()
        result = {"error": "%s: %s" % (type(exc).__name__, exc)}
    import json

    sys.stdout.write(json.dumps(result) + "\n")
