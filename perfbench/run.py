"""Run one workload of the ficat benchmark and print its result line.

    python3 perfbench/run.py --workload homology --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; ficat is imported from src/.  The run
repeats whole rounds of the workload for about --seconds, each round in
fresh processes (see worker.py), then prints one
JSON line: whether every output checked out, the operations attempted and
failed, and the metrics.  With --trace 0 these are the end-to-end metrics;
with --trace 1 the per-layer metrics of a run with spans and the profiler
on.  Raw samples and spans go to perfbench/out/.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

WORKLOAD_NAMES = ("homology", "algebra")

# (name, unit, better, bound): reported with --trace 0
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("solve_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("cli_p50_ms", "ms", "lower", 0.24),
)

# (name, unit, better): reported with --trace 1
PER_LAYER = (
    ("rings.self_s", "s", "lower"),
    ("rings.ring_eq_calls", "count", "lower"),
    ("matrices.self_s", "s", "lower"),
    ("matrices.mul_calls", "count", "lower"),
    ("matrices.det_calls", "count", "lower"),
    ("matrices.is_surjective_s", "s", "lower"),
    ("matrices.factor_surjection_s", "s", "lower"),
    ("matrices.column_adapted_s", "s", "lower"),
    ("catcore.self_s", "s", "lower"),
    ("catcore.check_axioms_s", "s", "lower"),
    ("catcore.compose_calls", "count", "lower"),
    ("catcore.morphisms_checked", "count", "higher"),
    ("vic.self_s", "s", "lower"),
    ("vic.hom_s", "s", "lower"),
    ("vic.gl_pairs_s", "s", "lower"),
    ("si.self_s", "s", "lower"),
    ("si.hom_s", "s", "lower"),
    ("si.osi_factor_s", "s", "lower"),
    ("wporder.self_s", "s", "lower"),
    ("wporder.preceq_s", "s", "lower"),
    ("wporder.total_cmp_s", "s", "lower"),
    ("wporder.phi_s", "s", "lower"),
    ("wporder.related_pairs", "count", "higher"),
    ("modhom.self_s", "s", "lower"),
    ("modhom.representable_s", "s", "lower"),
    ("modhom.shift_complex_s", "s", "lower"),
    ("modhom.homotopy_s", "s", "lower"),
    ("modhom.rank_q_s", "s", "lower"),
    ("modhom.rank_f3_s", "s", "lower"),
    ("modhom.rank_f2_s", "s", "lower"),
    ("modhom.diff_nnz", "count", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.main_ms", "ms", "lower"),
    ("cli.self_s", "s", "lower"),
)

MODULES = ("rings", "matrices", "catcore", "vic", "si", "wporder", "modhom", "cli")
SPAN_METRICS = (
    "matrices.is_surjective", "matrices.factor_surjection", "matrices.column_adapted",
    "catcore.check_axioms", "vic.hom", "vic.gl_pairs", "si.hom", "si.osi_factor",
    "wporder.preceq", "wporder.total_cmp", "wporder.phi",
    "modhom.representable", "modhom.shift_complex", "modhom.homotopy",
    "modhom.rank_q", "modhom.rank_f3", "modhom.rank_f2",
)
COUNT_METRICS = ("catcore.morphisms_checked", "wporder.related_pairs", "modhom.diff_nnz")

# Set-up samples taken at the start of every round, so that the run's
# set-ups are spread over its whole length.
SETUPS_PER_ROUND = {"homology": 4, "algebra": 3}
# Passes over the workload's README commands per round, so that a run has
# several cold latencies of every command.
README_PASSES = {"homology": 4, "algebra": 2}


class BenchError(Exception):
    """The benchmark could not run (as opposed to ficat giving a wrong answer)."""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"  # set and dict order, hence the call counts, repeat
    return env


def spawn(argv):
    """Run argv to its end; (exit code, stdout, stderr, wall seconds)."""
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, env=_env(), cwd=ROOT)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode(), time.monotonic() - start


def worker(mode, workload, seed):
    t0 = time.monotonic()
    argv = [sys.executable, os.path.join(HERE, "worker.py"), mode, workload, str(seed), repr(t0)]
    code, out, err, _ = spawn(argv)
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise BenchError("worker %s %s printed nothing (exit %d): %s" % (mode, workload, code, err[-2000:]))
    result = json.loads(lines[-1])
    if "error" in result:
        sys.stderr.write(err[-4000:])
    return result


def check_checkout():
    """ficat must import from this checkout's src/, else there is nothing to run."""
    if not os.path.isfile(os.path.join(SRC, "ficat", "__init__.py")):
        raise BenchError("no ficat sources under %s" % SRC)
    code, out, err, _ = spawn([sys.executable, "-c", "import ficat.cli; print(ficat.cli.__file__)"])
    path = out.strip().splitlines()[-1] if out.strip() else ""
    if code != 0 or not os.path.realpath(path).startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError("ficat does not import from %s: %s" % (SRC, err[-2000:]))


def readme_pass(workload, rng):
    """Each README command of the workload once, as a fresh process, in a
    seeded order; ({command: latency in ms}, problems)."""
    commands = workloads.readme_commands(workload)
    rng.shuffle(commands)
    latencies, problems = {}, []
    for name, argv in commands:
        code, out, err, wall = spawn([sys.executable, "-m", "ficat.cli"] + argv)
        latencies[name] = wall * 1000.0
        problems.extend(workloads.check_readme_output(name, argv, code, out))
    return latencies, problems


def setup_sample(workload, seed):
    res = worker("setup", workload, seed)
    if "error" in res:
        raise BenchError("set-up of %s failed: %s" % (workload, res["error"]))
    return res["setup_s"]


def untraced_round(workload, seed, rng):
    """Set-up samples, one timed computation in a fresh worker and the
    README passes."""
    rnd = {"attempted": 0, "failed": 0, "problems": [], "latencies": []}
    rnd["setups"] = [setup_sample(workload, seed) for _ in range(SETUPS_PER_ROUND[workload])]
    res = worker("solve", workload, seed)
    if "error" in res:
        rnd["problems"].append(res["error"])
        return rnd
    rnd.update(solve_s=res["solve_s"], solve_cpu_s=res["solve_cpu_s"], peak_rss_mb=res["peak_rss_mb"],
               counts=res["counts"])
    rnd["attempted"] += res["attempted"]
    rnd["failed"] += res["failed"]
    rnd["problems"] += res["problems"]
    for _ in range(README_PASSES[workload]):
        lat, problems = readme_pass(workload, rng)
        rnd["attempted"] += len(lat)
        rnd["latencies"].append(lat)
        rnd["problems"] += problems
    return rnd


def traced_round(workload, seed):
    """The round of untraced_round with spans and the profiler on; each
    README pass runs in-process in its own fresh worker."""
    rnd = {"attempted": 0, "failed": 0, "problems": []}
    results = [worker("trace", workload, seed)]
    results += [worker("cli-trace", workload, seed) for _ in range(README_PASSES[workload])]
    for res in results:
        if "error" in res:
            rnd["problems"].append(res["error"])
            return rnd
        rnd["attempted"] += res["attempted"]
        rnd["failed"] += res["failed"]
        rnd["problems"] += res["problems"]
    main, clis = results[0], results[1:]
    self_s, calls = main["self_s"], main["calls"]
    layers = {"%s.self_s" % mod: self_s.get(mod, 0.0) for mod in MODULES}
    layers["cli.self_s"] = sum(r["self_s"].get("cli", 0.0) for r in clis)
    layers["rings.ring_eq_calls"] = calls.get("rings.__eq__", 0)
    layers["matrices.mul_calls"] = calls.get("matrices.mul", 0)
    layers["matrices.det_calls"] = calls.get("matrices.det", 0)
    layers["catcore.compose_calls"] = sum(calls.get(m + ".compose", 0) for m in ("catcore", "vic", "si"))
    spans = main["spans"]
    for name in SPAN_METRICS:
        layers[name + "_s"] = spans.get(name, 0.0)
    counts = main["counts"]
    for name in COUNT_METRICS:
        layers[name] = counts.get(name, 0)
    layers["cli.import_ms"] = statistics.median(r["import_ms"] for r in clis)
    layers["cli.main_ms"] = statistics.median(x for r in clis for x in r["main_ms"].values())
    rnd["layers"] = layers
    rnd["trace"] = {
        "solve_s": main["solve_s"],
        "spans": main["span_records"],
        "self_s": self_s,
        "calls": calls,
        "cli_main_ms": [r["main_ms"] for r in clis],
    }
    return rnd


def traced_metrics(done):
    if not done:
        return {}
    metrics = {}
    for name, unit, _ in PER_LAYER:
        # counts repeat exactly; median_low keeps them whole numbers
        pick = statistics.median_low if unit == "count" else statistics.median
        metrics[name] = {"value": pick([r["layers"][name] for r in done]), "unit": unit}
    return metrics


def untraced_metrics(done):
    if not done:
        return {}
    values = {
        "setup_s": statistics.median(x for r in done for x in r["setups"]),
        "solve_s": statistics.median(r["solve_s"] for r in done),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
        "cli_p50_ms": statistics.median(ms for r in done for lat in r["latencies"] for ms in lat.values()),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}


def run(workload, seed, seconds, traced):
    rng = random.Random(seed)
    rounds = []
    start = time.monotonic()
    took = 0.0
    # Whole rounds, as many as end nearest to --seconds: another round is
    # run while it would end less than half a round past the target.
    while not rounds or time.monotonic() - start + took / 2 < seconds:
        begin = time.monotonic()
        rounds.append(traced_round(workload, seed) if traced else untraced_round(workload, seed, rng))
        took = time.monotonic() - begin
    problems = [p for r in rounds for p in r["problems"]]
    if traced:
        metrics = traced_metrics([r for r in rounds if "layers" in r])
    else:
        metrics = untraced_metrics([r for r in rounds if "solve_s" in r])
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
              "rounds": rounds, "result": result}
    os.makedirs(OUT_DIR, exist_ok=True)
    name = "%s-seed%d-%s.json" % (workload, seed, "trace" if traced else "run")
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(record, fh)
    for p in problems[:20]:
        sys.stderr.write("check failed: %s\n" % p)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write("benchmark cannot run: %s\n" % exc)
        return 2
    if not result["metrics"]:
        sys.stderr.write("no round finished, so there is nothing to report\n")
        return 1
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
