"""Benchmark runner for the scomult statement verifier.

    python3 perfbench/run.py --workload verify-default --seed 0 --seconds 40 --trace 0

Runs from the root of a checkout and uses only the standard library.  Every
pass of the workload runs in a fresh interpreter (worker.py), one at a time,
with PYTHONPATH pointing at the checkout's src/.  Outputs are checked
against the pins in workloads.json: an operation is one statement report,
and it fails when its verdict or instance count differs from the pin, when
it raised, or when a mutant's kill set differs.

--trace 0 repeats untraced passes for --seconds and reports the medians of
the end-to-end metrics.  --trace 1 runs one untraced pass, one traced pass
and each statement alone in its own process, and reports the per-layer
metrics.  Metric names and units come from BENCHMARK.json.  The last line
of stdout is the result object; the line before it holds the samples,
quartiles and run context.  See README.md for the metrics and workloads.
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUDGET_S = 170.0      # a run must end within 180 s
MIN_PASSES = 3
SETUP_PASSES = 6      # extra set-up-only passes, for more setup_s samples
# The host probe's time (worker.HostSampler) when no other tenant contends,
# as its fastest samples read on the 2-vCPU host with CPython 3.11 that the
# benchmark was written on.  Pass times are scaled to this speed.
PROBE_REFERENCE_S = 0.002


def run_worker(deadline, workload, seed, mode, statement=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    spawned = time.monotonic()
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode,
            repr(spawned)] + ([statement] if statement else [])
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} {statement or ''} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = time.monotonic() - spawned
    return result


def mismatches(records, spec, catalog_name):
    """Descriptions of the records that disagree with the pins."""
    bad = []
    for mutant, statement_id, verdict, instances, _, error in records:
        if mutant is None:
            expected = spec["catalogs"][catalog_name]["expected"][statement_id]
            killed = False
        else:
            expected = spec["mutants"][mutant]["expected"][statement_id]
            killed = statement_id in spec["mutants"][mutant]["kills"]
        if [verdict, instances] != expected or (verdict == "fail") != killed:
            bad.append(f"{mutant or 'default'}/{statement_id}: got "
                       f"{verdict}/{instances}{' ' + error if error else ''}, "
                       f"pinned {expected[0]}/{expected[1]}")
    return bad


def pinned_instances(spec, workload):
    if workload["mutants"]:
        return sum(spec["mutants"][m]["expected"][s][1]
                   for m in workload["mutants"] for s in workload["statements"])
    expected = spec["catalogs"][workload["catalog"]]["expected"]
    return sum(expected[s][1] for s in workload["statements"])


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def end_to_end(args, spec, workload, deadline):
    """Untraced passes until --seconds is used up, at least MIN_PASSES of them.

    SETUP_PASSES set-up-only passes come first.  The host's speed swings by
    2x from one second to the next and from one minute to the next, as other
    tenants come and go.  So each time is divided by a slowdown: the mean of
    the host probes the worker ran every 0.05 s while it was timed, over
    PROBE_REFERENCE_S.  Each metric is the median over the passes; the
    unscaled times and the slowdowns go to the context line.
    """
    end = time.monotonic() + args.seconds
    setups = [run_worker(deadline, args.workload, args.seed, "setup")
              for _ in range(SETUP_PASSES)]
    passes = []
    while True:
        passes.append(run_worker(deadline, args.workload, args.seed, "timed"))
        next_end = time.monotonic() + statistics.mean(p["wall_s"] for p in passes)
        if next_end > deadline or (len(passes) >= MIN_PASSES and next_end > end):
            break
    records = [r for p in passes for r in p["records"]]
    bad = mismatches(records, spec, workload["catalog"])
    instances = pinned_instances(spec, workload)
    slowdown = [statistics.mean(p["probe_s"]) / PROBE_REFERENCE_S for p in passes]
    setup_slowdown = [statistics.mean(p["probe_s"][:max(1, p["probes_in_setup"])])
                      / PROBE_REFERENCE_S for p in setups + passes]
    samples = {
        "setup_s": [p["setup_s"] / f for p, f in zip(setups + passes, setup_slowdown)],
        "verify_s": [p["verify_s"] / f for p, f in zip(passes, slowdown)],
        "instances_per_s": [instances * f / p["verify_s"] for p, f in zip(passes, slowdown)],
        "peak_rss_mb": [p["rss_mb"] for p in passes],
        "unscaled_setup_s": [p["setup_s"] for p in setups + passes],
        "unscaled_verify_s": [p["verify_s"] for p in passes],
        "setup_slowdown": setup_slowdown,
        "slowdown": slowdown,
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["ok_share"] = (len(records) - len(bad)) / len(records)
    extra = {"passes": len(passes), "samples": samples,
             "quartiles": {name: quartiles(values) for name, values in samples.items()}}
    return metrics, len(records), bad, extra


def per_layer(args, spec, workload, deadline):
    """One untraced pass, one traced pass, then each statement alone."""
    plain = run_worker(deadline, args.workload, args.seed, "plain")
    traced = run_worker(deadline, args.workload, args.seed, "trace")
    cold = [run_worker(deadline, args.workload, args.seed, "cold", statement_id)
            for statement_id in workload["statements"]]
    records = plain["records"] + traced["records"]
    records += [r for c in cold for r in c["records"]]
    metrics = dict(traced["layers"])
    for _, statement_id, _, _, ms, _ in plain["records"]:
        key = f"statements.{statement_id}.ms"
        metrics[key] = metrics.get(key, 0.0) + ms
    for c in cold:
        (_, statement_id, _, _, ms, _), = c["records"]
        metrics[f"statements.{statement_id}.cold_ms"] = ms
    # A ScomultError turned into a failed report is how some mutants are
    # killed, so it counts as an error only under the default toolbox.
    metrics["statements.errors"] = sum(1 for r in records
                                       if r[2] == "raised" or (r[5] and r[0] is None))
    metrics["statements.instances"] = sum(r[3] for r in traced["records"])
    for mutant, ms in plain["pass_ms"].items():
        metrics[f"mutations.{mutant}.ms"] = ms
    metrics["trace.overhead_s"] = traced["verify_s"] - plain["verify_s"]
    extra = {"untraced_verify_s": plain["verify_s"], "traced_verify_s": traced["verify_s"],
             "cold_passes": len(cold)}
    return metrics, len(records), mismatches(records, spec, workload["catalog"]), extra


def run_context():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = head.stdout.strip() if head.returncode == 0 else None
    except OSError:
        commit = None
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "commit": commit, "source_sha256": digest.hexdigest()}


def main():
    spec = json.loads((HERE / "workloads.json").read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SystemExit inside subprocess.run kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not (ROOT / "src" / "scomult" / "__init__.py").is_file():
        sys.exit(f"perfbench: {ROOT / 'src' / 'scomult'} is missing; "
                 "run from the root of a full scomult checkout")
    deadline = time.monotonic() + BUDGET_S
    compileall.compile_dir(ROOT / "src", quiet=1)

    workload = spec["workloads"][args.workload]
    measure, wanted = ((per_layer, declared["per_layer"]) if args.trace
                       else (end_to_end, declared["end_to_end"]))
    metrics, attempted, bad, extra = measure(args, spec, workload, deadline)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "instances_pinned": pinned_instances(spec, workload), **run_context(), **extra,
            "failed_share": len(bad) / attempted, "mismatches": bad[:20],
            "not_observed": [m["name"] for m in wanted if m["name"] not in metrics]}

    for m in wanted:
        print(f"{m['name']:<44} {metrics.get(m['name'], 0):>14.6g} {m['unit']}")
    print(json.dumps(info))
    print(json.dumps({
        "correct": not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()
