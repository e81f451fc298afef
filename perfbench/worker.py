"""One pass of a benchmark workload, in a fresh interpreter started by run.py.

Each pass is its own process, so every lru_cache and module-level cache in
scomult starts empty without this file naming any of them.

    python3 perfbench/worker.py WORKLOAD SEED MODE SPAWNED [STATEMENT]

MODE is `timed` (time set-up and the verification phase, and sample the
host's speed, see HostSampler), `setup` (`timed` that stops once the catalog
is ready), `plain` (`timed` without the sampler), `trace` (`plain` with
every layer wrapped, see tracer.py) or `cold` (STATEMENT alone, with the
default toolbox).  SPAWNED is the CLOCK_MONOTONIC reading the parent
took just before starting this process.  Prints one JSON object.
"""

import json
import random
import resource
import signal
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROBE_EVERY_S = 0.05


def seeded_order(items, seed):
    """Seed 0 keeps the sorted order `verify_all` uses; other seeds shuffle it."""
    items = sorted(items)
    if seed:
        random.Random(seed).shuffle(items)
    return items


class HostSampler:
    """Times a fixed dict-and-integer loop every PROBE_EVERY_S seconds.

    The loop's time says how fast the host runs at that moment.  It updates
    a few hundred KB at random, as the verifier's sets and dicts do, so it
    slows with the verifier when another tenant of the host contends for the
    caches.  A SIGALRM handler runs it wherever the main thread is, so the
    samples are spread evenly over the pass, long statements included.
    `spent` is the wall time the handler took; the worker subtracts it from
    what it times.  The table is built once and only its values change, so
    the probe allocates nothing that lasts and never sets off a garbage
    collection (a dict of ints is not tracked).
    """

    def __init__(self):
        self.table = dict.fromkeys(range(8192), 0)
        self.samples, self.spent = [], 0.0

    def probe(self):
        table, x = self.table, 1
        start = time.perf_counter()
        for _ in range(6000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            table[(x >> 8) & 8191] += 1
        return time.perf_counter() - start

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(self.probe())
        self.spent += time.perf_counter() - start

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def ensure_sample(self):
        if not self.samples:
            self.samples.append(self.probe())


def peak_rss_mb():
    """This process's own peak RSS.

    ru_maxrss can report the parent's peak instead: Linux carries the peak
    of the address space that exec replaced over into the new program.
    VmHWM belongs to this process's own address space.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_statement(verify, statement_id, catalog, toolbox, mutant):
    try:
        report = verify(statement_id, catalog, toolbox)
    except Exception as err:  # a statement that raises is one failed operation
        return [mutant, statement_id, "raised", 0, 0.0, repr(err)]
    error = (report.counterexample or {}).get("error")
    return [mutant, statement_id, report.verdict, report.instances, report.ms, error]


def main(argv):
    workload_name, seed, mode, spawned = argv[0], int(argv[1]), argv[2], float(argv[3])
    spec = json.loads((HERE / "workloads.json").read_text())
    workload = spec["workloads"][workload_name]
    params = dict(spec["catalogs"][workload["catalog"]]["params"])
    params["product_moduli"] = tuple(tuple(m) for m in params["product_moduli"])

    sampler = HostSampler() if mode in ("timed", "setup") else None
    if sampler:
        sampler.start()
    import scomult
    if workload["mutants"]:
        import scomult.mutations

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    span = tracer.span if tracer else nullcontext

    with span("catalog"):
        catalog = scomult.generate_catalog(scomult.CatalogParams(**params))
    ready = time.monotonic()
    spent_in_setup = sampler.spent if sampler else 0.0
    probes_in_setup = len(sampler.samples) if sampler else 0

    if mode == "cold":
        statements, mutants = [argv[4]], [None]
    elif mode == "setup":
        statements, mutants = [], []
    else:
        statements = seeded_order(workload["statements"], seed)
        mutants = seeded_order(workload["mutants"], seed) or [None]
    records, pass_ms = [], {}
    start = time.perf_counter()
    with span("verify"):
        for mutant in mutants:
            pass_start = time.perf_counter()
            with span(f"mutations.{mutant}" if mutant else "statements"):
                toolbox = None
                if mutant:
                    toolbox = scomult.mutations.mutant_toolbox(mutant)
                    if tracer:
                        toolbox = tracer.rebind(toolbox)
                for statement_id in statements:
                    with span(statement_id):
                        records.append(run_statement(scomult.verify, statement_id,
                                                     catalog, toolbox, mutant))
            if mutant:
                pass_ms[mutant] = (time.perf_counter() - pass_start) * 1000.0
    if sampler:
        sampler.stop()
    verify_s = time.perf_counter() - start
    if sampler:
        verify_s -= sampler.spent - spent_in_setup
        sampler.ensure_sample()

    result = {
        "setup_s": ready - spawned - spent_in_setup,
        "verify_s": verify_s,
        "rss_mb": peak_rss_mb(),
        "probe_s": sampler.samples if sampler else [],
        "probes_in_setup": probes_in_setup,
        "records": records,
        "pass_ms": pass_ms,
    }
    if tracer:
        result["layers"] = tracer.metrics()
        origin = tracer.spans[0][1]
        out = HERE.parent / ".bench_build" / "perfbench"
        out.mkdir(parents=True, exist_ok=True)
        (out / f"trace-{workload_name}-seed{seed}.json").write_text(json.dumps({
            "spans": [[name, (begin - origin) * 1000.0, (end - origin) * 1000.0, parent]
                      for name, begin, end, parent in tracer.spans],
            "metrics": result["layers"],
        }, indent=1))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
