"""posetfree benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload carve-wide --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Set-up (imports, seeded inputs, warm-up) is timed apart from the
measured window.  In the window the workload runs passes, each over fresh
inputs, until one more would take the summed operation time past
``--seconds``.
Every output is checked after its pass, outside the timing.

With ``--trace 0`` the last line carries the end-to-end metrics, over all
passes, with every time scaled to a host of fixed speed (see ``paced``).
With ``--trace 1`` passes alternate between untraced and traced, and the
last line carries the per-layer metrics: counts from the first traced pass
(they repeat exactly for a given seed), times as medians over traced
passes.  Other lines give the run context, the sample counts and the
digests; ``perfbench/out/`` keeps the full result and the spans of the
first traced pass.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 3
# The imports a run makes, timed in a child interpreter so that they can be
# repeated: the library and the benchmark's modules, with no bytecode written.
IMPORTS = "import sys; sys.path[:0] = sys.argv[1:]; import tracing, workloads"
# The host-speed reference: a fixed mix of pure-Python work like the
# library's, in code that shares nothing with it.  It enumerates the chains
# of a family over [6] and searches two middle layers of 2^[5] for a 3-chain,
# by the brute force in oracles.py, and runs an integer loop.  On the host
# the benchmark was written on, each part tracked the host's speed best for
# some workload, and their sum did well on all.  REF_S is the mix's typical
# time there, so scaled times read as seconds on that host.
REF_MEMBERS = tuple(range(0, 64, 3))
REF_LAYERS = tuple(m for m in range(32) if m.bit_count() in (2, 3))
REF_BELOW = oracles.order_below(3, ((0, 1), (1, 2)))
REF_ORDER = oracles.linear_extension(3, REF_BELOW)
REF_LOOP = 8000
REF_S = 2.8e-3
REF_WINDOW = 5  # references on each side of an operation that scale it
# Per workload, [inputs digest, outputs digest of pass 0] at seed 0.
PINNED = json.loads((Path(__file__).parent / "pinned.json").read_text())

# (name, unit, better) of every per-layer metric, in output order.
LAYER_METRICS = (
    ("embedding.first_copy.calls", "count", "lower"),
    ("embedding.first_copy.s", "s", "lower"),
    ("embedding.first_copy.found_ratio", "ratio", "higher"),
    ("embedding.first_copy.distinct_ratio", "ratio", "higher"),
    ("blowup.blowup.calls", "count", "lower"),
    ("blowup.blowup.s", "s", "lower"),
    ("blowup.blowup.distinct_ratio", "ratio", "higher"),
    ("containers.container_pair.calls", "count", "lower"),
    ("containers.container_pair.self_s", "s", "lower"),
    ("containers.verify_pair.s", "s", "lower"),
    ("containers.two_phase.s", "s", "lower"),
    ("containers.carves", "count", "lower"),
    ("containers.prunes", "count", "lower"),
    ("containers.distinct_pairs_ratio", "ratio", "higher"),
    ("embedding.contains_poset_through.calls", "count", "lower"),
    ("embedding.contains_poset_through.s", "s", "lower"),
    ("embedding.contains_poset_through.free_ratio", "ratio", "higher"),
    ("census.count_p_free.s", "s", "lower"),
    ("census.count_p_free.nodes", "count", "lower"),
    ("census.nodes_per_s", "1/s", "higher"),
    ("census.la.s", "s", "lower"),
    ("census.random_p_free_family.s", "s", "lower"),
    ("census.experiment_table.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("lattice.chain_profile.calls", "count", "lower"),
    ("lattice.chain_profile.s", "s", "lower"),
    ("lattice.count_marked_chains.self_s", "s", "lower"),
    ("poset.hasse_graph.calls", "count", "lower"),
    ("poset.validate_poset.calls", "count", "lower"),
    ("census.count_p_free.pool2_speedup", "ratio", "higher"),
    ("containers.build_collection.pool2_speedup", "ratio", "higher"),
    ("bench.trace_overhead_s", "s", "lower"),
)

END_TO_END_UNITS = {
    "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MiB",
}


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def reference() -> float:
    """Seconds one run of the host-speed reference takes now.

    The collector is off while it runs, so that garbage left by the
    operation before it is collected in the operation after it, as it
    would be without the reference.
    """
    gc.disable()
    try:
        began = perf_counter()
        oracles.chain_profile(6, REF_MEMBERS)
        oracles.contains(REF_LAYERS, 3, REF_BELOW, REF_ORDER)
        x = 0
        for i in range(REF_LOOP):
            x = (x * 31 + i) & 0xFFFF
        return perf_counter() - began
    finally:
        gc.enable()


def paced(seconds: list[float], refs: list[float]) -> list[float]:
    """Times scaled to a host on which the reference takes ``REF_S``.

    ``refs[i]`` was timed right after the job that took ``seconds[i]``.
    Each job is scaled by the mean of the references within ``REF_WINDOW``
    of it, less the highest and the lowest.  Other tenants of a shared host
    slow the reference and the library alike, and their load changes
    within milliseconds and drifts over seconds: on the 2-vCPU host the
    benchmark was written on, a pass of ``chains`` took 0.58 s or 1.14 s
    within one run, and a fixed 20 ms loop took 12 ms or 20 ms within one
    second.  A mean over neighbouring references follows the share of slow
    time that a median would miss.
    """
    scaled = []
    for i, s in enumerate(seconds):
        nearby = sorted(refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 1])
        if len(nearby) > 2:
            nearby = nearby[1:-1]
        scaled.append(s * REF_S / statistics.fmean(nearby))
    return scaled


class Segments:
    """Jobs timed in segments, with a reference after each segment, outside
    it, so that ``paced`` can scale every segment."""

    def __init__(self):
        self.seconds, self.refs, self.jobs = [], [], []

    def start(self) -> None:
        """Start the next job."""
        self.jobs.append(len(self.seconds))
        self.mark = perf_counter()

    def tick(self) -> None:
        """End a segment of the current job."""
        self.seconds.append(perf_counter() - self.mark)
        self.refs.append(reference())
        self.mark = perf_counter()

    def totals(self, scale: bool) -> list[float]:
        """Seconds per job, scaled or not."""
        seconds = paced(self.seconds, self.refs) if scale else self.seconds
        ends = self.jobs[1:] + [len(seconds)]
        return [sum(seconds[a:b]) for a, b in zip(self.jobs, ends)]


def run_pass(workload, k: int, tracer=None) -> dict:
    """Run pass ``k``; time it and each operation, then check the outputs.

    A reference runs after every operation, outside the operation's time.
    """
    ops = workload.pass_ops(k)
    results, refs = [], []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for op in ops:
            began = perf_counter()
            try:
                out, error = op.run(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, error = None, exc
            results.append((out, error, perf_counter() - began))
            refs.append(reference())
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures, records = [], []
    for op, (out, error, _) in zip(ops, results):
        try:
            ok = error is None and op.check(out)
            records.append(op.record(out) if ok else None)
        except Exception as exc:
            ok, error = False, exc
            records.append(None)
        if not ok:
            failures.append(f"pass {k} {op.label}: {repr(error) if error else 'wrong output'}")
    raw_op_s = [seconds for _, _, seconds in results]
    op_s = paced(raw_op_s, refs)
    return {
        "wall": sum(op_s),
        "raw_wall": sum(raw_op_s),
        "op_s": op_s,
        "raw_op_s": raw_op_s,
        "refs": refs,
        "failures": failures,
        "records": records,
        "layers": tracer.layer_metrics() if tracer is not None else None,
    }


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def pool_speedups() -> dict[str, float]:
    """Serial over two-worker time for the library's two process pools,
    each the median of three tries."""
    from posetfree import census, containers
    from posetfree.fixtures import fixture
    from posetfree.lattice import SetFamily

    v, chain3 = fixture("v"), fixture("chain3")
    cube = SetFamily(6, tuple(range(64)))
    families = [census.random_p_free_family(chain3, 6, seed=i) for i in range(8)]
    jobs = {
        "census.count_p_free.pool2_speedup":
            lambda processes: census.count_p_free(4, v, processes=processes),
        "containers.build_collection.pool2_speedup":
            lambda processes: containers.build_collection(
                chain3, 0, 6, cube, families, processes=processes),
    }
    speedups = {}
    for name, job in jobs.items():
        times = {1: [], 2: []}
        results = set()
        for _ in range(3):
            for processes in (1, 2):
                began = perf_counter()
                results.add(job(processes))
                times[processes].append(perf_counter() - began)
        if len(results) != 1:
            raise RuntimeError(f"{name}: results differ between 1 and 2 processes")
        speedups[name] = statistics.median(times[1]) / statistics.median(times[2])
    return speedups


def main() -> int:
    args = parse_args()
    sys.dont_write_bytecode = True  # the run writes nothing under src/
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import posetfree
    except ImportError as exc:
        print(f"error: cannot import posetfree from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(posetfree.__file__).resolve().parent != ROOT / "src" / "posetfree":
        print(f"error: posetfree was imported from {posetfree.__file__}", file=sys.stderr)
        return 2
    import tracing
    import workloads
    from posetfree.caps import get_caps

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    setup = Segments()  # SETUP_REPEATS imports, then as many set-ups
    for _ in range(SETUP_REPEATS):
        setup.start()
        subprocess.run([sys.executable, "-B", "-c", IMPORTS, str(ROOT / "src"), str(HERE)],
                       cwd=ROOT, check=True, timeout=120)
        setup.tick()

    workdir = OUT / f"inputs-{os.getpid()}"
    digests = set()
    workload = None
    try:
        for _ in range(SETUP_REPEATS):
            if workload is not None:
                workload.close()
            setup.start()
            workload = workloads.make(args.workload, args.seed, workdir, setup.tick)
            setup.tick()
            digests.add(workload.input_digest)

        tracer = tracing.Tracer() if args.trace else None
        passes = []
        measured = 0.0  # seconds inside operations; references and checks do not count
        min_passes = 2 if tracer else 1
        while True:
            k = len(passes)
            result = run_pass(workload, k, tracer if k % 2 else None)
            passes.append(result)
            if k == 1 and tracer is not None:
                first_spans = list(tracer.spans)
            measured += result["raw_wall"]
            if k + 1 >= min_passes and measured + result["raw_wall"] > args.seconds:
                break
    finally:
        if workload is not None:
            workload.close()

    failures = [f for p in passes for f in p["failures"]]
    if len(digests) != 1:
        failures.append("set-up repeats built different inputs")
    inputs_digest = digests.pop() if len(digests) == 1 else "mixed"
    outputs_digest = workloads.digest(passes[0]["records"])
    pinned = PINNED.get(args.workload)
    if args.seed == 0 and pinned != [inputs_digest, outputs_digest]:
        failures.append(f"seed 0 digests {[inputs_digest, outputs_digest]} != pinned {pinned}")

    plain = [p for p in passes if p["layers"] is None]
    traced = [p for p in passes if p["layers"] is not None]
    op_s = [s for p in plain for s in p["op_s"]]
    raw_op_s = [s for p in plain for s in p["raw_op_s"]]
    attempted = sum(len(p["op_s"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    untraced_wall = statistics.median(p["wall"] for p in plain)
    scaled_jobs, raw_jobs = setup.totals(scale=True), setup.totals(scale=False)
    if tracer is None:
        metrics = {
            "wall_s": untraced_wall,
            "op_p50_ms": 1e3 * percentile(op_s, 50),
            "op_p90_ms": 1e3 * percentile(op_s, 90),
            "setup_s": statistics.median(scaled_jobs[:SETUP_REPEATS])
            + statistics.median(scaled_jobs[SETUP_REPEATS:]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    else:
        first = traced[0]["layers"]
        metrics = {
            name: value if isinstance(value, int) or name.endswith("_ratio")
            else statistics.median(p["layers"][name] for p in traced)
            for name, value in first.items()
        }
        metrics.update(pool_speedups())
        metrics["bench.trace_overhead_s"] = (
            statistics.median(p["wall"] for p in traced) - untraced_wall
        )
        units = {name: unit for name, unit, _ in LAYER_METRICS}

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "caps": dataclasses.asdict(get_caps()),
        "src_lines": src_lines(),
        "passes": len(passes),
        "traced_passes": len(traced),
        "op_samples": len(op_s),
        # unscaled times, and the reference that scales them
        "raw_wall_median_s": statistics.median(p["raw_wall"] for p in plain),
        "raw_op_p50_ms": 1e3 * percentile(raw_op_s, 50),
        "raw_op_p90_ms": 1e3 * percentile(raw_op_s, 90),
        "ref_median_ms": 1e3 * statistics.median(r for p in passes for r in p["refs"]),
        "ref_s": REF_S,
        "import_repeats_s": raw_jobs[:SETUP_REPEATS],
        "setup_repeats_s": raw_jobs[SETUP_REPEATS:],
        "pass_walls_s": [p["raw_wall"] for p in passes],
        "fail_ratio": failed / attempted,
        "inputs_digest": inputs_digest,
        "outputs_digest": outputs_digest,
        "failures": failures[:20],
    }
    for key, value in context.items():
        print(f"# {key}: {json.dumps(value)}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({"context": context, **result}, indent=1))
    if tracer is not None:
        tracing.write_spans(first_spans, stem.with_suffix(".spans.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
