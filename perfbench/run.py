"""Closed-loop benchmark of the chainmetric CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One client drives the click command in-process through
``CliRunner``, one command per op, each op sent after the previous one
returns.  One process runs one workload, so the peak resident memory
belongs to that workload.

With ``--trace 0`` the last stdout line is the JSON result with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced pass.  The line before it records the environment, the stdout
digest, the known-defect probes and the bracket gaps.  Run records and
span files go to ``perfbench/out/``.
"""
import os

# Pinned before numpy is imported anywhere in this process or its children.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from weakref import WeakKeyDictionary

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ["finite-oracle", "euclid-dist", "euclid-sweep", "epsilon-net"]
SETUP_SAMPLES = 3  # this process plus two fresh child processes; the median is reported
MIN_OPS = 101  # successful ops per run, so that at least ten lie beyond p90
QUALITY_OPS = 40  # leading ops of the stream behind the digest and the bracket gap
REFERENCE_S = 1.3e-3  # nominal time of the reference kernel; the scale of reported times
REF_WINDOW = 2  # reference timings on each side of an op that set its speed factor
HARD_STOP_S = 150.0  # ops stop this long after start, whatever their count, to end within 180 s
START = time.monotonic()

# Seed streams: ops, inputs, warm-up, known-defect probes, final checks.
OPS, INPUTS, WARMUP, PROBES, FINAL = range(5)


def click_stream_caches() -> list:
    """click caches the text stream it writes to per ``sys.stdout`` object,
    in a WeakKeyDictionary whose value is that same object, so the stream and
    its buffer of every CliRunner invocation stay alive.  The benchmark
    empties these caches after each command; otherwise peak memory would
    grow with the number of ops a run completes."""
    from click import _compat

    caches = []
    for name in ("_default_text_stdin", "_default_text_stdout", "_default_text_stderr"):
        for cell in getattr(getattr(_compat, name, None), "__closure__", None) or ():
            if isinstance(cell.cell_contents, WeakKeyDictionary):
                caches.append(cell.cell_contents)
    return caches


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


@dataclass
class Record:
    index: int
    kind: str
    ok: bool
    seconds: float
    gap: object  # float or None
    error: str = ""
    ref_s: float = 0.0  # reference kernel time measured just before the op
    scaled_s: float = 0.0  # seconds at the nominal reference speed


class Bench:
    """The imported program, the generated inputs and the op stream of one run."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        import numpy as np

        sys.path.insert(0, str(SRC))
        try:
            import chainmetric
            from chainmetric.cli import main
        except ImportError as exc:
            fail(f"cannot import chainmetric from {SRC}: {exc}")
        if not Path(chainmetric.__file__).resolve().is_relative_to(SRC):
            fail(f"chainmetric imported from {chainmetric.__file__}, not from {SRC}")
        from click.testing import CliRunner

        import workloads

        self.np = np
        self.wl = workloads
        self.spec = workloads.WORKLOADS[workload]
        self.main = main
        self.runner = CliRunner()
        self.stream_caches = click_stream_caches()
        self.ref_matrix = np.random.default_rng(0).random((60, 60))
        self.ref_buffer = np.ones(1 << 18)
        self.seed = seed
        self.wid = WORKLOAD_NAMES.index(workload)
        self.env = {"workdir": workdir}
        if self.spec.prepare is not None:
            self.env.update(self.spec.prepare(self.rng(INPUTS), workdir))

    def reference_s(self, repeats: int = 3) -> float:
        """Best of ``repeats`` timings of a fixed kernel, independent of the
        program under test: an interpreter loop, small numpy ops, and a pass
        over a 2 MB buffer, so that the kernel slows down with the host the
        way interpreter-, numpy- and memory-bound ops do.  It allocates
        nothing large, which would change how the allocator serves the
        program."""
        np = self.np
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            acc = 0
            for i in range(15000):
                acc += i * i
            B = self.ref_matrix @ self.ref_matrix
            for k in range(15):
                B = np.minimum(B, B[:, k, None] + B[None, k, :])
            np.negative(self.ref_buffer, out=self.ref_buffer)
            best = min(best, time.perf_counter() - t0)
        return best

    def rng(self, stream: int, *index: int):
        return self.np.random.default_rng([self.seed, self.wid, stream, *index])

    def op(self, i: int):
        pattern = self.spec.pattern
        return self.spec.make_op(pattern[i % len(pattern)], self.rng(OPS, i), self.env, i)

    def invoke(self, args, tracer=None, op_id=-1):
        try:
            if tracer is None:
                return self.runner.invoke(self.main, args)
            tracer.op_id = op_id
            tracer.active = True
            try:
                return tracer.call("cli", self.runner.invoke, self.main, args)
            finally:
                tracer.active = False
        finally:
            for cache in self.stream_caches:
                cache.clear()

    def execute(self, i: int, op, tracer=None):
        t0 = time.perf_counter()
        result = self.invoke(op.args, tracer, i)
        seconds = time.perf_counter() - t0
        if result.exit_code != 0:
            detail = result.exception if result.exception is not None else result.stderr
            return Record(i, op.kind, False, seconds, None,
                          f"exit {result.exit_code}: {str(detail).strip()[:200]}"), result
        try:
            gap = op.check(result.stdout)
        except self.wl.CheckFailed as exc:
            return Record(i, op.kind, False, seconds, None, f"check: {exc}"), result
        except (ValueError, KeyError, IndexError) as exc:
            return Record(i, op.kind, False, seconds, None, f"unparsable output: {exc!r}"), result
        return Record(i, op.kind, True, seconds, gap), result

    def warm_up(self) -> list:
        """One op of each kind, so one-time costs land in set-up."""
        failures = []
        pattern = self.spec.pattern
        for j, kind in enumerate(dict.fromkeys(pattern)):
            index = pattern.index(kind)
            op = self.spec.make_op(kind, self.rng(WARMUP, j), dict(self.env, warmup=True), index)
            record, _ = self.execute(index, op)
            if not record.ok:
                failures.append(f"warm-up {kind}: {record.error}")
        return failures


def setup(workload: str, seed: int, workdir: Path):
    """Import the program, generate the inputs and warm up; returns the
    bench, the set-up seconds and any warm-up failures."""
    t0 = time.perf_counter()
    bench = Bench(workload, seed, workdir)
    failures = bench.warm_up()
    seconds = time.perf_counter() - t0
    return bench, seconds * REFERENCE_S / bench.reference_s(5), failures


def setup_in_child(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=False,
    )
    if proc.returncode != 0:
        fail(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_pass(bench, start: int, budget_s: float, min_ops: int, tracer=None,
             count: int = 0, digest=None):
    """Run ops from ``start`` in stream order, in whole pattern cycles.

    Stops after exactly ``count`` ops when given, else once the timed time
    reaches ``budget_s`` and ``min_ops`` ops have succeeded.
    """
    cycle = len(bench.spec.pattern)
    records = []
    timed = 0.0
    ok = 0
    i = start
    while True:
        ref_s = bench.reference_s()
        record, result = bench.execute(i, bench.op(i), tracer)
        record.ref_s = ref_s
        records.append(record)
        timed += record.seconds
        ok += record.ok
        if digest is not None and i < QUALITY_OPS:
            digest.update(result.stdout.encode())
        i += 1
        if count:
            if i - start >= count:
                break
        elif (i - start) % cycle == 0 and timed >= budget_s and ok >= min_ops:
            break
        if time.monotonic() - START > HARD_STOP_S:
            break
    for j, record in enumerate(records):
        nearby = [r.ref_s for r in records[max(0, j - REF_WINDOW): j + REF_WINDOW + 1]]
        record.scaled_s = record.seconds * REFERENCE_S / statistics.median(nearby)
    return records


def run_probes(bench) -> dict:
    """Known defects, run untimed and untraced at a fixed count per run."""
    spec = bench.spec
    out = {}
    for j in range(spec.probes):
        probe = spec.make_probe(bench.rng(PROBES, j))
        result = bench.invoke(probe.args)
        entry = out.setdefault(probe.kind, {"ops": 0, "reproduced": 0, "other_exits": []})
        entry["ops"] += 1
        if probe.reproduces(result):
            entry["reproduced"] += 1
        else:
            entry["other_exits"].append(result.exit_code)
    return out


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": metadata.version("click"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "layout": "one process per workload; one closed-loop client; "
                  f"{SETUP_SAMPLES - 1} extra child processes time set-up only",
    }


def summarize(records, field: str = "scaled_s") -> dict:
    ok = [r for r in records if r.ok]
    latencies = [getattr(r, field) for r in ok]
    out = {"attempted": len(records), "failed": len(records) - len(ok),
           "timed_s": sum(getattr(r, field) for r in records)}
    out["p50_s"] = out["p90_s"] = 0.0  # no latency without two successful ops
    if len(latencies) >= 2:
        out["p50_s"] = statistics.median(latencies)
        out["p90_s"] = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    out["beyond_p90"] = sum(v > out["p90_s"] for v in latencies)
    gaps = [r.gap for r in records if r.ok and r.index < QUALITY_OPS and r.gap is not None]
    out["bracket_gap_mean"] = statistics.fmean(gaps) if gaps else 0.0
    out["bracket_ops"] = len(gaps)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "chainmetric").is_dir():
        fail(f"no chainmetric sources under {SRC}")

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            _, seconds, failures = setup(args.workload, args.seed, workdir)
            if failures:
                fail("; ".join(failures))
            print(repr(seconds))
            return
        result = benchmark(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def benchmark(args, workdir: Path) -> dict:
    setup_samples = []
    if not args.trace:
        setup_samples = [setup_in_child(args.workload, args.seed)
                         for _ in range(SETUP_SAMPLES - 1)]
    bench, seconds, failures = setup(args.workload, args.seed, workdir)
    setup_samples.append(seconds)

    digest = hashlib.sha256()
    tracer = None
    if args.trace:
        import tracing

        budget = args.seconds / 2.0
        plain = run_pass(bench, 0, budget, QUALITY_OPS, digest=digest)
        tracer = tracing.Tracer()
        tracer.install()
        patched = tracer.patched_names()
        try:
            traced = run_pass(bench, len(plain), 0.0, 0, tracer, count=len(plain))
        finally:
            tracer.uninstall()
        records = plain + traced
    else:
        records = run_pass(bench, 0, args.seconds, MIN_OPS, digest=digest)

    failures += [f"op {r.index} {r.kind}: {r.error}" for r in records if not r.ok]
    if bench.spec.final_checks is not None:
        failures += bench.spec.final_checks(bench.runner, bench.main, bench.env,
                                              bench.rng(FINAL))
    probes = run_probes(bench)

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "stdout_sha256": digest.hexdigest(), "digest_ops": QUALITY_OPS,
        "known_defects": probes,
    }
    metrics = {}
    if args.trace:
        plain_s, traced_s = summarize(plain), summarize(traced)
        info.update(untraced=plain_s, traced=traced_s, patched=patched,
                    absent_targets=tracer.absent)
        failures += expectation_failures(bench.spec, tracer)
        layer = tracer.per_layer(len(traced))
        overhead = traced_s["p50_s"] / plain_s["p50_s"] if plain_s["p50_s"] else 0.0
        layer["trace.overhead_ratio"] = (overhead, "ratio")
        layer["quality.bracket_gap_mean"] = (plain_s["bracket_gap_mean"], "1")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    else:
        s = summarize(records)
        info.update(summary=s, unscaled=summarize(records, "seconds"),
                    setup_samples=setup_samples)
        ok = s["attempted"] - s["failed"]
        if ok < MIN_OPS:
            failures.append(f"only {ok} successful ops")
        metrics = {
            "ops_per_s": {"value": ok / s["timed_s"], "unit": "1/s"},
            "op_p50_ms": {"value": 1000.0 * s["p50_s"], "unit": "ms"},
            "op_p90_ms": {"value": 1000.0 * s["p90_s"], "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }

    for message in failures:
        print(f"perfbench: {message}", file=sys.stderr)
    info["failures"] = failures
    attempted = len(records)
    failed = sum(not r.ok for r in records)
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump({"info": info, "result": result,
                   "ops": [vars(r) for r in records]}, fh, indent=1)
    print(json.dumps({"perfbench": info}))
    return result


def expectation_failures(spec, tracer) -> list:
    """Layers the workload should reach must have been called; layers it
    bypasses must not have been."""
    out = []
    for name in spec.expect_calls:
        if name not in tracer.absent and tracer.calls[name] == 0:
            out.append(f"trace: expected calls to {name}, saw none")
    for name in spec.expect_no_calls:
        if tracer.calls[name]:
            out.append(f"trace: expected no calls to {name}, saw {tracer.calls[name]}")
    return out


if __name__ == "__main__":
    main()
