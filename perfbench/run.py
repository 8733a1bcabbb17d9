"""End-to-end and per-module benchmark of cosetmoe.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload protocols --seed 1 --seconds 10 --trace 0

Workloads (see README.md): ``protocols``, ``longkey``, ``games``, ``replays``.
The program is imported from ``src/`` of the checkout and driven only through
its public entry points, in this one process, on one thread.

With ``--trace 0`` the run times whole rounds of the workload's operations for
``--seconds`` seconds and reports the end-to-end metrics.  With ``--trace 1``
it times half of the run untraced and half with every public function of the
package wrapped in a span (``spans.py``), and reports the per-module metrics.
Set-up time is measured in fresh child processes of this script.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Details of the run go to ``.perfbench/``.
"""

from __future__ import annotations

import os

# one worker thread: no BLAS or OpenMP pools, no thread count from outside
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("COSETMOE_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 120
PROBE_LOOPS = 100_000
# Reference host speed: probe loops per second.  Times are reported as they
# would be on a host whose probe reads this; the 2-vCPU reference host reads
# 0.7e7 to 1.25e7 as other tenants load it.
REF_PROBE_PER_S = 1e7
# set-up time scales with host speed to this power (time ~ probe^-0.5): part
# of it is process start and file access, which the probe does not track
SETUP_HOST_EXPONENT = 0.5
MODULES = ("proto", "gf2", "qsim", "ecc", "ext", "mc", "moe", "info", "cli")

sys.path.insert(0, str(HERE))
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def derive_seed(seed: int, *parts) -> int:
    """A 63-bit seed for one operation, fixed by the workload seed and parts."""
    digest = hashlib.blake2b(repr((seed, *parts)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def host_probe() -> float:
    """Iterations per second of a fixed pure-Python loop: host speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc ^= i * i
    return PROBE_LOOPS / (time.perf_counter() - t0)


class Tally:
    """Operation counts of one run.  An operation that raises, exits non-zero
    or fails its own check is failed; ``problems`` are the checks that span
    operations (closed-form bands, invariance), which make a run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.problems: list[str] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")


# ------------------------------------------------------------------
# set-up
# ------------------------------------------------------------------


def import_program() -> float:
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import cosetmoe.cli  # noqa: F401

    return time.perf_counter() - t0


def build(name: str, seed: int, tally: Tally) -> tuple[Workload, float]:
    """Construct the workload and make one small untimed warm-up call of each
    operation (codes, extractors, leader tables and kernels get built)."""
    t0 = time.perf_counter()
    workload = WORKLOADS[name]()
    for op in workload.ops:
        run_checked(op, derive_seed(seed, "warmup", op.name), max(1, op.trials // 50), tally)
    return workload, time.perf_counter() - t0


def setup_child(name: str, seed: int) -> int:
    import_s = import_program()
    tally = Tally()
    _, build_s = build(name, seed, tally)
    if tally.failed:
        print("\n".join(tally.errors), file=sys.stderr)
        return 1
    print(json.dumps({"import_s": import_s, "build_s": build_s}), flush=True)
    return 0


def setup_samples(name: str, seed: int) -> list[dict]:
    """Set up in fresh processes: wall time from spawn to ready, per child,
    and the host probe just before and after each child."""
    samples = []
    probe = host_probe()
    for k in range(SETUP_SAMPLES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
                "--workload", name, "--seed", str(derive_seed(seed, "setup", k))]
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              cwd=ROOT, text=True) as proc:
            try:
                line = proc.stdout.readline()
                wall = time.perf_counter() - t0
                _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up child failed: {err.strip()[-500:]}")
        before, probe = probe, host_probe()
        samples.append({"setup_s": wall, "probe_per_s": (before + probe) / 2, **json.loads(line)})
    return samples


# ------------------------------------------------------------------
# operations
# ------------------------------------------------------------------


def run_checked(op, seed: int, trials: int, tally: Tally):
    """Run and check one untimed operation; returns its output or None."""
    tally.attempted += 1
    try:
        raw = op.run(seed, trials)
        tally.counts[op.name].update(op.check(raw, trials))
        return raw
    except Exception as exc:  # an operation that raises is a failed operation
        tally.fail(op.name, exc)
        return None


def thread_blind(text: str) -> str:
    """The report re-serialised without the fields that echo the requested
    thread count: ``config.threads`` (moe only) and the config hash over it."""
    report = json.loads(text)
    report["config"].pop("threads", None)
    report.pop("config_sha256")
    return json.dumps(report, separators=(",", ":"))


def invariance(workload: Workload, seed: int, tally: Tally, first_outputs: dict) -> None:
    """Checks outside the timed phase: report bytes at 1 and 2 threads, and
    byte-identical JSONL for a replay made twice."""
    from workloads import call_cli

    for argv in workload.thread_argvs:
        texts = []
        for threads in ("1", "2"):
            tally.attempted += 1
            try:
                texts.append(call_cli([*argv[:-1], threads])[1])
            except Exception as exc:
                tally.fail(f"{argv[0]} --threads {threads}", exc)
        if len(texts) == 2 and thread_blind(texts[0]) != thread_blind(texts[1]):
            tally.problems.append(f"{argv[0]}: report bytes differ between 1 and 2 threads")
    if workload.replay_ops:
        for op in workload.ops:
            first = first_outputs.get(op.name)
            if first is None:
                continue
            again = run_checked(op, derive_seed(seed, 0, op.name), len(first), tally)
            if again is not None and again != first:
                tally.problems.append(f"{op.name}: replayed JSONL bytes differ")


def timed_phase(workload: Workload, seed: int, seconds: float, first_round: int,
                tally: Tally, tracer: Tracer | None = None) -> dict:
    """Whole rounds of every operation until ``seconds`` have passed.

    Each operation is timed alone; its output is checked after its clock
    stops.  Each round draws fresh seeds from the workload seed.  Untraced,
    the host probe runs between operations, and each operation is paired with
    the mean of the probes just before and after it."""
    times: dict[str, list[float]] = {op.name: [] for op in workload.ops}
    speeds: dict[str, list[float]] = {op.name: [] for op in workload.ops}
    probes: list[float] = [] if tracer else [host_probe()]
    first_outputs: dict[str, object] = {}
    rnd = first_round
    deadline = time.perf_counter() + seconds
    while True:
        for op in workload.ops:
            op_seed = derive_seed(seed, rnd, op.name)
            tally.attempted += 1
            ok = False
            try:
                if tracer is None:
                    t0 = time.perf_counter()
                    raw = op.run(op_seed, op.trials)
                    t1 = time.perf_counter()
                else:
                    span = tracer.span(f"bench.{op.name}")
                    t0 = time.perf_counter()
                    with span:
                        raw = op.run(op_seed, op.trials)
                    t1 = time.perf_counter()
                tally.counts[op.name].update(op.check(raw, op.trials))
                ok = True
            except Exception as exc:
                tally.fail(op.name, exc)
            if tracer is None:
                probes.append(host_probe())
            if not ok:
                continue
            times[op.name].append(t1 - t0)
            if tracer is None:
                speeds[op.name].append((probes[-2] + probes[-1]) / 2)
            if rnd == 0 and isinstance(raw, list):
                first_outputs[op.name] = raw[:5]
        rnd += 1
        if time.perf_counter() >= deadline:
            break
    return {"times": times, "speeds": speeds, "rounds": rnd - first_round,
            "next_round": rnd, "probes": probes, "first_outputs": first_outputs}


def rates(workload: Workload, phase: dict) -> dict[str, float]:
    """Trials/s of each operation and of a whole round, from median times.

    ``ref`` scales every operation time by the host speed measured around it,
    raised to the workload's ``host_exponent``: the time it would take on a
    host whose probe reads REF_PROBE_PER_S."""
    out = {}
    trials = raw_s = ref_s = 0.0
    for op in workload.ops:
        ts = phase["times"][op.name]
        if not ts:
            continue
        med = statistics.median(ts)
        out[op.name] = op.trials / med
        trials += op.trials
        raw_s += med
        ref_s += statistics.median(
            t * (speed / REF_PROBE_PER_S) ** workload.host_exponent
            for t, speed in zip(ts, phase["speeds"][op.name]))
    out["all"] = trials / raw_s if raw_s else 0.0
    out["ref"] = trials / ref_s if ref_s else 0.0
    return out


def per_trial_s(workload: Workload, phase: dict) -> float:
    trials = sum(op.trials * len(phase["times"][op.name]) for op in workload.ops)
    return sum(sum(ts) for ts in phase["times"].values()) / max(trials, 1)


# ------------------------------------------------------------------
# metrics
# ------------------------------------------------------------------


def layer_metrics(workload: Workload, tracer: Tracer, traced: dict, untraced: dict) -> dict:
    trials = sum(op.trials * len(traced["times"][op.name]) for op in workload.ops)
    cli_calls = 0 if workload.replay_ops else sum(len(ts) for ts in traced["times"].values())
    timed_s = sum(sum(ts) for ts in traced["times"].values())
    self_s, calls = tracer.by_module()
    us = 1e6 / max(trials, 1)
    m = {}
    for mod in MODULES:
        if mod in ("info", "cli"):
            m[f"{mod}.self_ms"] = (self_s[mod] * 1e3 / cli_calls if cli_calls else 0.0, "ms/call")
        else:
            m[f"{mod}.self_us"] = (self_s[mod] * us, "us/trial")
        if mod in ("gf2", "qsim", "ecc", "ext"):
            m[f"{mod}.calls"] = (calls[mod] / max(trials, 1), "count/trial")
    transcript_s, _ = tracer.name_stats("proto.Transcript.to_jsonl")
    _, allocs = tracer.name_stats("gf2.Gf2Vec.__init__")
    m["proto.transcript_us"] = (transcript_s * us, "us/trial")
    m["gf2.vec_allocs"] = (allocs / max(trials, 1), "count/trial")
    m["mc.words"] = (tracer.words / max(trials, 1), "words/trial")
    m["bench.self_us"] = (self_s["bench"] * us, "us/trial")
    m["trace.coverage"] = (sum(self_s.values()) / timed_s if timed_s else 0.0, "ratio")
    m["trace.overhead_us"] = ((per_trial_s(workload, traced) - per_trial_s(workload, untraced))
                              * 1e6, "us/trial")
    m["host.probe_per_s"] = (statistics.median(untraced["probes"]), "1/s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cosetmoe" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'cosetmoe'} is missing",
              file=sys.stderr)
        return 2
    if args.setup_child:
        return setup_child(args.workload, args.seed)

    setup = setup_samples(args.workload, args.seed)
    tally = Tally()
    import_program()
    workload, _ = build(args.workload, args.seed, tally)

    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = timed_phase(workload, args.seed, seconds, 0, tally)
    tracer = traced = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_phase(workload, args.seed, seconds, untraced["next_round"],
                                 tally, tracer)
        finally:
            tracer.uninstall()
    # the high-water mark of the timed workload, before the 2-thread checks
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    invariance(workload, args.seed, tally, untraced["first_outputs"])
    problems = tally.problems + workload.verify(tally.counts)

    op_rates = rates(workload, untraced)
    if args.trace:
        metrics = layer_metrics(workload, tracer, traced, untraced)
        metrics["setup.import_s"] = (statistics.median(s["import_s"] for s in setup), "s")
        metrics["setup.build_s"] = (statistics.median(s["build_s"] for s in setup), "s")
    else:
        metrics = {
            "ref_trials_per_s": (op_rates["ref"], "1/s"),
            "setup_s": (statistics.median(
                s["setup_s"] * (s["probe_per_s"] / REF_PROBE_PER_S) ** SETUP_HOST_EXPONENT
                for s in setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        **result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "rounds": untraced["rounds"], "op_trials_per_s": op_rates,
        "op_times_s": untraced["times"], "host_probe_per_s": untraced["probes"],
        "setup": setup, "problems": problems, "errors": tally.errors,
        "counts": tally.counts,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer is not None:
        tracer.save(OUT_DIR / f"{stem}-spans.npz")

    for line in [*tally.errors, *problems]:
        print(f"problem: {line}")
    for name, rate in op_rates.items():
        print(f"{name:>20}: {rate:12.1f} trials/s")
    print(f"{'host probe':>20}: {statistics.median(untraced['probes']):12.0f} loops/s")
    print(f"{'rounds':>20}: {untraced['rounds']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
