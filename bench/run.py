"""Seeded closed-loop benchmark of the frugal pruning-lifting auctions.

    python3 bench/run.py --workload kpath-grid --seed 1 --seconds 20 --trace 0

Run from the repository root.  One client sends one auction at a time,
each after the previous one has returned; there are no worker threads,
and the only child processes are the set-up's import probes, run one at
a time before any auction.  `--trace 0` prints the end-to-end metrics, `--trace 1` the
per-layer metrics of a traced run, and `--workload all` runs every
workload in turn.  The last line of the output is one JSON object.
See bench/README.md for the workloads and the metric names.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / "bench" / "out"

WORKLOAD_NAMES = ("kpath-grid", "kpath-ties", "vcover-gnp", "groups-generic")
# Set-ups per untimed run; setup_s is their median.
SETUP_REPEATS = 7
WARMUP_AUCTIONS = 3
# At least ten samples above the p90.
MIN_COMPLETED = 100
# Auctions of the untimed tracemalloc pass, which runs about seven times
# slower: one cycle of every workload's shape schedule.
MEMORY_PASS_AUCTIONS = 8
# Auctions, from the start of the pool, whose outcomes make up the digest.
DIGEST_AUCTIONS = 100
# Far above the slowest completed auction (about 0.3 s); runaway auctions
# of `kpath-ties` reach the address-space cap after about a second.
AUCTION_TIME_CAP_S = 10.0
ADDRESS_SPACE_CAP_MB = 512
# Share of --seconds given to the untraced pass of the traced run; the
# traced replay of the same auctions takes the rest and its overhead.
TRACE_SHARE = 0.5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Time metrics are reported at the host speed at which reference_work()
# takes this long; see HostSpeed.
REFERENCE_NOMINAL_S = 0.0035
REFERENCE_EVERY_S = 0.25
# Each time is scaled by the reference samples taken this close to its
# start: host speed changes from one second to the next.
REFERENCE_WINDOW_S = 1.0

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import frugal.mechanisms\n"
    "print(time.perf_counter() - t)\n"
)


class AuctionTimeout(Exception):
    """Raised by SIGALRM when one auction runs past AUCTION_TIME_CAP_S."""


def _on_alarm(signum, frame):
    raise AuctionTimeout()


def reference_work() -> float:
    """Fixed pure-Python work of the kind the library does: dict copies,
    set algebra, comprehensions, sorting and float sums."""
    base = {i: float(i) for i in range(300)}
    acc = 0.0
    for r in range(120):
        trial = dict(base)
        step = frozenset(range(r % 3, 300, 3))
        rest = [k for k in trial if k not in step]
        acc += sum(trial[k] for k in rest)
        acc += len(sorted(step, reverse=True))
    return acc


class HostSpeed:
    """Times reference_work() between auctions, at most every REFERENCE_EVERY_S.

    On a shared host the same code runs up to a quarter faster or slower
    from one second to the next, and the reference slows with it.  So a
    time divided by the median reference time within REFERENCE_WINDOW_S
    of its start, and multiplied by REFERENCE_NOMINAL_S, reads about as it
    would at a fixed host speed, and runs made minutes apart become
    comparable.  A change to the library does not move the reference,
    which calls none of it.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._due = 0.0

    def sample(self) -> float:
        """Run the reference if it is due; returns the seconds it took."""
        start = time.perf_counter()
        if start < self._due:
            return 0.0
        reference_work()
        end = time.perf_counter()
        self.samples.append((start, end - start))
        self._due = end + REFERENCE_EVERY_S
        return end - start

    def scaled(self, start: float, seconds: float) -> float:
        """`seconds` of work begun at `start`, at the nominal host speed."""
        near = [dt for t, dt in self.samples if abs(t - start) <= REFERENCE_WINDOW_S]
        reference = statistics.median(near or [dt for _, dt in self.samples])
        return seconds * REFERENCE_NOMINAL_S / reference

    def note(self) -> str:
        median = statistics.median(dt for _, dt in self.samples)
        return (f"host speed: reference median {median * 1e3:.3f} ms over {len(self.samples)}"
                f" samples; each time scaled to a {REFERENCE_NOMINAL_S * 1e3:g} ms reference"
                f" by the samples within {REFERENCE_WINDOW_S:g} s of its start")


def attempt(auction):
    """Run one auction under the time cap: (outcome or None, failure or None, seconds)."""
    from frugal.errors import FrugalError

    out, failure = None, None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, AUCTION_TIME_CAP_S)
        try:
            out = auction.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except FrugalError as exc:
        failure = type(exc).__name__
    except MemoryError:
        failure = "MemoryError"
    except AuctionTimeout:
        failure = "timeout"
    return out, failure, time.perf_counter() - start


def batch(auctions, speed, seconds=None, attempts=None, on_start=None):
    """Closed loop over the pool, cycling: for `seconds` and at least
    MIN_COMPLETED completed auctions, or for exactly `attempts` auctions.

    Past the deadline the loop gives up once half of the attempts failed.
    `speed` samples the host between auctions.  Returns the per-auction
    results, their start times and the wall time of the whole batch, less
    the samples.
    """
    results, starts = [], []
    completed = 0
    sampling = 0.0
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds

    def more() -> bool:
        i = len(results)
        if deadline is None:
            return i < attempts
        return (time.perf_counter() < deadline
                or (completed < MIN_COMPLETED and i < 2 * MIN_COMPLETED))

    while more():
        sampling += speed.sample()
        if on_start is not None:
            on_start(len(results))
        starts.append(time.perf_counter())
        result = attempt(auctions[len(results) % len(auctions)])
        completed += result[0] is not None
        results.append(result)
    return results, starts, time.perf_counter() - start - sampling


def host_scaled(speed, starts, results):
    """Each auction's time at the nominal host speed, and the factor that
    takes the batch's wall time there."""
    scaled = [speed.scaled(t, dt) for t, (_, _, dt) in zip(starts, results)]
    return scaled, sum(scaled) / sum(dt for _, _, dt in results)


def check_all(workloads, auctions, results):
    """Check every completed outcome, outside any timed region.

    Returns each auction's failure (None when it completed and passed the
    check) and the digest of the first DIGEST_AUCTIONS outcomes.
    """
    status = []
    for i, (out, failure, _) in enumerate(results):
        if out is not None:
            reason = workloads.check(auctions[i % len(auctions)], out)
            failure = None if reason is None else f"check: {reason}"
        status.append(failure)
    outcomes = [out if failure is None else None
                for (out, _, _), failure in zip(results[:DIGEST_AUCTIONS], status)]
    return status, workloads.digest(outcomes)


def tally(status):
    """Failures by kind, as a note."""
    counts: dict[str, int] = {}
    for failure in status:
        if failure is not None:
            counts[failure] = counts.get(failure, 0) + 1
    return "failures: " + (json.dumps(counts, sort_keys=True) if counts else "none")


def outputs_correct(status) -> bool:
    return not any(failure and failure.startswith("check:") for failure in status)


def metric(value, unit):
    return {"value": value, "unit": unit}


def probe_import_s() -> float:
    """Time to import frugal in a fresh interpreter, measured inside it."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout.strip().splitlines()[-1])


def set_up(workloads, name, seed, repeats, speed):
    """Import, generate and warm up `repeats` times, sampling `speed` before each.

    Returns the pool and the (start, seconds) of each set-up.
    """
    times = []
    for _ in range(repeats):
        speed.sample()
        begun = time.perf_counter()
        import_s = probe_import_s()
        start = time.perf_counter()
        auctions = workloads.build(name, seed)
        for auction in auctions[:WARMUP_AUCTIONS]:
            attempt(auction)
        times.append((begun, import_s + time.perf_counter() - start))
    return auctions, times


def peak_memory_mb(auctions) -> float:
    """Largest tracemalloc peak of one completed auction, in an untimed pass."""
    peak = 0
    tracemalloc.start()
    try:
        for auction in auctions[:MEMORY_PASS_AUCTIONS]:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out, _, _ = attempt(auction)
            if out is not None:
                peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 1e6


def _rank90(n: int) -> int:
    return max(1, -(-9 * n // 10))


def p90(samples):
    """Nearest-rank 90th percentile."""
    return sorted(samples)[_rank90(len(samples)) - 1]


def end_to_end(workloads, name, seed, seconds):
    setup_speed, speed = HostSpeed(), HostSpeed()
    auctions, setups = set_up(workloads, name, seed, SETUP_REPEATS, setup_speed)
    results, starts, wall = batch(auctions, speed, seconds=seconds)
    status, digest = check_all(workloads, auctions, results)
    scaled, wall_scale = host_scaled(speed, starts, results)
    passed = [failure is None for failure in status]
    latencies = [dt for dt, ok in zip(scaled, passed) if ok]
    unscaled = [dt for (_, _, dt), ok in zip(results, passed) if ok]
    attempted, completed = len(results), len(latencies)
    setup_s = statistics.median(setup_speed.scaled(t, dt) for t, dt in setups)
    metrics = {
        "auction_p50_ms": metric(statistics.median(latencies) * 1e3 if latencies else 0.0, "ms"),
        "auction_p90_ms": metric(p90(latencies) * 1e3 if latencies else 0.0, "ms"),
        "auctions_per_s": metric(completed / (wall * wall_scale), "1/s"),
        "completed_frac": metric(completed / attempted, "frac"),
        "peak_mem_mb": metric(peak_memory_mb(auctions), "MB"),
        "setup_s": metric(setup_s, "s"),
    }
    notes = [
        f"closed loop, 1 client: {attempted} auctions attempted in {wall:.2f} s",
        speed.note(),
        "set-up " + setup_speed.note(),
        f"unscaled: p50 {statistics.median(unscaled) * 1e3 if unscaled else 0.0:.4f} ms,"
        f" p90 {p90(unscaled) * 1e3 if unscaled else 0.0:.4f} ms, {completed / wall:.4f} auctions/s,"
        f" setup {statistics.median(dt for _, dt in setups):.4f} s",
        f"samples: {completed} completed auctions, {completed - _rank90(completed)} above the p90",
        f"failed_frac = {1 - completed / attempted:.6f} ({attempted - completed} of {attempted})",
        tally(status),
        f"peak_mem_mb: max over the first {MEMORY_PASS_AUCTIONS} auctions, untimed pass",
        f"setup_s: median of {SETUP_REPEATS} set-ups (import in a fresh interpreter,"
        " generate, warm up)",
        f"digest: {digest} over the first {min(DIGEST_AUCTIONS, attempted)} auctions",
    ]
    return metrics, attempted, attempted - completed, outputs_correct(status), notes


def traced(workloads, name, seed, seconds):
    from importlib import import_module

    import tracing

    auctions, _ = set_up(workloads, name, seed, 1, HostSpeed())
    layers = [import_module(f"frugal.{layer}") for layer in tracing.LAYERS]
    tracer = tracing.Tracer()
    plain_speed, traced_speed = HostSpeed(), HostSpeed()
    plain_results, plain_starts, plain_wall = batch(auctions, plain_speed,
                                                    seconds=seconds * TRACE_SHARE)
    with tracer.installed(layers) as traced_names:
        traced_results, traced_starts, traced_wall = batch(
            auctions, traced_speed, attempts=len(plain_results), on_start=tracer.begin_auction)
    status, traced_digest = check_all(workloads, auctions, traced_results)
    plain_status, plain_digest = check_all(workloads, auctions, plain_results)
    metrics, absent = tracing.layer_metrics(tracer, traced_names)
    _, plain_scale = host_scaled(plain_speed, plain_starts, plain_results)
    _, traced_scale = host_scaled(traced_speed, traced_starts, traced_results)
    overhead = (traced_wall * traced_scale) / (plain_wall * plain_scale) - 1.0
    metrics["trace_overhead"] = metric(overhead * 100.0, "%")
    spans_file = write_spans(tracer.spans, name)
    attempted = len(traced_results)
    failed = sum(failure is not None for failure in status)
    notes = [
        f"{attempted} auctions: untraced {plain_wall:.2f} s, traced replay {traced_wall:.2f} s",
        "untraced " + plain_speed.note(),
        "traced " + traced_speed.note(),
        tally(status),
        f"digest: traced {traced_digest}, untraced {plain_digest}",
        f"spans: {len(tracer.spans)} written to {spans_file.relative_to(ROOT)}",
        "absent: " + (", ".join(absent) if absent else "none"),
        "inclusive shares of auction time: " + ", ".join(
            f"{n} {share:.0%}" for n, share in list(tracing.inclusive_shares(tracer.spans).items())[:6]),
    ]
    correct = (traced_digest == plain_digest
               and outputs_correct(status) and outputs_correct(plain_status))
    return metrics, attempted, failed, correct, notes


def write_spans(spans, name) -> Path:
    SPANS_DIR.mkdir(parents=True, exist_ok=True)
    path = SPANS_DIR / f"spans-{name}.tsv.gz"
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("auction\tspan\tparent\tname\tstart_ns\tend_ns\n")
        fh.writelines("\t".join(map(str, span)) + "\n" for span in spans)
    return path


def run_workload(workloads, name, seed, seconds, trace):
    measure = traced if trace else end_to_end
    metrics, attempted, failed, correct, notes = measure(workloads, name, seed, seconds)
    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    for key, metric in metrics.items():
        print(f"  {key:44s} {metric['value']:>14.6g} {metric['unit']}")
    for note in notes:
        print(f"  {note}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "frugal" / "mechanisms.py").is_file():
        print(f"error: no frugal sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads

    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = ADDRESS_SPACE_CAP_MB * 2**20
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    signal.signal(signal.SIGALRM, _on_alarm)

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    reports = {name: run_workload(workloads, name, args.seed, args.seconds, args.trace)
               for name in names}
    print(json.dumps(reports if args.workload == "all" else reports[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
