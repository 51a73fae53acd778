"""cfmoments benchmark: one seeded workload, closed loop, one operation at a time.

Run from the root of a source checkout:

    python3 bench/run.py --workload numeric-compare --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it measures the end-to-end metrics: rounds of
operations run back to back in this process until ``--seconds`` have
passed (whole rounds only, and at least ``MIN_OPS`` operations), every
output is checked, and set-up time is taken from fresh interpreters.
With ``--trace 1`` it replays the workload's first ``trace_rounds``
rounds twice, untraced and then with the span tracer of ``spans.py``
installed, and reports per-layer call counts and self times; that list
is fixed so that counts repeat exactly, and ``--seconds`` does not apply.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Without the library sources beside it the script prints no result and
exits with status 2.
"""

from __future__ import annotations

import argparse
import collections
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = pathlib.Path(__file__).resolve().parent / "out"

MIN_OPS = 100
SETUP_PROBES = 11
TRACE_DEADLINE_S = 150.0

# Operation times are corrected for the machine's current speed.  On a
# shared host the same pure-Python loop runs up to 1.6x faster or slower
# from one second to the next, and every operation here is pure-Python
# work that speeds up and slows down with it.  So the calibration kernel
# below is timed at least every PACE_EVERY_S of operations and at the end
# of every round, and each operation time is multiplied by PACE_REF_S over
# the mean of the two paces around it.  Corrected times read as on a
# machine where the kernel takes PACE_REF_S; the raw figures are printed
# beside them.  The kernel touches no library code, so a change to the
# library moves corrected times by the same factor as raw ones.
PACE_REF_S = 0.003
PACE_EVERY_S = 0.1
_PACE_BIG = 3**300


def _pace_kernel():
    acc = 0
    row = [0] * 64
    for i in range(8000):
        v = (_PACE_BIG * (i + 1)) // (i + 7)
        row[i & 63] = v
        acc += v & 0xFFFF
    return acc


def machine_pace():
    """Seconds the calibration kernel takes right now: the best of three."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _pace_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Pacer:
    """Raw operation times and their pace-corrected values."""

    def __init__(self):
        self.raw, self.corrected, self.paces = [], [], [machine_pace()]
        self._last = time.perf_counter()

    def add(self, dt):
        self.raw.append(dt)
        if time.perf_counter() - self._last >= PACE_EVERY_S:
            self.flush()

    def flush(self):
        """Correct every time added since the last pace sample."""
        if len(self.corrected) < len(self.raw):
            self.paces.append(machine_pace())
            scale = PACE_REF_S / ((self.paces[-2] + self.paces[-1]) / 2)
            self.corrected += [dt * scale for dt in self.raw[len(self.corrected):]]
        self._last = time.perf_counter()


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(name, seed):
    """Import the CLI, generate the first round and run the warm-up ops.

    This is what ``setup_s`` times, in a fresh interpreter each time.
    """
    import cfmoments.cli  # noqa: F401
    import workloads

    wl = workloads.build(name, seed, ROOT)
    first = wl.next_round()
    for op in wl.warmup():
        if not op.check(op.run()):
            raise RuntimeError(f"warm-up op {op.label} gave a wrong result")
    return wl, first


def measure_setup(name, seed):
    """Median wall time of ``SETUP_PROBES`` fresh interpreters running ``setup``.

    Not pace-corrected: start-up is mostly process creation and file
    reads, which the calibration kernel does not track.
    """
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # wait() without a timeout blocks in waitpid; with one it polls in
        # steps of up to 50 ms, which would quantise the measurement
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL) as child:
            code = child.wait()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with status {code}")
    return statistics.median(times)


def _run_op(op):
    """(seconds, output or None, ok) for one checked operation."""
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as e:  # a raising op is a failed op, never a lost one
        dt = time.perf_counter() - t0
        print(f"op {op.label} raised {type(e).__name__}: {e}", file=sys.stderr)
        return dt, None, False
    dt = time.perf_counter() - t0
    try:
        ok = bool(op.check(out))
    except Exception as e:
        print(f"check of {op.label} raised {type(e).__name__}: {e}", file=sys.stderr)
        ok = False
    return dt, out, ok


def _latency_stats(times, rates):
    """(throughput, p50 ms, p90 ms); throughput is the median over rounds,
    so that a burst of noise in one round moves it less."""
    return (statistics.median(rates), statistics.median(times) * 1e3,
            statistics.quantiles(times, n=10)[8] * 1e3)


def run_untraced(name, seed, seconds):
    setup_s = measure_setup(name, seed)
    wl, rnd = setup(name, seed)
    pacer, failed, sizes = Pacer(), 0, collections.Counter()
    raw_rates, rates = [], []
    deadline = time.perf_counter() + seconds
    while True:
        start, bad = len(pacer.raw), 0
        for op in rnd:
            dt, _, ok = _run_op(op)
            pacer.add(dt)
            bad += not ok
            sizes[op.label] += 1
        pacer.flush()
        done = len(rnd) - bad
        raw_rates.append(done / sum(pacer.raw[start:]))
        rates.append(done / sum(pacer.corrected[start:]))
        failed += bad
        if time.perf_counter() >= deadline and len(pacer.raw) >= MIN_OPS:
            break
        rnd = wl.next_round()
    lat = pacer.corrected
    throughput, p50, p90 = _latency_stats(lat, rates)
    metrics = {
        "throughput_ops_s": (throughput, "ops/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    beyond = sum(1 for x in lat if x * 1e3 > p90)
    paces = pacer.paces
    print(f"workload {name} seed {seed} rounds {wl.index} ops {len(lat)} "
          f"failed {failed} fail_ratio {failed / len(lat)}")
    print(f"op latency samples {len(lat)}, {beyond} beyond p90; "
          f"pace median {statistics.median(paces) * 1e3:.3f} ms "
          f"(min {min(paces) * 1e3:.3f}, max {max(paces) * 1e3:.3f}) against {PACE_REF_S * 1e3} ms")
    r_thr, r_p50, r_p90 = _latency_stats(pacer.raw, raw_rates)
    print(f"uncorrected: throughput {r_thr:.4f} ops/s, p50 {r_p50:.4f} ms, p90 {r_p90:.4f} ms")
    record = {"seed": seed, "workload": name, "trace": 0,
              "ops_per_label": dict(sorted(sizes.items()))}
    return len(lat), failed, metrics, record


def run_traced(name, seed):
    import spans

    start = time.perf_counter()
    wl, first = setup(name, seed)
    ops = first + [op for _ in range(wl.trace_rounds - 1) for op in wl.next_round()]
    sizes = collections.Counter(op.label for op in ops)

    base, prints, failed, deg, bits = Pacer(), [], 0, 0, 0
    for op in ops:
        dt, out, ok = _run_op(op)
        base.add(dt)
        failed += not ok
        prints.append(None if out is None else op.fingerprint(out))
        if out is not None:
            d, b = op.growth(out)
            deg, bits = max(deg, d), max(bits, b)
    base.flush()

    tracer = spans.Tracer()
    traced = Pacer()
    with tracer:
        for i, op in enumerate(ops):
            if time.perf_counter() - start > TRACE_DEADLINE_S:
                print(f"traced replay stopped after {i} of {len(ops)} ops", file=sys.stderr)
                break
            with tracer.op(i):
                t0 = time.perf_counter()
                try:
                    out = op.run()
                except Exception:
                    out = None
                dt = time.perf_counter() - t0
            traced.add(dt)
            if (None if out is None else op.fingerprint(out)) != prints[i]:
                print(f"traced output of {op.label} differs from the untraced one", file=sys.stderr)
                failed += 1
        traced.flush()
    restored = tracer.restored()
    if not restored:
        print("tracer left a wrapper installed", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"trace-{name}-seed{seed}.jsonl"
    tracer.write(span_file)

    n = len(traced.raw)
    metrics = tracer.layer_metrics()
    metrics["ring.max_q_degree"] = (deg, "degree")
    metrics["ring.max_coeff_bits"] = (bits, "bits")
    metrics["pipeline.compare.repeat_ratio"] = (tracer.repeat_ratio(), "1")
    metrics["trace.overhead_ratio"] = (sum(traced.corrected) / sum(base.corrected[:n]), "1")
    print(f"workload {name} seed {seed} traced ops {n} of {len(ops)}; "
          f"spans kept {len(tracer.spans)} dropped {tracer.dropped} -> {span_file.relative_to(ROOT)}")
    _print_shares(tracer, traced.raw, base.raw, ops)
    record = {"seed": seed, "workload": name, "trace": 1,
              "ops_per_label": dict(sorted(sizes.items())),
              "max_q_degree": deg, "max_coeff_bits": bits,
              "compare_repeat_ratio": metrics["pipeline.compare.repeat_ratio"][0]}
    return len(ops) + n, failed + (not restored), metrics, record


def _print_shares(tracer, traced, base, ops):
    """Where the traced time went: largest self and inclusive times as
    shares of traced op time, who calls the largest self-time span, and
    the largest self time inside the op of median untraced latency."""
    busy = sum(traced)
    by_self = sorted(tracer.stats.items(), key=lambda kv: -kv[1][1])
    by_total = sorted(tracer.stats.items(), key=lambda kv: -kv[1][2])
    print("self time share: " + ", ".join(f"{k} {v[1] / busy:.1%}" for k, v in by_self[:5]))
    print("inclusive time share: " + ", ".join(f"{k} {v[2] / busy:.1%}" for k, v in by_total[:6]))
    top = by_self[0][0]
    callers = tracer.callers(top)
    ncalls = sum(callers.values()) or 1
    print(f"callers of {top} in kept spans: "
          + ", ".join(f"{k} {c / ncalls:.1%}" for k, c in callers.most_common(3)))
    order = sorted(range(len(tracer.op_self)), key=lambda i: base[i])
    mid = order[len(order) // 2]
    own = {k: v for k, v in tracer.op_self[mid].items() if k != "op"}
    lead = max(own, key=own.get) if own else "none"
    print(f"median op {ops[mid].label}: largest self time {lead} "
          f"{own.get(lead, 0.0) / traced[mid]:.1%} of {traced[mid] * 1e3:.3f} ms")


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "cfmoments" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup(args.workload, args.seed)
        return 0
    if args.trace:
        attempted, failed, metrics, record = run_traced(args.workload, args.seed)
    else:
        attempted, failed, metrics, record = run_untraced(args.workload, args.seed, args.seconds)
    for key, (value, unit) in metrics.items():
        print(f"{key} {value} {unit}")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
