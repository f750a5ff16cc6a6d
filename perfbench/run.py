"""neutromap benchmark: one client, one operation at a time (closed loop).

    python3 perfbench/run.py --workload map-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a neutromap checkout.  The benchmark builds the
workload's inputs from the seed, sets up (import, inputs, fixtures,
warm-up), walks the operation list for --seconds of wall time, checks every
result outside the timed region and prints one JSON object as its last
line.  --trace 0 reports the end-to-end metrics; --trace 1 runs a fixed
prefix of the list once untraced and then with spans around every public
function of core, engines, relations, graphs, ngraph and cli, and reports
the per-layer metrics.  Spans go to perfbench/out/.  Times are scaled to a
reference host speed measured between operations (speed.py).

Workloads: map-sweep, algebra, graph-invariants, cli-oneshot.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from speed import Speedometer, spot_factor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("map-sweep", "algebra", "graph-invariants", "cli-oneshot")
LAYERS = ("core", "engines", "relations", "graphs", "ngraph", "cli")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TIME_UNITS = ("s", "ms", "us", "ns")


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def require_checkout():
    for rel in ("src/neutromap/__init__.py", "tests/oracles.py", "tests/goldens.py", "fixtures"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            fail("not a neutromap checkout: %s is missing" % rel)
    for p in (HERE, os.path.join(ROOT, "tests"), os.path.join(ROOT, "src")):
        sys.path.insert(0, p)


# ------------------------------------------------------------------ set-up

class Setup:
    """Everything a run needs before its clock starts."""

    def __init__(self, workload, seed, work):
        from neutromap import cli, core, engines, graphs, ngraph, relations

        self.modules = dict(core=core, engines=engines, relations=relations,
                            graphs=graphs, ngraph=ngraph, cli=cli)
        self.root, self.work = ROOT, work
        if workload == "cli-oneshot":
            import cliwork
            self.env = cliwork.child_env(ROOT)
            self.wl = cliwork.cli_oneshot(seed, ROOT, work)
        else:
            import workloads
            self.wl = workloads.BUILDERS[workload](seed, ROOT)
        for i in self.wl.warmup:
            self.execute(self.wl.ops[i])

    def execute(self, op):
        if op.layer == "cli":
            import cliwork
            return cliwork.run_child(ROOT, op.args[0], self.env)
        try:
            return getattr(self.modules[op.layer], op.fn)(*op.args)
        except Exception as exc:  # the check decides whether it was expected
            return exc


def timed_setup(workload, seed, work):
    t0 = time.perf_counter()
    s = Setup(workload, seed, work)
    return s, time.perf_counter() - t0


def setup_in_child(workload, seed):
    """(set-up seconds, host-speed factor just after) of a set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        fail("set-up child failed: %s" % proc.stderr.strip()[-500:])
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["speed_factor"]


# ------------------------------------------------------------------ checks

def judge(op, result):
    """(error, mismatch): an error is a failed operation, a mismatch a wrong answer."""
    if op.error is not None:
        why = op.error(result)
        if why:
            return why, None
    elif isinstance(result, Exception) and not op.expect_error:
        return "raised %s: %s" % (type(result).__name__, result), None
    try:
        return None, op.check(result)
    except Exception as exc:  # a malformed result is a wrong answer
        return None, "check raised %s: %s" % (type(exc).__name__, exc)


def describe(ops, bad):
    return sorted({"%s: %s" % (ops[i].fn, error or mismatch)
                   for i, (error, mismatch) in bad.items()})


def same(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def check_all(ops, run):
    """Judge each distinct op's first result; count every attempt by its verdict."""
    verdict = {idx: judge(ops[idx], result) for idx, result in run.first.items()}
    failed, mismatches = {}, []
    for idx in run.order:
        error, mismatch = verdict[idx]
        if idx in run.changed:
            mismatch = mismatch or "result differs from an earlier run of the same input"
        if error or mismatch:
            failed[ops[idx].layer] = failed.get(ops[idx].layer, 0) + 1
        if mismatch:
            mismatches.append((ops[idx].fn, mismatch))
    bad = {i: v for i, v in verdict.items() if v != (None, None)}
    return failed, mismatches, bad


def check_known_defects(setup):
    """Run each known-defect op once, untimed: (failure reasons, wrong answers)."""
    failures, mismatches = [], []
    for op in setup.wl.known_defects:
        error, mismatch = judge(op, setup.execute(op))
        if error or mismatch:
            failures.append("%s %s: %s" % (op.fn, op.args[0][-1], error or mismatch))
        if mismatch:
            mismatches.append((op.fn, mismatch))
    return failures, mismatches


# ------------------------------------------------------------------ timing

class Run:
    """What a walk over the op list leaves for checking."""

    def __init__(self):
        self.first = {}  # op index -> its first result
        self.order = []  # op index of every attempt
        self.changed = set()  # ops whose repeat differed from the first result
        self.lats = []
        self.timed = 0.0  # seconds spent inside operations


def run_ops(setup, indexes, speed, seconds=None):
    """Run ops in order; with seconds, wrap around until that much time is timed.

    Only the call is timed.  Between calls, outside the timed region, the
    speed probe runs and a repeat is compared with the op's first result and
    dropped, so the heap does not grow with the number of attempts.
    """
    ops, run = setup.wl.ops, Run()
    clock = time.perf_counter
    k = 0
    while (k < len(indexes)) if seconds is None else (run.timed < seconds):
        idx = indexes[k % len(indexes)]
        t0 = clock()
        result = setup.execute(ops[idx])
        lat = clock() - t0
        run.lats.append(lat)
        run.timed += lat
        speed.tick(lat)
        run.order.append(idx)
        if idx not in run.first:
            run.first[idx] = result
        elif not same(result, run.first[idx]):
            run.changed.add(idx)
        k += 1
    return run


def tail(lats, want, mean=False):
    """Nearest-rank percentile, or with mean the mean of the samples beyond it.

    Steps down the ladder until >= 10 samples lie beyond.  Where the slow
    end is a few seeded inputs of discrete cost (exponential searches on
    random graphs), one percentile jumps with the seed and the mean beyond
    it does not; where it is many fixture runs, the percentile is steadier.
    """
    ordered = sorted(lats)
    n = len(ordered)
    for pct in [p for p in TAIL_LADDER if p <= want]:
        rank = max(1, -(-int(pct * n) // 100))
        if n - rank >= 10:
            return (statistics.fmean(ordered[rank:]) if mean else ordered[rank - 1]), pct
    return ordered[-1], 100.0


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


# ------------------------------------------------------------------- modes

def end_to_end(args, setup, setup_s):
    n = len(setup.wl.ops)
    setups = [(setup_s, spot_factor(setup.wl.probe))]
    speed = Speedometer(setup.wl.probe)
    run = run_ops(setup, list(range(n)), speed, seconds=args.seconds)
    scaled = speed.scale(run.lats)
    # percentiles over whole passes only, so that the mix they describe does
    # not depend on where the time limit cut the op list
    whole = len(run.lats) // n * n or len(run.lats)
    raw_lats, lats = run.lats[:whole], scaled[:whole]
    rss = peak_rss_mb(children=args.workload == "cli-oneshot")
    failed, mismatches, bad = check_all(setup.wl.ops, run)
    attempted, nfailed = len(run.order), sum(failed.values())
    defects, defect_mismatches = check_known_defects(setup)
    deterministic = rebuild_matches(args, setup)
    setups += [setup_in_child(args.workload, args.seed) for _ in range(setup.wl.setups - 1)]
    raw_tail, tail_pct = tail(raw_lats, setup.wl.tail_pct, setup.wl.tail_mean)
    raw = {
        "latency_p50_ms": statistics.median(raw_lats) * 1000,
        "latency_tail_ms": raw_tail * 1000,
        "ops_per_s": attempted / run.timed,
        "setup_s": statistics.median(s for s, _f in setups),
    }
    detail = {
        "speed_factor": run.timed / sum(scaled), "speed_probes": len(speed.samples),
        "raw": raw,
        "workload": args.workload, "seed": args.seed, "attempted": attempted,
        "distinct_ops": n, "passes": round(attempted / n, 3),
        "latency_tail_percentile": tail_pct, "latency_tail_mean": setup.wl.tail_mean,
        "latency_samples": len(lats),
        "setup_runs_s": setups, "failed_by_layer": failed,
        "failures": describe(setup.wl.ops, bad), "inputs_deterministic": deterministic,
        "known_defects_failed": defects,
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    metrics = {
        "latency_p50_ms": metric(statistics.median(lats) * 1000, "ms"),
        "latency_tail_ms": metric(tail(lats, tail_pct, setup.wl.tail_mean)[0] * 1000, "ms"),
        "ops_per_s": metric(attempted / sum(scaled), "1/s"),
        "ok_ratio": metric((attempted - nfailed) / attempted, "ratio"),
        "peak_rss_mb": metric(rss, "MB"),
        "setup_s": metric(statistics.median(s / f for s, f in setups), "s"),
    }
    correct = not mismatches and not defect_mismatches and deterministic
    return correct, attempted, nfailed, metrics


def rebuild_matches(args, setup):
    """Determinism self-check: the same seed gives the same inputs."""
    if args.workload == "cli-oneshot":
        import cliwork
        again = os.path.join(setup.work, "again")
        os.makedirs(again)
        other = cliwork.cli_oneshot(args.seed, ROOT, again)

        def read(d, name):
            with open(os.path.join(d, name), encoding="utf-8") as fh:
                return fh.read()

        def argv(ops, d):
            return [[a.replace(d, "") for a in op.args[0]] for op in ops]

        return all(read(again, f) == read(setup.work, f) for f in os.listdir(again)) and (
            argv(other.ops, again) == argv(setup.wl.ops, setup.work))
    import workloads
    other = workloads.BUILDERS[args.workload](args.seed, ROOT)
    return len(other.ops) == len(setup.wl.ops) and all(
        a.layer == b.layer and a.fn == b.fn and a.args == b.args
        for a, b in zip(other.ops, setup.wl.ops)
    )


def traced(args, setup):
    import layers
    import tracing

    indexes = list(range(min(setup.wl.trace_ops, len(setup.wl.ops))))
    speed = Speedometer(setup.wl.probe)
    plain = run_ops(setup, indexes, speed)
    plain_done = [(i, plain.first[i]) for i in plain.order]
    # the first pass over the prefix is the coldest; time the overhead against a second
    warm = run_ops(setup, indexes, speed)
    tracer = tracing.Tracer()
    passes, elapsed = [], 0.0
    while not passes or (elapsed + plain.timed * 1.5 < args.seconds and len(passes) < 5):
        pass_no = len(passes)
        if args.workload == "cli-oneshot":
            done, secs = layers.traced_cli_pass(setup, indexes, tracer, pass_no, speed)
        else:
            tracer.install(setup.modules)
            try:
                done, secs = layers.traced_pass(setup, indexes, tracer, pass_no, speed)
            finally:
                tracer.uninstall()
        passes.append((done, secs))
        elapsed += secs

    failed, mismatches, bad = check_all(setup.wl.ops, plain)
    defects, defect_mismatches = check_known_defects(setup)
    counts = layers.counts(setup.wl.ops, plain_done)
    warm_done = [(i, warm.first[i]) for i in warm.order]
    consistent = all(
        all(same(a[1], b[1]) for a, b in zip(plain_done, done))
        and layers.counts(setup.wl.ops, done) == counts
        for done in [warm_done] + [d for d, _s in passes]
    )
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, "trace-%s-seed%d.jsonl" % (args.workload, args.seed)))
    per_pass = [layers.span_metrics(tracer.spans, p) for p in range(len(passes))]
    factor = speed.factor()
    metrics = {}
    for name in per_pass[0]:
        unit = per_pass[0][name][1]
        if unit in TIME_UNITS:
            value = statistics.median(m[name][0] for m in per_pass) / factor
        else:  # counts repeat exactly from pass to pass
            value = statistics.median_low(m[name][0] for m in per_pass)
        metrics[name] = metric(value, unit)
    metrics.update(layers.count_metrics(counts, metrics))
    for layer in LAYERS:
        metrics["%s.failed" % layer] = metric(failed.get(layer, 0), "count")
    traced_rate = len(indexes) / statistics.median(s for _d, s in passes)
    metrics["trace.overhead_ratio"] = metric(
        (len(indexes) / warm.timed) / traced_rate - 1, "ratio")
    metrics["trace.spans"] = metric(len(tracer.spans) / len(passes), "count")
    metrics["cli.from_csv_failed"] = metric(len(defects), "count")
    # not scaled: the bare interpreter start is the noise detector itself
    metrics["cli.interp_start_ms"] = metric(layers.interpreter_start_ms(), "ms")
    print("detail " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace_ops": len(indexes),
        "traced_passes": len(passes), "counts_match_untraced": consistent,
        "speed_factor": factor, "speed_probes": len(speed.samples),
        "failures": describe(setup.wl.ops, bad), "known_defects_failed": defects,
    }, sort_keys=True))
    attempted = len(plain.order) * (2 + len(passes))
    nfailed = sum(failed.values()) * (2 + len(passes))
    correct = not mismatches and not defect_mismatches and consistent
    return correct, attempted, nfailed, metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    require_checkout()

    work = os.path.join(OUT, "work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    try:
        setup, setup_s = timed_setup(args.workload, args.seed, work)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "speed_factor": spot_factor(setup.wl.probe)}))
            return
        mode = traced if args.trace else lambda a, s: end_to_end(a, s, setup_s)
        correct, attempted, nfailed, metrics = mode(args, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": nfailed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
