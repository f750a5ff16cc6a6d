"""Traced passes and the per-layer metrics drawn from their spans.

Times are per pass over the traced prefix of the operation list.  Work
counts (steps, distinct states, scalar operations) are derived from the
results, so a traced and an untraced pass over the same prefix must give
identical counts.
"""

import json
import os
import statistics
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_DRIVER = os.path.join(HERE, "clichild.py")

NAMED = {
    "core.nm_mul": ("calls", "busy_s"),
    "core.nm_rank": ("busy_s",),
    "core.parse_matrix": ("busy_s",),
    "core.render_matrix": ("busy_s",),
    "engines.cm_run": ("calls", "busy_s"),
    "engines.rm_run": ("calls", "busy_s"),
    "engines.balance": ("busy_s",),
    "engines.link": ("self_s",),
    "relations.maxmin_compose": ("calls", "busy_s"),
    "relations.transitive_closure": ("self_s",),
    "relations.properties": ("self_s",),
    "graphs.connectivity": ("busy_s",),
    "graphs.spanning_tree_count": ("busy_s",),
    "graphs.chromatic_polynomial": ("busy_s",),
    "graphs.coloring": ("busy_s",),
    "graphs.metrics": ("busy_s",),
    "graphs.hamiltonian": ("busy_s",),
    "ngraph.neutro_coloring": ("self_s",),
    "ngraph.neutro_isomorphic": ("self_s",),
    "ngraph.from_adjacency": ("self_s",),
}
UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}
LIBRARY = ("core", "engines", "relations", "graphs", "ngraph")
PARSE = {"cli.read", "cli.parse_model", "core.parse_matrix"}
RENDER = {"cli.serialize_model", "cli.export_dot", "cli.model_for", "core.render_matrix"}


def traced_pass(setup, indexes, tracer, pass_no, speed):
    done, timed, clock = [], 0.0, time.perf_counter
    for k, idx in enumerate(indexes):
        tracer.op_id = [pass_no, k]
        t0 = clock()
        done.append((idx, setup.execute(setup.wl.ops[idx])))
        lat = clock() - t0
        timed += lat
        speed.tick(lat)
    return done, timed


def traced_cli_pass(setup, indexes, tracer, pass_no, speed):
    """Each command runs under the traced child driver; its spans join ours."""
    import cliwork

    done, timed, clock = [], 0.0, time.perf_counter
    spans_file = os.path.join(setup.work, "child-spans.json")
    env = dict(setup.env, PERFBENCH_SPANS=spans_file)
    for k, idx in enumerate(indexes):
        op = setup.wl.ops[idx]
        tracer.op_id = [pass_no, k]
        top = len(tracer.spans)
        t0 = clock()
        result = cliwork.run_child(setup.root, op.args[0], env, CHILD_DRIVER)
        t1 = clock()
        tracer.spans.append([tracer.op_id, "cli.command", t0, t1, None])
        with open(spans_file, encoding="utf-8") as fh:
            for name, s, e, parent in json.load(fh):
                tracer.spans.append(
                    [tracer.op_id, name, s, e, top if parent is None else top + 1 + parent]
                )
        os.remove(spans_file)
        timed += t1 - t0
        speed.tick(t1 - t0)
        done.append((idx, result))
    return done, timed


def _ms(x):
    return x * 1000.0


def span_metrics(spans, pass_no):
    """{metric name: (value, unit)} for one traced pass."""
    selfs = tracing.self_times(spans)
    mine = [i for i, s in enumerate(spans) if s[0] is not None and s[0][0] == pass_no]
    agg = tracing.aggregate(spans, mine, selfs)
    out = {}
    for name, fields in NAMED.items():
        calls, busy, own = agg.get(name, (0, 0.0, 0.0))
        values = {"calls": calls, "busy_s": busy, "self_s": own}
        for f in fields:
            out["%s.%s" % (name, f)] = (values[f], UNITS[f])

    def parent_name(i):
        p = spans[i][4]
        return spans[p][1] if p is not None else ""

    other = sum(
        spans[i][3] - spans[i][2] for i in mine
        if spans[i][1].startswith("graphs.") and spans[i][1] not in NAMED
        and not parent_name(i).startswith("graphs.")
    )
    out["graphs.other.busy_s"] = (other, "s")
    out["relations.closure_rounds"] = (
        sum(1 for i in mine if spans[i][1] == "relations.maxmin_compose"
            and parent_name(i) == "relations.transitive_closure"),
        "count",
    )
    out.update(_cli_phases(spans, mine))
    return out


def _cli_phases(spans, mine):
    """Per-command medians of the child's import, parse, compute and render time."""
    by_cmd = {}
    for i in mine:
        by_cmd.setdefault(tuple(spans[i][0]), []).append(i)
    phases = {"import": [], "argparse": [], "parse_model": [], "compute": [], "render": []}
    for idxs in by_cmd.values():
        mains = [i for i in idxs if spans[i][1] == "cli.main"]
        if not mains:
            continue
        main = mains[0]
        dur = {k: 0.0 for k in phases}
        for i in idxs:
            name, d, parent = spans[i][1], spans[i][3] - spans[i][2], spans[i][4]
            if name == "cli.import":
                dur["import"] += d
            elif name == "cli.argparse":
                dur["argparse"] += d
            elif parent == main and name in PARSE:
                dur["parse_model"] += d
            elif parent == main and name.split(".")[0] in LIBRARY and name not in RENDER:
                dur["compute"] += d
        total = spans[main][3] - spans[main][2]
        dur["render"] = total - dur["argparse"] - dur["parse_model"] - dur["compute"]
        for k in phases:
            phases[k].append(dur[k])
    return {
        "cli.%s_ms" % k: (_ms(statistics.median(v)) if v else 0.0, "ms")
        for k, v in phases.items()
    }


def counts(ops, done):
    total = {
        "engines.steps": 0, "engines.limit_cycles": 0, "engines.scalar_ops": 0,
        "core.nm_mul.scalar_ops": 0, "relations.lattice_ops": 0,
        "relations.closure_rounds": 0,
    }
    states = set()
    for idx, result in done:
        op = ops[idx]
        if isinstance(result, Exception):
            continue
        if op.counts is not None:
            for k, v in op.counts(result).items():
                total[k] += int(v)
        if op.states is not None:
            states.update(op.states(result))
    total["engines.distinct_states"] = len(states)
    return total


def count_metrics(c, timed):
    """Counts plus the time-per-unit-of-work ratios built from them."""

    def t(name):
        return timed.get(name, {"value": 0.0})["value"]

    def per(seconds, work, scale):
        return seconds / work * scale if work else 0.0

    map_busy = t("engines.cm_run.busy_s") + t("engines.rm_run.busy_s")
    scalar = c["engines.scalar_ops"] + c["core.nm_mul.scalar_ops"]
    return {
        "engines.steps": {"value": c["engines.steps"], "unit": "count"},
        "engines.distinct_states": {"value": c["engines.distinct_states"], "unit": "count"},
        "engines.limit_cycles": {"value": c["engines.limit_cycles"], "unit": "count"},
        "core.nm_mul.scalar_ops": {"value": c["core.nm_mul.scalar_ops"], "unit": "count"},
        "core.ns_per_scalar_op": {
            "value": per(map_busy + t("core.nm_mul.busy_s"), scalar, 1e9), "unit": "ns"},
        "engines.us_per_step": {
            "value": per(map_busy, c["engines.steps"], 1e6), "unit": "us"},
        "relations.ns_per_lattice_op": {
            "value": per(t("relations.maxmin_compose.busy_s"), c["relations.lattice_ops"], 1e9),
            "unit": "ns"},
    }


def interpreter_start_ms(runs=5):
    """Median wall time of a bare `python -c pass`: the floor under every command."""
    import subprocess

    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(_ms(time.perf_counter() - t0))
    return statistics.median(times)
