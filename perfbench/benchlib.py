"""Metric logic of the benchmark: quantiles, span self times, failure
counting and the end-to-end / per-layer metric tables.

Pure functions over the raw JSON the benchmark executables write; run.py
does the building, running and printing. Tested by test_benchlib.py.
"""

import math
import statistics

# End-to-end metrics: name -> unit. Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "jobs_per_s": "1/s",
    "job_latency_p50_s": "s",
    "job_latency_p75_s": "s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "hpwl_legal": "DBU",
    "routed_wl": "DBU",
    "vof_pct": "%",
    "best_loss": "%",
}

LAYERS = ("io", "gp", "congestion", "padding", "legal", "router",
          "orchestrate", "serve")

# Per-layer metrics: name -> unit. A metric a workload does not exercise
# reads 0 there (see README.md for which workload measures what).
PER_LAYER = {
    "io.generate_s": "s",
    "io.codec_encode_s": "s",
    "io.codec_decode_s": "s",
    "io.job_bytes": "bytes",
    "io.result_bytes": "bytes",
    "gp.initial_place_s": "s",
    "gp.s": "s",
    "gp.iterations": "count",
    "gp.gradient_evals": "count",
    "gp.evals_per_iter": "ratio",
    "gp.s_per_eval": "s",
    "gp.wl_s": "s",
    "gp.density_s": "s",
    "gp.poisson_s": "s",
    "gp.assemble_s": "s",
    "gp.nesterov_s": "s",
    "gp.kernel_coverage": "ratio",
    "gp.wl_scaling": "ratio",
    "gp.density_scaling": "ratio",
    "gp.poisson_scaling": "ratio",
    "congestion.estimate_s": "s",
    "congestion.calls": "count",
    "congestion.dirty_net_frac": "ratio",
    "congestion.rsmt_cache_hit_rate": "ratio",
    "padding.update_s": "s",
    "padding.rounds": "count",
    "padding.attempts": "count",
    "padding.feature_s": "s",
    "padding.dirty_gcell_frac": "ratio",
    "padding.incidence_hit_rate": "ratio",
    "legal.discretize_s": "s",
    "legal.legalize_s": "s",
    "legal.rows_rebuilt_frac": "ratio",
    "legal.avg_disp": "DBU",
    "legal.failed_cells": "count",
    "router.route_s": "s",
    "router.rrr_s": "s",
    "router.segments": "count",
    "router.rerouted": "count",
    "router.rounds": "count",
    "router.hof_pct": "%",
    "router.vof_pct": "%",
    "orchestrate.prefix_s": "s",
    "orchestrate.batch_s": "s",
    "orchestrate.trial_s_p50": "s",
    "orchestrate.trial_s_max": "s",
    "orchestrate.slot_idle_s": "s",
    "orchestrate.scheduler_utilization": "ratio",
    "orchestrate.trials_run": "count",
    "orchestrate.trials_pruned": "count",
    "orchestrate.best_loss": "%",
    "serve.connect_s": "s",
    "serve.submit_rtt_s": "s",
    "serve.queue_wait_s": "s",
    "serve.run_s": "s",
    "serve.fetch_rtt_s": "s",
    "serve.overhead_s": "s",
    "serve.telemetry_frames": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.latency_samples": "count",
}
PER_LAYER.update({layer + ".self_s": "s" for layer in LAYERS})


# --- statistics ------------------------------------------------------------

def quantile(values, q):
    """Linear-interpolated q-quantile (0 <= q <= 1) of a non-empty list."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of an empty list")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n, min_beyond=10, ladder=(50, 75, 90, 95, 99, 99.9)):
    """Highest percentile of `ladder` with at least `min_beyond` of `n`
    samples strictly beyond it, or None when even the first has fewer."""
    best = None
    for p in ladder:
        beyond = n - math.ceil(n * p / 100.0)
        if beyond >= min_beyond:
            best = p
    return best


def mean(values):
    return sum(values) / len(values) if values else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


# --- spans -----------------------------------------------------------------

def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """id -> self time: the span's duration minus the part of its interval
    covered by its children (clipped to the parent's interval)."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        if s["parent"] in by_id:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start"], s["end"]
        kids = [(max(c["start"], start), min(c["end"], end))
                for c in children.get(s["id"], [])]
        kids = [(a, b) for a, b in kids if b > a]
        out[s["id"]] = (end - start) - _covered(kids)
    return out


def subtree(spans, root_id):
    """The spans of the tree rooted at `root_id` (root included)."""
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    out, stack = [], [s for s in spans if s["id"] == root_id]
    while stack:
        s = stack.pop()
        out.append(s)
        stack.extend(kids.get(s["id"], []))
    return out


def layer_of(name):
    """Layer of a span name ('gp.step' -> 'gp'); None for a root label."""
    head = name.split(".", 1)[0]
    return head if "." in name and head in LAYERS else None


def layer_self_times(spans):
    """layer -> summed self time; spans outside any layer (the roots) go to
    'unattributed'. Over one span tree the values sum to the root's
    duration."""
    selfs = self_times(spans)
    out = {layer: 0.0 for layer in LAYERS}
    out["unattributed"] = 0.0
    for s in spans:
        out[layer_of(s["name"]) or "unattributed"] += selfs[s["id"]]
    return out


def span_self(spans, *names):
    """Summed self time and count of the spans with one of `names`."""
    selfs = self_times(spans)
    picked = [s for s in spans if s["name"] in names]
    return sum(selfs[s["id"]] for s in picked), len(picked)


# --- failures --------------------------------------------------------------

def count_failures(workload, raw, known=None):
    """(attempted, failed, reasons) of one run.

    Failures: rejected, failed or cancelled jobs and jobs a dead connection
    never ran; explorations that threw (all their trials); illegal
    placements; checksum mismatches -- between passes, against the
    in-process replay, or against `known` (instance key -> checksum from
    earlier runs of the same seed)."""
    known = {} if known is None else known
    reasons = []
    if workload in ("place", "explore"):
        attempted = failed = 0
        # Instances differ only in names, so all must place identically.
        placed = [r for r in raw["reps"] if not r.get("threw")]
        first = placed[0]["checksum"] if placed else None
        for rep in raw["reps"]:
            trials = rep.get("trials", 1) if workload == "explore" else 1
            attempted += trials
            key = str(rep["instance"])
            if rep.get("threw"):
                failed += trials
                reasons.append("instance %s threw" % key)
            elif not rep["legal"]:
                failed += 1
                reasons.append("instance %s: illegal placement" % key)
            elif rep["checksum"] != first:
                failed += 1
                reasons.append("instance %s: checksum %s, instance %s %s"
                               % (key, rep["checksum"],
                                  placed[0]["instance"], first))
            elif key in known and known[key] != rep["checksum"]:
                failed += 1
                reasons.append("instance %s: checksum %s, earlier run %s"
                               % (key, rep["checksum"], known[key]))
        return attempted, failed, reasons

    jobs = raw["jobs"]
    first = {j["index"]: j["checksum"] for j in jobs
             if j["pass"] == 0 and j["ok"]}
    seen = {j["index"] for j in jobs if j["pass"] == 0}
    missing = [i for i in range(raw["job_list"]) if i not in seen]
    failed = len(missing)
    reasons.extend("job %d never ran" % i for i in missing)
    reasons.extend(raw.get("errors", []))
    for j in jobs:
        bad = None
        if j["rejected"]:
            bad = j["error"] or "rejected"
        elif not j["ok"]:
            bad = j["error"] or "failed"
        elif first.get(j["index"]) != j["checksum"]:
            bad = "checksum differs from the first pass"
        elif str(j["index"]) in known and known[str(j["index"])] != j["checksum"]:
            bad = "checksum differs from an earlier run"
        if bad:
            failed += 1
            reasons.append("job %d pass %d: %s" % (j["index"], j["pass"], bad))
    for r in raw.get("replays", []):
        if not r["match"]:
            failed += 1
            reasons.append("job %d differs from the in-process run" % r["index"])
    return len(jobs) + len(missing), failed, reasons


def checksums(workload, raw):
    """instance key -> checksum of a run, for the cross-run check."""
    if workload == "serve":
        return {str(j["index"]): j["checksum"] for j in raw["jobs"]
                if j["pass"] == 0 and j["ok"]}
    return {str(r["instance"]): r["checksum"] for r in raw["reps"]
            if not r.get("threw")}


# --- end-to-end metrics ----------------------------------------------------

def job_latencies(workload, raw):
    """Per-job latency samples: what a caller waits for -- a placement
    (place), a whole exploration (explore), submit -> result fetched
    (serve)."""
    if workload == "serve":
        return [j["t_decoded"] - j["t_start"] for j in raw["jobs"] if j["ok"]]
    return [r["wall_s"] for r in raw["reps"] if not r.get("threw")]


def end_to_end(workload, raw, attempted, failed):
    """name -> value of every END_TO_END metric for one untraced run."""
    lat = job_latencies(workload, raw)
    m = {
        "setup_s": median(raw["setup_s"]),
        "job_latency_p50_s": quantile(lat, 0.50),
        "job_latency_p75_s": quantile(lat, 0.75),
        "ok_frac": 1.0 - ratio(failed, attempted),
    }
    if workload == "serve":
        jobs = raw["jobs"]
        first = [j for j in jobs if j["pass"] == 0]
        m["jobs_per_s"] = sum(j["ok"] for j in jobs) / raw["phase_s"]
        # Mean time per pass over the job list.
        m["wall_s"] = raw["job_list"] / m["jobs_per_s"]
        m["peak_rss_mb"] = raw["daemon_rss_kb"] / 1024.0
        m["hpwl_legal"] = sum(j["hpwl_legal"] for j in first)
        m["routed_wl"] = sum(r["routed_wl"] for r in raw["routes"])
        m["vof_pct"] = mean([r["vof_pct"] for r in raw["routes"]])
        m["best_loss"] = mean([r["hof_pct"] + r["vof_pct"]
                               for r in raw["routes"]])
        return m
    reps = [r for r in raw["reps"] if not r.get("threw")]
    # Instances differ only in names (count_failures checks that they
    # place identically), so QoR is read from the first.
    qor = reps[0]
    m["wall_s"] = mean([r["wall_s"] for r in reps])
    done = len(reps) if workload == "place" else sum(
        r["trials_evaluated"] for r in reps)
    m["jobs_per_s"] = done / sum(r["wall_s"] for r in reps)
    m["peak_rss_mb"] = raw["peak_rss_kb"] / 1024.0
    m["hpwl_legal"] = qor["hpwl_legal"]
    m["routed_wl"] = qor["routed_wl"]
    m["vof_pct"] = qor["vof_pct"]
    m["best_loss"] = qor["hof_pct"] + qor["vof_pct"]
    return m


# --- per-layer metrics -----------------------------------------------------

def _gp_derived(m):
    kernels = sum(m[k] for k in ("gp.wl_s", "gp.density_s", "gp.poisson_s",
                                 "gp.assemble_s", "gp.nesterov_s"))
    m["gp.evals_per_iter"] = ratio(m["gp.gradient_evals"], m["gp.iterations"])
    m["gp.s_per_eval"] = ratio(m["gp.s"], m["gp.gradient_evals"])
    m["gp.kernel_coverage"] = ratio(kernels, m["gp.s"])


def _route_layers(m, routes):
    for key, name in (("route_s", "router.route_s"), ("rrr_s", "router.rrr_s"),
                      ("segments", "router.segments"),
                      ("rerouted", "router.rerouted"),
                      ("rounds", "router.rounds")):
        m[name] = sum(r[key] for r in routes)
    m["router.hof_pct"] = mean([r["hof_pct"] for r in routes])
    m["router.vof_pct"] = mean([r["vof_pct"] for r in routes])


def flow_layers(flows, routes):
    """Layer metrics summed over finished flows' FlowMetrics records (the
    explore trials, the serve replays) and their evaluation routes."""
    total = lambda k: sum(f[k] for f in flows)  # noqa: E731
    m = {name: 0.0 for name in PER_LAYER}
    m["gp.initial_place_s"] = total("initial_place_s")
    # FlowMetrics times the padding rounds (estimate, padding update and
    # the GP spacing steps) as one stage nested in global placement, so GP
    # time is the global-placement stage minus the two parts it times
    # separately: estimation and padding feature extraction.
    m["gp.s"] = (total("global_place_s") - total("estimate_s") -
                 total("feature_s"))
    m["gp.iterations"] = total("iterations")
    m["gp.gradient_evals"] = total("gradient_evals")
    for k in ("wl_s", "density_s", "poisson_s", "assemble_s", "nesterov_s"):
        m["gp." + k] = total(k)
    _gp_derived(m)
    m["congestion.estimate_s"] = total("estimate_s")
    m["congestion.calls"] = total("estimate_calls")
    m["congestion.dirty_net_frac"] = ratio(total("dirty_nets"),
                                           total("nets_examined"))
    m["congestion.rsmt_cache_hit_rate"] = mean(
        [f["rsmt_cache_hit_rate"] for f in flows])
    m["padding.update_s"] = total("feature_s")
    m["padding.rounds"] = total("padding_rounds")
    m["padding.attempts"] = total("padding_attempts")
    m["padding.feature_s"] = total("feature_s")
    m["padding.dirty_gcell_frac"] = ratio(total("dirty_gcells"), total("gcells"))
    m["padding.incidence_hit_rate"] = ratio(
        total("incidence_hits"),
        total("incidence_hits") + total("incidence_misses"))
    m["legal.legalize_s"] = total("legalize_s")
    m["legal.discretize_s"] = total("legalize_stage_s") - total("legalize_s")
    m["legal.rows_rebuilt_frac"] = ratio(total("rows_rebuilt"),
                                         total("rows_total"))
    m["legal.avg_disp"] = ratio(total("total_displacement"), total("placed"))
    m["legal.failed_cells"] = total("failed_cells")
    _route_layers(m, routes)
    return m


def place_layers(trace, spans, reference_wall):
    """Per-layer metrics of the traced place run: spans from the run at the
    most threads, kernel scaling against the 1-thread run."""
    runs = sorted(trace["runs"], key=lambda r: -r["threads"])
    main, single = runs[0], runs[-1]
    tree = subtree(spans, main["root"])
    m = {name: 0.0 for name in PER_LAYER}
    m["io.generate_s"] = trace["generate_s"]
    m["gp.initial_place_s"] = span_self(tree, "gp.initial_place")[0]
    m["gp.s"] = span_self(tree, "gp.run_to_overflow", "gp.step")[0]
    m["gp.iterations"] = main["iterations"]
    m["gp.gradient_evals"] = main["gradient_evals"]
    for k in ("wl_s", "density_s", "poisson_s", "assemble_s", "nesterov_s"):
        m["gp." + k] = main[k]
    _gp_derived(m)
    for k in ("wl_s", "density_s", "poisson_s"):
        m["gp.%sscaling" % k[:-1]] = ratio(single[k], main[k])
    m["congestion.estimate_s"], calls = span_self(
        tree, "congestion.estimate_incremental")
    m["congestion.calls"] = calls
    m["congestion.dirty_net_frac"] = ratio(main["dirty_nets"],
                                           main["nets_examined"])
    m["congestion.rsmt_cache_hit_rate"] = ratio(
        main["rsmt_hits"], main["rsmt_hits"] + main["rsmt_misses"])
    m["padding.update_s"] = span_self(tree, "padding.update")[0]
    m["padding.rounds"] = main["padding_rounds"]
    m["padding.attempts"] = main["padding_attempts"]
    m["padding.feature_s"] = main["feature_s"]
    m["padding.dirty_gcell_frac"] = ratio(main["dirty_gcells"], main["gcells"])
    m["padding.incidence_hit_rate"] = ratio(
        main["incidence_hits"], main["incidence_hits"] + main["incidence_misses"])
    m["legal.discretize_s"] = span_self(tree, "legal.discretize_padding")[0]
    m["legal.legalize_s"] = span_self(tree, "legal.legalize")[0]
    m["legal.rows_rebuilt_frac"] = ratio(main["rows_rebuilt"], main["rows_total"])
    m["legal.avg_disp"] = ratio(main["total_displacement"], main["placed"])
    m["legal.failed_cells"] = main["failed_cells"]
    _route_layers(m, [main["route"]])
    _add_trace_totals(m, tree, reference_wall)
    m["trace.latency_samples"] = 1
    return m


def _add_trace_totals(m, tree, reference_wall):
    """Layer self times, the unattributed remainder, the traced wall time
    of the tree's root and the tracing overhead against an untraced run."""
    selfs = layer_self_times(tree)
    for layer in LAYERS:
        m[layer + ".self_s"] = selfs[layer]
    m["trace.unattributed_s"] = selfs["unattributed"]
    root = [s for s in tree if s["parent"] not in {t["id"] for t in tree}][0]
    m["trace.wall_s"] = root["end"] - root["start"]
    m["trace.overhead_s"] = m["trace.wall_s"] - reference_wall


def explore_layers(raw, spans, reference_wall):
    rep = raw["reps"][0]
    trials = raw["trials"]
    m = flow_layers([t["flow"] for t in trials], [t["route"] for t in trials
                                                  if not t["pruned"]])
    m["io.generate_s"] = median(raw["setup_s"])
    walls = [t["wall_s"] for t in trials]
    batch_s = sum(b["wall_s"] for b in raw["batches"])
    m["orchestrate.prefix_s"] = rep["prefix_s"]
    m["orchestrate.batch_s"] = batch_s
    m["orchestrate.trial_s_p50"] = quantile(walls, 0.5)
    m["orchestrate.trial_s_max"] = max(walls)
    m["orchestrate.slot_idle_s"] = batch_s * rep["slots"] - sum(walls)
    m["orchestrate.scheduler_utilization"] = rep["scheduler_utilization"]
    m["orchestrate.trials_run"] = rep["trials_run"]
    m["orchestrate.trials_pruned"] = rep["trials_pruned"]
    m["orchestrate.best_loss"] = rep["best_loss"]
    root = [s for s in spans if s["parent"] == -1 and s["name"] == "explore"]
    _add_trace_totals(m, subtree(spans, root[0]["id"]), reference_wall)
    # The timed wall is the exploration itself, not the whole process.
    run = [s for s in spans if s["name"] == "orchestrate.run"][0]
    m["trace.overhead_s"] = (run["end"] - run["start"]) - reference_wall
    m["trace.latency_samples"] = len(walls)
    return m


def serve_layers(raw, spans, reference_wall):
    jobs = [j for j in raw["jobs"] if j["ok"]]
    m = flow_layers([r["flow"] for r in raw["replays"]], raw["routes"])
    m["io.generate_s"] = median(raw["generate_s"])
    m["io.codec_encode_s"] = median([j["t_encoded"] - j["t_start"] for j in jobs])
    m["io.codec_decode_s"] = median(raw["decode_s"])
    m["io.job_bytes"] = median([j["job_bytes"] for j in jobs])
    m["io.result_bytes"] = median([j["result_bytes"] for j in jobs])
    lat = [j["t_decoded"] - j["t_start"] for j in jobs]
    wait = [j["t_done"] - j["t_acked"] - j["run_s"] for j in jobs]
    m["serve.connect_s"] = median(raw["connect_s"])
    m["serve.submit_rtt_s"] = median([j["t_acked"] - j["t_encoded"] for j in jobs])
    m["serve.queue_wait_s"] = median(wait)
    m["serve.run_s"] = median([j["run_s"] for j in jobs])
    m["serve.fetch_rtt_s"] = median([j["t_fetched"] - j["t_done"] for j in jobs])
    m["serve.overhead_s"] = median(
        [l - w - j["run_s"] for l, w, j in zip(lat, wait, jobs)])
    m["serve.telemetry_frames"] = mean([j["telemetry"] for j in jobs])
    # Connection threads record their own span trees; layer self times are
    # summed over all of them (they overlap in time, so they exceed wall).
    for layer, t in layer_self_times(spans).items():
        key = "trace.unattributed_s" if layer == "unattributed" else layer + ".self_s"
        m[key] = t
    first = [j for j in raw["jobs"] if j["pass"] == 0]
    m["trace.wall_s"] = max(j["t_decoded"] for j in first)
    m["trace.overhead_s"] = m["trace.wall_s"] - reference_wall
    m["trace.latency_samples"] = len(lat)
    return m
