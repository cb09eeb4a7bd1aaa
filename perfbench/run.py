#!/usr/bin/env python3
"""The repository benchmark: place / explore / serve.

    python3 perfbench/run.py --workload place --seed 1 --seconds 20 --trace 0

Builds the placer and the benchmark executables from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs one workload, checks its outputs
and prints every metric by name with its unit. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones (untraced run); with --trace 1 they
are the per-layer ones of a separate traced run. Each result, with its
environment, is also kept under <build dir>/results/. See README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

# Workload name (as BENCHMARK.json lists it) -> executable subcommand.
WORKLOADS = {
    "place_media_s64": "place",
    "explore_a53_s256": "explore",
    "serve_small_s256": "serve",
}
RUN_LIMIT_S = 170.0  # a run must end within 180 s after its build

# Shrunken workloads for the smoke test (same code paths, tiny inputs).
TINY = {
    "place": ["--scale", "1024"],
    "explore": ["--scale", "2048", "--trials", "4"],
    "serve": ["--scale", "1024", "--jobs", "6"],
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(targets, log_path):
    """Configures (once) and builds `targets`; False when the build fails."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no placer sources next to perfbench/ (expected %s/src)" % ROOT)
    cmake_dir = os.path.join(build_dir(), "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
            cfg = subprocess.run(
                ["cmake", "-S", ROOT, "-B", cmake_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                 "-DCMAKE_PROJECT_puffer_INCLUDE=" +
                 os.path.join(HERE, "hook.cmake")],
                stdout=log, stderr=subprocess.STDOUT)
            if cfg.returncode != 0:
                shutil.rmtree(cmake_dir, ignore_errors=True)
                return False
        jobs = str(len(os.sched_getaffinity(0)))
        res = subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs,
                              "--target"] + targets,
                             stdout=log, stderr=subprocess.STDOUT)
    return res.returncode == 0


def exe(name):
    sub = "tools" if name == "pufferd" else "perfbench"
    return os.path.join(build_dir(), "cmake", sub, name)


def steal_seconds():
    """CPU time the hypervisor gave to other guests, summed over this
    machine's CPUs (the 'steal' column of /proc/stat), in seconds."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


stolen_s = 0.0  # steal seconds accumulated over this run's executables


def run_exe(args, workdir, deadline):
    """Runs one benchmark executable in its own process group (so a
    timeout also stops the pufferd it may have started)."""
    global stolen_s
    steal0 = steal_seconds()
    proc = subprocess.Popen(args, cwd=workdir, stdout=sys.stderr,
                            start_new_session=True)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out" % os.path.basename(args[0]))
    if rc != 0:
        fail("%s exited with %d" % (os.path.basename(args[0]), rc))
    stolen_s += steal_seconds() - steal0


def workload_args(workload, seed, seconds, threads, tiny, extra=()):
    args = [exe("perfbench_run"), workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--threads", str(threads)]
    if workload == "serve":
        args += ["--pufferd", exe("pufferd")]
    if tiny:
        args += TINY[workload]
    return args + list(extra)


def load(path):
    with open(path) as f:
        return json.load(f)


def build_id():
    """Digest of the executables that compute placements: checksums are
    compared only between runs of the same build."""
    h = hashlib.sha256()
    for name in ("perfbench_run", "pufferd"):
        with open(exe(name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def known_checksums(workload, seed, tiny):
    path = os.path.join(build_dir(), "checksums.json")
    key = "%s/%d/%s/%s" % (workload, seed, "tiny" if tiny else "full",
                           build_id())
    store = load(path) if os.path.isfile(path) else {}
    return store, key, store.get(key, {})


def remember_checksums(store, key, sums):
    path = os.path.join(build_dir(), "checksums.json")
    store[key] = dict(store.get(key, {}), **sums)
    tmp = path + ".tmp.%d" % os.getpid()
    with open(tmp, "w") as f:
        json.dump(store, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def git_describe():
    try:
        out = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                              "--dirty", "--tags"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        return "unknown (no git)"


def untraced(workload, seed, seconds, threads, tiny, workdir, deadline,
             extra=()):
    out = os.path.join(workdir, "untraced.json")
    run_exe(workload_args(workload, seed, seconds, threads, tiny,
                          ["--out", out] + list(extra)), workdir, deadline)
    raw = load(out)
    store, key, known = known_checksums(workload, seed, tiny)
    attempted, failed, reasons = benchlib.count_failures(workload, raw, known)
    if failed == 0:
        remember_checksums(store, key, benchlib.checksums(workload, raw))
    samples = len(benchlib.job_latencies(workload, raw))
    if samples == 0:
        fail("no job completed: " + "; ".join(reasons))
    metrics = benchlib.end_to_end(workload, raw, attempted, failed)
    info = {"latency_samples": samples,
            "latency_tail_percentile": benchlib.tail_percentile(samples)}
    if workload == "serve":
        for key in ("spool_fs", "connections", "max_running", "job_list"):
            info[key] = raw[key]
        info["jobs"] = len(raw["jobs"])
    else:
        info["cells"] = raw["cells"]
        info["instances"] = len(raw["reps"])
        info["hof_pct"] = [r.get("hof_pct") for r in raw["reps"]]
        info["vof_pct"] = [r.get("vof_pct") for r in raw["reps"]]
    return raw, attempted, failed, reasons, metrics, info


def traced(workload, seed, threads, tiny, workdir, deadline):
    """One untraced reference pass, then the traced pass of the same
    input; returns (attempted, failed, reasons, metrics, raw traced)."""
    ref, attempted, failed, reasons = untraced(
        workload, seed, 0, threads, tiny, workdir, deadline,
        ["--instances", "1"])[:4]
    spans_path = os.path.join(workdir, "spans.json")
    out = os.path.join(workdir, "traced.json")
    if workload == "place":
        args = [exe("perfbench_trace_place"), "--seed", str(seed),
                "--threads", str(threads), "--out", out, "--spans", spans_path]
        if tiny:
            args += TINY["place"]
        run_exe(args, workdir, deadline)
        raw, spans = load(out), load(spans_path)
        want = ref["reps"][0]["checksum"]
        for run in raw["runs"]:
            attempted += 1
            if run["checksum"] != want or not run["legal"]:
                failed += 1
                reasons.append("traced run at %d thread(s): checksum %s, "
                               "untraced PufferFlow::run() %s"
                               % (run["threads"], run["checksum"], want))
        metrics = benchlib.place_layers(raw, spans, ref["reps"][0]["wall_s"])
        return attempted, failed, reasons, metrics, raw
    run_exe(workload_args(workload, seed, 0, threads, tiny,
                          ["--out", out, "--spans", spans_path,
                           "--instances", "1"]), workdir, deadline)
    raw, spans = load(out), load(spans_path)
    a2, f2, r2 = benchlib.count_failures(workload, raw)
    if workload == "explore":
        metrics = benchlib.explore_layers(raw, spans, ref["reps"][0]["wall_s"])
    else:
        first = [j for j in ref["jobs"] if j["pass"] == 0]
        metrics = benchlib.serve_layers(raw, spans,
                                        max(j["t_decoded"] for j in first))
    return attempted + a2, failed + f2, reasons + r2, metrics, raw


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrunken inputs (smoke test only)")
    a = p.parse_args()
    kind = WORKLOADS[a.workload]
    threads = len(os.sched_getaffinity(0))  # nproc

    os.makedirs(build_dir(), exist_ok=True)
    build_log = os.path.join(build_dir(), "build.log")
    if not build(["perfbench_run", "pufferd"], build_log):
        fail("build failed, see " + build_log)
    # A separate build step: when this target breaks, the timed workloads
    # above still build and run.
    if a.trace and kind == "place" and \
            not build(["perfbench_trace_place"], build_log):
        fail("perfbench_trace_place does not build (see %s); it mirrors "
             "PufferFlow::run() and must follow flow.cpp" % build_log)
    deadline = time.monotonic() + RUN_LIMIT_S

    workdir = os.path.join(build_dir(), "runs", "%s-%d-%d" % (
        kind, a.seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if a.trace:
            attempted, failed, reasons, metrics, raw = traced(
                kind, a.seed, threads, a.tiny, workdir, deadline)
            units, info = benchlib.PER_LAYER, {}
        else:
            raw, attempted, failed, reasons, metrics, info = untraced(
                kind, a.seed, a.seconds, threads, a.tiny, workdir,
                deadline)
            units = benchlib.END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = dict(raw["env"], git_describe=git_describe(), threads=threads,
               workload=a.workload, seed=a.seed, trace=a.trace,
               steal_s=round(stolen_s, 2))
    if "spool_fs" in raw:
        env["spool_fs"] = raw["spool_fs"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d-%d.json" % (
            a.workload, a.seed, a.trace, int(time.time()))), "w") as f:
        json.dump(dict(result, env=env, info=info, failures=reasons), f,
                  indent=1)

    print("env: " + json.dumps(env, sort_keys=True))
    for reason in reasons:
        print("failure: " + reason)
    for k, v in sorted(info.items()):
        print("info: %s = %s" % (k, v))
    for k, u in units.items():
        print("%-36s %.6g %s" % (k, metrics[k], u))
    print("failed_frac %.6g (%d of %d)" % (
        benchlib.ratio(failed, attempted), failed, attempted))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
