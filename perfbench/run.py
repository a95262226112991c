"""dunkl-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout; the program is imported from `src/`, with
nothing to build.  Workloads (see workloads.py): `identities`,
`besov-slice`, `cli-tables`.  Every pass of a workload runs in its own
fresh child interpreter, one at a time, single-threaded: BLAS/OpenMP thread
variables are pinned to 1, DUNKL_LAB_THREADS is unset and PYTHONHASHSEED is
0.  The seed drives only the cli-tables taylor probes; identities and
besov-slice run the paper's matrix and ignore it.

--trace 0   end-to-end metrics.  Starts fresh-process passes until
            --seconds have elapsed (at least MIN_PASSES) and reports medians
            over passes:
              wall_s       wall time of the timed phase of a pass
              cpu_s        user+sys CPU time of the pass process and its
                           children
              peak_rss_mb  peak resident memory of the pass process
              pass_frac    share of attempted operations that did not fail
                           (1 - failed_frac; failed_frac is printed too)
              setup_s      median over SETUP_SAMPLES fresh interpreters of
                           the time until `import dunkl_lab.cli` completes
            wall_s and cpu_s are rescaled to the box's nominal speed by the
            speed sampler (speed.py), because a shared box drifts by +-15%
            and more; setup_s is rescaled by the median speed factor of the
            run's passes, taken between its samples.  The raw values are
            printed on the hygiene line.
--trace 1   per-layer metrics.  One untraced pass, then one traced pass
            whose wrappers (tracer.py) record spans around public functions
            of each layer.  The two passes must give identical outputs.
all         both kinds of run for every workload, printed as tables.

baseline.py repeats these runs over seeds, checks that the work counters
of two traced runs repeat exactly, and records perfbench/baseline.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Scratch files go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("identities", "besov-slice", "cli-tables")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 4
# over ten seeds, one identities pass (~14 s) spread 8% after speed
# normalisation and the median of two 3-5%; cli-tables (~10 s a pass) would
# otherwise run one pass or two as the box's speed varies
MIN_PASSES = {"identities": 2, "cli-tables": 2}
# every child is stopped by this many seconds after the run started, so a
# run ends (with an error) within the 180 s a run is allowed
RUN_DEADLINE_S = 170
# no further pass is started when it would likely end after this
MAX_MEASURE_S = 120


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("DUNKL_LAB_THREADS", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def _remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded {RUN_DEADLINE_S} s")
    return left


def _left(deadline):
    return max(deadline - time.monotonic(), 0.0)


def run_pass(workload, seed, trace, tag, deadline):
    """One pass in a fresh interpreter; returns the worker's result."""
    workdir = os.path.join(OUT, workload, tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    result = os.path.join(workdir, "result.json")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--workdir", workdir, "--result", result]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=_remaining(deadline))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"run exceeded {RUN_DEADLINE_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def setup_once(deadline):
    """Seconds from spawning an interpreter until `import dunkl_lab.cli`
    has completed in it."""
    code = "import sys, dunkl_lab.cli; sys.stdout.write('ready\\n')"
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                          env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True) as proc:
        ready, _, _ = select.select([proc.stdout], [], [], _left(deadline))
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - t0
        if not ready:
            proc.kill()
        rc = proc.wait()
    if rc != 0 or line.strip() != "ready":
        raise BenchError("import dunkl_lab.cli failed in a fresh interpreter "
                         "or ran past the deadline")
    return elapsed


def _ops_summary(results):
    ops = [o for r in results for o in r["ops"]]
    failed = sum(o["failed"] for o in ops)
    correct = all(not r["gate"] for r in results) and \
        not any(o["wrong"] for o in ops)
    return correct, len(ops), failed


def _report_failures(results):
    seen = set()
    for r in results:
        if r["gate"] and r["gate"] not in seen:
            seen.add(r["gate"])
            print(f"# GATE FAILED: {r['gate']}")
        for o in r["ops"]:
            if o["failed"] and o["op"] not in seen:
                seen.add(o["op"])
                kind = "WRONG" if o["wrong"] else "failed"
                print(f"# {kind}: {o['op']}: {o['detail'][:160]}")


def _hygiene(seed, load, versions, extra):
    doc = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": list(load),
        "thread_vars": {v: "1" for v in THREAD_VARS},
        "DUNKL_LAB_THREADS": "unset",
        "PYTHONHASHSEED": "0",
        "seed": seed,
        "seed_drives": "cli-tables taylor probe inputs only; identities and "
                       "besov-slice run the paper matrix and take no seed",
    }
    doc.update(versions)
    doc.update(extra)
    return doc


def _metric(value, unit):
    return {"value": value, "unit": unit}


# ------------------------------------------------------------- end to end ----

def measure(workload, seed, seconds, deadline):
    """Untraced passes for `seconds` (at least MIN_PASSES); end-to-end
    metrics."""
    load = os.getloadavg()
    # half the set-up samples before the passes and half after, so that the
    # median spans the run rather than one stretch of the box's speed
    setups = [setup_once(deadline) for _ in range(SETUP_SAMPLES // 2)]
    passes = []
    t0 = time.perf_counter()
    while True:
        t = time.perf_counter()
        passes.append(run_pass(workload, seed, 0, f"pass{len(passes)}",
                               deadline))
        last = time.perf_counter() - t
        elapsed = time.perf_counter() - t0
        enough = len(passes) >= MIN_PASSES.get(workload, 1) and \
            elapsed >= seconds
        if enough or elapsed + last > MAX_MEASURE_S:
            break
    setups += [setup_once(deadline)
               for _ in range(SETUP_SAMPLES - len(setups))]
    correct, attempted, failed = _ops_summary(passes)

    def med(key):
        return statistics.median(p[key] for p in passes)

    # Set-up time drifts with the box's speed as much as the passes do: the
    # medians of six ten-seed sets within one hour were 0.68-0.91 s raw and
    # 0.90-0.97 s rescaled.  One import is too short to time the kernel
    # beside it, so the passes' factor is used.
    speed_factor = statistics.median(p["wall_s"] / p["wall_raw_s"]
                                     for p in passes)

    metrics = {
        "wall_s": _metric(med("wall_s"), "s"),
        "cpu_s": _metric(med("cpu_s"), "s"),
        "setup_s": _metric(statistics.median(setups) * speed_factor, "s"),
        "peak_rss_mb": _metric(med("peak_rss_mb"), "MB"),
        "pass_frac": _metric(1.0 - failed / attempted, "ratio"),
    }
    info = _hygiene(seed, load, passes[0]["versions"], {
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_wall_raw_s": [p["wall_raw_s"] for p in passes],
        "pass_cpu_raw_s": [p["cpu_raw_s"] for p in passes],
        "speed_samples": [p["speed_samples"] for p in passes],
        "setup_samples_raw_s": setups,
        "speed_factor": speed_factor,
    })
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "info": info, "passes": passes}


# -------------------------------------------------------------- per layer ----

def layer_metrics(traced, untraced):
    tr = traced["trace"]
    spans, cnt, mx = tr["spans"], tr["counters"], tr["maxima"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def total_s(name):
        return spans.get(name, {}).get("total_s", 0.0)

    pts = cnt.get("dunklcore.translate_points", 0)
    tcalls = cnt.get("dunklcore.translate_calls", 0)
    t_self = self_s("dunklcore.translate")
    probe_ms = [o["ms"] for o in traced["ops"] if o["op"].startswith("taylor[")]
    p50, p75 = (statistics.median(probe_ms),
                statistics.quantiles(probe_ms, n=4)[2]) \
        if len(probe_ms) > 1 else (0.0, 0.0)
    m = {
        "dunklcore.translate_calls": (tcalls, "count"),
        "dunklcore.translate_points": (pts, "count"),
        "dunklcore.translate_points_callable":
            (cnt.get("dunklcore.translate_points_callable", 0), "count"),
        "dunklcore.translate_nodes": (cnt.get("dunklcore.translate_nodes", 0),
                                      "count"),
        "dunklcore.points_per_call": (pts / tcalls if tcalls else 0.0,
                                      "points/call"),
        "dunklcore.translate_self_s": (t_self, "s"),
        "dunklcore.translate_ns_per_point": (t_self * 1e9 / pts if pts else 0.0,
                                             "ns"),
        "dunklcore.convolve_calls": (calls("dunklcore.convolve"), "count"),
        "dunklcore.transform_calls": (calls("dunklcore.transform"), "count"),
        "dunklcore.w_total_variation_calls":
            (calls("dunklcore.w_total_variation"), "count"),
        "funcalg.eval_calls": (calls("funcalg.eval"), "count"),
        "funcalg.eval_points": (cnt.get("funcalg.eval_points", 0), "count"),
        "funcalg.eval_self_s": (self_s("funcalg.eval"), "s"),
        "funcalg.dunkl_power_calls": (calls("funcalg.dunkl_power"), "count"),
        "quad.lp_norm_calls": (calls("quad.lp_norm"), "count"),
        "quad.lp_norm_self_s": (self_s("quad.lp_norm", "quad.lp_norm_full"), "s"),
        "quad.integrate_calls": (calls("quad.integrate"), "count"),
        "quad.integrate_self_s": (self_s("quad.integrate"), "s"),
        "quad.integrate_err_max": (mx.get("quad.integrate_err_max", 0.0), "abs"),
        "quad.tail_ratio_max": (mx.get("quad.tail_ratio_max", 0.0), "ratio"),
        "quad.jacobi_rule_calls": (calls("quad.jacobi_rule"), "count"),
        "quad.jacobi_ref_misses": (cnt.get("quad.jacobi_ref_misses", 0), "count"),
        "special.kernel_calls": (calls("special.kernel"), "count"),
        "special.kernel_points": (cnt.get("special.kernel_points", 0), "count"),
        "special.self_s": (self_s("special.kernel"), "s"),
        "taylor.remainder_calls": (calls("taylor.remainder"), "count"),
        "taylor.remainder_self_s": (self_s("taylor.remainder"), "s"),
        "taylor.iterated_integral_calls":
            (calls("taylor.iterated_integral"), "count"),
        "taylor.iterated_integral_self_s":
            (self_s("taylor.iterated_integral"), "s"),
        "taylor.theta_mass_calls": (calls("taylor.theta_mass"), "count"),
        "taylor.profile_calls": (calls("taylor.profile"), "count"),
        "taylor.theta_terms_misses": (cnt.get("taylor.theta_terms_misses", 0),
                                      "count"),
    }
    for fn in ("omega", "omega_tilde", "k_functional_upper", "conv_norm",
               "equivalence_report"):
        m[f"besov.{fn}_calls"] = (calls(f"besov.{fn}"), "count")
        m[f"besov.{fn}_self_s"] = (self_s(f"besov.{fn}"), "s")
    for suite in ("kernel", "translate", "taylor", "norms", "besov"):
        m[f"verify.suite_{suite}_s"] = (total_s(f"verify.suite_{suite}"), "s")
    m["verify.checks"] = (cnt.get("verify.checks", 0), "count")
    for cmd in ("verify", "sweep", "taylor"):
        m[f"cli.{cmd}_s"] = (total_s(f"cli.{cmd}"), "s")
    m["cli.self_s"] = (self_s("cli.main", "cli.verify", "cli.sweep",
                              "cli.taylor"), "s")
    m["cli.taylor_p50_ms"] = (p50, "ms")
    m["cli.taylor_p75_ms"] = (p75, "ms")
    # raw times: the traced pass runs without the speed sampler
    m["trace.overhead_frac"] = ((traced["wall_raw_s"] - untraced["wall_raw_s"])
                                / untraced["wall_raw_s"], "ratio")
    m["trace.coverage_frac"] = (tr["top_level_s"] / traced["wall_raw_s"],
                                "ratio")
    return {k: _metric(v, u) for k, (v, u) in m.items()}


def trace_run(workload, seed, deadline):
    """One untraced and one traced pass; per-layer metrics."""
    load = os.getloadavg()
    untraced = run_pass(workload, seed, 0, "untraced", deadline)
    traced = run_pass(workload, seed, 1, "traced", deadline)
    correct, attempted, failed = _ops_summary([traced])
    same = traced["outputs"] == untraced["outputs"]
    if not same:
        print("# GATE FAILED: traced outputs differ from untraced outputs")
    info = _hygiene(seed, load, traced["versions"], {
        "untraced_wall_raw_s": untraced["wall_raw_s"],
        "traced_wall_raw_s": traced["wall_raw_s"],
        "spans": traced["trace"]["n_spans"],
        "missing_targets": traced["trace"]["missing_targets"],
        "span_file": os.path.relpath(
            os.path.join(OUT, workload, "traced", "spans.npz"), ROOT),
    })
    return {"correct": correct and same and _ops_summary([untraced])[0],
            "attempted": attempted, "failed": failed,
            "metrics": layer_metrics(traced, untraced), "info": info,
            "passes": [traced]}


# ------------------------------------------------------------------ modes ----

def _print_run(workload, res):
    print(f"# == {workload}")
    _report_failures(res["passes"])
    for name, m in res["metrics"].items():
        print(f"#   {name:<40} {m['value']:>16.6g} {m['unit']}")
    if "pass_frac" in res["metrics"]:
        print(f"#   {'failed_frac':<40} {res['failed']:>7d}/{res['attempted']:<8d}"
              f" = {res['failed'] / res['attempted']:.4g}")
    print("# hygiene " + json.dumps(res["info"], sort_keys=True))


def _result_line(res):
    return json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": res["metrics"]})


def run_all(seed, seconds):
    """Both runs of every workload, each with its own deadline;
    attempted/failed count the traced runs."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        e2e = measure(workload, seed, seconds, time.monotonic() + RUN_DEADLINE_S)
        layers = trace_run(workload, seed, time.monotonic() + RUN_DEADLINE_S)
        for res in (e2e, layers):
            _print_run(workload, res)
            total["correct"] = total["correct"] and res["correct"]
            for name, m in res["metrics"].items():
                total["metrics"][f"{workload}.{name}"] = m
        total["attempted"] += layers["attempted"]
        total["failed"] += layers["failed"]
    print(_result_line(total))
    return 0


def _terminate(signum, frame):
    # raised in the main thread, so subprocess.run kills and reaps the pass
    # it is waiting on before the run exits
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dunkl_lab", "cli.py")):
        print(f"error: no dunkl_lab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        if args.trace:
            res = trace_run(args.workload, args.seed, deadline)
        else:
            res = measure(args.workload, args.seed, args.seconds, deadline)
        _print_run(args.workload, res)
        print(_result_line(res))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
