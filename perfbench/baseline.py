"""Repeat the benchmark over seeds and summarise its spread and counters.

    python3 perfbench/baseline.py [--runs 10] [--workload NAME ...]
                                  [--first-seed 1] [--write]

For each workload: `--runs` untraced runs of run.py, each with its own
seed and BENCHMARK.json's run_seconds, then two traced runs (seed 1)
whose work counters must repeat exactly.  Prints, per end-to-end metric,
the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound, and the same summary of
the raw (not speed-normalised) wall and CPU times.  `--write` stores the
summary, the traced per-layer breakdown and the counters in
perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT_UNITS = ("count",)


def _run(args):
    cmd = [sys.executable, os.path.join(HERE, "run.py")] + args
    proc = subprocess.run(cmd, cwd=ROOT, text=True, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    hygiene = [json.loads(line[len("# hygiene "):]) for line in lines
               if line.startswith("# hygiene ")]
    return json.loads(lines[-1]), hygiene[0] if hygiene else {}


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"run_seconds": bench["run_seconds"], "runs": args.runs,
           "workloads": {}}
    ok = True
    for w in bench["workloads"]:
        name = w["name"]
        if args.workload and name not in args.workload:
            continue
        values, hyg, attempted, failed, correct = {}, [], set(), set(), True
        raw = {"wall_raw_s": [], "cpu_raw_s": []}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res, h = _run(["--workload", name, "--seed", str(seed),
                           "--seconds", str(bench["run_seconds"]),
                           "--trace", "0"])
            hyg.append(h)
            raw["wall_raw_s"].append(statistics.median(h["pass_wall_raw_s"]))
            raw["cpu_raw_s"].append(statistics.median(h["pass_cpu_raw_s"]))
            correct = correct and res["correct"]
            attempted.add(res["attempted"] // h.get("passes", 1))
            failed.add(res["failed"] // h.get("passes", 1))
            for m, v in res["metrics"].items():
                values.setdefault(m, []).append(v["value"])
            print(f"# {name} seed {seed}: " + " ".join(
                f"{m}={v['value']:.5g}" for m, v in res["metrics"].items()),
                flush=True)
        e2e = {}
        for m, vals in values.items():
            s = summarise(vals)
            e2e[m] = s
            print(f"{name:<12} {m:<12} median {s['median']:.6g}  q1 {s['q1']:.6g}"
                  f"  q3 {s['q3']:.6g}  spread {s['spread']:.4f}"
                  f"  bound {bounds[m]} (1/3: {bounds[m] / 3:.4f})"
                  + ("" if m == "setup_s" or s["spread"] <= bounds[m] / 3
                     else "  <-- above a third of the bound"), flush=True)
        raw = {m: summarise(vals) for m, vals in raw.items()}
        for m, s in raw.items():
            print(f"{name:<12} {m:<12} median {s['median']:.6g}  spread "
                  f"{s['spread']:.4f}  (not speed-normalised; not a metric)",
                  flush=True)
        t1, th = _run(["--workload", name, "--seed", "1", "--trace", "1"])
        t2, _ = _run(["--workload", name, "--seed", "1", "--trace", "1"])
        counters = {k: v["value"] for k, v in t1["metrics"].items()
                    if v["unit"] in COUNT_UNITS}
        again = {k: v["value"] for k, v in t2["metrics"].items()
                 if v["unit"] in COUNT_UNITS}
        repeat = counters == again
        print(f"{name:<12} counters repeat exactly: {repeat}; correct: "
              f"{correct and t1['correct'] and t2['correct']}", flush=True)
        ok = ok and repeat and correct and t1["correct"] and t2["correct"]
        out["workloads"][name] = {
            "why": w["why"],
            "correct": correct,
            "attempted_per_pass": sorted(attempted),
            "failed_per_pass": sorted(failed),
            "passes_per_run": [h.get("passes") for h in hyg],
            "loadavg_at_start": [h.get("loadavg_at_start") for h in hyg],
            "end_to_end": e2e,
            "raw_times": raw,
            "counters_traced_seed1": counters,
            "per_layer_traced_seed1": {k: v["value"]
                                      for k, v in t1["metrics"].items()},
            "counters_repeat_exactly": repeat,
        }
        out["hygiene"] = {k: v for k, v in th.items()
                          if k in ("nproc", "cpu_count", "python", "numpy",
                                   "scipy", "thread_vars", "DUNKL_LAB_THREADS",
                                   "PYTHONHASHSEED", "seed_drives")}
    if args.write:
        path = os.path.join(HERE, "baseline.json")
        if os.path.exists(path):      # keep workloads this call did not run
            with open(path, encoding="utf-8") as fh:
                old = json.load(fh)["workloads"]
            out["workloads"] = {**old, **out["workloads"]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
