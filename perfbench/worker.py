"""One pass of one workload in a fresh interpreter (started by run.py).

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
                                --workdir DIR --result FILE

Imports dunkl_lab from the checkout's src/, runs the workload and writes
a JSON result: timed-phase wall time, operations, outputs for
comparison, CPU time (this process and its children) and peak RSS,
library versions and, when traced, the span summary.  An untraced pass
runs the speed sampler (speed.py) and reports wall and CPU time at
nominal machine speed, with the raw values beside them; a traced pass
installs the tracer instead and reports raw times.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from speed import SpeedSampler
    sampler = None if args.trace else SpeedSampler()
    if sampler is not None:
        sampler.start()
    import dunkl_lab
    import numpy
    import scipy
    import workloads
    if os.path.dirname(os.path.abspath(dunkl_lab.__file__)) != \
            os.path.join(SRC, "dunkl_lab"):
        raise SystemExit(f"dunkl_lab imported from {dunkl_lab.__file__}, "
                         f"not from {SRC}")
    import dunkl_lab.cli  # noqa: F401 - imported here, not in the timed phase

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    os.makedirs(args.workdir, exist_ok=True)
    res = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    if sampler is not None:
        sampler.stop()
    cpu = sum(ru.ru_utime + ru.ru_stime for ru in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))
    if sampler is not None:
        res["wall_s"], res["wall_raw_s"] = sampler.normalised_wall(res["t0"],
                                                                   res["t1"])
        res["cpu_s"], res["cpu_raw_s"] = sampler.normalised_cpu(cpu)
        res["speed_samples"] = len(sampler.samples)
    else:
        res["wall_s"] = res["wall_raw_s"] = res["t1"] - res["t0"]
        res["cpu_s"] = res["cpu_raw_s"] = cpu
    if tracer is not None:
        res["trace"] = tracer.summary()
        tracer.dump(os.path.join(args.workdir, "spans.npz"))
    ru = resource.getrusage(resource.RUSAGE_SELF)
    res["peak_rss_mb"] = ru.ru_maxrss / 1024.0      # ru_maxrss is KiB on Linux
    res["versions"] = {"python": sys.version.split()[0],
                       "numpy": numpy.__version__, "scipy": scipy.__version__}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(res, fh)


if __name__ == "__main__":
    main()
