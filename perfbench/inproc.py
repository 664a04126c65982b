"""Run celltwin CLI stages inside one fresh interpreter through `cli.main(argv)`.

Two uses, both started by `run.py` with ``PYTHONPATH`` pointing at the
checkout's ``src``:

* set-up: ``inproc.py setup --config C --out-root D --stages collect,train-wm --stamp S``
  builds the artifacts a workload's measured stages read, and writes the run
  stamp (library versions, BLAS build) to S.
* traced run: ``inproc.py trace --config C --out-root D --traced-root E --stages ... --result R``
  runs the stages twice untraced into D, then once with spans into E, and
  writes the per-layer metrics to R. Both roots must already hold the set-up
  artifacts.

Exit status is 0 only when every stage returned 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

OUT_ROOT_ENV = "CELLTWIN_OUT_ROOT"
STAGES = ("collect", "train-wm", "optimize", "evaluate")


def _run_stages(cli, stages, config, out_root) -> tuple[bool, dict[str, float]]:
    os.environ[OUT_ROOT_ENV] = out_root
    ok, seconds = True, {}
    for stage in stages:
        start = time.perf_counter()
        code = cli.main([stage, "--config", config])
        seconds[stage] = time.perf_counter() - start
        ok = ok and code == 0
    return ok, seconds


def _stamp() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 prints its config and takes no mode
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
    }


def setup(args) -> int:
    from celltwin import cli

    cli.parse_config(args.config)
    ok, _ = _run_stages(cli, args.stages, args.config, args.out_root)
    if args.stamp:
        with open(args.stamp, "w", encoding="utf-8") as fh:
            json.dump(_stamp(), fh)
    return 0 if ok else 1


def trace(args) -> int:
    start = time.perf_counter()
    from celltwin import cli

    import_s = time.perf_counter() - start
    import spans

    # The first pass pays one-time costs (lazy imports, first-touch memory), so
    # the untraced reference is the second pass over the same root.
    ok, _ = _run_stages(cli, args.stages, args.config, args.out_root)
    again, untraced = _run_stages(cli, args.stages, args.config, args.out_root)
    ok = ok and again
    tracer = spans.Tracer()
    saved = spans.install(tracer)
    traced, uncovered = {}, 0.0
    try:
        os.environ[OUT_ROOT_ENV] = args.traced_root
        for stage in args.stages:
            covered = tracer.top_level_s
            t0 = time.perf_counter()
            code = cli.main([stage, "--config", args.config])
            traced[stage] = time.perf_counter() - t0
            uncovered += traced[stage] - (tracer.top_level_s - covered)
            ok = ok and code == 0
    finally:
        spans.uninstall(saved)
    metrics = spans.per_layer_metrics(tracer)
    metrics["cli.import_s"] = import_s
    for stage in STAGES:
        metrics[f"cli.stage.{stage}.s"] = traced.get(stage, 0.0)
    metrics["trace.traced_s"] = sum(traced.values())
    metrics["trace.untraced_s"] = sum(untraced.values())
    metrics["trace.overhead_s"] = metrics["trace.traced_s"] - metrics["trace.untraced_s"]
    metrics["trace.uncovered_s"] = uncovered
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "trace"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out-root", required=True)
    parser.add_argument("--stages", type=lambda s: [x for x in s.split(",") if x], default=[])
    parser.add_argument("--stamp")
    parser.add_argument("--traced-root")
    parser.add_argument("--result")
    args = parser.parse_args(argv)
    return setup(args) if args.mode == "setup" else trace(args)


if __name__ == "__main__":
    sys.exit(main())
