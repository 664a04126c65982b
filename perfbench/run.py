"""Closed-loop stage benchmark for celltwin.

Run from the root of a checkout:

    python3 perfbench/run.py --workload twin_fit --seed 1 --seconds 20 --trace 0

With ``--trace 0`` each measured stage runs as its own fresh ``celltwin``
process (``python3 -m celltwin.cli``) and the last stdout line carries the
end-to-end metrics named in ``BENCHMARK.json``. With ``--trace 1`` the same
stages run once in one process with spans around each module's public
functions, and the last line carries the per-layer metrics. One client runs
one stage at a time: a closed loop, ``jobs`` 1, BLAS threads capped at
min(nproc, 2). Everything is written under ``.perfbench_work/`` in the
checkout and removed at exit. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import outputs
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_REPS = 3
MIN_REPS = 2          # two runs of one seed, so reports can be compared byte for byte
PASSES = 3            # stage passes in a traced run: two untraced, one traced
RUN_DEADLINE_S = 170  # every process of a run ends within this


class Bench:
    """One benchmark run of one workload and seed inside `work`."""

    def __init__(self, root: Path, work: Path, workload, seed: int):
        self.root, self.work, self.workload, self.seed = root, work, workload, seed
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.config = work / "config.json"
        self.attempted = 0
        self.failed_ops = 0
        self.problems: list[str] = []
        self.blas_threads = str(min(2, len(os.sched_getaffinity(0))))
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=src + (os.pathsep + path if path else ""),
            OPENBLAS_NUM_THREADS=self.blas_threads,
            OMP_NUM_THREADS=self.blas_threads,
            MKL_NUM_THREADS=self.blas_threads,
        )
        work.mkdir(parents=True)
        self.config.write_text(json.dumps(workload.config(seed), indent=1), encoding="utf-8")

    # -- processes ------------------------------------------------------------------

    def spawn(self, argv: list[str], log: Path, **env: str) -> tuple[int, float, float]:
        """Run one child to completion: (exit code, wall seconds, its own peak RSS in MB)."""
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env={**self.env, **env},
                                    cwd=self.root)
            # A blocking wait keeps this process off the CPU the stage is using;
            # the timer kills a stage that would run past the run deadline.
            timer = threading.Timer(max(0.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode == -signal.SIGKILL:
            self.problems.append(f"{' '.join(argv[1:4])}: killed at the run deadline")
        elif proc.returncode != 0:
            tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
            self.problems.append(f"{' '.join(argv[1:4])}: exit {proc.returncode} {tail}")
        # ru_maxrss is in KiB on Linux and covers only this child.
        return proc.returncode, seconds, usage.ru_maxrss / 1024.0

    def setup(self, index: int) -> float:
        """Build the workload's inputs with the code under test; returns its wall seconds."""
        out = self.work / f"setup{index}"
        stages = self.workload.setup_stages
        self.attempted += max(1, len(stages))
        argv = [sys.executable, str(HERE / "inproc.py"), "setup", "--config", str(self.config),
                "--out-root", str(out), "--stages", ",".join(stages)]
        if index == 0:
            argv += ["--stamp", str(self.work / "stamp.json")]
        code, seconds, _ = self.spawn(argv, self.work / f"setup{index}.log")
        bad = code != 0
        for stage in stages:
            problems = outputs.stage_problems(out, stage)
            if index > 0 and not outputs.same_reports(self.work / "setup0", out, stage):
                problems.append(f"{stage}: set-up {index} report differs from set-up 0")
            self.problems += problems
            bad = bad or bool(problems)
        self.failed_ops += max(1, len(stages)) if bad else 0
        return seconds

    def stage(self, root: Path, stage: str) -> tuple[float, float]:
        """One measured stage in a fresh CLI process: (seconds, peak RSS MB)."""
        self.attempted += 1
        argv = [sys.executable, "-m", "celltwin.cli", stage, "--config", str(self.config)]
        code, seconds, rss = self.spawn(argv, root.with_suffix(f".{stage}.log"), CELLTWIN_OUT_ROOT=str(root))
        problems = outputs.stage_problems(root, stage)
        if root.name != "rep0" and not outputs.same_reports(self.work / "rep0", root, stage):
            problems.append(f"{stage}: {root.name} report differs from rep0")
        self.problems += problems
        self.failed_ops += 1 if code != 0 or problems else 0
        return seconds, rss

    def fresh_root(self, name: str) -> Path:
        """A run directory that starts with set-up 0's artifacts."""
        root = self.work / name
        if (self.work / "setup0").is_dir():
            shutil.copytree(self.work / "setup0", root)
        else:
            root.mkdir()
        return root

    # -- the two kinds of run ---------------------------------------------------------

    def run(self, seconds: float) -> tuple[dict, list[str]]:
        setups = [self.setup(i) for i in range(SETUP_REPS)]
        reps: list[dict] = []
        start = time.perf_counter()
        while len(reps) < MIN_REPS or (
            time.perf_counter() - start + (time.perf_counter() - start) / len(reps) <= seconds
        ):
            root = self.fresh_root(f"rep{len(reps)}")
            timed = {stage: self.stage(root, stage) for stage in self.workload.stages}
            reps.append({stage: t for stage, (t, _) in timed.items()})
            reps[-1]["rss"] = max(rss for _, rss in timed.values())
        lines = [f"stamp {json.dumps(self.stamp())}"]
        if self.problems:  # outputs may be missing, so no metric can be read
            return {}, lines
        metrics, named = self.end_to_end(setups, reps)
        lines += [f"{self.workload.name} {name} {value:.6g} {unit}" for name, (value, unit) in named.items()]
        per_rep = [[round(r[s], 3) for s in self.workload.stages] for r in reps]
        lines.append(f"{self.workload.name} per-rep {'+'.join(self.workload.stages)} seconds {per_rep}")
        return metrics, lines

    def end_to_end(self, setups, reps) -> tuple[dict, dict]:
        """The BENCHMARK.json end-to-end metrics, plus the stage-named metrics printed for people."""
        w = self.workload
        rep0 = self.work / "rep0"
        named = {"setup_s": (statistics.median(setups), "s")}
        for stage in w.stages:
            named[f"{stage.replace('-', '_')}_s"] = (statistics.median(r[stage] for r in reps), "s")
        work = outputs.work_done(rep0, w.rate_stage)
        named[w.rate_name] = (statistics.median(work / r[w.rate_stage] for r in reps), w.rate_unit)
        named["peak_rss_mb"] = (statistics.median(r["rss"] for r in reps), "MB")
        named.update(outputs.quality(rep0, w.stages))
        metrics = {
            "setup_s": named["setup_s"][0],
            "stage_s": statistics.median(sum(r[s] for s in w.stages) for r in reps),
            "work_per_s": named[w.rate_name][0],
            "peak_rss_mb": named["peak_rss_mb"][0],
            "wm_loss_tail": named["wm_loss_tail"][0],
        }
        return metrics, named

    def run_traced(self) -> tuple[dict, list[str]]:
        self.setup(0)
        untraced, traced = self.fresh_root("untraced"), self.fresh_root("traced")
        stages = self.workload.stages
        self.attempted += PASSES * len(stages)
        result = self.work / "trace.json"
        argv = [sys.executable, str(HERE / "inproc.py"), "trace", "--config", str(self.config),
                "--out-root", str(untraced), "--traced-root", str(traced),
                "--stages", ",".join(stages), "--result", str(result)]
        code, _, _ = self.spawn(argv, self.work / "trace.log")
        for stage in stages:
            problems = outputs.stage_problems(untraced, stage) + outputs.stage_problems(traced, stage)
            if not outputs.same_reports(untraced, traced, stage):
                problems.append(f"{stage}: traced report differs from untraced")
            self.problems += problems
            self.failed_ops += PASSES if code != 0 or problems else 0
        metrics = json.loads(result.read_text(encoding="utf-8")) if result.is_file() else {}
        lines = [f"stamp {json.dumps(self.stamp())}"]
        lines += [f"{self.workload.name} {name} {value:.6g}" for name, value in sorted(metrics.items())]
        return metrics, lines

    def stamp(self) -> dict:
        stamp_file = self.work / "stamp.json"
        stamp = json.loads(stamp_file.read_text(encoding="utf-8")) if stamp_file.is_file() else {}
        hashes = {}
        for root in (self.work / "setup0", self.work / "rep0", self.work / "traced"):
            hashes.update(outputs.config_hashes(root))
        stamp.update(
            nproc=os.cpu_count(),
            affinity=len(os.sched_getaffinity(0)),
            blas_threads=int(self.blas_threads),
            git_sha=_git_sha(self.root),
            workload=self.workload.name,
            seed=self.seed,
            config_hash=sorted(set(hashes.values())),
        )
        return stamp


def _git_sha(root: Path) -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _declared(root: Path, trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="celltwin closed-loop stage benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    root = Path.cwd()
    if not (root / "src" / "celltwin" / "cli.py").is_file():
        print(f"error: no celltwin source under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    declared = _declared(root, bool(args.trace))
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        bench = Bench(root, work, WORKLOADS[args.workload], args.seed)
        metrics, lines = bench.run_traced() if args.trace else bench.run(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for line in lines:
        print(line)
    for problem in bench.problems:
        print(f"check failed: {problem}")
    unknown = sorted(set(metrics) ^ set(declared))
    if unknown and not bench.problems:
        print(f"error: metrics differ from BENCHMARK.json: {unknown}", file=sys.stderr)
        return 2
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed_ops,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
