"""One phase of one benchmark run, in a process of its own.

``setup`` builds the workload's inputs and runs its set-up stages several
times, each in a fresh directory, and keeps the last one. ``measure`` runs
the timed passes against that directory, checks every pass's outputs and
reports the run's metrics. ``run.py`` starts both phases and reads the JSON
each writes to ``--result``.

    python3 perfbench/worker.py setup --workload train-fit --seed 1 \
        --work .perfbench/x --result .perfbench/x/setup.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

SETUP_REPEATS = 3


class Tally:
    """Stage invocations attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # a traceback is a failed invocation, not a crash
            traceback.print_exc()
            self.failed += 1
            return None

    def stage(self, verb: str, config: Path) -> bool:
        from hloblab import cli
        code = self.call(cli.dispatch, [verb, "--config", str(config)])
        if code not in (0, None):
            self.failed += 1
        return code == 0


def setup(args, workload) -> dict:
    import workloads
    tally = Tally()
    times = []
    work = Path(args.work)
    for rep in range(SETUP_REPEATS):
        rep_dir = work / f"setup{rep}"
        start = time.perf_counter()
        data_dir, out_dir = rep_dir / "data", rep_dir / "out"
        data_dir.mkdir(parents=True)
        out_dir.mkdir()
        for day in workloads.make_days(args.seed, workload):
            workloads.lobgen.write_day(data_dir, workloads.TICKER, day)
        config = rep_dir / "run.cfg"
        config.write_text(workload.program_config(data_dir, out_dir))
        ok = all(tally.stage(verb, config) for verb in workload.setup)
        times.append(time.perf_counter() - start)
        if not ok:
            break
        if rep + 1 < SETUP_REPEATS:
            shutil.rmtree(rep_dir)
    return {"setup_times": times, "attempted": tally.attempted,
            "failed": tally.failed, "ready": str(rep_dir)}


class Measure:
    """The timed passes of one run and the checks on their outputs."""

    def __init__(self, args, workload):
        import workloads
        from hloblab.config import RunConfig
        self.w = workload
        self.ready = Path(args.ready)
        self.config = self.ready / "run.cfg"
        self.out_dir = self.ready / "out"
        self.cfg = RunConfig.load(self.config)
        self.days = workloads.make_days(args.seed, workload)
        self.items = workloads.items_per_pass(workload, self.days)
        self.tally = Tally()
        self.problems: list[str] = []
        self.fingerprints: list[dict] = []
        self.val_loss = 0.0      # set by workloads that train

    def run_pass(self) -> tuple[float, bool, dict]:
        """One pass of the timed stages: (wall time, stages ok, windows)."""
        from hloblab import pipeline
        import workloads
        for verb in self.w.timed:
            for name in workloads.OUTPUTS[verb]:
                path = self.out_dir / name
                if path.is_dir():
                    shutil.rmtree(path)
                else:
                    path.unlink(missing_ok=True)

        windows = {}
        start = time.perf_counter()
        ok = all(self.tally.stage(verb, self.config) for verb in self.w.timed)
        for day in self.w.window_days if ok else ():
            windows[day] = self.tally.call(pipeline.windows_for_day, self.cfg, day)
        return time.perf_counter() - start, ok, windows

    def check(self, ok: bool, windows: dict) -> None:
        import workloads as wl
        if not ok or any(v is None for v in windows.values()):
            self.problems.append("a stage failed")
            return
        fp = wl.fingerprint(self.out_dir)
        problems = []
        if windows:
            want = wl.expected(self.days, windows)
            for day, ws in windows.items():
                problems += wl.check_windows(day, ws, want[day])
            fp["windows"] = wl.windows_digest(windows)
        if "mi" in self.w.timed:
            problems += wl.check_mi(self.out_dir)
        if "tmfg" in self.w.timed:
            problems += wl.check_simplices(self.out_dir)
        if "train" in self.w.timed:
            found, self.val_loss = wl.check_history(
                self.out_dir, int(self.w.config["train.max_epochs"]))
            problems += found + wl.check_checkpoint(self.out_dir)
        if "eval" in self.w.timed:
            problems += wl.check_eval(self.out_dir, self.items)
        self.problems += problems
        self.fingerprints.append(fp)


def measure(args, workload) -> dict:
    import tracing
    m = Measure(args, workload)
    tracer = tracing.Tracer(run_id=f"{workload.name}-s{args.seed}-{os.getpid()}")
    instr = tracing.Instrumentation(tracer)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        trace_this = args.trace and len(traced) < len(plain)
        if trace_this:
            instr.install()
        try:
            seconds, ok, windows = m.run_pass()
        finally:
            instr.uninstall()
        (traced if trace_this else plain).append(seconds)
        m.check(ok, windows)
        del windows
        elapsed = time.perf_counter() - start
        need_more = args.trace and not traced
        next_pass = max(statistics.median(p) for p in (plain, traced) if p)
        if m.problems or not (need_more or elapsed + next_pass <= args.seconds):
            break

    if any(fp != m.fingerprints[0] for fp in m.fingerprints):
        m.problems.append("artifact fingerprints differ between passes")
    if m.fingerprints:
        m.problems += remember_fingerprint(workload.name, args.seed,
                                           m.fingerprints[0])
    result = {
        "passes": len(plain), "traced_passes": len(traced),
        "pass_times": plain, "traced_pass_times": traced,
        "items_per_pass": m.items, "item": workload.item,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": m.tally.attempted, "failed": m.tally.failed,
        "problems": m.problems, "val_loss": m.val_loss,
        "env": environment(),
    }
    if args.trace:
        # a failed pass ends the run early; its layers then read 0
        layers = tracing.layer_metrics(tracer, instr, max(len(traced), 1))
        layers["train.val_loss"] = (m.val_loss if math.isfinite(m.val_loss) else 0.0,
                                    "nats")
        layers["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(plain) if traced else 0.0,
            "ratio")
        result["layers"] = layers
        trace_dir = ROOT / ".perfbench" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / f"{workload.name}-s{args.seed}.json").write_text(tracer.to_json())
    return result


def remember_fingerprint(workload: str, seed: int, fp: dict) -> list[str]:
    """Compare with earlier runs of the same program source, workload and seed."""
    import workloads
    store = ROOT / ".perfbench" / "fingerprints.json"
    key = f"{workloads.source_digest(ROOT / 'src')}:{workload}:{seed}"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known:
        if known[key] != fp:
            return ["artifact fingerprints differ from an earlier run of this source"]
        return []
    known[key] = fp
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True, indent=1))
    os.replace(tmp, store)
    return []


def environment() -> dict:
    import numpy as np
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> None:
    import workloads
    parser = argparse.ArgumentParser()
    parser.add_argument("phase", choices=["setup", "measure"])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--work", help="set-up: directory to build in")
    parser.add_argument("--ready", help="measure: the set-up directory to use")
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    result = (setup if args.phase == "setup" else measure)(args, workload)
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
