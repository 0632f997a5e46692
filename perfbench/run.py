"""The hloblab benchmark: one run of one workload, with its output checks.

    python3 perfbench/run.py --workload desk-data --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The run builds its inputs from ``--seed``, sets up in one child
process and measures in another (so ``peak_rss_mb`` is the measured loop's
alone), prints each metric by name with its unit, and ends with one JSON
line: ``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` the per-layer ones, from
spans recorded around the program's calls, and writes the spans under
``.perfbench/traces/``. Workloads and the metric map are described in
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("desk-data", "train-fit", "eval-scan")
BLAS_THREADS = 1
# the two children together stay inside the 180 s a run may take
SETUP_TIMEOUT_S = 60
MEASURE_TIMEOUT_S = 110
# what items_per_s counts on each workload, by its descriptive name
THROUGHPUT_NAMES = {"desk-data": "events_per_s", "train-fit": "train_windows_per_s",
                    "eval-scan": "eval_windows_per_s"}


def child(phase: str, args, work: Path, extra: list[str], timeout: float) -> dict:
    """Run one worker phase in its own process and return its result."""
    result = work / f"{phase}.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    cmd = [sys.executable, str(HERE / "worker.py"), phase,
           "--workload", args.workload, "--seed", str(args.seed),
           "--result", str(result)] + extra
    log = work / f"{phase}.log"
    with open(log, "w") as out:
        try:
            proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  env=env, cwd=ROOT, timeout=timeout)
        except subprocess.TimeoutExpired:
            sys.exit(f"perfbench: {phase} ran past {timeout} s; see {log}")
    if proc.returncode != 0 or not result.exists():
        tail = log.read_text().splitlines()[-20:]
        sys.exit(f"perfbench: {phase} exited {proc.returncode}\n" + "\n".join(tail))
    return json.loads(result.read_text())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "hloblab" / "cli.py").is_file():
        sys.exit(f"perfbench: no hloblab sources under {ROOT / 'src'}; "
                 "run from the root of a source checkout")

    work = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        s = child("setup", args, work, ["--work", str(work)], SETUP_TIMEOUT_S)
        if s["failed"]:
            sys.exit(f"perfbench: {s['failed']} set-up stages failed; "
                     f"see {work / 'setup.log'}")
        m = child("measure", args, work,
                  ["--ready", s["ready"], "--seconds", str(args.seconds),
                   "--trace", str(args.trace)], MEASURE_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(args, s, m)


def report(args, s: dict, m: dict) -> None:
    attempted = s["attempted"] + m["attempted"]
    failed = s["failed"] + m["failed"]
    setup_s = statistics.median(s["setup_times"])
    items_per_s = m["items_per_pass"] / statistics.median(m["pass_times"])
    env = m["env"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"env: python {env['python']}, numpy {env['numpy']}, "
          f"blas {env['blas'].get('name')} {env['blas'].get('version')}, "
          f"blas_threads {env['blas_threads']}, nproc {env['nproc']}")
    print(f"  setup_s        {setup_s:12.4f} s     median of {len(s['setup_times'])} "
          f"set-ups: {', '.join(f'{t:.3f}' for t in s['setup_times'])}")
    print(f"  items_per_s    {items_per_s:12.4f} 1/s   = {THROUGHPUT_NAMES[args.workload]}: "
          f"{m['items_per_pass']} {m['item']} per pass, median of "
          f"{len(m['pass_times'])} passes: "
          f"{', '.join(f'{t:.3f}' for t in m['pass_times'])} s")
    print(f"  peak_rss_mb    {m['peak_rss_mb']:12.4f} MB")
    print(f"  error_rate     {failed / attempted:12.4f}       "
          f"{failed} of {attempted} stage invocations failed")
    if args.workload == "train-fit":
        print(f"  val_loss       {m['val_loss']:12.6f} nats")
    for problem in m["problems"]:
        print(f"  CHECK FAILED: {problem}")

    if args.trace:
        ratio = m["layers"]["trace.overhead_ratio"][0]
        print(f"  traced passes: {len(m['traced_pass_times'])}, "
              f"tracing overhead {100 * (ratio - 1):+.1f}% of the untraced pass")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in m["layers"].items()}
        for name, (value, unit) in m["layers"].items():
            print(f"  {name:30s} {value:14.6f} {unit}")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "items_per_s": {"value": items_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": m["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0 and not m["problems"],
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
