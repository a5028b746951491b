"""The repo's benchmark: wall-clock ``ReStore.submit()`` streams.

Two ways to run it, both from the root of a checkout:

* one run, as ``BENCHMARK.json`` declares it —
  ``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
  --trace 0|1`` prints the run's result object as the last line
  (end-to-end metrics with ``--trace 0``, per-layer ones with ``--trace 1``);
* the whole suite — ``python3 benchmarks/e2e/run.py [--seed N]
  [--workload NAME] [--smoke]`` runs each workload 3x untraced and once
  traced, prints every metric by name with its unit (median, min, max)
  and writes ``results/suite.json`` for ``compare.py``.

Every run is a child process in its own process group under a wall-clock
ceiling, so a stalled worker fabric is killed and reported, not waited for.
"""

import argparse
import faulthandler
import json
import os
import platform
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))

#: a run must print its result within the contract's 180 s
CEILING_SECONDS = 150
SMOKE_SECONDS = 0.8
SUITE_REPEATS = 3


def child_main(args):
    """Run one workload in this process and print its result object."""
    from workload import run_workload
    os.makedirs(RESULTS, exist_ok=True)
    hang_path = os.path.join(RESULTS, f"hang-{args.workload}.txt")
    # Not fd 2: a captured stderr dies with whoever captured it.
    with open(hang_path, "w", encoding="utf-8") as hang_file:
        faulthandler.dump_traceback_later(max(1, args.ceiling - 5),
                                          file=hang_file)
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            os.path.join(RESULTS, f"trace-{args.workload}.jsonl"))
        faulthandler.cancel_dump_traceback_later()
    os.remove(hang_path)
    print(json.dumps(result))


def run_child(workload, seed, seconds, trace, ceiling=CEILING_SECONDS):
    """One run in a child process group; returns (result, stderr text).
    A child that outlives ``ceiling`` is killed with everything it
    started and reported with every operation failed."""
    command = [sys.executable, os.path.abspath(__file__), "--child",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)),
               "--ceiling", str(ceiling)]
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        out, err = process.communicate(timeout=ceiling)
    except subprocess.TimeoutExpired:
        out, err = "", f"{workload}: no result within {ceiling} s; killed"
    finally:
        # Also after a clean exit: workers may outlive a crashed child.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    lines = out.strip().splitlines()
    if process.returncode == 0 and lines:
        return json.loads(lines[-1]), err
    from workload import planned_ops, SPECS
    ops = planned_ops(SPECS[workload], seconds) * SPECS[workload].rounds
    return ({"correct": False, "attempted": ops, "failed": ops,
             "metrics": {}}, err)


def _summary(values):
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "values": values}


def suite(args):
    from workload import SPECS
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    repeats = 1 if args.smoke else SUITE_REPEATS
    names = [args.workload] if args.workload else list(SPECS)
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    document = {"commit": commit, "nproc": os.cpu_count(),
                "python": platform.python_version(), "seed": args.seed,
                "seconds": seconds, "workloads": {}}
    print(f"commit {commit}  nproc {os.cpu_count()}  python "
          f"{platform.python_version()}  seed {args.seed}  seconds {seconds}")
    all_correct = True
    for name in names:
        runs = [run_child(name, args.seed, seconds, trace)
                for trace in [0] * repeats + [1]]
        for result, err in runs:
            if not result["correct"]:
                all_correct = False
                print(f"{name}: {result['failed']} of {result['attempted']} "
                      f"operations failed\n{err}", file=sys.stderr)
        failed = sum(result["failed"] for result, _ in runs)
        attempted = sum(result["attempted"] for result, _ in runs)
        entry = {"why": SPECS[name].why, "ops_failed_share": failed / attempted,
                 "end_to_end": {}, "per_layer": runs[-1][0]["metrics"]}
        for metric in runs[0][0]["metrics"]:
            values = [result["metrics"][metric]["value"]
                      for result, _ in runs[:repeats]
                      if metric in result["metrics"]]
            entry["end_to_end"][metric] = dict(
                _summary(values), unit=runs[0][0]["metrics"][metric]["unit"])
        document["workloads"][name] = entry
        print(f"\n{name}: {SPECS[name].why}")
        print(f"  {'ops_failed_share':34s} {entry['ops_failed_share']:.6g} ratio")
        for metric, summary in entry["end_to_end"].items():
            print(f"  {metric:34s} {summary['median']:.6g} {summary['unit']}"
                  f"  (min {summary['min']:.6g}, max {summary['max']:.6g},"
                  f" n={len(summary['values'])})")
        for metric, measured in entry["per_layer"].items():
            print(f"  {metric:34s} {measured['value']:.6g} {measured['unit']}")
    os.makedirs(RESULTS, exist_ok=True)
    with open(args.out or os.path.join(RESULTS, "suite.json"), "w",
              encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return 0 if all_correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--smoke", action="store_true",
                        help="suite at a twenty-fifth of the size, one repeat")
    parser.add_argument("--out", help="where the suite writes its JSON")
    parser.add_argument("--self-test", action="store_true",
                        help="check the query generator and exit")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--ceiling", type=int, default=CEILING_SECONDS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    from workload import SPECS
    if args.workload is not None and args.workload not in SPECS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(SPECS)}")
    if args.self_test:
        import querygen
        print(json.dumps(querygen.self_test(args.seed)))
        return 0
    if args.child:
        child_main(args)
        return 0
    if args.trace is None:
        return suite(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    result, err = run_child(args.workload, args.seed, args.seconds, args.trace)
    sys.stderr.write(err)
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
