"""Benchmark runner for bracealg: closed-loop CLI jobs, timed from outside.

    python3 perfbench/run.py --workload hh-x3 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the root of a source checkout; the package is imported from
``src/``.  One benchmark process runs the workload's job list as fresh
``python -m bracealg.cli ...`` subprocesses (``perfbench/child.py`` for the
public-API periodicity job), one at a time.  Each job is timed from launch
to exit, its peak RSS comes from ``os.wait4``, and its output is checked.
Whole passes over the job list repeat while another pass still fits in
``--seconds``; there is always one.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass (each job once) and reports the per-layer
metrics.  Metric names and units come from BENCHMARK.json.  Human-readable
lines come first; the last line of stdout is the JSON result.  The full
result, with the environment stamp and every sample, is also written to
``perfbench/work/<workload>/result-s<seed>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

import inputs
from tracer import Stat, layer_metrics

WORK = "perfbench/work"
CHILD = "perfbench/child.py"
SETUP_SPAWNS = 9
JOB_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 170.0  # a run must exit within 180 s

HH_DIMENSIONS = {"0": 3, "1": 2, "2": 2, "3": 2, "4": 2, "5": 2}

# sha256 of the report bytes of the fixed-input jobs, recorded when this
# benchmark was added.  Reports are specified to never change.
EXPECTED_SHA256 = {
    "massey": "163b84884ab8878118fd02a646a45746f5bbe8db89af3ae7795207016ae3c296",
    "transfer": "197d563e52d523ba602c0731847008b6aede24479ed763c60b100d7ef3721295",
    "model": "7a99ad8d71fb494caf8b833440b54f645f62d148dc96d29bffc98fcd0a661316",
}
PERIODICITY_STDOUT = b"Omega^2 stable iso: True\nOmega^4 stable iso: True\n"


class Job:
    """One command of a workload's job list.

    ``argv`` follows the interpreter.  ``check(report, stdout)`` returns an
    error text or None.  Every output of jobs that share ``same_as`` (and
    of their traced runs) must be byte-identical within a run.
    """

    def __init__(self, name, metric, argv, check, out=None, reps=1, cli=True, same_as=None):
        self.name = name
        self.metric = metric
        self.argv = argv
        self.check = check
        self.out = out
        self.reps = reps
        self.cli = cli
        self.same_as = same_as or name

    def command(self, trace_out=None):
        """Interpreter arguments; a traced run writes its report beside the
        untraced one (``<out>.traced``) so the two can be compared."""
        argv = list(self.argv)
        if self.out is not None:
            argv += ["--out", self.report_path(trace_out is not None)]
        if trace_out is None:
            return (["-m", "bracealg.cli"] if self.cli else [CHILD]) + argv
        return [CHILD, "--trace-out", trace_out] + (["cli"] if self.cli else []) + argv

    def report_path(self, traced):
        return self.out + (".traced" if traced else "")


def _report(data):
    try:
        return json.loads(data)
    except ValueError:
        return {}


def _digest(name):
    def check(report, stdout):
        got = hashlib.sha256(report).hexdigest()
        if got != EXPECTED_SHA256[name]:
            return "report sha256 %s, expected %s" % (got, EXPECTED_SHA256[name])
        return None

    return check


def _check_hh(report, stdout):
    dims = _report(report).get("hh_dimensions")
    return None if dims == HH_DIMENSIONS else "hh_dimensions %r" % (dims,)


def _check_massey(report, stdout):
    if _report(report).get("tate_unit") is not True:
        return "tate_unit is not true"
    return _digest("massey")(report, stdout)


def _check_periodicity(report, stdout):
    return None if stdout == PERIODICITY_STDOUT else "printed %r" % stdout[:200]


def _check_compare(report, stdout):
    rep = _report(report)
    if rep.get("result") != "isomorphism":
        return "result %r" % rep.get("result")
    if rep.get("residual_digest", {}).get("nonzero_arities") != []:
        return "residual not zero: %r" % rep.get("residual_digest")
    return None


# ---------------------------------------------------------------------------
# Workloads.  Inputs go to WORK/<workload>/ under fixed relative paths,
# because reports embed their input paths.


def hh_x3(seed, wdir, env):
    spec = wdir + "/algebra.json"
    with open(spec, "w") as fh:
        fh.write(inputs.dump_text(inputs.hh_spec(seed)))
    return [
        Job(
            "hh-threads%d" % t,
            "hh_s" if t == 1 else "hh_threads2_s",
            ["hh", spec, "--cap-p", "5", "--threads", str(t)],
            _check_hh,
            out="%s/hh-threads%d.json" % (wdir, t),
            same_as="hh",
        )
        for t in (1, 2)
    ]


def bimodule_x3(seed, wdir, env):
    # The seed is unused: comparison_map_to_periodic assumes basis index 1
    # is x, so the basis of k[x]/(x^n) cannot be reordered here.
    return [
        Job("massey", "massey_s", ["massey", "--n", "6", "--a", "3", "--cap-n", "8"], _check_massey, out=wdir + "/massey.json"),
        Job("periodicity", "periodicity_s", ["periodicity", "3"], _check_periodicity, cli=False),
    ]


def ainfty_x4(seed, wdir, env):
    # The compare dumps are built before timing, in a process of their own.
    proc = subprocess.run(
        [sys.executable, "perfbench/inputs.py", "ainfty", "--seed", str(seed), "--dir", wdir],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=JOB_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError("input generation failed:\n" + proc.stderr.decode(errors="replace")[-2000:])
    return [
        Job("transfer", "transfer_s", ["transfer", "--n", "8", "--a", "4", "--cap-n", "8"], _digest("transfer"), out=wdir + "/transfer.json"),
        Job("model", "model_s", ["model", "--n", "6", "--a", "3"], _digest("model"), out=wdir + "/model.json", reps=3),
        Job(
            "compare-gauge",
            "compare_s",
            ["compare", wdir + "/base.json", wdir + "/gauged.json", "--cap-n", "9"],
            _check_compare,
            out=wdir + "/compare-gauge.json",
            reps=3,
        ),
        Job(
            "compare-perturbed",
            "compare_perturbed_s",
            ["compare", wdir + "/base.json", wdir + "/perturbed.json", "--cap-n", "9"],
            _check_compare,
            out=wdir + "/compare-perturbed.json",
            reps=3,
        ),
    ]


WORKLOADS = {"hh-x3": hh_x3, "bimodule-x3": bimodule_x3, "ainfty-x4": ainfty_x4}


# ---------------------------------------------------------------------------
# Children


def spawn(argv, env, stdout_path, timeout):
    """Run one child to its end: (seconds, peak_rss_mb, exit_code).

    The exit code is None when the child was killed at the timeout.
    """
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, env=env, stdout=out, stderr=err)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    return seconds, usage.ru_maxrss / 1024.0, None if killed.is_set() else proc.returncode


class Runner:
    """Runs jobs of one workload and keeps every sample and failure."""

    def __init__(self, workload, seed, env, deadline):
        self.wdir = "%s/%s" % (WORK, workload)
        self.env = env
        self.deadline = deadline
        self.attempted = 0
        self.failures = []
        self.samples = {}  # metric -> [seconds]
        self.setup_samples = []
        self.peak_rss_mb = 0.0
        self.outputs = {}  # same_as -> first output bytes of this run

    def run_job(self, job, trace_out=None):
        """Run a job once: its seconds, or None when it failed."""
        self.attempted += 1
        remaining = self.deadline - time.monotonic()
        traced = trace_out is not None
        why = None
        if remaining <= 0:
            why = "run deadline reached before launch"
        else:
            stdout_path = "%s/%s%s.stdout" % (self.wdir, job.name, ".traced" if traced else "")
            if job.out is not None and os.path.exists(job.report_path(traced)):
                os.remove(job.report_path(traced))
            seconds, rss, code = spawn(job.command(trace_out), self.env, stdout_path, min(JOB_TIMEOUT_S, remaining))
            if code is None:
                why = "timed out"
            elif code != 0:
                why = "exit code %d" % code
            else:
                report = b""
                if job.out is not None:
                    with open(job.report_path(traced), "rb") as fh:
                        report = fh.read()
                with open(stdout_path, "rb") as fh:
                    stdout = fh.read()
                why = job.check(report, stdout)
                if why is None and self.outputs.setdefault(job.same_as, report + stdout) != report + stdout:
                    why = "output differs from this run's first %s output" % job.same_as
        if why is not None:
            self.failures.append("%s%s: %s" % (job.name, " (traced)" if traced else "", why))
            return None
        if not traced:
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return seconds

    def run_pass(self, jobs, reps=True, trace_dir=None, probes=0):
        """One pass over the job list, repeats interleaved.

        ``probes`` setup spawns are spread over the pass, before job
        launches, so they sample the whole run rather than one moment;
        they are left out of the returned wall seconds.
        """
        rounds = max(j.reps for j in jobs) if reps else 1
        launches = [job for r in range(rounds) for job in jobs if r < job.reps]
        t0 = time.perf_counter()
        probe_s = 0.0
        for i, job in enumerate(launches):
            for _ in range((i + 1) * probes // len(launches) - i * probes // len(launches)):
                probe_s += self.probe_setup()
            trace_out = None if trace_dir is None else "%s/%s.trace.json" % (trace_dir, job.name)
            seconds = self.run_job(job, trace_out)
            if seconds is not None and trace_dir is None:
                self.samples.setdefault(job.metric, []).append(seconds)
        return time.perf_counter() - t0 - probe_s

    def warm_up(self):
        """One untimed `--help` spawn, so the first timed job does not pay
        for compiling the package's bytecode in a fresh checkout."""
        _, _, code = spawn(["-m", "bracealg.cli", "--help"], self.env, self.wdir + "/help.stdout", 60.0)
        if code != 0:
            self.attempted += 1
            self.failures.append("warm-up: --help exit code %r" % code)

    def probe_setup(self):
        """One `python -m bracealg.cli --help` spawn; returns its seconds."""
        self.attempted += 1
        seconds, _, code = spawn(["-m", "bracealg.cli", "--help"], self.env, self.wdir + "/help.stdout", 30.0)
        if code == 0:
            self.setup_samples.append(seconds)
        else:
            self.failures.append("setup: --help exit code %r" % code)
        return seconds


def end_to_end(runner, jobs, seconds):
    walls = [runner.run_pass(jobs, probes=SETUP_SPAWNS)]
    while sum(walls) + walls[-1] <= seconds and not runner.failures:
        walls.append(runner.run_pass(jobs))
    medians = {m: statistics.median(v) for m, v in runner.samples.items()}
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(runner.setup_samples) if runner.setup_samples else math.nan,
        "peak_rss_mb": runner.peak_rss_mb,
        **medians,
        "fail_ratio": len(runner.failures) / runner.attempted,
    }
    return metrics, {"pass_wall_s": walls, "samples": runner.samples, "setup_samples": runner.setup_samples}


def per_layer(runner, jobs):
    untraced_wall = runner.run_pass(jobs, reps=False)
    trace_dir = runner.wdir + "/trace"
    os.makedirs(trace_dir, exist_ok=True)
    for name in os.listdir(trace_dir):
        os.remove(os.path.join(trace_dir, name))
    traced_wall = runner.run_pass(jobs, reps=False, trace_dir=trace_dir)
    by_name = {}
    import_s = []
    for job in jobs:
        path = "%s/%s.trace.json" % (trace_dir, job.name)
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            data = json.load(fh)
        import_s.append(data["import_s"])
        for name, stat in data["by_name"].items():
            by_name.setdefault(name, Stat()).merge(Stat.from_json(stat))
    metrics = layer_metrics(by_name)
    metrics["cli.import_s"] = statistics.median(import_s) if import_s else math.nan
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    metrics["fail_ratio"] = len(runner.failures) / runner.attempted
    return metrics, {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall}


# ---------------------------------------------------------------------------
# Environment stamp


def git_commit():
    """The checkout's commit, read from .git files; 'unknown' without one."""
    try:
        with open(".git/HEAD") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(".git/" + ref):
            with open(".git/" + ref) as fh:
                return fh.read().strip()
        with open(".git/packed-refs") as fh:
            for line in fh:
                parts = line.split()
                if parts[1:] == [ref]:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def environment(workload, seed):
    import importlib.util

    return {
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Entry point


def _unit(spec, name):
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] == name:
            return m["unit"]
    if name == "fail_ratio":
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def run_workload(spec, workload, seed, seconds, trace):
    start = time.monotonic()
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    runner = Runner(workload, seed, env, start + RUN_DEADLINE_S)
    os.makedirs(runner.wdir, exist_ok=True)
    stamp = environment(workload, seed)
    print("env: " + json.dumps(stamp, sort_keys=True))
    runner.warm_up()
    t0 = time.perf_counter()
    jobs = WORKLOADS[workload](seed, runner.wdir, env)
    gen_s = time.perf_counter() - t0
    if trace:
        metrics, detail = per_layer(runner, jobs)
        wanted = [m["name"] for m in spec["per_layer"]]
        for name in wanted:
            metrics.setdefault(name, 0)
    else:
        metrics, detail = end_to_end(runner, jobs, seconds)
        wanted = [m["name"] for m in spec["end_to_end"]]
    print("workload %s seed %d trace %d: %d jobs attempted, %d failed, inputs %.3f s"
          % (workload, seed, trace, runner.attempted, len(runner.failures), gen_s))
    for name, value in metrics.items():
        print("  %-40s %14.6g %s" % (name, value, _unit(spec, name)))
    for why in runner.failures:
        print("  FAILED " + why)
    result = {
        "correct": not runner.failures and all(math.isfinite(metrics[n]) for n in wanted),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": metrics[name], "unit": _unit(spec, name)} for name in wanted},
    }
    with open("%s/result-s%d-t%d.json" % (runner.wdir, seed, trace), "w") as fh:
        json.dump(
            {"env": stamp, "result": result, "all_metrics": metrics, "failures": runner.failures, "inputs_s": gen_s, **detail},
            fh,
            indent=2,
            sort_keys=True,
        )
    return result


def _terminate(signum, frame):
    # Unwinds through spawn(), which kills and reaps the running child.
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile("src/bracealg/cli.py") or not os.path.isfile("BENCHMARK.json"):
        print("error: run from the root of a bracealg source checkout (src/bracealg, BENCHMARK.json)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(spec, w, args.seed, args.seconds, args.trace) for w in names}
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s:%s" % (w, k): v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
