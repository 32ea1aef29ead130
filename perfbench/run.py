"""Benchmark for klmov: every job is a fresh ``python -m klmov`` process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table-large --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

The loop is closed with one client: one child process at a time, the next
started when the previous one has exited.  Every job's exit code, standard
output and standard error are compared with the outputs stored under
``perfbench/expected`` (taken from the seed commit); a mismatch, a crash or a
timeout counts as a failed job.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload's jobs untraced and then through ``traced_klmov.py``, which records
spans at the layer boundaries, and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the run
metadata.  See README.md for the workloads and what each metric means.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected"
TRACED = HERE / "traced_klmov.py"

LAYERS = (
    "cli", "verify", "lmov", "torus", "schur",
    "characters", "partitions", "laurent", "bmw", "rmatrix",
)
SETUP_SAMPLES = 9
# The speed probe's median time on the 2-core Xeon box (2.1 GHz) where the
# benchmark was defined.  End-to-end times are reported at this probe speed.
PROBE_REF_S = 0.07
PROBE_EVERY_S = 1.0  # one probe per second of job time samples the run evenly
JOB_TIMEOUT_S = 60.0
RUN_LIMIT_S = 170.0  # every job is killed by then, so a run ends within 180 s


class Job(NamedTuple):
    """One klmov command and the key of its stored expected output."""

    key: str
    argv: tuple
    cached: bool = False  # gets its own --cache-dir for the character tables


SETUP = Job("setup", ("char-table", "--n", "1"))
TABLE_POOLS = (
    ("t22", ("--torus", "1,1,2", "--bound", "8"), ("4,2|2", "2,2|4", "3,1|2,2")),
    ("t25", ("--torus", "2,5,1"), ("4", "3,1", "2,2")),
    ("t36", ("--torus", "1,2,3"), ("2|2|2", "2|2|1,1", "1,1|2|2")),
)
CTILDE_POOL = ("3|3", "4,2", "2,1|2|1")
CHAR_TABLE = Job("char-table-12", ("char-table", "--n", "12"), cached=True)
SMOKE = (
    Job("smoke-lmov", ("lmov", "--torus", "1,1,2", "--mu", "1|1", "--format", "csv")),
    Job("smoke-char-table", ("char-table", "--n", "4"), cached=True),
)


def table_job(pool, i):
    name, args, mus = TABLE_POOLS[pool]
    return Job(f"lmov-{name}-{i}", ("lmov", *args, "--mu", mus[i], "--format", "csv"))


def ctilde_job(i):
    return Job(f"ctilde-{i}", ("ctilde", "--colors", CTILDE_POOL[i], "--r", "2"), cached=True)


def verify_job(seed):
    return Job("verify-all", ("verify", "--suite", "all", "--seed", str(seed)))


# A workload's plan maps the seeded generator to a unit of work: a list of
# passes, each a list of jobs.  pass_s is the unit's wall time divided by its
# number of passes.  Cached jobs of a later pass in the same unit reuse the
# cache directories the earlier passes filled.


def table_round(rng, seed, k):
    """Three passes that run every pool entry once, in a seeded order.

    The pools' entries differ up to twofold in cost, so a unit covering only
    some of them would make pass_s depend on the seed.
    """
    orders = [rng.sample(range(3), 3) for _ in TABLE_POOLS]
    passes = []
    for i in range(3):
        jobs = [table_job(pool, orders[pool][i]) for pool in range(len(TABLE_POOLS))]
        rng.shuffle(jobs)
        passes.append(jobs)
    return passes


def table_trace(rng, seed):
    return table_round(rng, seed, 0)[:1]


def verify_unit(rng, seed, k):
    return [[verify_job(seed)]]


def verify_trace(rng, seed):
    return verify_unit(rng, seed, 0)


def characters_cold(rng, seed, k):
    """char-table --n 12 and a ctilde job, each with a new empty cache."""
    order = random.Random(seed).sample(range(len(CTILDE_POOL)), len(CTILDE_POOL))
    jobs = [CHAR_TABLE, ctilde_job(order[k % len(CTILDE_POOL)])]
    rng.shuffle(jobs)
    return [jobs]


def characters_trace(rng, seed):
    """The cold pass, then the same jobs reading the caches it wrote."""
    (cold,) = characters_cold(rng, seed, 0)
    return [cold, list(cold)]


def smoke_unit(rng, seed, k):
    return [list(SMOKE)]


def smoke_trace(rng, seed):
    return [list(SMOKE), list(SMOKE)]


class Workload(NamedTuple):
    unit: object  # (rng, seed, k) -> passes of the k-th measured unit
    trace: object  # (rng, seed) -> passes run untraced and traced
    min_units: int


WORKLOADS = {
    "table-large": Workload(table_round, table_trace, 1),
    "verify-all": Workload(verify_unit, verify_trace, 3),
    "characters": Workload(characters_cold, characters_trace, 1),
    "smoke": Workload(smoke_unit, smoke_trace, 2),
}
BENCHMARKED = ("table-large", "verify-all", "characters")

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
MEMO_KEYS = (
    "schur.sb_closed_form", "schur.pb_in_sb", "torus.invariant",
    "lmov.z_coefficient", "lmov.free_energy",
)
LAURENT_CALLS = {
    "laurent.add_calls": ("__add__", "__radd__", "__sub__", "__rsub__"),
    "laurent.mul_calls": ("__mul__", "__rmul__"),
    "laurent.exact_div_calls": ("exact_div", "__truediv__"),
    "laurent.to_z_basis_calls": ("to_z_basis",),
}


def verify_check_names():
    """The 23 check names, read from the stored verify output."""
    text = (EXPECTED / "verify-all.stdout").read_text(encoding="utf-8")
    return [
        line.split()[1] for line in text.splitlines()
        if line.startswith(("PASS ", "FAIL "))
    ]


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    for name in LAURENT_CALLS:
        units[name] = "count"
    units.update({
        "laurent.rationalqt_built": "count",
        "laurent.max_num_terms": "count",
        "laurent.max_den_degree": "count",
        "characters.tables_computed": "count",
        "characters.disk_reads": "count",
        "characters.disk_writes": "count",
        "characters.warm_pass_s": "s",
        "torus.ctilde_s": "s",
        "torus.invariant_calls": "count",
        "lmov.free_energy_s": "s",
        "partitions.splitting_terms": "count",
        "trace.overhead_ratio": "ratio",
    })
    for key in MEMO_KEYS:
        units[f"{key}.hit_ratio"] = "ratio"
        units[f"{key}.hits"] = "count"
        units[f"{key}.calls"] = "count"
    for name in verify_check_names():
        units[f"verify.check_s.{name}"] = "s"
    return units


# -- running one job ---------------------------------------------------------------


class Expectation(NamedTuple):
    exit_code: int
    stdout: bytes


def load_expected(key):
    codes = json.loads((EXPECTED / "exit_codes.json").read_text(encoding="utf-8"))
    return Expectation(codes[key], (EXPECTED / f"{key}.stdout").read_bytes())


def child_env():
    """The caller's environment without klmov's own settings.

    KLMOV_CACHE would point the jobs at a shared character cache and
    KLMOV_PURE would select a kernel; the benchmark sets neither.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("KLMOV_")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Result(NamedTuple):
    wall_s: float
    ok: bool
    problem: str


_PROBE_TERMS = {(i, i % 5): Fraction(i + 1, 7) for i in range(48)}


def probe():
    """Wall time of a fixed sparse product of two Fraction polynomials.

    This is the kind of work klmov's hot paths do, and no program change
    moves it.  The speed of the shared machine drifts by a third within
    minutes, and a job's wall time with it; probes timed between the jobs of
    a run measure the run's mean speed so that it can be divided out.
    """
    start = time.perf_counter()
    out = {}
    for _ in range(10):
        for (a, b), x in _PROBE_TERMS.items():
            for (c, d), y in _PROBE_TERMS.items():
                key = (a + c, b + d)
                v = out.get(key, 0) + x * y
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
    return time.perf_counter() - start


class Runner:
    """Runs jobs one at a time and keeps the run's tallies."""

    def __init__(self, work, deadline):
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.peak_rss_mb = 0.0
        self.expected = {}
        self.probes = None  # a list turns probing on
        self.unprobed_s = 0.0  # job time since the last probe

    def start_probing(self):
        self.probes = [probe()]

    def speed_scale(self):
        """Factor from this run's wall times to times at the reference speed."""
        return PROBE_REF_S / statistics.fmean(self.probes)

    def run(self, job, cache_dir=None, spans=None, job_id=0):
        argv = list(job.argv)
        if cache_dir is not None:
            argv += ["--cache-dir", str(cache_dir)]
        if spans is None:
            cmd = [sys.executable, "-m", "klmov", *argv]
        else:
            cmd = [sys.executable, str(TRACED), str(spans), str(job_id), "--", *argv]
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        timeout = max(0.0, min(JOB_TIMEOUT_S, self.deadline - time.monotonic()))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                env=self.env, cwd=ROOT,
            )
            status, usage, timed_out = _wait(proc, timeout)
            wall = time.perf_counter() - start
        if self.probes is not None:
            self.unprobed_s += wall
            while self.unprobed_s >= PROBE_EVERY_S:
                self.probes.append(probe())
                self.unprobed_s -= PROBE_EVERY_S
        rss_mb = usage.ru_maxrss / 1024.0
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        problem = self.check(job, status, timed_out, out_path, err_path)
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(f"{job.key}: {problem}")
        return Result(wall, not problem, problem)

    def check(self, job, status, timed_out, out_path, err_path):
        if timed_out:
            return "timed out"
        if os.WIFSIGNALED(status):
            return f"killed by signal {os.WTERMSIG(status)}"
        if job.key not in self.expected:
            self.expected[job.key] = load_expected(job.key)
        want = self.expected[job.key]
        code = os.waitstatus_to_exitcode(status)
        if code != want.exit_code:
            return f"exit code {code}, expected {want.exit_code}"
        if out_path.read_bytes() != want.stdout:
            return "standard output differs from the expected output"
        if err_path.stat().st_size:
            return "wrote to standard error"
        return ""


def _wait(proc, timeout):
    """Reap proc with os.wait4, killing it if it outlives timeout."""
    lock = threading.Lock()
    state = {"reaped": False, "killed": False}

    def kill():
        with lock:
            if not state["reaped"]:
                state["killed"] = True
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        with lock:
            state["reaped"] = True
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return status, usage, state["killed"]


def cache_files(path):
    return {p.name for p in path.iterdir() if p.suffix == ".json"}


def run_passes(runner, passes, trace_dir=None):
    """Run a unit of passes; returns its wall time, per-pass times and trace data."""
    caches = {}
    pass_times, traces = [], []
    for jobs in passes:
        elapsed = 0.0
        for job in jobs:
            cache_dir = None
            if job.cached:
                if job.key not in caches:
                    caches[job.key] = Path(tempfile.mkdtemp(prefix="cache-", dir=runner.work))
                cache_dir = caches[job.key]
                before = cache_files(cache_dir)
            spans = None
            if trace_dir is not None:
                spans = trace_dir / f"spans-{len(traces)}.json"
            elapsed += runner.run(job, cache_dir, spans, len(traces)).wall_s
            if spans is not None:
                data = json.loads(spans.read_text(encoding="utf-8")) if spans.exists() else None
                if data is not None and job.cached:
                    data["counters"]["disk_writes"] = len(cache_files(cache_dir) - before)
                traces.append(data)
        pass_times.append(elapsed)
    for path in caches.values():
        shutil.rmtree(path)
    return sum(pass_times), pass_times, traces


# -- metrics --------------------------------------------------------------------------


def measure(runner, workload, seed, seconds, start):
    """End-to-end metrics: set-up samples, then units until the time is used."""
    runner.start_probing()
    setup = [runner.run(SETUP).wall_s for _ in range(SETUP_SAMPLES)]
    rng = random.Random(seed)
    per_pass = []
    k = 0
    while True:
        passes = workload.unit(rng, seed, k)
        unit_s, _, _ = run_passes(runner, passes)
        per_pass.append(unit_s / len(passes))
        k += 1
        elapsed = time.monotonic() - start
        if k >= workload.min_units and elapsed + unit_s > seconds:
            break
        if time.monotonic() + unit_s > runner.deadline:
            break
    scale = runner.speed_scale()
    metrics = {
        "setup_s": statistics.median(setup) * scale,
        "pass_s": statistics.median(per_pass) * scale,
        "peak_rss_mb": runner.peak_rss_mb,
    }
    return metrics, k


def self_times(data):
    """Per-layer self time of one traced job, and per-name busy time and calls."""
    spans = data["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent, job, calls, busy in spans:
        if parent >= 0:
            child[parent] += busy
    self_s = defaultdict(float)
    inclusive = defaultdict(float)
    counts = defaultdict(int)
    for i, (name, start, end, parent, job, calls, busy) in enumerate(spans):
        self_s[name.split(".", 1)[0]] += busy - child[i]
        inclusive[name] += busy
        counts[name] += calls
    return self_s, inclusive, counts


def layer_metrics(traces):
    """Per-layer metrics of one traced unit."""
    out = defaultdict(int)
    counters = defaultdict(int)
    caches = defaultdict(lambda: {"hits": 0, "calls": 0})
    for data in traces:
        self_s, inclusive, counts = self_times(data)
        for layer in LAYERS:
            out[f"{layer}.self_s"] += self_s.get(layer, 0.0)
        for name, span_s in inclusive.items():
            if name.startswith("verify.check:"):
                out[f"verify.check_s.{name.split(':', 1)[1]}"] += span_s
        out["torus.ctilde_s"] += inclusive.get("torus._ctilde_entries", 0.0)
        out["lmov.free_energy_s"] += inclusive.get("lmov.free_energy", 0.0)
        out["torus.invariant_calls"] += counts.get("torus.torus_invariant", 0)
        for metric, methods in LAURENT_CALLS.items():
            out[metric] += sum(
                n for name, n in counts.items()
                if name.startswith("laurent.") and name.rsplit(".", 1)[1] in methods
            )
        for key, value in data["counters"].items():
            if key.startswith("max_"):
                counters[key] = max(counters[key], value)
            else:
                counters[key] += value
        for key, info in data["caches"].items():
            caches[key]["hits"] += info["hits"]
            caches[key]["calls"] += info["calls"]
    out["laurent.rationalqt_built"] = counters["rationalqt_built"]
    out["laurent.max_num_terms"] = counters["max_num_terms"]
    out["laurent.max_den_degree"] = counters["max_den_degree"]
    out["characters.tables_computed"] = counters["tables_computed"]
    out["characters.disk_reads"] = counters["disk_reads"]
    out["characters.disk_writes"] = counters["disk_writes"]
    out["partitions.splitting_terms"] = counters["splitting_terms"]
    for key in MEMO_KEYS:
        hits, calls = caches[key]["hits"], caches[key]["calls"]
        out[f"{key}.hits"] = hits
        out[f"{key}.calls"] = calls
        out[f"{key}.hit_ratio"] = hits / calls if calls else 0.0
    return out


def measure_traced(runner, workload, seed, seconds, start):
    """Per-layer metrics: the trace plan alternately untraced and traced."""
    plain, traced, units = [], [], []
    warm = []
    while True:
        passes = workload.trace(random.Random(seed), seed)
        unit_s, pass_times, _ = run_passes(runner, passes)
        plain.append(unit_s)
        if len(passes) > 1:
            warm.append(pass_times[-1])
        trace_dir = Path(tempfile.mkdtemp(prefix="trace-", dir=runner.work))
        unit_s, _, traces = run_passes(runner, passes, trace_dir)
        shutil.rmtree(trace_dir)
        traced.append(unit_s)
        if any(data is None for data in traces):
            runner.failed += 1
            runner.problems.append("a traced job wrote no spans")
            break
        units.append(layer_metrics(traces))
        elapsed = time.monotonic() - start
        if elapsed + plain[-1] + traced[-1] > seconds:
            break
        if time.monotonic() + plain[-1] + traced[-1] > runner.deadline:
            break
    names = per_layer_units()
    metrics = {}
    for name in names:
        values = [unit.get(name, 0) for unit in units] or [0]
        if name.endswith("_s"):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]  # counts repeat exactly from unit to unit
    metrics["characters.warm_pass_s"] = statistics.median(warm) if warm else 0.0
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return metrics, len(units)


# -- run metadata -----------------------------------------------------------------------


def load_average():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def source_commit():
    """The checkout's commit, when it is a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest():
    """SHA-256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "klmov").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def pin_to_one_cpu():
    """Run this process, its probes and its children on one CPU.

    The probes then sample the CPU the jobs run on.  Returns the number of
    CPUs the process could use before.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    return len(cpus)


# -- command line -------------------------------------------------------------------------------


def run_workload(name, seed, seconds, trace, nproc):
    """One run of one workload: (metrics, attempted, failed, metadata)."""
    workload = WORKLOADS[name]
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench-work"))
    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": source_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": nproc,
        "loadavg_1m_start": load_average(),
    }
    try:
        start = time.monotonic()
        runner = Runner(work, start + RUN_LIMIT_S)
        runner.run(SETUP)  # warm-up: byte-compiles the package once
        if trace:
            metrics, units = measure_traced(runner, workload, seed, seconds, start)
        else:
            metrics, units = measure(runner, workload, seed, seconds, start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench-work").rmdir()
        except OSError:
            pass
    meta.update({
        "units": units,
        "jobs": runner.attempted,
        "error_rate": runner.failed / runner.attempted,
        "probe_s_mean": statistics.fmean(runner.probes) if runner.probes else None,
        "problems": runner.problems,
        "loadavg_1m_end": load_average(),
        "wall_s": time.monotonic() - start,
    })
    return metrics, runner.attempted, runner.failed, meta


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "klmov" / "__init__.py").is_file():
        print(f"error: the klmov sources are not at {SRC}", file=sys.stderr)
        return 2

    nproc = pin_to_one_cpu()
    units = per_layer_units() if args.trace else END_TO_END
    names = BENCHMARKED if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics, metas = {}, []
    for name in names:
        values, n_attempted, n_failed, meta = run_workload(
            name, args.seed, args.seconds, args.trace, nproc
        )
        attempted += n_attempted
        failed += n_failed
        metas.append(meta)
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, unit in units.items():
            metrics[prefix + metric] = {"value": values[metric], "unit": unit}
        for problem in meta["problems"]:
            print(f"FAILED {name} {problem}")
        print(f"{name}: error_rate {meta['error_rate']:.4f} "
              f"({n_failed} of {n_attempted} jobs failed)")
    for metric, entry in metrics.items():
        print(f"{metric} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"meta": metas}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
