#!/usr/bin/env python3
"""End-to-end benchmark of perfvar: `trace_tool` on four pinned workloads.

Run from the root of a checkout:

    python3 benchmark/run.py --workload scale-skewed --seed 1 --seconds 20 --trace 0

The first run configures and builds a Release tree of the repository plus
the harness (benchmark/harness.cpp) into $CARGO_TARGET_DIR, or
.bench_build when that is unset. Every run then

1. generates the workload's inputs from --seed (timed: setup_s) and
   computes the reference reports in process, at 1 thread, eager;
2. with --trace 0, times `trace_tool analyze|lint|critpath` children in a
   closed loop and, between cycles, drives a `trace_tool serve` daemon
   with the harness's load generator and times more input generations,
   checking every output against the references;
   with --trace 1, runs the harness's traced per-layer sweep instead, plus
   a few end-to-end samples to attribute the time;
3. prints one JSON object as its last stdout line:
   {"correct", "attempted", "failed", "metrics"}.

Every workload reports every metric of its run kind; serve-stream spends
most of its run on the daemon, the batch workloads about half. Timings
pool the samples of the batch children and stream rounds that lost the
least CPU time to other guests of the host. benchmark/README.md defines
every metric.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# Per workload: lazy flags on the batch commands, the share of --seconds
# spent on batch commands, and the number of stream rounds driven through
# the daemon between them (a round takes about 3.2 s). The round count is
# fixed, not timed: the daemon's state after N rounds is then the same
# every run.
WORKLOADS = {
    "scale-skewed": {"lazy": False, "batch_share": 0.6, "rounds": 4},
    "scale-lazy": {"lazy": True, "batch_share": 0.6, "rounds": 4},
    "paper-64": {"lazy": False, "batch_share": 0.6, "rounds": 4},
    "serve-stream": {"lazy": False, "batch_share": 0.4, "rounds": 6},
}
# setup_s: the median of the generation in `setup` and of SETUP_SAMPLES
# more, spread evenly over the batch phase, plus the median of
# DAEMON_STARTS daemon starts. Host noise comes in periods of 0.2-0.8 s, so
# generations made back to back all time the same period.
SETUP_SAMPLES = 9
DAEMON_STARTS = 9
SPAWN_TIMEOUT_S = 60
ROUND_TIMEOUT_S = 60
DAEMON_READY_S = 10
DAEMON_DRAIN_S = 5


class BenchError(Exception):
    """The benchmark cannot produce a result (no result line is printed)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cpu_times():
    """Aggregate (steal, total) jiffies of the host CPUs, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return None


def steal_share(before, after):
    """Share of CPU time the hypervisor gave to other guests in between."""
    if before is None or after is None:
        return 0.0
    return (after[0] - before[0]) / max(1, after[1] - before[1])


def quieter_half(blocks):
    """Pool the samples of the (steal share, samples) blocks that lost no
    more CPU time to other guests than the median block: at least half of
    them, and every block that lost none. Steal on a shared 4-vCPU host
    slowed whole runs by up to 30%; timing only the quieter half keeps the
    medians comparable between runs and between commits."""
    cut = statistics.median(steal for steal, _ in blocks)
    pooled = {}
    for steal, samples in blocks:
        if steal <= cut:
            for name, values in samples.items():
                pooled.setdefault(name, []).extend(values)
    return pooled


def quieter_by_slot(rounds, key):
    """Samples of `key` chosen per slot of the schedule: at each slot, those
    of the quieter half of the rounds by the steal read around that one
    request. Append time grows about 25-fold along the stream, so choosing
    per slot keeps the mix of early and late appends the same whatever the
    steal, and a round that lost time in a few requests keeps the rest."""
    kept = []
    for slot in zip(*(zip(r[key + "_steal"], r[key]) for r in rounds)):
        kept.extend(quieter_half([(steal, {key: [ms]}) for steal, ms in slot])[key])
    return kept


def p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


class Ledger:
    """Counts attempted and failed operations; keeps the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def merge(self, result):
        self.attempted += int(result.get("attempted", 0))
        self.failed += int(result.get("failed", 0))
        self.failures.extend(result.get("failures", [])[: max(0, 20 - len(self.failures))])


# ---- build -----------------------------------------------------------------

def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, "configure", env)
    run_quiet(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
               "--target", "trace_tool", "perfvar_bench_harness"], "build", env)
    build_type = ""
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.strip().split("=", 1)[1]
    if build_type != "Release":
        raise BenchError(f"refusing to report from a '{build_type}' build; "
                         "the benchmark needs CMAKE_BUILD_TYPE=Release")
    tool = os.path.join(build_dir, "perfvar", "examples", "trace_tool")
    harness = os.path.join(build_dir, "perfvar_bench_harness")
    for exe in (tool, harness):
        if not os.access(exe, os.X_OK):
            raise BenchError(f"build did not produce {exe}")
    return tool, harness, build_type


def run_quiet(cmd, what, env):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
    if proc.returncode != 0:
        log(proc.stdout.decode(errors="replace")[-4000:])
        raise BenchError(f"{what} failed ({proc.returncode})")


def harness_json(argv, timeout, cwd=None):
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=timeout, cwd=cwd)
    if proc.returncode != 0:
        log(proc.stderr.decode(errors="replace")[-4000:])
        raise BenchError(f"harness {argv[1]} exited {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


# ---- batch commands --------------------------------------------------------

def spawn(argv, stderr_path):
    """Run one child; returns (exit code or None on timeout, stdout, ms, maxrss KiB)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(SPAWN_TIMEOUT_S, proc.kill)
        timer.start()
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        timer.cancel()
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        return None, out, elapsed_ms, usage.ru_maxrss
    return proc.returncode, out, elapsed_ms, usage.ru_maxrss


def batch_commands(tool, workload, run_dir, threads, manifest):
    trace_path = os.path.join(run_dir, "trace.pvt")
    # The same shard budget as the harness's traced run.
    lazy = (["--lazy", "--shard-budget-mb", str(int(manifest["shard_budget_mb"]))]
            if WORKLOADS[workload]["lazy"] else [])

    def cmd(nthreads, verb):
        return [tool, "--threads", str(nthreads)] + lazy + [verb, trace_path]

    return {
        "analyze": cmd(threads, "analyze"),
        "analyze_1t": cmd(1, "analyze"),
        "lint": cmd(threads, "lint"),
        "critpath": cmd(threads, "critpath"),
    }


def run_batch(tool, workload, run_dir, threads, manifest, seconds, ledger,
              order=("analyze", "analyze_1t", "analyze", "lint", "analyze", "critpath"),
              min_cycles=3, interludes=()):
    """Closed loop, one child at a time. Returns, per command, the samples
    of the quieter half of its children (steal is read around each child),
    and the largest child maxrss (MiB).

    `interludes` are (share, callable) pairs sorted by share: each callable
    runs once between cycles, when that share of `seconds` has been spent
    on cycles. Their time does not count against `seconds`."""
    commands = batch_commands(tool, workload, run_dir, threads, manifest)
    refs = {}
    for name in commands:
        ref = "analyze" if name == "analyze_1t" else name
        with open(os.path.join(run_dir, f"ref_{ref}.txt"), "rb") as f:
            refs[name] = f.read()
    expected_exit = {"analyze": 0, "analyze_1t": 0, "critpath": 0,
                     "lint": int(manifest["lint_exit"])}
    blocks = {name: [] for name in order}
    cycles = 0
    maxrss = 0
    stderr_path = os.path.join(run_dir, "child.err")
    pending = list(interludes)
    start = time.perf_counter()
    paused = 0.0
    while cycles < min_cycles or time.perf_counter() - start - paused < seconds:
        now = time.perf_counter()
        if pending and now - start - paused >= pending[0][0] * seconds:
            pending.pop(0)[1]()
            paused += time.perf_counter() - now
            continue
        for name in order:
            before = cpu_times()
            code, out, ms, rss = spawn(commands[name], stderr_path)
            steal = steal_share(before, cpu_times())
            ok = ledger.check(code == expected_exit[name] and out == refs[name],
                              f"{name}: exit {code}, output "
                              f"{'matches' if out == refs[name] else 'differs from'} the reference")
            if ok:
                blocks[name].append((steal, {name: [ms]}))
            maxrss = max(maxrss, rss)
        cycles += 1
    for _, interlude in pending:
        interlude()
    samples = {name: quieter_half(b)[name] for name, b in blocks.items()}
    return samples, maxrss / 1024.0


# ---- daemon ----------------------------------------------------------------

class Daemon:
    """`trace_tool serve` in its own directory; the socket path is relative.

    The daemon runs with its default `--threads 1`: each connection's
    requests run on that connection's thread."""

    def __init__(self, tool, directory, window_bytes):
        self.dir = directory
        os.makedirs(os.path.join(directory, "journal"))
        self.log = open(os.path.join(directory, "daemon.log"), "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [tool, "serve", "d.sock",
             "--journal-dir", "journal", "--reorder-window-bytes", str(window_bytes)],
            cwd=directory, stdout=self.log, stderr=subprocess.STDOUT)
        try:
            self.ready_s = self._wait_ready(start)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self.log.close()
            raise

    def _wait_ready(self, start):
        sock_path = os.path.relpath(os.path.join(self.dir, "d.sock"))
        deadline = start + DAEMON_READY_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited {self.proc.returncode} before accepting")
            if os.path.exists(sock_path):
                probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    probe.connect(sock_path)
                    return time.perf_counter() - start
                except OSError:
                    pass
                finally:
                    probe.close()
            time.sleep(0.002)
        raise BenchError(f"daemon socket not accepting after {DAEMON_READY_S} s")

    def vm_hwm_mib(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def journal_mib(self):
        total = 0
        for base, _, files in os.walk(os.path.join(self.dir, "journal")):
            total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
        return total / (1024.0 * 1024.0)

    def stop(self):
        """SIGTERM drains; kill after a deadline. Returns True on a clean drain."""
        clean = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=DAEMON_DRAIN_S)
            except subprocess.TimeoutExpired:
                clean = False
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return clean and self.proc.returncode == 0


def start_daemons(tool, run_dir, manifest, count):
    """Start `count` daemons one after another (the first count-1 are
    stopped at once: they only time start-up); returns (live daemon, times)."""
    times = []
    daemon = None
    for i in range(count):
        daemon = Daemon(tool, os.path.join(run_dir, f"daemon-{i}"),
                        int(manifest["window_bytes"]))
        times.append(daemon.ready_s)
        if i + 1 < count:
            daemon.stop()
    return daemon, times


class Stream:
    """The harness's load generator on the daemon, over one set of
    connections. Each `round()` drives one stream round."""

    def __init__(self, harness, daemon, run_dir):
        self.rounds = []
        with open(os.path.join(run_dir, "stream.err"), "wb") as err:
            self.proc = subprocess.Popen(
                [harness, "stream", "--dir", os.path.abspath(run_dir), "--socket", "d.sock"],
                cwd=daemon.dir, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err)

    def _read(self, send):
        """Send (a round request, or None to end input), then read a line."""
        timer = threading.Timer(ROUND_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            if send is None:
                self.proc.stdin.close()
                lines = self.proc.stdout.read().strip().splitlines()
                return lines[-1] if lines else b""
            self.proc.stdin.write(send)
            self.proc.stdin.flush()
            return self.proc.stdout.readline()
        finally:
            timer.cancel()

    def round(self):
        self.rounds.append(json.loads(self._read(b"go\n")))

    def finish(self, ledger, rounds):
        """Ends the stream. Returns the samples of the quieter half of the
        rounds (appends and live queries: per slot of the schedule; burst
        ingest: of all rounds) and the error and drop counts."""
        result = json.loads(self._read(None))
        self.proc.wait()
        ledger.merge(result)
        ledger.check(len(self.rounds) == rounds, "stream rounds cut short")
        by_slot = {key: quieter_by_slot(self.rounds, key) for key in ("append_ms", "query_ms")}
        blocks = [(r.pop("steal_share"), r) for r in self.rounds]
        samples = quieter_half(blocks)
        samples.update(by_slot)
        # Burst ingest falls over a daemon's first rounds, so it pools every
        # round: picking rounds by steal would mix daemon ages.
        samples["ingest_mev_s"] = [v for _, r in blocks for v in r["ingest_mev_s"]]
        samples.update({k: result[k] for k in ("error_frames", "alerts_dropped")})
        return samples

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


# ---- runs ------------------------------------------------------------------

def end_to_end(tool, harness, workload, run_dir, threads, manifest, seconds,
               daemon, ledger, generate):
    """Batch cycles, with the setup generations and the stream rounds spread
    evenly between them. The host's speed moves in periods of seconds:
    consecutive stream rounds ran alike, and with all rounds after the batch
    phase the daemon metrics spread up to 0.23 between seeds."""
    batch_s = seconds * WORKLOADS[workload]["batch_share"]
    rounds = WORKLOADS[workload]["rounds"]
    loadgen = Stream(harness, daemon, run_dir)
    try:
        interludes = sorted(
            [(i / SETUP_SAMPLES, generate) for i in range(SETUP_SAMPLES)]
            + [((i + 0.5) / rounds, loadgen.round) for i in range(rounds)],
            key=lambda interlude: interlude[0])
        samples, batch_rss = run_batch(tool, workload, run_dir, threads, manifest,
                                       batch_s, ledger, interludes=interludes)
        stream = loadgen.finish(ledger, rounds)
    finally:
        loadgen.close()
    daemon_rss = daemon.vm_hwm_mib()
    metrics = {
        "analyze_ms": statistics.median(samples["analyze"]),
        "analyze_p90_ms": p90(samples["analyze"]),
        "analyze_1t_ms": statistics.median(samples["analyze_1t"]),
        "lint_ms": statistics.median(samples["lint"]),
        "critpath_ms": statistics.median(samples["critpath"]),
        "append_ms": statistics.median(stream["append_ms"]),
        "append_p90_ms": p90(stream["append_ms"]),
        "alert_latency_ms": statistics.median(stream["alert_ms"]),
        "live_query_ms": statistics.median(stream["query_ms"]),
        "ingest_mev_s": statistics.median(stream["ingest_mev_s"]),
        "peak_rss_mib": daemon_rss if workload == "serve-stream" else batch_rss,
        "daemon_busy_share": statistics.median(stream["busy_share"]),
    }
    counts = {name: len(v) for name, v in samples.items()}
    counts.update({k: len(stream[k]) for k in ("append_ms", "alert_ms", "query_ms", "ingest_mev_s")})
    return metrics, counts


def traced(tool, harness, workload, run_dir, threads, manifest, seconds,
           daemon, ledger, generate):
    layers = harness_json(
        [harness, "layers", "--dir", run_dir, "--seconds", str(seconds * 0.6)]
        + (["--lazy"] if WORKLOADS[workload]["lazy"] else []),
        timeout=seconds + 150)
    ledger.merge(layers)
    samples, _ = run_batch(tool, workload, run_dir, threads, manifest,
                           seconds * 0.25, ledger,
                           order=("analyze", "analyze_1t"), min_cycles=5)
    loadgen = Stream(harness, daemon, run_dir)
    try:
        loadgen.round()
        stream = loadgen.finish(ledger, 1)
    finally:
        loadgen.close()
    analyze_ms = statistics.median(samples["analyze"])
    load = layers["trace.open_lazy_ms" if WORKLOADS[workload]["lazy"] else "trace.load_ms"]
    spans = (load + layers["profile.ms"] + layers["dominant.ms"]
             + layers["sos_variation.ms"] + layers["export.analyze_ms"])
    metrics = dict(layers)
    metrics.update({
        "pool.parallel_efficiency":
            statistics.median(samples["analyze_1t"]) / (threads * analyze_ms),
        "server.wire_us": statistics.median(stream["append_ms"]) * 1000.0 - layers["server.handle_us"],
        "server.journal_mib": daemon.journal_mib(),
        "server.alerts_dropped": stream["alerts_dropped"],
        "server.error_frames": layers["server.error_frames"] + stream["error_frames"],
        "loadgen.late_p90_ms": p90(stream["late_ms"]),
        "daemon_busy_share": statistics.median(stream["busy_share"]),
        "unattributed_ms": analyze_ms - spans,
    })
    return metrics, {"layer_reps": layers["reps"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        log("run from the root of a perfvar checkout (CMakeLists.txt and src/ not found)")
        return 2
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    threads = os.cpu_count() or 1
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [(m["name"], m["unit"]) for m in spec["per_layer" if args.trace else "end_to_end"]]
        tool, harness, build_type = build(build_dir)
        scratch = os.path.join(root, ".bench_run")
        os.makedirs(scratch, exist_ok=True)
        run_dir = os.path.relpath(tempfile.mkdtemp(prefix="run-", dir=scratch), root)
        daemon = None
        try:
            manifest = harness_json(
                [harness, "setup", "--workload", args.workload, "--seed", str(args.seed),
                 "--dir", run_dir], timeout=170)
            ledger = Ledger()
            ledger.merge(manifest)
            daemon, start_times = start_daemons(tool, run_dir, manifest, DAEMON_STARTS)
            generations = [manifest["setup_s"]]

            def generate():
                generations.append(harness_json(
                    [harness, "generate", "--workload", args.workload,
                     "--seed", str(args.seed), "--dir", os.path.join(run_dir, "gen")],
                    timeout=170)["setup_s"])

            run = traced if args.trace else end_to_end
            cpu_before = cpu_times()
            metrics, counts = run(tool, harness, args.workload, run_dir, threads,
                                  manifest, args.seconds, daemon, ledger, generate)
            cpu_after = cpu_times()
            if not args.trace:
                metrics["setup_s"] = (statistics.median(generations)
                                      + statistics.median(start_times))
                counts["setup_generations"] = len(generations)
            ledger.check(daemon.stop(), "daemon did not drain on SIGTERM")
            daemon = None
        finally:
            if daemon is not None:
                daemon.stop()
            shutil.rmtree(run_dir, ignore_errors=True)
        result = {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                        for name, unit in names},
        }
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError, statistics.StatisticsError) as e:
        log(f"benchmark failed: {e!r}")
        return 1

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "build_type": build_type, "compiler": manifest["compiler"], "nproc": threads,
        "input": {k: manifest[k] for k in (
            "ranks", "events", "file_bytes", "stream_ranks", "stream_events",
            "stream_file_bytes", "stream_chunks", "stream_alerts")},
        "samples": counts, "failures": ledger.failures,
        # Reported, not gated: on a shared 4-vCPU host the tail of a
        # 4-thread analyze follows the hypervisor more than the program.
        "analyze_p90_ms": None if args.trace else metrics["analyze_p90_ms"],
        # Share of the open-loop append schedule the daemon spent serving
        # appends (benchmark/README.md, "Stream schedule").
        "daemon_busy_share": metrics["daemon_busy_share"],
        # Share of CPU time the hypervisor gave to other guests while
        # measuring: a high value explains a slow run.
        "steal_share": steal_share(cpu_before, cpu_after),
    }
    print(json.dumps({"info": info}))
    log(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
