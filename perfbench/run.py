#!/usr/bin/env python3
"""Ocasta benchmark: two named workloads, one command.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload app-reads --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/README.md for why each exists):
  app-reads      in-memory `ocasta_cli serve`, 2 closed-loop connections,
                 99% GET / 1% PUT, Zipf 0.99 over 20,000 preloaded keys
  repair-table4  the paper pipeline in process: the 16 Table III repairs and
                 machine-wide ClusterKeys on the 7 Table I machines they use

The first run builds ocasta_core, ocasta_cli and the benchmark binary
`ocbench` from source (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR
(default .bench_build). --trace 0 prints the end-to-end metrics, --trace 1
the per-layer metrics and the latency budget; every traced run also sends
the workload's writes to a durable --acks quorum leader with one follower
(the persist and replica rows) and checks that the acked values survive.
The last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}; the exit code is non-zero when a correctness check fails.
"""

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
TMP_DIR = ".bench_tmp"
WORKLOADS = ("app-reads", "repair-table4")
# Set-ups per untraced run; setup_s is their median.
SETUPS = {"app-reads": 7, "repair-table4": 3}
WARMUP_S = 0.5
# A daemon run whose measured load lost more than this share of all CPU
# time to the hypervisor (steal, /proc/stat) is run once more from fresh
# set-up, and the repeat is reported: on the reference host steal episodes cut
# whole-run throughput by up to a third while the program did not change.
STEAL_MAX = 0.03
ATTEMPTS = 2
PROBE_REQUESTS = 200
# app-reads does a fixed amount of work: --seconds times this many requests
# (the reference host sustained 60,000-130,000 a second), so the history the
# daemon holds at the end does not depend on how fast the run went.
APP_REQUESTS_PER_S = 60000
# repair-table4 likewise runs a fixed number of passes (a pass takes
# 0.35-0.8 s on the reference host).
PASSES_PER_S = 1.4

END_TO_END = (("ops_per_s", "1/s"), ("latency_us", "us"), ("tail_us", "us"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "ratio"))

PER_LAYER = (
    ("api.encode_ns", "ns"), ("api.decode_ns", "ns"), ("api.reply_codec_ns", "ns"),
    ("loopback.rtt_us", "us"),
    ("server.frame_p50_ns", "ns"), ("server.frames_per_wakeup", "count"),
    ("server.shard_apply_ns", "ns"), ("server.shard_apply_contended_ns", "ns"),
    ("server.locks_per_op", "count"), ("server.unaccounted_us", "us"),
    ("engine.apply_p50_ns", "ns"), ("engine.apply_p99_ns", "ns"),
    ("persist.wal_append_p50_ns", "ns"), ("persist.fsync_p50_us", "us"),
    ("persist.fsync_p99_us", "us"), ("persist.records_per_fsync", "count"),
    ("persist.durable_apply_ns", "ns"), ("persist.write_bytes_per_user_byte", "ratio"),
    ("persist.recovery_s", "s"),
    ("replica.quorum_wait_p50_us", "us"), ("replica.quorum_wait_p99_us", "us"),
    ("replica.lag_records", "count"), ("replica.quorum_timeouts", "count"),
    ("ttkv.keys", "count"), ("ttkv.versions_per_key", "ratio"), ("ttkv.build_ms", "ms"),
    ("clustering.events_ms", "ms"), ("clustering.group_ms", "ms"),
    ("clustering.correlation_ms", "ms"), ("clustering.correlation_par_ms", "ms"),
    ("clustering.hac_ms", "ms"), ("clustering.groups", "count"),
    ("clustering.pairs", "count"), ("clustering.clusters", "count"),
    ("repair.trials", "count"), ("repair.kept_ratio", "ratio"),
    ("repair.noclust_fixed", "count"), ("repair.fix_trials", "count"),
    ("repair.screens_per_fix", "count"),
    ("obs.trace_overhead_pct", "%"),
)


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed correctness check)."""


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


# --- build ------------------------------------------------------------------

def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        raise BenchError("run from the root of an ocasta source checkout (no CMakeLists.txt/src)")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
                  + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "ocbench", "ocasta_cli", "-j", jobs])
    return (os.path.join(BUILD_DIR, "ocbench"),
            os.path.join(BUILD_DIR, "ocasta", "ocasta_cli"))


def run_quiet(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        raise BenchError(f"command failed: {' '.join(cmd)}")


# --- processes --------------------------------------------------------------

def cpu_sets():
    """Daemons on one half of the CPUs, the load generator on the other, so
    the two sides never migrate onto each other's cores mid-run."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 4:
        return None, None
    half = len(cpus) // 2
    return set(cpus[:half]), set(cpus[half:])


DAEMON_CPUS, CLIENT_CPUS = cpu_sets()


_LIBC = ctypes.CDLL(None, use_errno=True)
_PR_SET_PDEATHSIG = 1


def pinned(cpus):
    """preexec_fn for every child: it dies with this process (so no daemon
    outlives an interrupted run) and runs on `cpus` when given."""
    def setup():
        _LIBC.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if cpus:
            os.sched_setaffinity(0, cpus)
    return setup


class Bench:
    def __init__(self, ocbench, cli):
        self.ocbench = ocbench
        self.cli = cli
        self.daemons = []
        self.counter = 0

    def tool(self, *args, check=True, cpus=CLIENT_CPUS):
        """Runs one ocbench subcommand and returns its JSON output."""
        proc = subprocess.run([self.ocbench, *map(str, args)], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=170,
                              preexec_fn=pinned(cpus))
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if check and proc.returncode != 0 or not lines:
            raise BenchError(f"ocbench {args[0]} exited {proc.returncode}")
        out = json.loads(lines[-1])
        out["_exit"] = proc.returncode
        return out

    def fresh_dir(self, name):
        self.counter += 1
        path = os.path.join(TMP_DIR, f"{name}-{self.counter}")
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def spawn(self, flags, data_dir=None, metrics=False):
        """Starts `ocasta_cli serve`; returns the daemon once PING answers."""
        port_file = os.path.join(self.fresh_dir("port"), "port")
        cmd = [self.cli, "serve", "--port", "0", "--port-file", port_file, "--shards", "8",
               "--io-threads", "1", *flags]
        if data_dir:
            cmd += ["--data-dir", data_dir]
        if metrics:
            cmd.append("--metrics")
        return self.launch(cmd, data_dir, port_file)

    def restart(self, daemon):
        """kill -9, then the same command on the same data dir; returns the
        new daemon and the seconds until it answered PING."""
        daemon.kill()
        self.daemons.remove(daemon)
        port_file = daemon.cmd[daemon.cmd.index("--port-file") + 1]
        os.remove(port_file)
        fresh = self.launch(daemon.cmd, daemon.data_dir, port_file)
        return fresh, fresh.ready_s

    def launch(self, cmd, data_dir, port_file):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                preexec_fn=pinned(DAEMON_CPUS))
        daemon = Daemon(proc, cmd, data_dir)
        self.daemons.append(daemon)
        text = ""
        while not text.endswith("\n"):
            if proc.poll() is not None:
                raise BenchError(f"daemon exited {proc.returncode}: {' '.join(cmd)}")
            if time.perf_counter() - t0 > 60:
                raise BenchError("daemon did not bind a port in 60 s")
            time.sleep(0.001)
            if os.path.exists(port_file):
                with open(port_file) as f:
                    text = f.read()
        daemon.port = int(text)
        self.tool("wait", "--port", daemon.port)
        daemon.ready_s = time.perf_counter() - t0
        return daemon

    def stop_all(self):
        for daemon in self.daemons:
            daemon.kill()
        self.daemons = []


class Daemon:
    def __init__(self, proc, cmd, data_dir):
        self.proc = proc
        self.cmd = cmd
        self.data_dir = data_dir
        self.port = 0
        self.ready_s = 0.0

    def proc_field(self, path, field):
        with open(f"/proc/{self.proc.pid}/{path}") as f:
            for line in f:
                if line.startswith(field):
                    return int(line.split()[1])
        raise BenchError(f"no {field} in /proc/{self.proc.pid}/{path}")

    def peak_rss_mb(self):
        return self.proc_field("status", "VmHWM:") / 1024.0

    def write_bytes(self):
        return self.proc_field("io", "write_bytes:")

    def kill(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()


# --- workloads ---------------------------------------------------------------

# The durable probe's daemons group-commit with fdatasync and take no
# periodic checkpoint.
DURABLE_FLAGS = ["--fsync", "batch"]


def start_app_daemon(bench, metrics):
    """Spawns the in-memory app-reads daemon and preloads every key.

    Returns (daemon, set-up seconds)."""
    t0 = time.perf_counter()
    daemon = bench.spawn([], metrics=metrics)
    bench.tool("preload", "--port", daemon.port)
    return daemon, time.perf_counter() - t0


def cpu_ticks():
    """(steal, total) CPU ticks of the whole machine so far."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:]]
    return ticks[7], sum(ticks)


def load(bench, seed, port, seconds):
    """Runs app-reads' `ocbench load`; its result carries the steal share."""
    # Write back dirty pages left by earlier runs first.
    os.sync()
    args = ["load", "--workload", "app-reads", "--seed", seed, "--port", port,
            "--requests", int(seconds * APP_REQUESTS_PER_S),
            "--warmup-requests", int(WARMUP_S * APP_REQUESTS_PER_S),
            "--max-seconds", 4 * seconds + 10]
    steal0, total0 = cpu_ticks()
    run = bench.tool(*args)
    steal1, total1 = cpu_ticks()
    run["steal_share"] = (steal1 - steal0) / max(total1 - total0, 1)
    return run


def add_checks(checks, attempted, failed):
    checks["attempted"] += attempted
    checks["failed"] += failed


def probe(bench, workload, seed, durable):
    """Sends PROBE_REQUESTS of the workload's write requests to a daemon
    that runs the layers the workload itself does not: an in-memory daemon
    (server and engine rows of repair-table4), or a durable --acks quorum
    leader with one follower (persist and replica rows of both workloads).

    On the durable pair it also checks that every acked value reads back
    from the follower, and from the leader after a kill -9 and a restart on
    the same data dir. Returns the probe's figures and checks."""
    if durable:
        leader = bench.spawn(DURABLE_FLAGS + ["--acks", "quorum", "--quorum-followers", "1"],
                             bench.fresh_dir("probe-leader"), metrics=True)
        follower = bench.spawn(["--follow", f"127.0.0.1:{leader.port}", "--follower-id",
                                "probe", *DURABLE_FLAGS], bench.fresh_dir("probe-follower"))
    else:
        leader = bench.spawn([], metrics=True)
    acked = os.path.join(TMP_DIR, "acked.tsv")
    bytes0 = leader.write_bytes()
    run = bench.tool("load", "--workload", workload, "--seed", seed, "--port", leader.port,
                     "--requests", PROBE_REQUESTS, "--writes-only", "--acked-out", acked)
    out = {"run": run, "scrape": bench.tool("scrape", "--port", leader.port),
           "write_bytes": leader.write_bytes() - bytes0,
           "checks": {"attempted": 0, "failed": 0}}
    add_checks(out["checks"], run["attempted"], run["failed"])
    if durable:
        verify = bench.tool("verify", "--port", follower.port, "--acked", acked)
        add_checks(out["checks"], verify["checked"], verify["mismatches"])
        leader, out["recovery_s"] = bench.restart(leader)
        verify = bench.tool("verify", "--port", leader.port, "--acked", acked)
        add_checks(out["checks"], verify["checked"], verify["mismatches"])
        print(f"{workload}: durable probe: {run['write_ns_count']} quorum-acked PUTs, p50 "
              f"{run['write_ns_p50'] / 1e3:.2f} us; {verify['checked']} acked keys read back "
              f"from the follower and from the leader after kill -9 (restart answered PING "
              f"after {out['recovery_s']:.3f} s)")
    bench.stop_all()
    return out


def hist(scrape, name, stat):
    return float(scrape.get(f"{name}_{stat}", 0.0))


def layer_metrics(workload, own, layers, probes):
    """Maps scraped counters and in-process replays onto the PER_LAYER
    names. `own` is the app-reads daemon's scrape (empty for repair-table4)."""
    server = own if workload == "app-reads" else probes["server"]["scrape"]
    durable = probes["durable"]
    persist = durable["scrape"]
    op = "get" if workload == "app-reads" else "put"
    m = {k: layers[k] for k in ("api.encode_ns", "api.decode_ns", "api.reply_codec_ns",
                                "loopback.rtt_us", "server.shard_apply_ns",
                                "server.shard_apply_contended_ns", "persist.durable_apply_ns",
                                "ttkv.build_ms", "clustering.events_ms", "clustering.group_ms",
                                "clustering.correlation_ms", "clustering.correlation_par_ms",
                                "clustering.hac_ms", "clustering.groups", "clustering.pairs",
                                "clustering.clusters")}
    m["server.frame_p50_ns"] = hist(server, "ocasta_loop_frame_ns", "p50")
    m["server.frames_per_wakeup"] = hist(server, "ocasta_loop_dispatch_width", "mean")
    ops = server.get("stats.puts", 0) + server.get("stats.gets", 0)
    m["server.locks_per_op"] = server.get("stats.lock_acquisitions", 0) / max(ops, 1)
    m["engine.apply_p50_ns"] = hist(server, f"ocasta_engine_apply_ns.op={op}", "p50")
    m["engine.apply_p99_ns"] = hist(server, f"ocasta_engine_apply_ns.op={op}", "p99")
    m["persist.wal_append_p50_ns"] = hist(persist, "ocasta_wal_append_ns.fsync=batch", "p50")
    m["persist.fsync_p50_us"] = hist(persist, "ocasta_wal_fsync_ns.fsync=batch", "p50") / 1e3
    m["persist.fsync_p99_us"] = hist(persist, "ocasta_wal_fsync_ns.fsync=batch", "p99") / 1e3
    m["persist.records_per_fsync"] = (persist.get("ocasta_wal_records_total", 0)
                                      / max(persist.get("ocasta_wal_flushes_total", 0), 1))
    m["persist.write_bytes_per_user_byte"] = (
        durable["write_bytes"] / max(durable["run"]["user_write_bytes"], 1))
    m["persist.recovery_s"] = durable["recovery_s"]
    quorum_wait = "ocasta_replication_quorum_wait_ns"
    m["replica.quorum_wait_p50_us"] = hist(persist, quorum_wait, "p50") / 1e3
    m["replica.quorum_wait_p99_us"] = hist(persist, quorum_wait, "p99") / 1e3
    m["replica.lag_records"] = persist.get("ocasta_replication_lag_records", 0)
    m["replica.quorum_timeouts"] = persist.get("ocasta_replication_quorum_timeouts_total", 0)
    if workload == "repair-table4":
        for k in ("ttkv.keys", "ttkv.versions_per_key", "repair.trials", "repair.kept_ratio",
                  "repair.noclust_fixed", "repair.fix_trials", "repair.screens_per_fix"):
            m[k] = layers[k]
    else:
        m["ttkv.keys"] = own["stats.keys"]
        m["ttkv.versions_per_key"] = own["stats.writes"] / max(own["stats.keys"], 1)
        for k in ("repair.trials", "repair.kept_ratio", "repair.noclust_fixed",
                  "repair.fix_trials", "repair.screens_per_fix"):
            m[k] = 0
    return m


def budget(title, what, p50_us, layers, m):
    """Latency budget: top-level rows that add up, with server.unaccounted_us
    as the remainder of the client-observed p50."""
    rows = [
        ("client encode (api.encode_ns)", layers["api.encode_ns"] / 1e3),
        ("client reply decode (part of api.reply_codec_ns)", layers["api.reply_decode_ns"] / 1e3),
        ("loopback round trip (loopback.rtt_us)", layers["loopback.rtt_us"]),
        ("server decode->reply (server.frame_p50_ns)", m["server.frame_p50_ns"] / 1e3),
    ]
    nested = [
        ("request decode (api.decode_ns)", layers["api.decode_ns"] / 1e3),
        ("shard apply, 1 thread (server.shard_apply_ns)", layers["server.shard_apply_ns"] / 1e3),
        ("engine apply p50 (engine.apply_p50_ns)", m["engine.apply_p50_ns"] / 1e3),
        ("reply encode (part of api.reply_codec_ns)", layers["api.reply_encode_ns"] / 1e3),
    ]
    unaccounted = p50_us - sum(v for _, v in rows)
    lines = [f"latency budget for {title}: {what} = {p50_us:.2f} us"]
    for name, v in rows:
        lines.append(f"  {name:<52} {v:10.3f} us  {100 * v / p50_us:6.1f}%")
    for name, v in nested:
        lines.append(f"    of which {name:<43} {v:10.3f} us")
    lines.append(f"  {'server.unaccounted_us':<52} {unaccounted:10.3f} us  "
                 f"{100 * unaccounted / p50_us:6.1f}%")
    lines.append(f"  {'= ' + what:<52} {p50_us:10.3f} us")
    print("\n".join(lines))
    return unaccounted


def run_app(bench, seed, seconds, trace):
    """The app-reads workload; returns (metrics, checks, correct)."""
    checks = {"attempted": 0, "failed": 0}
    if trace:
        # Untraced then traced halves: their throughput difference is the
        # tracing overhead; the traced half feeds the layer rows.
        base, _ = start_app_daemon(bench, metrics=False)
        plain = load(bench, seed, base.port, seconds / 2)
        bench.stop_all()
        target, _ = start_app_daemon(bench, metrics=True)
        run = load(bench, seed, target.port, seconds / 2)
        own = bench.tool("scrape", "--port", target.port)
        bench.stop_all()
        for r in (plain, run):
            add_checks(checks, r["attempted"], r["failed"])
        layers = bench.tool("layers", "--seed", seed,
                            "--scratch", os.path.join(TMP_DIR, "layers"), cpus=None)
        probes = {"durable": probe(bench, "app-reads", seed, durable=True)}
        add_checks(checks, **probes["durable"]["checks"])
        metrics = layer_metrics("app-reads", own, layers, probes)
        p50_us = run["read_ns_p50"] / 1e3
        metrics["server.unaccounted_us"] = budget(
            f"app-reads (traced half, {run['read_ns_count']} GETs)", "read_p50_us", p50_us,
            layers, metrics)
        plain_ops = plain["win_ops_per_s"]
        metrics["obs.trace_overhead_pct"] = (100.0 * (plain_ops - run["win_ops_per_s"])
                                             / plain_ops)
        return metrics, checks, checks["failed"] == 0 and layers["_exit"] == 0

    for attempt in range(ATTEMPTS):
        setups = []
        for i in range(SETUPS["app-reads"]):
            if i > 0:
                bench.stop_all()
            target, setup_s = start_app_daemon(bench, metrics=False)
            setups.append(setup_s)
        run = load(bench, seed, target.port, seconds)
        # Every attempt's requests count, the discarded one's too.
        add_checks(checks, run["attempted"], run["failed"])
        if run["steal_share"] <= STEAL_MAX or attempt == ATTEMPTS - 1:
            break
        log(f"{run['steal_share']:.1%} of CPU time was stolen during the measured load; "
            "running it again")
        bench.stop_all()
    # tail_us is the p99, the highest percentile with at least ten samples
    # beyond it in every window. GET latency has a second mode holding
    # 10-30% of GETs; the p90 jumped between the two modes (by 36% between
    # sets of runs of unchanged code), the p99 stays in the second.
    metrics = {
        "ops_per_s": run["win_ops_per_s"],
        "latency_us": run["read_ns_win_p50"] / 1e3,
        "tail_us": run["read_ns_win_p99"] / 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": target.peak_rss_mb(),
        "ok_frac": 1.0 - checks["failed"] / max(checks["attempted"], 1),
    }
    bench.stop_all()
    print(f"app-reads: {100 * run['steal_share']:.1f}% CPU steal during the measured load")
    print(f"app-reads: {run['read_ns_count']} GET samples in {run['windows']} windows; whole run "
          f"p50 {run['read_ns_p50'] / 1e3:.2f} us, p90 {run['read_ns_p90'] / 1e3:.2f} us, "
          f"p99 {run['read_ns_p99'] / 1e3:.2f} us")
    print(f"app-reads: {run['write_ns_count']} PUT samples, p50 "
          f"{run['write_ns_p50'] / 1e3:.2f} us, p99 {run['write_ns_p99'] / 1e3:.2f} us")
    return metrics, checks, checks["failed"] == 0


def repair_passes(bench, seed, passes, trace, setups):
    """Runs `ocbench repair` (unpinned: its nproc-thread clustering check
    may use every CPU) and prints what it found."""
    out = bench.tool("repair", "--seed", seed, "--passes", passes, "--trace", int(trace),
                     "--setups", setups, "--scratch", os.path.join(TMP_DIR, "repair"),
                     check=False, cpus=None)
    print(f"repair-table4: {out['passes']} passes, {out['call_ns_count']} pipeline calls; "
          f"whole run p50 {out['call_ns_p50'] / 1e3:.0f} us, "
          f"p90 {out['call_ns_p90'] / 1e3:.0f} us; best times: "
          f"{out['best_repair_ns_mean'] / 1e3:.0f} us per repair, "
          f"{out['best_cluster_ns_mean'] / 1e3:.0f} us per machine-wide ClusterKeys, "
          f"{out['best_slowest_quarter_ns_mean'] / 1e3:.0f} us per call of the slowest quarter; "
          f"Ocasta fixed {out['repair.fixed']}/16, NoClust {out['repair.noclust_fixed']}/16; "
          f"{out['repair.fix_trials']:.1f} trials (~{out['repair.fix_min']:.1f} modelled min) "
          f"and {out['repair.screens_per_fix']:.2f} screenshots per fix; peak RSS "
          f"{out['peak_rss_mb']:.1f} MB after the warm-up pass, {out['peak_rss_end_mb']:.1f} MB "
          f"at the end")
    return out


def run_repair(bench, seed, seconds, trace):
    """The repair-table4 workload; returns (metrics, checks, correct)."""
    passes = max(5, int(seconds * PASSES_PER_S))
    checks = {"attempted": 0, "failed": 0}
    if trace:
        # Untraced then traced halves, as for app-reads.
        runs = [repair_passes(bench, seed, max(3, passes // 2), t, 1) for t in (False, True)]
    else:
        runs = [repair_passes(bench, seed, passes, False, SETUPS["repair-table4"])]
    correct = True
    for out in runs:
        add_checks(checks, out["calls"], (16 - out["repair.fixed"]) + out["bad_passes"])
        correct = correct and out["_exit"] == 0 and out["repair.noclust_fixed"] == 11
    out = runs[-1]
    if not trace:
        metrics = {
            "ops_per_s": out["best_calls_per_s"],
            "latency_us": out["best_repair_ns_mean"] / 1e3,
            "tail_us": out["best_slowest_quarter_ns_mean"] / 1e3,
            "setup_s": out["setup_s"],
            "peak_rss_mb": out["peak_rss_mb"],
            "ok_frac": out["repair.fixed"] / 16.0,
        }
        return metrics, checks, correct and checks["failed"] == 0
    probes = {"server": probe(bench, "repair-table4", seed, durable=False),
              "durable": probe(bench, "repair-table4", seed, durable=True)}
    for p in probes.values():
        add_checks(checks, **p["checks"])
    metrics = layer_metrics("repair-table4", {}, out, probes)
    server_run = probes["server"]["run"]
    metrics["server.unaccounted_us"] = budget(
        f"repair-table4's probe ({server_run['write_ns_count']} trace PUTs)", "write_p50_us",
        server_run["write_ns_p50"] / 1e3, out, metrics)
    plain = runs[0]["best_calls_per_s"]
    metrics["obs.trace_overhead_pct"] = 100.0 * (plain - out["best_calls_per_s"]) / plain
    return metrics, checks, correct and checks["failed"] == 0


def host_facts():
    def first(path, prefix):
        try:
            with open(path) as f:
                for line in f:
                    if line.startswith(prefix):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"
    cxx = subprocess.run(["c++", "--version"], stdout=subprocess.PIPE, text=True).stdout
    fs = subprocess.run(["df", "-T", "."], stdout=subprocess.PIPE, text=True).stdout.split()
    return {"nproc": os.cpu_count(), "cpu_model": first("/proc/cpuinfo", "model name"),
            "kernel": platform.release(), "compiler": cxx.splitlines()[0] if cxx else "unknown",
            "build_type": "Release (-O2)", "data_dir_fs": fs[-6] if len(fs) >= 7 else "unknown"}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--host-facts", action="store_true",
                        help="print this host's facts as JSON and exit")
    args = parser.parse_args()
    if args.host_facts:
        print(json.dumps(host_facts(), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    # A terminated run still stops its daemons and removes its scratch data.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    bench = None
    try:
        ocbench, cli = build()
        shutil.rmtree(TMP_DIR, ignore_errors=True)
        os.makedirs(TMP_DIR)
        bench = Bench(ocbench, cli)
        run = run_repair if args.workload == "repair-table4" else run_app
        metrics, checks, correct = run(bench, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as e:
        log(f"error: {e}")
        return 2
    finally:
        if bench is not None:
            bench.stop_all()
        shutil.rmtree(TMP_DIR, ignore_errors=True)

    units = dict(PER_LAYER if args.trace else END_TO_END)
    missing = [name for name in units if name not in metrics]
    if missing:
        log(f"error: metrics not measured: {missing}")
        return 2
    for name, unit in units.items():
        print(f"  {name:<36} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(checks["attempted"]),
        "failed": int(checks["failed"]),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
