#!/usr/bin/env python3
"""Wall-clock benchmark of the four-process TCP ordering cluster.

  python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1

Run from the repository root. Builds bft_node, the load process and the
layer replay from source into .bench_build/perfbench (skipped when the
sources are unchanged), launches four `bft_node` processes (n = 4, f = 1,
--workers 2) and one load process on loopback with no injected delay, and
prints one JSON line last: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. See perfbench/README.md.
"""

import argparse
import ctypes
import hashlib
import json
import os
import re
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNS = ROOT / ".bench_runs"

# Block size, envelope bytes, closed-loop window or open-loop rate, storage.
WORKLOADS = {
    # Blocks of 100 small envelopes: request handling and the signed WRITE
    # phase dominate; block signing runs once per 100 envelopes.
    "order_b100_40B": dict(block=100, bytes=40, window=400, rate=0, durable=False),
    # Bytes dominate: SHA-256, codec copies, WAL append + fsync, checkpoints.
    # The fixed rate stays under a third of this workload's closed-loop
    # saturation on the reference host (README.md).
    "durable_b100_4KiB": dict(block=100, bytes=4096, window=0, rate=1000, durable=True),
}
NODES = [0, 1, 2, 3]
FRONTEND_ID = 100
# The load process names the node to kill and how many times (loadgen.cpp).
DOWN_S = 0.5            # SIGKILL to restart
SETTLE_S = 0.5          # a rejoined node runs this long before the next kill
RUN_TIMEOUT_S = 170


class Abort(Exception):
    pass


def fail(msg):
    raise Abort(msg)


def on_signal(signum, _frame):
    raise Abort("stopped by signal %d" % signum)


# --- build ---------------------------------------------------------------

def source_stamp():
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*")) + [ROOT / "examples" / "bft_node.cpp"]
    files += sorted(p for p in HERE.iterdir() if p.suffix in (".cpp", ".hpp", ".txt"))
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "examples" / "bft_node.cpp").is_file():
        fail("repository sources not found next to %s" % HERE.name)
    stamp = source_stamp()
    stamp_file = BUILD / "source.stamp"
    if stamp_file.is_file() and stamp_file.read_text() == stamp:
        return
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    with open(log, "w") as out:
        for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 2)]):
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                fail("build failed: " + " ".join(cmd))
    stamp_file.write_text(stamp)


# --- processes -----------------------------------------------------------

def _die_with_parent():
    # PR_SET_PDEATHSIG: a child outlives no SIGKILL of this script.
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)


class Procs:
    """Every child joins one process group, torn down on every exit path."""

    def __init__(self):
        self.pgid = None
        self.children = []

    def spawn(self, args, **kw):
        pgid = self.pgid or 0
        p = subprocess.Popen(args, process_group=pgid, preexec_fn=_die_with_parent, **kw)
        if self.pgid is None:
            self.pgid = p.pid
        self.children.append(p)
        return p

    def teardown(self):
        if self.pgid is not None:
            try:
                os.killpg(self.pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for p in self.children:
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass


def free_ports(n):
    socks = []
    for _ in range(n):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


def wait_for_line(path, pattern, timeout, proc=None):
    deadline = time.monotonic() + timeout
    rx = re.compile(pattern)
    while True:
        if path.exists():
            m = rx.search(path.read_text(errors="replace"))
            if m:
                return m
        if proc is not None and proc.poll() is not None:
            fail("%s exited before printing %r" % (path.name, pattern))
        if time.monotonic() > deadline:
            fail("%s never printed %r" % (path.name, pattern))
        time.sleep(0.001)


def steal_ticks():
    """CPU time the hypervisor gave to other guests (/proc/stat), in ticks."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8])


def host_reference():
    """A fixed OpenSSL SHA-256 loop over 16 MiB that uses no program code,
    timed in ms (median of 5), so host drift can be told apart from a
    program change."""
    buf = bytes(range(256)) * 4096  # 1 MiB
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(16):
            hashlib.sha256(buf).digest()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


# --- one run -------------------------------------------------------------

def trimmed_mean(values):
    """Mean without the lowest and the highest value. A catch-up takes one
    or two state-transfer rounds, so single cycles are bimodal; a median of
    a few cycles flips between the modes, this moves smoothly."""
    values = sorted(values)[1:-1] if len(values) > 2 else values
    return statistics.mean(values)


def pct(sorted_values, q):
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def node_banner_totals(logs):
    totals = {}
    for node, path in logs.items():
        m = re.search(r"stopped \(ordered (\d+) envelopes\)", path.read_text())
        if not m:
            fail("node %d printed no stop banner" % node)
        totals[node] = int(m.group(1))
    return totals


def node_metrics(path):
    for line in path.read_text().splitlines():
        if line.startswith("{") and '"counters"' in line:
            return json.loads(line)
    fail("%s has no --metrics export" % path.name)


def run(workload, seed, seconds, trace, procs, run_dir):
    w = WORKLOADS[workload]
    seed &= (1 << 63) - 1
    host_before = host_reference() if trace else None

    ports = free_ports(len(NODES) + 1)
    cfg = run_dir / "cluster.cfg"
    cfg.write_text("".join("node %d 127.0.0.1:%d\n" % (n, ports[n]) for n in NODES)
                   + "frontend %d 127.0.0.1:%d\n" % (FRONTEND_ID, ports[-1]))

    def node_args(n):
        args = [str(BUILD / "bft_node"), "--config", str(cfg), "--id", str(n),
                "--block-size", str(w["block"]), "--workers", "2"]
        if w["durable"]:
            args += ["--data-dir", str(run_dir / "data" / ("node-%d" % n)),
                     "--fsync", "group"]
        else:
            args += ["--data-dir", "none"]
        if trace:
            args += ["--metrics"]
        return args

    ready = r"storage: .*replayed=(\d+) wal_tail=(\d+)" if w["durable"] else r"listening on"
    errors = []
    logs, nodes = {}, {}
    t_spawn = time.monotonic_ns()
    for n in NODES:
        logs[n] = run_dir / ("node%d.log" % n)
        with open(logs[n], "w") as out:
            nodes[n] = procs.spawn(node_args(n), stdout=out, stderr=subprocess.STDOUT)
    for n in NODES:
        wait_for_line(logs[n], ready, 30, nodes[n])

    out_dir = run_dir / "out"
    out_dir.mkdir()
    load_args = [str(BUILD / "loadgen"), "--config", str(cfg),
                 "--out", str(out_dir), "--seed", str(seed), "--bytes", str(w["bytes"]),
                 "--seconds", str(seconds),
                 "--node-pids", ",".join(str(nodes[n].pid) for n in NODES)]
    load_args += ["--window", str(w["window"])] if w["window"] else ["--rate", str(w["rate"])]
    with open(run_dir / "loadgen.err", "w") as err:
        load = procs.spawn(load_args, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                           stderr=err, text=True)
    summary, restart_log, replay_s, replayed = None, None, [], []
    fault_node, steal = None, []
    for line in load.stdout:
        line = line.strip()
        if line.startswith(("window_start", "window_end")):
            steal.append(steal_ticks())
        elif line.startswith("fault_ready"):
            fault_node = int(line.split()[1])
            if fault_node not in NODES[1:]:
                fail("load process asked to kill node %d" % fault_node)
            time.sleep(SETTLE_S)
            nodes[fault_node].kill()
            nodes[fault_node].wait()
            time.sleep(DOWN_S)
            restart_log = run_dir / ("node%d-restart%d.log" % (fault_node, len(replay_s)))
            with open(restart_log, "w") as out:
                t_restart = time.monotonic_ns()
                nodes[fault_node] = procs.spawn(node_args(fault_node), stdout=out,
                                                stderr=subprocess.STDOUT)
            load.stdin.write("restarted %d %d\n" % (fault_node, t_restart))
            load.stdin.flush()
            banner = wait_for_line(restart_log, ready, 30, nodes[fault_node])
            replay_s.append((time.monotonic_ns() - t_restart) / 1e9)
            if w["durable"]:
                replayed.append(int(banner.group(1)))
                if int(banner.group(2)) == 0:
                    errors.append("restarted node found no WAL on disk: " + banner.group(0))
        elif line.startswith("{"):
            summary = json.loads(line)
    if load.wait() != 0 or summary is None:
        fail("load process failed: " + (run_dir / "loadgen.err").read_text()[-2000:])
    if fault_node is None:
        fail("load process ran no fault cycle")

    logs[fault_node] = restart_log
    for n in NODES:
        nodes[n].send_signal(signal.SIGTERM)
    for n in NODES:
        try:
            nodes[n].wait(timeout=20)
        except subprocess.TimeoutExpired:
            fail("node %d did not stop on SIGTERM" % n)
    node_life_ns = time.monotonic_ns() - t_spawn
    totals = node_banner_totals(logs)

    # --- independent output checks ---
    if w["durable"] and not any(replayed):
        # One restart replays nothing when its kill lands just after a
        # checkpoint; all of them doing so means recovery ignored the WAL.
        errors.append("no restart replayed WAL records: replayed=%s" % replayed)
    attempted = summary["attempted"]
    chain_errors, decoded = check.check_chain(check.read_blocks(out_dir / "blocks.bin"))
    env_errors, counts = check.check_envelopes(
        decoded, check.Envelopes(seed, w["bytes"]), attempted)
    errors += chain_errors + env_errors
    delivered = sum(counts)
    errors += check.check_totals(totals, delivered)

    # --- metrics from the raw per-envelope records ---
    raw = (out_dir / "envelopes.bin").read_bytes()
    if len(raw) != attempted * 28:
        fail("envelopes.bin holds %d bytes for %d envelopes" % (len(raw), attempted))
    ws, we = summary["window_start_ns"], summary["window_end_ns"]
    slices = len(summary["cpu_slices_s"])
    deadline_ns = summary["deadline_ns"]
    latencies, failed = [], 0
    slice_tx = [0] * slices
    slice_lat = [[] for _ in range(slices)]
    for i, (due, _submitted, got, _n) in enumerate(struct.iter_unpack("<qqqI", raw)):
        late = got == 0 or got - due > deadline_ns
        if late or counts[i] != 1:
            failed += 1
        if ws <= got < we:
            slice_tx[(got - ws) * slices // (we - ws)] += 1
        if ws <= due < we and not late:
            latencies.append((got - due) / 1e6)
            slice_lat[(due - ws) * slices // (we - ws)].append(latencies[-1])
    latencies.sort()
    window_s = (we - ws) / 1e9
    in_window = sum(slice_tx)
    if in_window == 0 or not latencies:
        fail("nothing delivered in the measured window")
    for e in errors[:20]:
        sys.stderr.write("check failed: %s\n" % e)
    steal_pct = 100.0 * (steal[1] - steal[0]) / (
        os.sysconf("SC_CLK_TCK") * (os.cpu_count() or 1) * window_s)
    sys.stderr.write("perfbench: host steal %.2f%% of CPU time in the window\n" % steal_pct)

    # Medians over 1 s slices of the window: a second in which the host ran
    # slow moves them less than it moves whole-window figures.
    slice_s = window_s / slices
    metrics = {
        "throughput_tps": (statistics.median(slice_tx) / slice_s, "tx/s"),
        "latency_p50_ms": (pct(latencies, 0.50), "ms"),
        "latency_p99_ms": (statistics.median(pct(sorted(v), 0.99) for v in slice_lat), "ms"),
        "cpu_us_per_tx": (statistics.median(
            cpu * 1e6 / max(1, tx) for cpu, tx in zip(summary["cpu_slices_s"], slice_tx)),
            "us"),
        "node_rss_mb": (summary["node_hwm_mb"], "MB"),
        "setup_s": ((summary["probe_ns"] - t_spawn) / 1e9, "s"),
        "catchup_s": (trimmed_mean(
            [(c - r) / 1e9 for c, r in zip(summary["caught_up_ns"], summary["restart_ns"])]),
            "s"),
    }
    if trace:
        # The traced run's own end-to-end figures: their distance from an
        # untraced run's is the tracing overhead.
        traced = {"traced." + k: metrics[k] for k in
                  ("throughput_tps", "latency_p50_ms", "cpu_us_per_tx")}
        metrics = layer_metrics(w, seed, summary, logs, ports, window_s, delivered,
                                replay_s, replayed, node_life_ns, run_dir)
        metrics.update(traced)
        metrics["host.ref_sha256_ms"] = (host_before, "ms")
        metrics["host.ref_sha256_after_ms"] = (host_reference(), "ms")
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def remove_stale_runs():
    """Run directories left by a run that was SIGKILLed (its children die
    with it, see _die_with_parent) are removed by the next run."""
    for d in RUNS.iterdir():
        try:
            os.kill(int(d.name.split("-")[-2]), 0)
        except (ValueError, IndexError):
            continue
        except ProcessLookupError:
            shutil.rmtree(d, ignore_errors=True)
        except PermissionError:
            pass


def layer_metrics(w, seed, summary, logs, ports, window_s, delivered, replay_s,
                  replayed, node_life_ns, run_dir):
    """Per-layer figures of a traced run: node exports (--metrics), /proc,
    the load process's spans and the layer replay."""
    fault_node = summary["fault_node"]
    exports = {n: node_metrics(logs[n]) for n in NODES}
    steady = [n for n in NODES if n != fault_node]  # whole-run exports
    leader = exports[0]

    def counter(export, name):
        return export["counters"].get(name, 0)

    def hist(export, name, q):
        # Quantiles are bucket midpoints that can exceed the observed max.
        h = export["histograms"].get(name)
        return min(h[q], h["max"]) if h and h["count"] else 0.0

    ordered = counter(leader, "ordering.envelopes_ordered") or delivered
    per_1k = 1000.0 / ordered
    dead_port = "transport.send_dropped_to_127_0_0_1_%d" % ports[fault_node]
    dropped = sum(counter(exports[n], "transport.send_dropped")
                  - counter(exports[n], dead_port) for n in NODES)
    workers = leader["gauges"].get("runner.workers", 2) or 2
    rejoined = exports[fault_node]
    record_bytes = int(w["bytes"] * max(1.0, ordered / max(1, counter(leader, "smr.batches_decided"))))
    replay = subprocess.run(
        [str(BUILD / "layer_replay"), "--seed", str(seed), "--bytes", str(w["bytes"]),
         "--block-size", str(w["block"]), "--record-bytes", str(record_bytes),
         "--dir", str(run_dir / "replay-wal")],
        capture_output=True, text=True, timeout=60)
    if replay.returncode != 0:
        fail("layer replay failed: " + replay.stderr[-2000:])
    lay = json.loads(replay.stdout.strip().splitlines()[-1])

    m = {
        "crypto.ecdsa_sign_us": (lay["crypto.ecdsa_sign_us"], "us"),
        "crypto.ecdsa_verify_us": (lay["crypto.ecdsa_verify_us"], "us"),
        "crypto.sha256_4KiB_us": (lay["crypto.sha256_4KiB_us"], "us"),
        "ledger.data_hash_us": (lay["ledger.data_hash_us"], "us"),
        "ledger.block_encode_us": (lay["ledger.block_encode_us"], "us"),
        "smr.instances_per_1k_tx": (counter(leader, "smr.batches_decided") * per_1k, "count"),
        "smr.propose_to_write_quorum_ms_p50":
            (hist(leader, "smr.propose_to_write_quorum_ns", "p50") / 1e6, "ms"),
        "smr.write_quorum_to_decide_ms_p50":
            (hist(leader, "smr.write_quorum_to_decide_ns", "p50") / 1e6, "ms"),
        "smr.regency_changes": (max(counter(exports[n], "smr.regency_changes")
                                    for n in NODES), "count"),
        "smr.state_transfers": (counter(rejoined, "smr.state_transfers"), "count"),
        "smr.state_chunks_received": (counter(rejoined, "smr.state_chunks_received"), "count"),
        "ordering.blocks_per_1k_tx": (counter(leader, "ordering.blocks_cut") * per_1k, "count"),
        "ordering.cut_markers_per_1k_tx":
            (sum(counter(exports[n], "ordering.cut_markers") for n in steady) * per_1k, "count"),
        "ordering.sign_ms_p50": (hist(leader, "ordering.sign_ns", "p50") / 1e6, "ms"),
        "runner.worker_util":
            (counter(leader, "runner.worker_busy_ns") / (workers * node_life_ns), "1"),
        "runner.reorder_wait_us_p50": (hist(leader, "runner.reorder_wait_ns", "p50") / 1e3, "us"),
        "transport.bytes_out_per_tx":
            (statistics.mean(counter(exports[n], "transport.bytes_out") for n in steady)
             / ordered, "B"),
        "transport.frames_out_per_tx":
            (statistics.mean(counter(exports[n], "transport.frames_out") for n in steady)
             / ordered, "count"),
        "transport.send_dropped": (dropped, "count"),
        "runtime.inbox_dropped": (sum(counter(exports[n], "runtime.inbox_dropped")
                                      for n in NODES), "count"),
        "storage.wal_append_us": (lay["storage.wal_append_us"], "us"),
        "storage.fsync_ms_p99": (hist(leader, "storage.fsync_ns", "p99") / 1e6, "ms"),
        "storage.checkpoint_bytes_per_tx":
            (counter(leader, "storage.checkpoint_bytes") / ordered, "B"),
        "storage.replay_s": (statistics.median(replay_s) if w["durable"] else 0.0, "s"),
        "storage.replayed_blocks": (statistics.median(replayed) if replayed else 0, "count"),
        "frontend.submit_us": (summary["submit_us_p50"], "us"),
        "frontend.pushes_per_block":
            (summary["window_pushes"] / max(1, summary["window_blocks"]), "count"),
        "node.cores_busy": (summary["node_cpu_s"] / window_s, "cores"),
        "node.leader_cpu_share": (summary["leader_cpu_s"] / summary["node_cpu_s"], "1"),
        "loadgen.late_ms_p99": (summary["late_ms_p99"], "ms"),
    }
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be 1..60")

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP, signal.SIGALRM):
        signal.signal(sig, on_signal)
    procs = Procs()
    run_dir = None
    try:
        build()
        signal.alarm(RUN_TIMEOUT_S)
        RUNS.mkdir(exist_ok=True)
        remove_stale_runs()
        run_dir = RUNS / ("%s-%d-%d" % (args.workload, os.getpid(), time.time_ns()))
        run_dir.mkdir()
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     procs, run_dir)
    except Abort as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 1
    finally:
        signal.alarm(0)
        procs.teardown()
        if run_dir is not None:
            shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
