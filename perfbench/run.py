#!/usr/bin/env python3
"""The repo benchmark: `cvg serve` end to end on three workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run builds `cvg` and
`perfbench_probe` into .bench_build (or $CARGO_TARGET_DIR).  The command
starts `cvg serve` on a Unix socket, drives it from this single-threaded
client for --seconds, checks every response against an in-process reference
computed by perfbench_probe, and prints as its last line one JSON object:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Everything it writes goes under .perfbench_out/.  See perfbench/README.md.
"""

import argparse
import bisect
import gc
import glob
import json
import os
import random
import selectors
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
OUT = ".perfbench_out"
CVG = os.path.join(BUILD, "bench", "cvg")
PROBE = os.path.join(BUILD, "bin", "perfbench_probe")

# Deep enough that a burst of arrivals behind two long cells on a slowed
# machine waits instead of being refused as queue_full.
SERVER_QUEUE = 256
# With four or more CPUs the server (reactor + its --threads workers, at
# most two) runs on three and this client on a fourth, so they never compete
# for a core.
ALL_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPUS = set(ALL_CPUS[:3]) if len(ALL_CPUS) >= 4 else None
CLIENT_CPUS = {ALL_CPUS[3]} if len(ALL_CPUS) >= 4 else None
# A fixed mmap threshold: glibc otherwise raises it after the first large
# free, and whether later lane planes come from mmap or a worker's arena
# (and stay resident) then depends on request order, so VmHWM would too.
SERVER_ENV = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")
SLICE_S = 2.0           # throughput and CPU metrics are medians over slices this long
SETUP_SPAWNS = 7        # setup_s takes the median spawn-to-first-answer
DRAIN_TIMEOUT_S = 20.0  # unanswered after this counts as failed

# convergecast-sweep: lane-eligible policies x oblivious adversaries; per
# (policy, adversary) two sweeps on the L2-resident plane and one on the 16x
# larger plane for an eighth of the steps (64 lanes x 4-byte heights: 1 MiB
# and 16 MiB).  Each closed-loop connection has its own stream: the first
# sends the small sweeps, the second the large ones, with equal work per
# round, so every sweep runs beside one of the other size.
CC_POLICIES = ["odd-even", "tree-odd-even", "downhill-or-flat", "greedy"]
CC_ADVERSARIES = ["random-uniform", "random-leaf", "fixed-deepest"]
CC_STREAMS = [[("path:4096", 1024), ("path:4096", 1024)], [("path:65536", 128)]]
CC_SEEDS = 64

ROUTE_POLICIES = ["route-greedy", "route-odd-even", "grid-emps", "line-emr"]
ROUTE_GRID_TRAFFIC = ["random-uniform", "transpose", "hotspot"]
ROUTE_LINE_TRAFFIC = ["random-uniform", "hotspot", "corner-flood"]
# Streams as above: grids on the first connection, the line on the second.
ROUTE_STREAMS = [[("grid:16x16", ROUTE_GRID_TRAFFIC), ("grid:24x24", ROUTE_GRID_TRAFFIC)],
                 [("line:1024", ROUTE_LINE_TRAFFIC)]]
ROUTE_STEPS = 1024
ROUTE_SEEDS = 16

# interactive-mixed: the small-run key space (3072 keys) is larger than the
# server's --cache-entries, so Zipf draws mix hits with misses and evictions.
# A cell is at most MIX_MAX_NODE_STEPS nodes x steps (some 25 ms), so one long
# cell cannot hold both workers long enough to back up the arrivals behind it.
MIX_TOPOLOGIES = [("path:64", 64), ("path:128", 128), ("path:256", 256), ("path:512", 512),
                  ("spider:4x16", 65), ("spider:8x16", 129), ("spider:16x32", 513)]
MIX_MAX_NODE_STEPS = 300_000
MIX_POLICIES = CC_POLICIES
MIX_ADVERSARIES = ["random-uniform", "random-leaf", "staged-l1"]
MIX_STEPS = [512, 1024, 2048]
MIX_SEEDS = 16
MIX_ZIPF_S = 1.1
MIX_ROUTE_TOPOLOGIES = [("grid:8x8", ROUTE_GRID_TRAFFIC), ("grid:12x12", ROUTE_GRID_TRAFFIC),
                        ("line:64", ROUTE_LINE_TRAFFIC), ("line:128", ROUTE_LINE_TRAFFIC)]
MIX_ROUTE_SEEDS = 4
MIX_ROUTE_STEPS = 512
MIX_WARMUP = 600
MIX_TRACE_REQUESTS = 6000

# `threads` is the server's --threads.  The sweeps keep one worker busy, not
# two: on a shared 4-vCPU VM two compute-bound workers ran into the VM's CPU
# share, and stolen time then spread their wall-clock figures over ten seeds
# by 20-30% of the median (quartile distance); with one worker, by 4-13%.
# interactive-mixed is not in BENCHMARK.json (its sub-millisecond latencies
# follow the host's scheduling delays; see README.md) but runs the same way
# by hand.
WORKLOADS = {
    "convergecast-sweep": {"loop": "closed", "clients": 2, "threads": 1,
                           "cache_entries": 4096, "slo_ms": 2000.0},
    "route-sweep": {"loop": "closed", "clients": 2, "threads": 1,
                    "cache_entries": 4096, "slo_ms": 2000.0},
    "interactive-mixed": {"loop": "open", "rate": 1000.0, "clients": 4, "threads": 2,
                          "cache_entries": 1024, "slo_ms": 10.0},
}

END_TO_END = [
    ("setup_s", "s"), ("job_latency_p50_ms", "ms"), ("job_latency_tail_ms", "ms"),
    ("jobs_per_s", "1/s"), ("node_steps_per_s", "1/s"), ("server_cpu_ms_per_job", "ms"),
    ("server_peak_rss_mb", "MB"), ("ok_share", "ratio"), ("slo_met_share", "ratio"),
]

PER_LAYER_UNITS = {
    "serve.reactor.stats_rtt_us_p50": "us", "serve.reactor.overhead_us_p50": "us",
    "serve.job.parse_us": "us", "serve.job.format_us": "us",
    "serve.cache.lookup_us": "us", "serve.cache.insert_us": "us",
    "serve.cache.hit_ratio": "ratio", "serve.cache.insertions": "count",
    "serve.cache.evictions": "count", "serve.service.process_us_p50": "us",
    "serve.service.exec_share": "ratio", "parallel.pool.queue_wait_us_p99": "us",
    "parallel.pool.busy_share": "ratio", "parallel.pool.queue_full": "count",
    "topology.build_us": "us", "adversary.unroll_ms_per_block": "ms",
    "adversary.plan_ns_per_step": "ns", "sim.lanes.ns_per_lane_node_step": "ns",
    "sim.lanes.lane_fill": "ratio", "sim.scalar.ns_per_node_step": "ns",
    "route.ns_per_node_step": "ns", "route.traffic.plan_ns_per_step": "ns",
    "corpus.load_us": "us", "corpus.replay_us": "us", "bench.gen_lag_us_p99": "us",
    "trace.overhead_share": "ratio", "trace.coverage_share": "ratio",
    "work.requests_attempted": "count", "work.cells_computed": "count",
    "work.cells_cached": "count", "work.node_steps": "count",
    "work.cache_hits": "count", "work.cache_misses": "count",
    "work.cache_insertions": "count", "work.cache_evictions": "count",
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def now_ns():
    return time.perf_counter_ns()


# ------------------------------------------------------------------ build

def build():
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "build.log"), "a") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.relpath(HERE), "-B", BUILD,
                          "-DCVG_BUILD_TESTS=OFF", "-DCVG_BUILD_EXAMPLES=OFF",
                          "-DCVG_WERROR=OFF"])
        steps.append(["cmake", "--build", BUILD, "--target", "cvg", "perfbench_probe",
                      "-j", "4"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                fail("build failed (%s); see %s/build.log" % (" ".join(cmd[:2]), OUT))


# -------------------------------------------------------------- workloads

def sweep(topology, policy, adversary, steps, seeds):
    return {"op": "sweep", "topologies": [topology], "policies": [policy],
            "adversary": adversary, "steps": steps, "seeds": seeds, "cache": False}


def cc_streams(rng):
    streams = []
    for shapes in CC_STREAMS:
        stream = [sweep(topology, policy, adversary, steps,
                        rng.sample(range(1, 1 << 31), CC_SEEDS))
                  for policy in CC_POLICIES for adversary in CC_ADVERSARIES
                  for topology, steps in shapes]
        rng.shuffle(stream)
        streams.append(stream)
    return streams


def route_streams(rng):
    streams = []
    for shapes in ROUTE_STREAMS:
        stream = [sweep(topology, policy, traffic, ROUTE_STEPS,
                        rng.sample(range(1, 1 << 31), ROUTE_SEEDS))
                  for topology, traffics in shapes for policy in ROUTE_POLICIES
                  for traffic in traffics]
        rng.shuffle(stream)
        streams.append(stream)
    return streams


class Mix:
    """The interactive-mixed request generator."""

    def __init__(self, rng):
        # Zipf rank r holds a key of class r mod len(classes), in one fixed
        # class order, so every seed sees the same cost profile per rank;
        # the seed picks which simulation seed each class serves at a rank.
        classes = [(t, p, a, s) for t, nodes in MIX_TOPOLOGIES for p in MIX_POLICIES
                   for a in MIX_ADVERSARIES for s in MIX_STEPS
                   if nodes * s <= MIX_MAX_NODE_STEPS]
        random.Random(0).shuffle(classes)
        seeds = [rng.sample(range(1, MIX_SEEDS + 1), MIX_SEEDS) for _ in classes]
        self.keys = [classes[c] + (seeds[c][k],)
                     for k in range(MIX_SEEDS) for c in range(len(classes))]
        total, self.cdf = 0.0, []
        for rank in range(len(self.keys)):
            total += 1.0 / (rank + 1) ** MIX_ZIPF_S
            self.cdf.append(total)
        self.route_keys = [(t, p, tr, MIX_ROUTE_STEPS, seed)
                           for t, traffics in MIX_ROUTE_TOPOLOGIES for p in ROUTE_POLICIES
                           for tr in traffics for seed in range(1, MIX_ROUTE_SEEDS + 1)]
        self.corpus = sorted(glob.glob("tests/corpus/*.cvgc"))
        if not self.corpus:
            fail("no tests/corpus/*.cvgc entries in this checkout")

    def requests(self, rng, n):
        """n requests: exactly 70/10/10/10 percent run/route/replay/stats in
        random order, small-run keys by stratified Zipf sampling (one
        uniform draw per n-quantile), so runs differ in order and keys but
        not in how often each Zipf rank comes up."""
        kinds = [k * 10 // n for k in range(n)]
        rng.shuffle(kinds)
        runs = sum(1 for kind in kinds if kind < 7)
        strata = list(range(runs))
        rng.shuffle(strata)
        out = []
        for kind in kinds:
            if kind < 7:
                u = (strata.pop() + rng.random()) / runs
                i = bisect.bisect_left(self.cdf, u * self.cdf[-1])
                out.append(run_request(self.keys[min(i, len(self.keys) - 1)]))
            elif kind == 7:
                out.append(run_request(rng.choice(self.route_keys)))
            elif kind == 8:
                out.append({"op": "replay", "file": rng.choice(self.corpus)})
            else:
                out.append({"op": "stats"})
        return out


def run_request(key):
    topology, policy, adversary, steps, seed = key
    return {"op": "run", "topology": topology, "policy": policy, "adversary": adversary,
            "steps": steps, "seed": seed}


def cells_of(request):
    """(topology, policy, adversary, steps, seeds) of a run/sweep request."""
    if request["op"] == "run":
        return (request["topology"], request["policy"], request["adversary"],
                request["steps"], [request["seed"]])
    if request["op"] == "sweep":
        return (request["topologies"][0], request["policies"][0], request["adversary"],
                request["steps"], request["seeds"])
    return None


def reference(requests):
    """Expected (peak, injected, delivered, nodes) per cell, from the probe."""
    groups = {}
    for request in requests:
        cells = cells_of(request)
        if cells is not None:
            seeds = groups.setdefault(cells[:4], set())
            seeds.update(cells[4])
    path = os.path.join(OUT, "cells-%d.tsv" % os.getpid())
    with open(path, "w") as f:
        for (topology, policy, adversary, steps), seeds in sorted(groups.items()):
            f.write("%s\t%s\t%s\t%d\t%s\n" % (topology, policy, adversary, steps,
                                               ",".join(str(s) for s in sorted(seeds))))
    out = subprocess.run([PROBE, "reference", path, "--threads=4"], capture_output=True,
                         text=True)
    os.unlink(path)
    if out.returncode != 0:
        fail("reference failed: " + out.stderr.strip())
    expected = {}
    for line in out.stdout.splitlines():
        t, p, a, s, seed, peak, injected, delivered, nodes = line.split("\t")
        expected[(t, p, a, int(s), int(seed))] = (int(peak), int(injected), int(delivered),
                                                   int(nodes))
    return expected


# ------------------------------------------------------------------ server

class Server:
    def __init__(self, threads, cache_entries):
        self.sock = os.path.join(OUT, "s%d.sock" % os.getpid())
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        self.log = open(os.path.join(OUT, "server.log"), "a")
        self.proc = subprocess.Popen(
            [CVG, "serve", "--socket=" + self.sock, "--threads=%d" % threads,
             "--queue=%d" % SERVER_QUEUE, "--cache-entries=%d" % cache_entries],
            stdout=subprocess.DEVNULL, stderr=self.log, env=SERVER_ENV,
            preexec_fn=lambda: os.sched_setaffinity(0, SERVER_CPUS) if SERVER_CPUS else None)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        if os.path.exists(self.sock):
            os.unlink(self.sock)

    def cpu_ns(self):
        total = 0
        for path in glob.glob("/proc/%d/task/*/schedstat" % self.proc.pid):
            try:
                with open(path) as f:
                    total += int(f.read().split()[0])
            except OSError:
                pass  # a thread exited between glob and open
        return total

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0


def connect(path, deadline_s=30.0):
    give_up = time.monotonic() + deadline_s
    while True:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(path)
            return s
        except OSError:
            s.close()
            if time.monotonic() > give_up:
                fail("server did not come up on " + path)
            time.sleep(0.0005)


def ask_stats(path):
    """One `stats` request on a fresh connection; returns the response."""
    s = connect(path)
    s.settimeout(DRAIN_TIMEOUT_S)
    s.sendall(b'{"op":"stats","id":"stats"}\n')
    buf = b""
    while not buf.endswith(b"\n"):
        try:
            chunk = s.recv(65536)
        except socket.timeout:
            fail("no answer to stats within %.0f s" % DRAIN_TIMEOUT_S)
        if not chunk:
            fail("server closed the connection")
        buf += chunk
    s.close()
    response = json.loads(buf)
    if not response.get("ok"):
        fail("stats request failed")
    return response


def spawn(threads, cache_entries):
    """Starts a server; returns it and seconds from spawn to first answer."""
    t0 = now_ns()
    server = Server(threads, cache_entries)
    try:
        ask_stats(server.sock)
    except BaseException:
        server.stop()
        raise
    return server, (now_ns() - t0) / 1e9


# ------------------------------------------------------------------ client

class Conn:
    def __init__(self, path, sel):
        self.sock = connect(path)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inbuf = bytearray()
        self.sel = sel
        self.last_recv = 0
        sel.register(self.sock, selectors.EVENT_READ, self)

    def send(self, data):
        self.out += data
        self.flush()

    def flush(self):
        if self.out:
            try:
                n = self.sock.send(self.out)
                del self.out[:n]
            except BlockingIOError:
                pass
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if self.out else 0)
        self.sel.modify(self.sock, events, self)

    def close(self):
        self.sel.unregister(self.sock)
        self.sock.close()


class Client:
    """Single-threaded NDJSON client: every request is matched to its
    response by id, timed and checked."""

    def __init__(self, path, connections, expected):
        # select(2) sleeps to the microsecond; epoll rounds up to whole
        # milliseconds, which would make the open loop send late.
        self.sel = selectors.SelectSelector()
        self.conns = [Conn(path, self.sel) for _ in range(connections)]
        self.expected = expected
        self.pending = {}      # id -> [request, due_ns, sent_ns, conn, timed]
        self.next_id = 0
        self.payloads = {}     # run-cell key -> first result bytes
        self.records = []      # (request, due_ns, sent_ns, recv_ns, response, ok, timed)
        self.failures = []
        self.probe_rtts = []
        self.probe_sent = {}
        self.sample_cpu = None  # set for the timed window: returns server CPU ns
        self.cpu_samples = []   # (time ns, server CPU ns), one per SLICE_S
        self.next_sample = 0

    def send(self, conn, request, due_ns, timed):
        rid = "r%d" % self.next_id
        self.next_id += 1
        line = json.dumps(dict(request, id=rid), separators=(",", ":")).encode() + b"\n"
        sent = now_ns()
        self.pending[rid] = [request, due_ns if due_ns is not None else sent, sent, conn, timed]
        conn.send(line)
        return sent

    def pump(self, timeout):
        """Waits up to `timeout` s; returns the connections that got answers."""
        if self.sample_cpu is not None and now_ns() >= self.next_sample:
            t = now_ns()
            self.cpu_samples.append((t, self.sample_cpu()))
            self.next_sample = t + int(SLICE_S * 1e9)
        answered = []
        for key, mask in self.sel.select(timeout):
            conn = key.data
            if mask & selectors.EVENT_WRITE:
                conn.flush()
            if mask & selectors.EVENT_READ:
                try:
                    chunk = conn.sock.recv(1 << 20)
                except BlockingIOError:
                    continue
                if not chunk:
                    fail("server closed a connection")
                recv = now_ns()
                conn.inbuf += chunk
                while True:
                    nl = conn.inbuf.find(b"\n")
                    if nl < 0:
                        break
                    line = bytes(conn.inbuf[:nl])
                    del conn.inbuf[:nl + 1]
                    if self.on_response(line, recv):
                        conn.last_recv = recv
                        answered.append(conn)
        return answered

    def on_response(self, line, recv):
        """Records one response; False for the trace-mode stats prober."""
        response = json.loads(line)
        rid = response.get("id", "")
        if rid.startswith("probe"):
            self.probe_rtts.append((recv - self.probe_sent.pop(rid)) / 1e3)
            return False
        request, due, sent, conn, timed = self.pending.pop(rid)
        ok = self.check(request, line, response)
        self.records.append((request, due, sent, recv, response, ok, timed))
        return True

    def check(self, request, line, response):
        def bad(why):
            self.failures.append("%s: %s" % (why, line[:200]))
            return False
        if response.get("ok") is not True:
            return bad("error response")
        result = response["result"]
        op = request["op"]
        if op == "stats":
            return isinstance(result.get("cache"), dict) or bad("stats without cache")
        if op == "replay":
            if result.get("ok") is not True or result["replayed"] < result["recorded"]:
                return bad("replay below its recorded peak")
            return True
        topology, policy, adversary, steps, seeds = cells_of(request)
        cells = [result] if op == "run" else result["cells"]
        if len(cells) != len(seeds) or (op == "sweep" and (
                result["cell_count"] != len(seeds) or result["cached_cells"])):
            return bad("sweep cells missing or served from the cache")
        for cell, seed in zip(cells, seeds):
            want = self.expected.get((topology, policy, adversary, steps, seed))
            got = (cell["topology"], cell["policy"], cell["adversary"], cell["steps"],
                   cell["seed"])
            if want is None or got != (topology, policy, adversary, steps, seed) or \
                    (cell["peak"], cell["injected"], cell["delivered"]) != want[:3]:
                return bad("cell differs from the reference")
        if op == "run":
            raw = line[line.index(b'"result":') + 9:-1]
            first = self.payloads.setdefault((topology, policy, adversary, steps, seeds[0]), raw)
            if first != raw:
                return bad("cached and uncached answers differ")
        return True

    def outstanding(self):
        return len(self.pending)

    def drain(self):
        give_up = time.monotonic() + DRAIN_TIMEOUT_S
        while self.pending and time.monotonic() < give_up:
            self.pump(0.1)

    def close(self):
        for conn in self.conns:
            conn.close()
        self.sel.close()


def closed_loop(client, streams, seconds, probe_conn=None):
    """Connection i keeps one request of streams[i] in flight, cycling
    through the stream until `seconds` have passed and it has sent the
    stream whole a number of times, so every timed window holds whole
    rounds.  DRAIN_TIMEOUT_S after the window it stops sending and
    waiting; what is still pending then counts as unanswered."""
    sent_count = [0] * len(streams)

    def send_next(i):
        stream = streams[i]
        sent_count[i] += 1
        return client.send(client.conns[i], stream[(sent_count[i] - 1) % len(stream)],
                           None, True)

    def more(i):
        t = now_ns()
        return t < end or (sent_count[i] % len(streams[i]) != 0 and t < give_up)
    start = now_ns()
    end = start + int(seconds * 1e9)
    give_up = end + int(DRAIN_TIMEOUT_S * 1e9)
    next_probe = start
    for i in range(len(streams)):
        send_next(i)
    gaps = []
    while client.outstanding() and now_ns() < give_up:
        timeout = 0.1
        t = now_ns()
        if probe_conn is not None and t < end:
            if t >= next_probe:
                rid = "probe%d" % len(client.probe_sent)
                client.probe_sent[rid] = t
                probe_conn.send(('{"op":"stats","id":"%s"}\n' % rid).encode())
                next_probe = t + 20_000_000
            timeout = max(0.0, (next_probe - now_ns()) / 1e9)
        for conn in client.pump(timeout):
            i = client.conns.index(conn)
            if more(i):
                sent = send_next(i)
                gaps.append((sent - conn.last_recv) / 1e3)
    return start, gaps


def open_loop(client, schedule, start):
    """Sends schedule[i] = (due_ns offset, request) at start + due."""
    lags = []
    i, rr = 0, 0
    n = len(schedule)
    while i < n:
        t = now_ns()
        while i < n and start + schedule[i][0] <= t:
            conn = client.conns[rr % len(client.conns)]
            rr += 1
            sent = client.send(conn, schedule[i][1], start + schedule[i][0], True)
            lags.append((sent - start - schedule[i][0]) / 1e3)
            i += 1
            t = now_ns()
        if i < n:
            client.pump(max(0.0, (start + schedule[i][0] - now_ns()) / 1e9))
    client.drain()
    return lags


def warm_closed(client, requests):
    """Sends `requests` closed-loop over every connection; not timed.
    Gives up DRAIN_TIMEOUT_S after the last answer and returns how many
    requests were never answered."""
    queue = list(reversed(requests))
    for conn in client.conns:
        if queue:
            client.send(conn, queue.pop(), None, False)
    give_up = time.monotonic() + DRAIN_TIMEOUT_S
    while client.outstanding() and time.monotonic() < give_up:
        for conn in client.pump(0.1):
            give_up = time.monotonic() + DRAIN_TIMEOUT_S
            if queue:
                client.send(conn, queue.pop(), None, False)
    return client.outstanding() + len(queue)


# ------------------------------------------------------------------ metrics

def percentile(values, q):
    if not values:
        return 0.0
    values = sorted(values)
    return values[min(len(values) - 1, int(q * (len(values) - 1) + 0.5))]


def tail(values):
    """Highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    k = max(0, n - 11)
    return values[k], 100.0 * (k + 1) / n, n


def slice_rates(work, cpu_samples):
    """Per slice between consecutive CPU samples: (ok jobs/s, node steps/s,
    server CPU ms per answered job).  Each request counts in the slices its
    [sent, answered] interval overlaps, in proportion to the overlap, so a
    slow stretch of the box moves a few slices, not the median."""
    bounds = [t for t, _ in cpu_samples]
    jobs = [0.0] * (len(bounds) - 1)
    ok_jobs = [0.0] * len(jobs)
    steps = [0.0] * len(jobs)
    for sent, recv, node_steps, good in work:
        span = max(1, recv - sent)
        k = max(0, bisect.bisect_right(bounds, sent) - 1)
        while k < len(jobs) and bounds[k] < recv:
            share = (min(recv, bounds[k + 1]) - max(sent, bounds[k])) / span
            if share > 0:
                jobs[k] += share
                if good:
                    ok_jobs[k] += share
                    steps[k] += node_steps * share
            k += 1
    out = []
    for k in range(len(jobs)):
        seconds = (bounds[k + 1] - bounds[k]) / 1e9
        if seconds >= SLICE_S / 2 and jobs[k] > 0:
            cpu_ms = (cpu_samples[k + 1][1] - cpu_samples[k][1]) / 1e6
            out.append((ok_jobs[k] / seconds, steps[k] / seconds, cpu_ms / jobs[k]))
    return out


def by_op(records):
    """Count, cached share and median latency (ms, from due) per op."""
    groups = {}
    for r in records:
        groups.setdefault(r[0]["op"], []).append(r)
    return {op: {"count": len(rs), "cached": sum(1 for r in rs if r[4]["cached"]) / len(rs),
                 "p50_ms": statistics.median((r[3] - r[1]) / 1e6 for r in rs)}
            for op, rs in groups.items()}


def run(args):
    spec = WORKLOADS[args.workload]
    rng = random.Random("%s/%d" % (args.workload, args.seed))
    build()

    # Inputs, all from the seed.
    schedule, warmup, trace_list = [], [], []
    if spec["loop"] == "closed":
        streams = cc_streams(rng) if args.workload == "convergecast-sweep" \
            else route_streams(rng)
        all_requests = [r for stream in streams for r in stream]
        trace_list = [(0, r) for r in all_requests]
    else:
        mix = Mix(rng)
        t, due = 0.0, []
        while True:
            t += rng.expovariate(spec["rate"])
            if t >= args.seconds:
                break
            due.append(int(t * 1e9))
        schedule = list(zip(due, mix.requests(rng, len(due))))
        warmup = mix.requests(random.Random("%s/%d/warmup" % (args.workload, args.seed)),
                              MIX_WARMUP)
        all_requests = warmup + [r for _, r in schedule]
        trace_list = [("w", r) for r in warmup] + schedule[:MIX_TRACE_REQUESTS]
    expected = reference(all_requests)

    # Setup: SETUP_SPAWNS times spawn a server, wait for its first answer
    # and run the warm-up; setup_s is the median.  The last server is the one
    # measured.  The sweeps warm up with the first request of each stream at
    # once (so the peak footprint is reached before timing), the mix with
    # MIX_WARMUP requests sent closed-loop.
    if spec["loop"] == "closed":
        warmup = [stream[0] for stream in streams]
    setups = []
    setup_unanswered = 0
    server = None
    if CLIENT_CPUS:
        os.sched_setaffinity(0, CLIENT_CPUS)
    try:
        for k in range(SETUP_SPAWNS):
            if server is not None:
                server.stop()
            server, spawn_s = spawn(spec["threads"], spec["cache_entries"])
            client = Client(server.sock, spec["clients"], expected)
            t0 = now_ns()
            setup_unanswered += warm_closed(client, warmup)
            warm_s = (now_ns() - t0) / 1e9
            setups.append((spawn_s + warm_s, spawn_s, warm_s))
            if k + 1 < SETUP_SPAWNS:
                client.close()
        setup_s = statistics.median(total for total, _, _ in setups)
        probe_conn = None
        if args.trace and spec["loop"] == "closed":
            probe_conn = Conn(server.sock, client.sel)

        before = ask_stats(server.sock)["result"]
        gc.disable()  # no collector pauses inside the timed window
        client.sample_cpu = server.cpu_ns
        if spec["loop"] == "closed":
            start, lags = closed_loop(client, streams, args.seconds, probe_conn)
        else:
            start = now_ns() + 5_000_000
            lags = open_loop(client, schedule, start)
        client.sample_cpu = None
        client.cpu_samples.append((now_ns(), server.cpu_ns()))
        gc.enable()
        after = ask_stats(server.sock)["result"]
        rss = server.peak_rss_mb()
        unanswered = sum(1 for pending in client.pending.values() if pending[4])
        if probe_conn is not None:
            probe_conn.close()
        client.close()
    finally:
        if server is not None:
            server.stop()
        os.sched_setaffinity(0, ALL_CPUS)

    # End-to-end metrics over the timed window.
    timed = [r for r in client.records if r[6]]
    attempted = len(timed) + unanswered + setup_unanswered
    ok = [r for r in timed if r[5]]
    failed = attempted - len(ok)
    if not ok:
        fail("no request of %d answered correctly in the timed window" % attempted)
    wall_s = (max(r[3] for r in timed) - start) / 1e9
    latencies = [(r[3] - r[1]) / 1e6 for r in ok]
    tail_ms, tail_pct, samples = tail(latencies)
    node_steps = 0
    exec_micros, client_micros, overheads = 0, 0, []
    work = []  # (sent, recv, node steps, ok) per answered request
    for request, due, sent, recv, response, good, _ in timed:
        cells = cells_of(request)
        steps_done = 0
        if good and cells is not None and not response["cached"]:
            topology, policy, adversary, steps, seeds = cells
            nodes = expected[(topology, policy, adversary, steps, seeds[0])][3]
            steps_done = nodes * steps * len(seeds)
            node_steps += steps_done
        work.append((sent, recv, steps_done, good))
        if not good:
            continue
        if request["op"] != "stats":
            exec_micros += response["micros"]
            client_micros += (recv - sent) / 1e3
        if cells is not None:
            overheads.append((recv - sent) / 1e3 - response["micros"])
    slo_ns = spec["slo_ms"] * 1e6
    slices = slice_rates(work, client.cpu_samples)
    metrics = {
        "setup_s": setup_s,
        "job_latency_p50_ms": statistics.median(latencies),
        "job_latency_tail_ms": tail_ms,
        "jobs_per_s": statistics.median(s[0] for s in slices),
        "node_steps_per_s": statistics.median(s[1] for s in slices),
        "server_cpu_ms_per_job": statistics.median(s[2] for s in slices),
        "server_peak_rss_mb": rss,
        "ok_share": len(ok) / attempted,
        "slo_met_share": sum(1 for r in ok if r[3] - r[1] <= slo_ns) / attempted,
    }
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "metrics": metrics, "tail_percentile": tail_pct, "latency_samples": samples,
              "attempted": attempted, "failed": failed, "wall_s": wall_s,
              "window": {"jobs_per_s": len(ok) / wall_s, "node_steps_per_s": node_steps / wall_s,
                         "server_cpu_ms_per_job": (client.cpu_samples[-1][1] -
                                                   client.cpu_samples[0][1]) / 1e6 / len(timed)},
              "slices": slices,
              "setups_s": setups,
              "failures": client.failures[:20], "by_op": by_op(ok),
              "slowest": [[r[0]["op"], r[0].get("topology"), r[0].get("adversary"),
                           r[0].get("steps"), r[4]["cached"], (r[3] - r[1]) / 1e6,
                           (r[3] - r[2]) / 1e6, r[4]["micros"] / 1e3]
                          for r in sorted(ok, key=lambda r: r[3] - r[1])[-15:]]}
    print("%s seed %d: %d attempted, %d failed, wall %.2f s; tail = p%.2f of %d samples"
          % (args.workload, args.seed, attempted, failed, wall_s, tail_pct, samples))

    if args.trace:
        cache0, cache1 = before["cache"], after["cache"]
        hits = (cache1["hits"] + cache1["spill_hits"]) - (cache0["hits"] + cache0["spill_hits"])
        lookups = hits + cache1["misses"] - cache0["misses"]
        stats_rtts = [(r[3] - r[2]) / 1e3 for r in ok if r[0]["op"] == "stats"]
        layer = {
            "serve.reactor.stats_rtt_us_p50": percentile(stats_rtts + client.probe_rtts, 0.5),
            "serve.reactor.overhead_us_p50": percentile(overheads, 0.5),
            "serve.cache.hit_ratio": hits / lookups if lookups else 0.0,
            "serve.cache.insertions": cache1["insertions"] - cache0["insertions"],
            "serve.cache.evictions": cache1["evictions"] - cache0["evictions"],
            "serve.service.exec_share": exec_micros / client_micros if client_micros else 0.0,
            "bench.gen_lag_us_p99": percentile(lags, 0.99),
        }
        requests_path = os.path.join(OUT, "requests-%d.tsv" % os.getpid())
        with open(requests_path, "w") as f:
            for i, (due, request) in enumerate(trace_list):
                f.write("%s\t%s\n" % (due if due == "w" else due // 1000,
                                       json.dumps(dict(request, id="t%d" % i),
                                                  separators=(",", ":"))))
        spans = os.path.join(OUT, "spans-%s-%d.json" % (args.workload, args.seed))
        cmd = [PROBE, "trace", requests_path, "--spans=" + spans,
               "--threads=%d" % spec["threads"], "--queue=%d" % SERVER_QUEUE,
               "--cache-entries=%d" % spec["cache_entries"]]
        if spec["loop"] == "closed":
            cmd.append("--closed=%d" % spec["clients"])
        out = subprocess.run(cmd, capture_output=True, text=True)
        os.unlink(requests_path)
        if out.returncode != 0:
            fail("trace probe failed: " + out.stderr.strip())
        probe = json.loads(out.stdout.splitlines()[-1])
        layer.update(probe["metrics"])
        if probe["errors"]:
            client.failures.append("%d in-process errors" % probe["errors"])
        # The per-layer times come from the probe's mirror of the service's
        # layer calls; a mirror that answers differently from
        # Service::process_line no longer times the program.
        if probe["mirror_mismatches"]:
            client.failures.append("%d mirror answers differ from Service::process_line"
                                   % probe["mirror_mismatches"])
        print("  %-34s %14d count" % ("mirror_mismatches", probe["mirror_mismatches"]))
        detail.update({"layers": probe["layers"], "mirror_mismatches": probe["mirror_mismatches"],
                       "per_layer": layer, "spans": spans})
        report = {name: {"value": layer[name], "unit": unit}
                  for name, unit in PER_LAYER_UNITS.items()}
    else:
        units = dict(END_TO_END)
        report = {name: {"value": metrics[name], "unit": units[name]} for name, _ in END_TO_END}

    with open(os.path.join(OUT, "result-%s-%d-%d.json" % (args.workload, args.seed,
                                                         args.trace)), "w") as f:
        json.dump(detail, f, indent=1)
    for name, m in report.items():
        print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0 and not client.failures, "attempted": attempted,
                      "failed": failed, "metrics": report}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run(parser.parse_args())


if __name__ == "__main__":
    main()
