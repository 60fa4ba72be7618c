#!/usr/bin/env python3
"""End-to-end serving benchmark for bvqserve (see servebench/README.md).

    python3 servebench/run.py --workload warm_lookups --seed 1 \
        --seconds 30 --trace 0 [--smoke]

Builds bvqserve and servebench_replay from the checkout, launches bvqserve
as a child process, drives it as a plain closed-loop client with the named
seeded workload, checks the answers, and prints one JSON object as the last
line of standard output. --trace 0 reports the end-to-end metrics, --trace 1
the per-layer metrics (a shorter client run plus the in-process replay).
"""

import argparse
import hashlib
import json
import math
import os
import re
import select
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the source directory clean

import inputs  # noqa: E402

ROOT = os.path.dirname(HERE)

# tail_ms percentile per workload: the highest whole percentile with at
# least ten samples beyond it at the committed run length and this commit's
# op rates (about 1,300 ops on warm_lookups and dashboard_rw; 200-300 rounds
# on cold_fixpoints, where p95 keeps ten beyond it down to 200).
TAIL_PERCENTILE = {
    "warm_lookups": 99.0,
    "cold_fixpoints": 95.0,
    "dashboard_rw": 99.0,
}
# setup_s is the median of several setups per run: at least SETUPS_MIN,
# more while they fit in SETUP_BUDGET_S (cheap setups are noisy alone).
SETUPS_MIN = 7
SETUPS_MAX = 41
SETUP_BUDGET_S = 1.0
OP_TIMEOUT_S = 30.0   # an op without progress this long fails the run
SAMPLE_EVERY_S = 0.02  # /proc sampling period for the thread count


class BenchError(Exception):
    pass


def log(msg):
    print(f"servebench: {msg}", file=sys.stderr, flush=True)


# ---- Build ------------------------------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(base), "servebench")


def build():
    """Configures (once) and builds bvqserve + servebench_replay; returns
    their paths. Build output goes to build.log, never to stdout."""
    if not os.path.exists(os.path.join(ROOT, "tools", "bvqserve.cc")):
        raise BenchError("no bvq sources beside servebench/ (tools/"
                         "bvqserve.cc missing); run from a full checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "build.log"), "a") as logf:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "--target", "bvqserve",
                      "servebench_replay", "-j", str(min(4, os.cpu_count()))])
        for cmd in steps:
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                raise BenchError(f"build failed; see {logf.name}")
    return (os.path.join(out, "tools", "bvqserve"),
            os.path.join(out, "servebench_replay"))


# ---- /proc ------------------------------------------------------------------

CLK_TCK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid):
    """User+system CPU of a whole process (all threads, dead ones too)."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def proc_status(pid, key):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    return 0


def children_of(pid):
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            kids.append(int(entry))
    return kids


def host_ticks():
    """(total, idle+iowait, steal) jiffies of the host from /proc/stat."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:9]]
    return sum(v), v[3] + v[4], v[7]


# ---- Server -----------------------------------------------------------------

class Conn:
    """One client connection: a TCP socket or the server's stdin/stdout."""

    def __init__(self, rfd, send):
        self.rfd = rfd
        self._send = send
        self.buf = b""

    def send(self, line):
        self._send((line + "\n").encode())

    def read_lines(self, spin=False):
        """Reads what is available (at least one byte) and returns the
        complete lines. spin=True polls without sleeping, so a single
        request's latency does not include the client's own wake-up."""
        while spin and not select.select([self.rfd], [], [], 0)[0]:
            pass
        data = os.read(self.rfd, 1 << 16)
        if not data:
            raise BenchError("server closed the connection")
        self.buf += data
        *lines, self.buf = self.buf.split(b"\n")
        return [line.decode() for line in lines]


class Server:
    """bvqserve as a child process, with the client connections to it."""

    def __init__(self, binary, workload, run_dir):
        self.workload = workload
        args = [binary]
        if workload.shards:
            args.append(f"--shards={workload.shards}")
        self.t0 = time.perf_counter()
        if workload.transport == "pipe":
            self.proc = subprocess.Popen(
                args, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, bufsize=0)
            fd_in = self.proc.stdin.fileno()

            def write_all(data):
                while data:
                    data = data[os.write(fd_in, data):]
            self.conns = [Conn(self.proc.stdout.fileno(), write_all)]
            return
        logpath = os.path.join(run_dir, "server.log")
        with open(logpath, "w") as logf:
            self.proc = subprocess.Popen(
                args + ["--port=0"], stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=logf)
        port = None
        deadline = time.perf_counter() + 20
        while port is None:
            with open(logpath) as f:
                m = re.search(r"listening on 127\.0\.0\.1:(\d+)", f.read())
            if m:
                port = int(m.group(1))
            elif (self.proc.poll() is not None or
                  time.perf_counter() > deadline):
                raise BenchError("bvqserve did not start listening")
            else:
                time.sleep(0.0005)
        self.conns = []
        self.socks = []
        for _ in range(workload.connections):
            sock = socket.create_connection(("127.0.0.1", port))
            # A plain request/response client: NODELAY on our side only.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.socks.append(sock)
            self.conns.append(Conn(sock.fileno(), sock.sendall))

    def pids(self):
        pids = [self.proc.pid]
        if self.workload.shards:
            pids += children_of(self.proc.pid)
        return pids

    def request(self, line):
        """Sends one control line on the first connection and returns its
        one-line response."""
        c = self.conns[0]
        c.send(line)
        pending = []
        while not pending:
            pending = c.read_lines(spin=True)
        if len(pending) > 1 or c.buf:
            raise BenchError(f"unexpected extra output after {line[:40]}")
        return pending[0]

    def quit(self):
        """Sends quit, waits for the process; returns its rusage (router
        mode: workers included, the router reaps them before exiting)."""
        try:
            self.conns[0].send("quit")
        except OSError:
            pass
        if self.workload.transport == "pipe":
            self.proc.stdin.close()
        deadline = time.time() + 20
        while True:
            pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.time() > deadline:
                self.kill()
                raise BenchError("bvqserve did not exit after quit")
            time.sleep(0.002)
        for sock in getattr(self, "socks", []):
            sock.close()
        if self.workload.transport == "pipe":
            self.proc.stdout.close()
        return ru

    def kill(self):
        if self.proc.returncode is None:
            for pid in self.pids()[1:]:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            self.proc.kill()
            self.proc.wait()


# ---- Closed-loop client -----------------------------------------------------

class OpRun:
    """Client-side state of one op in flight on one connection."""

    def __init__(self, op, conn, index):
        self.op = op
        self.conn = conn
        self.index = index
        self.next_line = 0
        self.awaiting_control = False
        self.pending = set()       # result ids still owed
        self.ids = []              # result ids in query order
        self.answers = {}          # id -> (ok, payload)
        self.failed = False
        self.start = 0.0
        self.sent_at = 0.0         # send time of a round's current eval
        self.write_start = None
        self.write_ms = None
        self.block_id = None
        self.block = []


def result_id(line):
    parts = line.split(" ", 2)
    return int(parts[1])


class ClosedLoop:
    """Closed loop: every connection sends its next request only after the
    previous response arrived; one op per connection is in flight."""

    def __init__(self, server, workload, on_answer):
        self.server = server
        self.workload = workload
        self.on_answer = on_answer
        self.latencies = []        # ms per completed op (inf = failed)
        self.write_ms = []         # the write probe's latencies
        self.refresh_write_ms = []  # dashboard_rw refreshes' own writes
        self.request_ms = []       # each eval of a round, send to answer
        self.warmup_request_ms = []
        self.completed = 0
        self.failed = 0
        self.attempted = 0
        self.threads_peak = 0
        self.batch_ends = []       # fields of every `ok batch <s> end` line
        self.next_index = [0] * len(server.conns)
        self.probes = workload.write_probe_lines()

    def _probe(self):
        """The write probe (inputs.PROBE_SESSION), between two ops of
        connection 0: one `rel` request, the client polling for the reply
        without sleeping."""
        line = self.probes[len(self.write_ms) % len(self.probes)]
        t = time.perf_counter()
        resp = self.server.request(line)
        self.write_ms.append((time.perf_counter() - t) * 1e3)
        if not resp.startswith("ok "):
            raise BenchError(f"write probe: {resp}")

    def _start(self, conn):
        index = self.next_index[conn]
        self.next_index[conn] += 1
        run = OpRun(self.workload.op(conn, index), conn, index)
        run.start = time.perf_counter()
        self.attempted += 1
        self._advance(run)
        return run

    def _advance(self, run):
        lines = run.op.lines
        if run.next_line < len(lines):
            line = lines[run.next_line]
            run.next_line += 1
            run.awaiting_control = True
            if line.startswith("rel "):
                run.write_start = time.perf_counter()
            run.sent_at = time.perf_counter()
            self.server.conns[run.conn].send(line)

    def _finished(self, run):
        return (run.next_line == len(run.op.lines) and
                not run.awaiting_control and not run.pending)

    def _on_line(self, run, line):
        if run.block_id is not None:
            if line == f"end {run.block_id}":
                ok = run.block[0].split(" ")[2] == "ok"
                payload = "".join(x + "\n" for x in run.block[1:])
                run.answers[run.block_id] = (ok, payload)
                run.pending.discard(run.block_id)
                if not ok:
                    run.failed = True
                run.block_id = None
                if run.op.kind == "round":
                    self.request_ms.append(
                        (time.perf_counter() - run.sent_at) * 1e3)
                    self._advance(run)
            else:
                run.block.append(line)
            return
        if line.startswith("result "):
            run.block_id = result_id(line)
            run.block = [line]
            return
        if not run.awaiting_control:
            raise BenchError(f"unsolicited line: {line[:60]}")
        run.awaiting_control = False
        sent = run.op.lines[run.next_line - 1]
        if line.startswith("err"):
            run.failed = True
        else:
            words = sent.split(" ", 5)
            if words[0] == "eval":
                run.pending.add(int(words[1]))
                run.ids.append(int(words[1]))
            elif words[0] == "batch" and words[2] == "eval":
                run.ids.append(int(words[3]))
            elif words[0] == "batch" and words[2] == "end":
                run.pending.update(run.ids)
                self.batch_ends.append(stats_fields(line))
            elif words[0] == "rel":
                run.write_ms = (time.perf_counter() - run.write_start) * 1e3
        # A round sends its next eval once the previous one is answered.
        if run.op.kind != "round" or line.startswith("err"):
            self._advance(run)

    def warm_up(self, ops):
        """Runs the streams' next `ops` ops untimed: their answers are
        checked and failures count, their timings are dropped."""
        self.run(math.inf, max_ops=ops)
        self.warmup_request_ms = self.request_ms
        self.latencies, self.completed, self.batch_ends = [], 0, []
        self.write_ms, self.refresh_write_ms, self.request_ms = [], [], []

    def run(self, seconds, max_ops=None):
        """Drives the op streams for `seconds` (or until `max_ops` ops have
        started), then lets in-flight ops finish. Returns (window seconds,
        cpu seconds of the server)."""
        started = self.attempted
        sel = selectors.DefaultSelector()
        for i, c in enumerate(self.server.conns):
            sel.register(c.rfd, selectors.EVENT_READ, i)
        pids = self.server.pids()
        cpu0 = sum(proc_cpu_s(p) for p in pids)
        host0 = host_ticks()
        t0 = time.perf_counter()
        deadline = t0 + seconds
        runs = {i: self._start(i) for i in range(len(self.server.conns))}
        next_sample = t0
        last_progress = t0
        while runs:
            now = time.perf_counter()
            if now >= next_sample:
                self.threads_peak = max(self.threads_peak, sum(
                    proc_status(p, "Threads") for p in pids))
                next_sample = now + SAMPLE_EVERY_S
            if now - last_progress > OP_TIMEOUT_S:
                raise BenchError("no response within "
                                 f"{OP_TIMEOUT_S:.0f} s; server wedged")
            for key, _ in sel.select(timeout=max(0.0, next_sample - now)):
                conn = key.data
                run = runs[conn]
                for line in self.server.conns[conn].read_lines():
                    self._on_line(run, line)
                last_progress = time.perf_counter()
                if not self._finished(run):
                    continue
                end = time.perf_counter()
                self.on_answer(run)
                if run.failed:
                    self.failed += 1
                    self.latencies.append(math.inf)
                else:
                    self.latencies.append((end - run.start) * 1e3)
                if run.write_ms is not None:
                    self.refresh_write_ms.append(run.write_ms)
                self.completed += 1
                if (conn == 0 and
                        self.next_index[0] % self.workload.PROBE_EVERY == 0):
                    self._probe()
                if end < deadline and (max_ops is None or
                                       self.attempted - started < max_ops):
                    runs[conn] = self._start(conn)
                else:
                    del runs[conn]
        t1 = time.perf_counter()
        cpu1 = sum(proc_cpu_s(p) for p in pids)
        host1 = host_ticks()
        sel.close()
        total = max(host1[0] - host0[0], 1)
        self.host = {
            "steal_share": (host1[2] - host0[2]) / total,
            "busy_share": 1 - (host1[1] - host0[1] + host1[2] - host0[2])
            / total,
        }
        return t1 - t0, cpu1 - cpu0


# ---- Setup ------------------------------------------------------------------

def setup(binary, workload, run_dir, on_answer):
    """Launch, open and load every session, warm pass. Returns (server,
    seconds)."""
    server = Server(binary, workload, run_dir)
    try:
        for line in workload.setup_lines():
            resp = server.request(line)
            if not resp.startswith("ok "):
                raise BenchError(f"setup: {line[:40]}: {resp}")
        # The warm pass is sent in one go: it is setup, not load, and one
        # request at a time would spend the pass in the ACK stall.
        if workload.warm:
            c = server.conns[0]
            owed = {}
            for i, (s, q) in enumerate(workload.warm):
                qid = 900_000_000_000 + i
                owed[qid] = (s, q)
                c.send(f"eval {qid} {s} {q}")
            block_id, block = None, []
            while owed:
                for line in c.read_lines():
                    if block_id is not None:
                        if line == f"end {block_id}":
                            ok = block[0].split(" ")[2] == "ok"
                            on_answer(owed.pop(block_id), ok,
                                      "".join(x + "\n" for x in block[1:]))
                            block_id = None
                        else:
                            block.append(line)
                    elif line.startswith("result "):
                        block_id, block = result_id(line), [line]
                    elif not line.startswith("ok eval"):
                        raise BenchError(f"warm pass: {line[:60]}")
        return server, time.perf_counter() - server.t0
    except BaseException:
        server.kill()
        raise


# ---- Answer check -----------------------------------------------------------

def reference(replay, run_dir, items):
    """Reference payloads for [(db_text, query)], in order: BoundedEvaluator,
    one thread, no cross-query cache, serve::FormatRelation."""
    if not items:
        return []
    names = {}
    lines = []
    for db_text, _ in items:
        if db_text not in names:
            names[db_text] = f"db{len(names)}"
            lines += [f"D {names[db_text]}", db_text.rstrip("\n"), "E"]
    for db_text, q in items:
        lines.append(f"Q {names[db_text]} {q}")
    path = os.path.join(run_dir, "reference.in")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    out = subprocess.run([replay, "reference", path], capture_output=True,
                         text=True, check=True, timeout=150).stdout
    payloads = []
    for m in re.finditer(r"result (\d+) (\S+)[^\n]*\n(.*?)end \1\n", out,
                         re.S):
        payloads.append((m.group(2) == "ok", m.group(3)))
    if len(payloads) != len(items):
        raise BenchError("reference evaluator returned too few answers")
    return payloads


def digest(ok, payload):
    return hashlib.sha1(f"{ok}\n{payload}".encode()).hexdigest()


class Checker:
    """Collects served answers and compares them with the reference.

    warm_lookups: every answer (the reference covers the fixed set of
    (session, query) pairs). Other workloads: a seeded sample of the ops
    issued, covering every query template and both shards."""

    def __init__(self, workload, replay, run_dir):
        self.workload = workload
        self.replay = replay
        self.run_dir = run_dir
        self.mismatches = 0
        self.checked = 0
        self.served = {}   # (conn, index) -> [digest per query]
        self.expected = {}
        if workload.name == "warm_lookups":
            pairs = sorted({(s, q) for s, q in workload.warm})
            db_text = inputs.Workload.db_text
            refs = reference(replay, run_dir, [
                (db_text(workload.sessions[s], workload.dbs[s]), q)
                for s, q in pairs])
            self.expected = {p: digest(*r) for p, r in zip(pairs, refs)}

    def warm_answer(self, pair, ok, payload):
        if pair in self.expected:
            self._compare(self.expected[pair], digest(ok, payload))

    def _compare(self, want, got):
        self.checked += 1
        if want != got:
            self.mismatches += 1

    def op_answer(self, run):
        if run.failed:  # counted as failed already
            return
        got = [digest(*run.answers[i]) for i in run.ids]
        if self.workload.name == "warm_lookups":
            for q, g in zip(run.op.queries, got):
                self._compare(self.expected[(run.op.session, q)], g)
        else:
            self.served[(run.conn, run.index)] = got

    def finish(self, seed):
        """Checks the sampled ops (outside the timed window)."""
        if self.workload.name == "warm_lookups" or not self.served:
            return
        rng = inputs.rng_for(seed, "check", self.workload.name)
        keys = sorted(self.served)
        groups = {}
        for key in keys:
            op = self.workload.op(*key)
            groups.setdefault(op.session, []).append(key)
        sample = []
        for group in sorted(groups):
            members = groups[group]
            sample += rng.sample(members, min(2, len(members)))
        items, owners = [], []
        for key in sample:
            op = self.workload.op(*key)
            db_text = inputs.Workload.db_text(*op.db_state)
            for j, q in enumerate(op.queries):
                items.append((db_text, q))
                owners.append((key, j))
        refs = reference(self.replay, self.run_dir, items)
        for (key, j), r in zip(owners, refs):
            self._compare(digest(*r), self.served[key][j])


# ---- Metrics ----------------------------------------------------------------

def percentile(values, p):
    """Nearest-rank percentile; failed ops (inf) sort beyond every sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def finite_median(values):
    finite = [v for v in values if math.isfinite(v)]
    return statistics.median(finite) if finite else math.inf


def stats_fields(line):
    return {k: v for k, v in re.findall(r"(\w+)=(\S+)", line)}


def server_counters(server, workload):
    """Numeric fields of `stats` (keys as is) and of every `stats <s>`
    (summed over sessions, keys prefixed "s.")."""
    counts = {}
    lines = [("", server.request("stats"))]
    lines += [("s.", server.request(f"stats {s}")) for s in workload.sessions]
    for prefix, line in lines:
        for k, v in stats_fields(line).items():
            if v.isdigit():
                counts[prefix + k] = counts.get(prefix + k, 0) + int(v)
    return counts


def run_e2e(binary, replay, workload, seconds, run_dir, setups, counters):
    """Setups (count within setups=(min, max)), then the timed window on the
    last one. With `counters`, `stats` is read before and after it."""
    checker = Checker(workload, replay, run_dir)
    setup_s, baseline = [], []
    server = None
    try:
        started = time.perf_counter()
        while True:
            server, took = setup(binary, workload, run_dir,
                                 checker.warm_answer)
            setup_s.append(took)
            spent = time.perf_counter() - started
            if len(setup_s) >= setups[1] or (len(setup_s) >= setups[0] and
                                             spent >= SETUP_BUDGET_S):
                break
            ru = server.quit()
            baseline.append(ru.ru_nvcsw + ru.ru_nivcsw)
            server = None
        workload.prepare()
        loop = ClosedLoop(server, workload, checker.op_answer)
        loop.warm_up(workload.warmup_ops)
        before = server_counters(server, workload) if counters else {}
        window, cpu_s = loop.run(seconds)
        rss_kb = sum(proc_status(p, "VmHWM") for p in server.pids())
        after = server_counters(server, workload) if counters else {}
        ru = server.quit()
        server = None
    finally:
        if server is not None:
            server.kill()
    checker.finish(workload.seed)
    ops = max(loop.completed, 1)
    requests = max(len(loop.request_ms) or loop.completed, 1)
    lat = loop.latencies
    ctx = ru.ru_nvcsw + ru.ru_nivcsw - (statistics.median(baseline)
                                        if baseline else 0)
    return {
        "loop": loop,
        "checker": checker,
        "setup_s": statistics.median(setup_s),
        "p50_ms": finite_median(lat),
        "tail_ms": percentile(lat, TAIL_PERCENTILE[workload.name]),
        "ops_per_s": loop.completed / window,
        "cpu_ms_per_op": cpu_s * 1e3 / ops,
        "rss_mb": rss_kb / 1024.0,
        "write_p50_ms": statistics.median(loop.write_ms),
        "refresh_write_p50_ms": (statistics.median(loop.refresh_write_ms)
                                 if loop.refresh_write_ms else None),
        # Per-layer counts are per request: one query of a round.
        "ctx_switches_per_op": ctx / requests,
        "before": before,
        "after": after,
        "ops": loop.completed,
        "requests": requests,
        "window_s": window,
    }


# ---- Trace ------------------------------------------------------------------

def write_spec(workload, path, ops):
    with open(path, "w") as f:
        for line in workload.setup_lines():
            f.write(f"S {line}\n")
        for i, (s, q) in enumerate(workload.warm):
            f.write(f"W eval {900_000_000_000 + i} {s} {q}\n")
        # One interleaved stream: the connections' ops in round-robin, which
        # keeps every session's ops in their client order. A round's evals
        # are replayed as ops of their own, one query each.
        for i in range(ops):
            for conn in range(workload.connections):
                op = workload.op(conn, i)
                groups = ([[line] for line in op.lines] if op.kind == "round"
                          else [op.lines])
                for lines in groups:
                    f.write("O\n")
                    for line in lines:
                        f.write(f"L {line}\n")


# Stated tolerances of the traced run's checks.
COVERAGE_MIN = 0.90    # children must cover >= 90% of the median request
AGREE_SHARE = 0.25     # replica vs server span: within 25% ...
AGREE_ABS_MS = 0.25    # ... or within 0.25 ms, whichever is looser


def run_trace(binary, replay, workload, seconds, run_dir):
    """A client run over 60% of the time, then the in-process replay of the
    same stream over the rest; returns (e2e, replay figures, metrics)."""
    e2e = run_e2e(binary, replay, workload, max(1.0, seconds * 0.6), run_dir,
                  setups=(2, 2), counters=True)
    spec = os.path.join(run_dir, "replay.spec")
    spec_ops = {"warm_lookups": 2000, "cold_fixpoints": 70,
                "dashboard_rw": 400}[workload.name]
    write_spec(workload, spec, spec_ops)
    cmd = [replay, "trace", spec, f"--budget-ms={int(seconds * 400)}",
           f"--spans={os.path.join(run_dir, 'spans.tsv')}"]
    if workload.shards:
        cmd.append(f"--bvqserve={binary}")
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if out.returncode != 0:
        raise BenchError(f"replay failed: {out.stderr.strip()[-300:]}")
    r = json.loads(out.stdout.strip().splitlines()[-1])
    for level in ("op_covered_p50", "eval_covered_p50"):
        if r[level] < COVERAGE_MIN:
            raise BenchError(f"trace coverage {level}={r[level]:.3f} below "
                             f"{COVERAGE_MIN}: a layer's time is unclaimed")
    gap = abs(r["replica_p50_ms"] - r["server_span_p50_ms"])
    if gap > max(AGREE_SHARE * r["server_span_p50_ms"], AGREE_ABS_MS):
        raise BenchError(f"replica p50 {r['replica_p50_ms']:.3f} ms and "
                         f"server span p50 {r['server_span_p50_ms']:.3f} ms "
                         "disagree")
    r["trace_overhead_share"] = (r["replica_p50_ms"] / r["untraced_p50_ms"]
                                 - 1 if r["untraced_p50_ms"] else 0.0)

    before, after = e2e["before"], e2e["after"]

    def delta(key):
        return after.get(key, 0) - before.get(key, 0)

    ops = e2e["requests"]
    in_process = r["routed_p50_ms"] if workload.shards else r["server_p50_ms"]
    client = e2e["p50_ms"]
    if e2e["loop"].warmup_request_ms:
        # The replay's ops are the stream's first queries, which the client
        # sent in its warm-up: compare the same queries.
        sent = e2e["loop"].warmup_request_ms + e2e["loop"].request_ms
        client = finite_median(sent[:int(r["ops"])])
    hits, misses = delta("s.cache_hits"), delta("s.cache_misses")
    batches = e2e["loop"].batch_ends
    per_layer = {
        "bvqserve.residual_p50_ms": client - in_process,
        "bvqserve.sends_per_op": r["sends_per_op"],
        "bvqserve.ctx_switches_per_op": e2e["ctx_switches_per_op"],
        "bvqserve.threads_peak": e2e["loop"].threads_peak,
        "serve.shard.route_p50_ms": (r["routed_p50_ms"] - r["server_p50_ms"]
                                     if workload.shards else 0.0),
        "serve.shard.lines_per_op": r["lines_per_op"],
        "serve.server.dispatch_us": r["dispatch_us"],
        "serve.server.handoff_p50_ms": r["handoff_p50_ms"],
        "serve.server.format_us": r["format_us"],
        "serve.admission.queued_share": (delta("queued") /
                                         max(delta("admitted"), 1)),
        "serve.session.write_ms": r["write_ms"],
        "serve.session.governor_reuse_share": (
            delta("s.pool_reused") / max(delta("s.queries"), 1)),
        "logic.parse_us": r["parse_us"],
        "logic.index_us": r["index_us"],
        "logic.interned_classes": r["interned_classes"],
        "eval.ctor_us": r["ctor_us"],
        "common.thread_pool.threads_per_op": r["threads_per_op"],
        "eval.eval_p50_ms": r["eval_p50_ms"],
        "eval.tuples_scanned_per_op": r["tuples_scanned_per_op"],
        "eval.fixpoint_iterations_per_op": r["fixpoint_iterations_per_op"],
        "eval.node_evals_per_op": r["node_evals_per_op"],
        "eval.memo_hit_share": r["memo_hit_share"],
        "eval.parallel_loops_per_op": r["parallel_loops_per_op"],
        "eval.chunks_stolen_share": r["chunks_stolen_share"],
        "eval.answer_cache.hit_share": hits / max(hits + misses, 1),
        "eval.answer_cache.evictions_per_op": delta("s.cache_evictions") / ops,
        "eval.answer_cache.resident_mb": after.get("s.cache_bytes", 0) / 2**20,
        "plan.plan_ms": r["plan_ms"],
        "plan.materialize_ms": r["materialize_ms"],
        "plan.dedup_ratio": (statistics.median(
            float(b["dedup"]) for b in batches) if batches else 0.0),
        "plan.materialized_per_batch": (statistics.mean(
            int(b["materialized"]) for b in batches) if batches else 0.0),
        "db.parse_ms": r["db_parse_ms"],
        "common.resource.peak_mb": after.get("s.peak_bytes", 0) / 2**20,
    }
    return e2e, r, per_layer


# ---- Main -------------------------------------------------------------------

def declared_units(section):
    """name -> unit of BENCHMARK.json's `section` metrics, which are exactly
    the metrics a run prints."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def main(argv=None):
    # A terminated run still stops its servers: SystemExit unwinds through
    # the cleanup in setup() and run_e2e().
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs and few setups (the tests' mode)")
    args = ap.parse_args(argv)

    if "BVQ_THREADS" in os.environ:
        log("BVQ_THREADS is set; it changes what threads=0 means for the "
            "server, so the run refuses to start")
        return 2
    try:
        binary, replay = build()
        scale = 0.25 if args.smoke else 1.0
        workload = inputs.WORKLOADS[args.workload](args.seed, scale)
        run_dir = os.path.join(build_dir(), "runs",
                               f"{args.workload}-{args.seed}-{os.getpid()}")
        os.makedirs(run_dir, exist_ok=True)
        record = {
            "workload": args.workload, "seed": args.seed,
            "input_sha256": workload.request_digest(
                workload.warmup_ops + 256),
            "nproc": os.cpu_count(),
        }
        if args.trace:
            units = declared_units("per_layer")
            e2e, replay_out, metrics = run_trace(binary, replay, workload,
                                                 args.seconds, run_dir)
            record["replay"] = replay_out
        else:
            units = declared_units("end_to_end")
            e2e = run_e2e(binary, replay, workload, args.seconds, run_dir,
                          setups=((2, 2) if args.smoke
                                  else (SETUPS_MIN, SETUPS_MAX)),
                          counters=False)
            metrics = {k: e2e[k] for k in units}
        if set(metrics) != set(units):
            raise BenchError("metrics differ from BENCHMARK.json: "
                             f"{sorted(set(metrics) ^ set(units))}")
    except (BenchError, OSError, KeyError, ValueError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1
    loop, checker = e2e["loop"], e2e["checker"]
    failed = loop.failed + checker.mismatches
    attempted = loop.attempted
    record.update(loop.host)
    record.update({
        "threads_peak": loop.threads_peak,
        "ops": e2e["ops"], "window_s": round(e2e["window_s"], 3),
        "failed_share": failed / max(attempted, 1),
        "answers_checked": checker.checked,
        "mismatches": checker.mismatches,
        "tail_percentile": TAIL_PERCENTILE[args.workload],
    })
    if e2e["refresh_write_p50_ms"] is not None:
        record["refresh_write_p50_ms"] = e2e["refresh_write_p50_ms"]
    print(json.dumps({"record": record}))
    correct = failed == 0 and checker.checked > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
