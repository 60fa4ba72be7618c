"""Seeded inputs of the serving benchmark: databases, query streams, writes.

Everything the server receives is produced here from the run's seed and
nothing else, so a parent commit and a change replayed with the same seed
receive byte-identical requests (see `request_digest`).
"""

import hashlib
import random

def rng_for(seed, *labels):
    """An independent generator per (seed, labels): lengthening one stream
    never shifts another."""
    digest = hashlib.sha256(repr((seed,) + labels).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "little"))


def regular_tuples(rng, n, degree):
    """A binary relation in which every element has exactly `degree`
    successors and `degree` predecessors, none itself: the union of
    `degree` seeded permutations, each redrawn until it fixes no element
    and shares no edge with the ones before. Fixed degrees keep reachability
    depth, and so fixpoint stage counts, alike across seeds; at n=48,
    independent edges at the same mean degree gave seeds whose CPU per
    query differed by up to 17%."""
    edges = set()
    for _ in range(degree):
        while True:
            perm = list(range(n))
            rng.shuffle(perm)
            new = {(a, perm[a]) for a in range(n)}
            if all(a != b for a, b in new) and not new & edges:
                break
        edges |= new
    return sorted(edges)


def unary_tuples(rng, n, share):
    """round(share * n) distinct elements, never none."""
    return sorted((a,) for a in rng.sample(range(n),
                                           max(1, round(share * n))))


def rel_payload(name, tuples):
    """`<name>/<arity> v.. ; v.. ;`, the argument of a `rel` request."""
    arity = len(tuples[0])
    body = " ".join(" ".join(map(str, t)) + " ;" for t in tuples)
    return f"{name}/{arity} {body}"


# The write probe, the write that write_p50_ms times on every workload: every
# so often connection 0 replaces relation W/3 of a session no query uses with
# one of PROBE_VARIANTS seeded payloads of PROBE_TUPLES tuples, big enough
# that the server's parse and install, not the wake-ups of idle vCPUs, set
# the latency. (dashboard_rw's own 56-tuple writes spend ~90% of their
# client latency in the hops between processes.)
PROBE_SESSION = "probe"
PROBE_DOMAIN = 28
PROBE_TUPLES = 2000
PROBE_VARIANTS = 4


class Op:
    """One unit op: the request lines a client sends for it, in order.

    kind is "eval" (one `eval` line), "round" (`eval` lines sent one at a
    time, each after the previous answer) or "refresh" (a `rel` write, then
    a batch of dashboard queries). `queries` are the op's queries in
    result-id order; `db_state` is (domain size, {relation: tuples}) as the
    op's session holds it when the op runs, for the reference answers.
    """

    def __init__(self, kind, session, lines, queries, db_state):
        self.kind = kind
        self.session = session
        self.lines = lines
        self.queries = queries
        self.db_state = db_state


class Workload:
    """A named, seeded workload: server setup plus per-connection op streams.

    Attributes set by each constructor: name, transport ("tcp" | "pipe"),
    shards (0 = single process), connections, sessions (name -> domain
    size), dbs (session -> {relation: tuples}) and warm, the (session,
    query) pairs evaluated at the end of setup. The first WARMUP_OPS ops of
    the stream run before the timed window opens; connection 0 sends the
    write probe after every PROBE_EVERY-th of its ops.
    """

    WARMUP_OPS = 64
    PROBE_EVERY = 4
    OPEN_OPTIONS = ""  # appended to the workload's `open` lines

    def __init__(self, name, seed, scale):
        self.name = name
        self.seed = seed
        self.warmup_ops = max(2, int(self.WARMUP_OPS * scale))
        self.shards = 0
        self.transport = "tcp"
        self.connections = 1
        self.sessions = {}
        self.dbs = {}
        self.warm = []
        self._streams = {}

    # ---- database text -------------------------------------------------

    def setup_lines(self):
        lines = []
        for s, n in self.sessions.items():
            lines.append(f"open {s}{self.OPEN_OPTIONS}")
            lines.append(f"domain {s} {n}")
            for rel, tuples in self.dbs[s].items():
                lines.append(f"rel {s} {rel_payload(rel, tuples)}")
        return lines + [f"open {PROBE_SESSION}",
                        f"domain {PROBE_SESSION} {PROBE_DOMAIN}"]

    @staticmethod
    def db_text(domain, rels):
        """Database text (ParseDatabase format) for the reference check."""
        out = [f"domain {domain}"]
        for rel, tuples in sorted(rels.items()):
            out.append("rel " + rel_payload(rel, tuples))
        return "\n".join(out) + "\n"

    # ---- op streams ----------------------------------------------------

    def op(self, conn, index):
        stream = self._streams.setdefault(conn, [])
        while len(stream) <= index:
            stream.append(self._next_op(conn, len(stream)))
        return stream[index]

    def _next_op(self, conn, index):
        raise NotImplementedError

    def prepare(self):
        """Generates the ops a run is expected to use, so the timed window
        measures the server and not the generator (more are made lazily)."""
        for conn in range(self.connections):
            self.op(conn, self.PREPARED_OPS - 1)

    def write_probe_lines(self):
        """The write probe's `rel` lines, used in turn."""
        rng = rng_for(self.seed, "probe")
        n = PROBE_DOMAIN
        lines = []
        for _ in range(PROBE_VARIANTS):
            codes = rng.sample(range(n ** 3), PROBE_TUPLES)
            tuples = sorted((c // (n * n), c // n % n, c % n) for c in codes)
            lines.append(f"rel {PROBE_SESSION} {rel_payload('W', tuples)}")
        return lines

    def request_digest(self, ops_per_conn):
        """sha256 over setup lines, warm pass, and the first `ops_per_conn`
        ops of every connection: identical for identical (workload, seed)."""
        h = hashlib.sha256()
        for line in self.setup_lines():
            h.update(line.encode() + b"\n")
        for s, q in self.warm:
            h.update(f"warm {s} {q}\n".encode())
        for line in self.write_probe_lines():
            h.update(line.encode() + b"\n")
        for conn in range(self.connections):
            for i in range(ops_per_conn):
                for line in self.op(conn, i).lines:
                    h.update(line.encode() + b"\n")
        return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# warm_lookups: many small sessions, a fixed query set, every eval a hit.

WARM_QUERIES = [
    "(x1) exists x2 . (E0(x1,x2) & P0(x2))",
    "(x1,x2) E0(x1,x2) & E1(x2,x1)",
    "(x1) forall x2 . (E0(x1,x2) -> P1(x2))",
    "(x1,x2) exists x3 . (E0(x1,x3) & E1(x3,x2))",
    "(x1,x2) [lfp T(x1,x2) . E0(x1,x2) | exists x3 . (E0(x1,x3) & "
    "exists x1 . (x1 = x3 & T(x1,x2)))](x1,x2)",
    "(x1) [lfp R(x1) . P0(x1) | exists x2 . (E1(x1,x2) & R(x2))](x1)",
    "(x1) [gfp S(x1) . P1(x1) & exists x2 . (E0(x1,x2) & S(x2))](x1)",
    "(x1,x2,x3) E0(x1,x2) & E0(x2,x3) & E0(x3,x1)",
]


class WarmLookups(Workload):
    SESSIONS = 16
    OPS_CYCLE = 4096  # op streams repeat after this many ops
    PREPARED_OPS = OPS_CYCLE

    def __init__(self, seed, scale=1.0):
        super().__init__("warm_lookups", seed, scale)
        self.connections = 2
        rng = rng_for(seed, "warm", "db")
        for i in range(max(2, int(self.SESSIONS * scale))):
            s = f"w{i:02d}"
            n = 28
            self.sessions[s] = n
            self.dbs[s] = {
                "E0": regular_tuples(rng, n, 2),
                "E1": regular_tuples(rng, n, 2),
                "P0": unary_tuples(rng, n, 0.3),
                "P1": unary_tuples(rng, n, 0.5),
            }
        self.warm = [(s, q) for s in self.sessions for q in WARM_QUERIES]

    def _next_op(self, conn, index):
        if index >= self.OPS_CYCLE:
            return self.op(conn, index % self.OPS_CYCLE)
        rng = rng_for(self.seed, "warm", "op", conn, index)
        s = rng.choice(sorted(self.sessions))
        q = rng.choice(WARM_QUERIES)
        qid = conn * 1_000_000_000 + index + 1
        return Op("eval", s, [f"eval {qid} {s} {q}"], [q],
                  (self.sessions[s], self.dbs[s]))


# ---------------------------------------------------------------------------
# cold_fixpoints: one large session, a stream of distinct fixpoint queries.

def _walk(rng, steps):
    """A seeded walk guard on x1: `exists x3 . (R(x1,x3) & exists x1 .
    (x1 = x3 & ...))` over `steps` relations, ending in a unary atom or
    true. 4^steps * 3 shapes keep the distinct-query space far larger than
    any run can consume."""
    guard = rng.choice(["P0(x1)", "P1(x1)", "true"])
    for _ in range(steps):
        r = rng.choice([f"E{i}" for i in range(4)])
        guard = f"exists x3 . ({r}(x1,x3) & exists x1 . (x1 = x3 & {guard}))"
    return guard


def _cold_shape(rng):
    """The choices that fill in a template: relations, a side condition on
    x2 and the step of a closure."""
    e = [f"E{i}" for i in range(4)]
    p = ["P0", "P1"]
    a, b, c = rng.choice(e), rng.choice(e), rng.choice(e)
    pa, pb = rng.choice(p), rng.choice(p)
    guard2 = rng.choice(["", f" & {pb}(x2)", f" & !{pb}(x2)",
                         f" & exists x3 . {c}(x3,x2)"])
    step = rng.choice([f"{b}(x1,x3)", f"({b}(x1,x3) | {c}(x1,x3))",
                       f"({b}(x1,x3) & !{pa}(x3))"])
    return a, b, c, pa, guard2, step


def _cold_query(template, shape, walk):
    """One FP^3/PFP^3 query from `template`, filled in by `shape` (see
    _cold_shape) and guarded by the walk guard `walk` on x1. Bodies are
    chosen so every stage sequence converges (or cycles) within a few dozen
    stages at n <= 64."""
    a, b, c, pa, guard2, step = shape
    guard1 = f" & {walk}"
    if template == 0:  # transitive closure of a step relation
        return (f"(x1,x2) [lfp T(x1,x2) . {a}(x1,x2) | "
                f"exists x3 . ({step} & exists x1 . (x1 = x3 & T(x1,x2)))]"
                f"(x1,x2){guard1}{guard2}")
    if template == 1:  # TC over a union of relations, other orientation
        return (f"(x1,x2) [lfp T(x1,x2) . ({a}(x1,x2) | {b}(x2,x1)) | "
                f"exists x3 . (T(x1,x3) & ({c}(x3,x2){guard2}))](x1,x2)"
                f"{guard1}")
    if template == 2:  # nested gfp over lfp (alternation depth 2)
        return (f"(x1) [gfp S(x1) . ({pa}(x1) | exists x2 . {c}(x1,x2)) & "
                f"exists x2 . ({a}(x1,x2) & [lfp R(x1) . S(x1) | "
                f"exists x2 . ({b}(x1,x2) & R(x2))](x2))](x1){guard1}")
    if template == 3:  # inflationary fixpoint, binary
        return (f"(x1,x2) [ifp T(x1,x2) . ({a}(x1,x2){guard2}) | "
                f"exists x3 . (T(x1,x3) & {b}(x3,x2))](x1,x2){guard1}")
    if template == 4:  # partial fixpoint with a monotone body (converges)
        return (f"(x1) [pfp X(x1) . {pa}(x1) | exists x2 . ({a}(x2,x1) & "
                f"X(x2))](x1){guard1}")
    # partial fixpoint with a non-monotone body: oscillates, cycle found
    return (f"(x1,x2) [pfp X(x1,x2) . {a}(x1,x2) & "
            f"!exists x3 . (X(x1,x3) & {b}(x3,x2))](x1,x2){guard1}{guard2}")


COLD_TEMPLATES = 6


class ColdFixpoints(Workload):
    """One op is a round: COLD_TEMPLATES never-seen queries, one per
    template, one at a time. Template costs differ by up to 8x, so the
    median of single queries fell between two templates' clusters and
    moved with the seed; a round's latency is one cluster."""

    SESSION = "c0"
    PREPARED_OPS = 700
    # Query latency falls over the first ~500 queries, while the cache fills
    # with the shared fixpoints and reaches its cap; the window starts after.
    WARMUP_OPS = 84
    PROBE_EVERY = 1
    # One evaluator thread: at the default thread count every kernel waits
    # on all four vCPUs, and the run's latency followed host steal (p50
    # 19-36 ms over interleaved runs at 5-20% steal, against 26-30 ms at
    # threads=1).
    OPEN_OPTIONS = " threads=1"

    def __init__(self, seed, scale=1.0):
        super().__init__("cold_fixpoints", seed, scale)
        self.transport = "pipe"
        rng = rng_for(seed, "cold", "db")
        n = 48 if scale >= 1.0 else 20
        self.sessions[self.SESSION] = n
        rels = {f"E{i}": regular_tuples(rng, n, 3) for i in range(4)}
        rels["P0"] = unary_tuples(rng, n, 0.3)
        rels["P1"] = unary_tuples(rng, n, 0.5)
        self.dbs[self.SESSION] = rels
        self._seen = set()
        # The shapes follow one schedule for every seed, so every run
        # evaluates the same mix of fixpoints; the seed draws the database
        # and the walk guards that make every query new.
        self._shapes = rng_for(0, "cold", "shapes")
        self._walks = rng_for(seed, "cold", "walks")

    def _next_op(self, conn, index):
        # Every round covers each template in order; every query is a new
        # structural class (duplicates are redrawn).
        s = self.SESSION
        lines, queries = [], []
        for template in range(COLD_TEMPLATES):
            shape = _cold_shape(self._shapes)
            for _ in range(1000):
                q = _cold_query(template, shape, _walk(self._walks, 6))
                if q not in self._seen:
                    break
            else:
                raise RuntimeError("cold_fixpoints ran out of distinct "
                                   "queries")
            self._seen.add(q)
            qid = index * COLD_TEMPLATES + template + 1
            lines.append(f"eval {qid} {s} {q}")
            queries.append(q)
        return Op("round", s, lines, queries,
                  (self.sessions[s], self.dbs[s]))


# ---------------------------------------------------------------------------
# dashboard_rw: routed sessions, a write then a batched dashboard per op.

DASHBOARD_QUERIES = [
    "(x1,x2) exists x3 . (E0(x1,x3) & E1(x3,x2))",
    "(x1,x2) exists x3 . (E0(x1,x3) & E1(x3,x2)) & P(x2)",
    "(x1) exists x2 . (exists x3 . (E0(x1,x3) & E1(x3,x2)) & E2(x2,x1))",
    "(x1,x2) [lfp T(x1,x2) . E0(x1,x2) | exists x3 . (E0(x1,x3) & "
    "exists x1 . (x1 = x3 & T(x1,x2)))](x1,x2)",
    "(x1,x2) [lfp T(x1,x2) . E0(x1,x2) | exists x3 . (E0(x1,x3) & "
    "exists x1 . (x1 = x3 & T(x1,x2)))](x1,x2) & E3(x2,x1)",
    "(x1) P(x1) & exists x2 . (E2(x1,x2) & E3(x2,x1))",
    "(x1) [lfp R(x1) . P(x1) | exists x2 . (E3(x1,x2) & R(x2))](x1)",
    "(x1) [lfp R(x1) . P(x1) | exists x2 . (E3(x1,x2) & R(x2))](x1) & "
    "exists x2 . (E2(x1,x2) & E3(x2,x1))",
]

WRITE_RELATIONS = ["E0", "E1", "E2", "E3", "P"]


def shard_for_session(name, num_shards):
    """serve::ShardForSession: 64-bit FNV-1a over the name, mod shards."""
    h = 0xcbf29ce484222325
    for byte in name.encode():
        h ^= byte
        h = (h * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return h % num_shards


class DashboardRw(Workload):
    SESSIONS = 8
    PREPARED_OPS = 3000

    def __init__(self, seed, scale=1.0):
        super().__init__("dashboard_rw", seed, scale)
        self.shards = 2
        self.connections = 2
        rng = rng_for(seed, "dash", "db")
        count = max(4, int(self.SESSIONS * scale))
        # Session i lives on shard (i // 2) % 2 and is driven by connection
        # i % 2, so every connection writes to both shards.
        names = []
        for i in range(count):
            want = (i // 2) % self.shards
            j = 0
            while shard_for_session(f"d{i}x{j}", self.shards) != want:
                j += 1
            names.append(f"d{i}x{j}")
        self._names = names
        for s in names:
            n = 28
            self.sessions[s] = n
            rels = {f"E{i}": regular_tuples(rng, n, 2) for i in range(4)}
            rels["P"] = unary_tuples(rng, n, 0.3)
            self.dbs[s] = rels
        self.warm = [(s, q) for s in names for q in DASHBOARD_QUERIES]
        # Database state per session as the op stream advances (each
        # session is driven by one connection, in stream order).
        self._state = {s: dict(self.dbs[s]) for s in names}
        self._refreshes = {s: 0 for s in names}

    def session_of(self, conn, index):
        mine = [s for i, s in enumerate(self._names)
                if i % self.connections == conn]
        return mine[index % len(mine)]

    def _next_op(self, conn, index):
        s = self.session_of(conn, index)
        k = self._refreshes[s]
        self._refreshes[s] = k + 1
        rng = rng_for(self.seed, "dash", "write", s, k)
        rel = rng.choice(WRITE_RELATIONS)
        n = self.sessions[s]
        tuples = (unary_tuples(rng, n, 0.3) if rel == "P"
                  else regular_tuples(rng, n, 2))
        state = dict(self._state[s])
        state[rel] = tuples
        self._state[s] = state
        base = conn * 1_000_000_000 + index * 100
        lines = [f"rel {s} {rel_payload(rel, tuples)}", f"batch {s} begin"]
        for j, q in enumerate(DASHBOARD_QUERIES):
            lines.append(f"batch {s} eval {base + j + 1} {q}")
        lines.append(f"batch {s} end")
        return Op("refresh", s, lines, list(DASHBOARD_QUERIES),
                  (n, state))


WORKLOADS = {
    "warm_lookups": WarmLookups,
    "cold_fixpoints": ColdFixpoints,
    "dashboard_rw": DashboardRw,
}
