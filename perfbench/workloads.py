"""The three benchmark workloads: inputs, the timed op, and its check.

Each workload builds a fixed pool of op inputs from the seed (the input
generation that ``setup_s`` includes), runs one pool entry per op, and
checks every op's output against the independent arithmetic in
``oracle``.  ``check`` returns the op's work items, an output digest and
the counters the traced run reports (grid cells, evaluated cells,
certificate factors), or raises ``OracleError``.

Every call into hopfglue goes through a module attribute looked up at call
time, so the tracer's wrappers see it.
"""

import collections
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 60


class OracleError(Exception):
    """An op's output disagrees with the oracle."""


def _expect(cond, message):
    if not cond:
        raise OracleError(message)


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.encode())
        h.update(b"\0")
    return h.hexdigest()


def direct(name, fn, *args, **kwargs):
    """Span hook used when tracing is off: just call ``fn``."""
    return fn(*args, **kwargs)


def run_child(argv, env=None, stdin=b""):
    """Run a child process to exit: (exit code, stdout, peak RSS in KiB).

    The child is reaped with ``wait4``, which blocks until it exits and
    reports its own peak RSS.  ``Popen.wait`` with a timeout would poll
    with sleeps of up to 50 ms and add them to the measured time; a
    watchdog kills a child that hangs instead.
    """
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        with contextlib.suppress(BrokenPipeError):
            proc.stdin.write(stdin)
        proc.stdin.close()
        out = proc.stdout.read()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def bench_sl3(rng, steps):
    """A determinant-1 word in elementary matrices, from the bench's own rng."""
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(steps):
        i, j = rng.sample(range(3), 2)
        s = rng.choice((1, -1))
        m[i] = [x + s * y for x, y in zip(m[i], m[j])]
    return m


# --- tuple-sweep --------------------------------------------------------

#: Directions in [-3, 3]^2 grouped by gcd(a, b); gcd 0 is the zero vector.
DIRECTIONS = {}
for _dir in itertools.product(range(-3, 4), repeat=2):
    DIRECTIONS.setdefault(math.gcd(*_dir), []).append(_dir)

#: gcd classes of (plus, minus) directions, one per op of a cycle.  Six of
#: ten ops are full grids, so the p50 and p90 latencies both fall inside
#: the full-grid cluster on every seed; the other four make cells skipped
#: as non-primitive (gcd 2, 3 and the zero direction).
TUPLE_CYCLE = ((1, 1), (1, 1), (1, 3), (1, 1), (2, 1),
               (1, 1), (0, 1), (1, 1), (2, 3), (1, 1))
TUPLE_CYCLES = 3
TUPLE_RADIUS = 10  # p and q range over [-10, 10]


def _grid(spec):
    return (spec.p_range[1] - spec.p_range[0] + 1) * (spec.q_range[1] - spec.q_range[0] + 1)


class TupleSweep:
    name = "tuple-sweep"
    item = "cells"

    def __init__(self, seed):
        hs = importlib.import_module("hopfglue.sweep")
        rng = random.Random(f"{self.name}/{seed}")
        r = (-TUPLE_RADIUS, TUPLE_RADIUS)
        self.pool = []
        for _ in range(TUPLE_CYCLES):
            for gp, gm in TUPLE_CYCLE:
                (a, b), (c, d) = rng.choice(DIRECTIONS[gp]), rng.choice(DIRECTIONS[gm])
                self.pool.append(hs.SweepSpec.tuples((a, a), (b, b), r, (c, c), (d, d), r))
        self._expected = {}
        self.sizes = {"ops_in_pool": len(self.pool),
                      "grid": f"{2 * TUPLE_RADIUS + 1}x{2 * TUPLE_RADIUS + 1}"}

    def run(self, spec, span=direct):
        hs = sys.modules["hopfglue.sweep"]
        records = hs.sweep(spec)
        return records, hs.summarize(records)

    def _oracle(self, index):
        rows = self._expected.get(index)
        if rows is None:
            spec = self.pool[index]
            (a, _), (b, _), (c, _), (d, _) = spec.a_range, spec.b_range, spec.c_range, spec.d_range
            rows = []
            for p in range(spec.p_range[0], spec.p_range[1] + 1):
                for q in range(spec.q_range[0], spec.q_range[1] + 1):
                    if oracle.is_primitive(a, b, p) and oracle.is_primitive(c, d, q):
                        mu = oracle.tuple_mu(a, b, p, c, d, q)
                        rows.append(((a, b, p, c, d, q), mu) + oracle.group_of_mu(mu))
            self._expected[index] = rows
        return rows

    def check(self, index, output):
        records, summary = output
        got = [(r.params, r.mu, r.group.rank, r.group.invariant_factors) for r in records]
        want = self._oracle(index)
        _expect(got == want, "sweep records differ from the minor-gcd oracle")
        _expect(all(r.homology_hopf == (r.mu == 1) for r in records),
                "homology_hopf flag differs from mu == 1")
        hist = {}
        for row in want:
            hist[row[1]] = hist.get(row[1], 0) + 1
        _expect((summary.total, summary.homology_hopf_count, summary.mu_counts)
                == (len(want), hist.get(1, 0), tuple(sorted(hist.items()))),
                "summary differs from the oracle histogram")
        counters = {"cells_grid": _grid(self.pool[index]), "cells_evaluated": len(records)}
        return len(records), _digest(repr(got), repr(summary)), counters

    def properties(self):
        grid = evaluated = mu0 = hopf = mult0 = 0
        bits = 0
        for i, spec in enumerate(self.pool):
            grid += _grid(spec)
            for (a, b, p, c, d, q), mu, _, _ in self._oracle(i):
                evaluated += 1
                mu0 += mu == 0
                hopf += mu == 1
                mult0 += p == 0 or q == 0
                bits = max(bits, oracle.max_bits((a + p, b, p, c, d, q)))
        return {
            "grid_cells": grid,
            "non_primitive_share": (grid - evaluated) / grid,
            "mu_zero_share": mu0 / evaluated,
            "homology_hopf_share": hopf / evaluated,
            "multiplicity_zero_share": mult0 / evaluated,
            "max_entry_bits": bits,
        }


# --- matrix-certify -----------------------------------------------------

#: Word lengths cycle small, medium, large; L=192 gives multi-digit entries.
WORD_LENGTHS = (12, 48, 192)
BATCH = 40
MATRIX_OPS = 30


class MatrixCertify:
    name = "matrix-certify"
    item = "gluings"

    def __init__(self, seed):
        importlib.import_module("hopfglue.cli")
        base = seed * 100_003
        self.pool = [(BATCH, base + i * BATCH, WORD_LENGTHS[i % len(WORD_LENGTHS)])
                     for i in range(MATRIX_OPS)]
        self.sizes = {"ops_in_pool": len(self.pool), "batch": BATCH,
                      "word_lengths": list(WORD_LENGTHS)}
        self._seen = {"samples": 0, "hopf": 0, "factors": 0, "bits": 0}
        self._checked = set()

    def run(self, entry, span=direct):
        hs, hg, cli = (sys.modules[m] for m in ("hopfglue.sweep", "hopfglue.gluing", "hopfglue.cli"))
        n, seed, word_length = entry
        records = hs.sweep(hs.SweepSpec.matrices(n, seed, word_length))
        certified = []
        for r in records:
            if not r.homology_hopf:
                continue
            cert = hg.reduce_to_standard(hg.normalize_to_sl3(hg.GluingMatrix(r.matrix)))
            text, parsed = span("cli.document_roundtrip", _roundtrip, cli, cert)
            certified.append((text, hg.certificate_failure(parsed)))
        return records, certified

    def check(self, index, output):
        records, certified = output
        n = self.pool[index][0]
        _expect(len(records) == n, "matrix sweep returned the wrong number of samples")
        hopf, parts, bits = [], [], 0
        for r in records:
            m = oracle.as_rows(r.matrix.to_lists())
            bits = max(bits, oracle.max_bits(sum(m, ())))
            _expect(oracle.det3(m) == 1, "sampled matrix does not have determinant 1")
            mu = math.gcd(m[0][2], m[1][2])
            _expect((r.mu, r.homology_hopf, r.group.rank, r.group.invariant_factors)
                    == (mu, mu == 1) + oracle.group_of_mu(mu),
                    "sample invariants differ from gcd(g, h)")
            if mu == 1:
                hopf.append(m)
            parts.append(repr(m))
        _expect(len(hopf) == len(certified), "not every homology-Hopf sample was certified")
        factors = 0
        for m, (text, reason) in zip(hopf, certified):
            _expect(reason is None, f"certificate_failure rejected its own certificate: {reason}")
            doc = json.loads(text)
            error = oracle.certificate_error(m, doc)
            _expect(error is None, str(error))
            factors += len(doc["left_factors"]) + len(doc["right_factors"])
            parts.append(text)
        if index not in self._checked:
            self._checked.add(index)
            seen = self._seen
            seen["samples"] += n
            seen["hopf"] += len(hopf)
            seen["factors"] += factors
            seen["bits"] = max(seen["bits"], bits)
        counters = {"cells_grid": n, "cells_evaluated": len(records),
                    "certificate_factors": factors}
        return n, _digest(*parts), counters

    def properties(self):
        s = self._seen
        return {
            "samples": s["samples"],
            "homology_hopf_share": s["hopf"] / s["samples"],
            "factors_per_certificate": s["factors"] / max(s["hopf"], 1),
            "max_entry_bits": s["bits"],
        }


def _roundtrip(cli, cert):
    text = json.dumps(cli.certificate_document(cert), indent=2, sort_keys=True)
    return text, cli.parse_certificate_document(json.loads(text))


# --- cli ----------------------------------------------------------------

CLI_KINDS = ("classify", "compose", "reduce-verify", "sweep-csv", "sweep-random")
CLI_CYCLES = 2
CLI_SWEEP_RADIUS = 6
CLI_RANDOM_N = 30


def _nine(m):
    return ",".join(str(x) for row in m for x in row)


#: One cli op's exit codes and final stdout; ``first_stdout`` is reduce's
#: certificate in reduce-verify and None otherwise.
CliRun = collections.namedtuple("CliRun", "codes stdout first_stdout")


class Cli:
    name = "cli"
    item = "commands"

    def __init__(self, seed):
        importlib.import_module("hopfglue.cli")
        rng = random.Random(f"{self.name}/{seed}")
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.pool = []
        for _ in range(CLI_CYCLES):
            for kind in CLI_KINDS:
                self.pool.append(getattr(self, "_make_" + kind.replace("-", "_"))(rng))
        self.sizes = {"ops_in_pool": len(self.pool), "sweep_csv_grid":
                      f"{2 * CLI_SWEEP_RADIUS + 1}x{2 * CLI_SWEEP_RADIUS + 1}",
                      "sweep_random_samples": CLI_RANDOM_N}
        self._bits = 0
        self.max_rss_kib = 0

    # input generation

    def _make_classify(self, rng):
        m = bench_sl3(rng, 16)
        if rng.random() < 0.5:
            m = [list(row) for row in oracle.flip_meridian(m)]
        return ("classify", [["classify", "--matrix=" + _nine(m)]], {"matrix": m})

    def _make_compose(self, rng):
        def triple():
            while True:
                t = tuple(rng.randint(-6, 6) for _ in range(3))
                if oracle.is_primitive(*t):
                    return t
        tp, tm = triple(), triple()
        argv = ["compose", "--plus=" + ",".join(map(str, tp)), "--minus=" + ",".join(map(str, tm))]
        return ("compose", [argv], {"plus": tp, "minus": tm})

    def _make_reduce_verify(self, rng):
        while True:
            m = bench_sl3(rng, 24)
            if math.gcd(m[0][2], m[1][2]) == 1:
                break
        if rng.random() < 0.5:
            m = [list(row) for row in oracle.flip_meridian(m)]
        return ("reduce-verify", [["reduce", "--standard", "--matrix=" + _nine(m)], ["verify"]],
                {"matrix": m})

    def _make_sweep_csv(self, rng):
        (a, b), (c, d) = rng.choice(DIRECTIONS[1]), rng.choice(DIRECTIONS[1])
        r = f"{-CLI_SWEEP_RADIUS}:{CLI_SWEEP_RADIUS}"
        argv = ["sweep", f"--direction-plus={a},{b}", f"--direction-minus={c},{d}",
                f"--p-range={r}", f"--q-range={r}", "--format", "csv"]
        return ("sweep-csv", [argv], {"directions": (a, b, c, d)})

    def _make_sweep_random(self, rng):
        seed = rng.randrange(1_000_000)
        argv = ["sweep", "--random", str(CLI_RANDOM_N), "--seed", str(seed), "--word-length", "24"]
        return ("sweep-random", [argv], {})

    # the op

    def _child(self, argv, stdin):
        return run_child([sys.executable, "-m", "hopfglue.cli", *argv], self.env, stdin)

    def run(self, entry, span=direct):
        """One op.  In reduce-verify, verify starts after reduce has exited and
        reads its stdout, so the op's time does not depend on a second free CPU."""
        codes, out, first = [], b"", None
        for argv in entry[1]:
            code, out, rss = self._child(argv, out)
            codes.append(code)
            self.max_rss_kib = max(self.max_rss_kib, rss)
            first = out if first is None else first
        return CliRun(codes, out, first if len(entry[1]) == 2 else None)

    def run_inprocess(self, entry, span=direct):
        """The same op through ``hopfglue.cli.main`` in this process."""
        cli = sys.modules["hopfglue.cli"]
        codes, out, first = [], b"", None
        saved = sys.stdin
        for argv in entry[1]:
            buf = io.StringIO()
            sys.stdin = io.StringIO(out.decode())
            try:
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    codes.append(span("cli.main", cli.main, argv))
            finally:
                sys.stdin = saved
            out = buf.getvalue().encode()
            first = out if first is None else first
        return CliRun(codes, out, first if len(entry[1]) == 2 else None)

    def check(self, index, run):
        kind, _, info = self.pool[index]
        _expect(all(code == 0 for code in run.codes), f"{kind} exited with {run.codes}")
        check = getattr(self, "_check_" + kind.replace("-", "_"))
        counters = check(info, run) or {}
        return 1, _digest(kind, run.stdout, run.first_stdout or b""), counters

    def _check_classify(self, info, run):
        m = oracle.as_rows(info["matrix"])
        doc = json.loads(run.stdout)
        g, h = m[0][2], m[1][2]
        mu = math.gcd(g, h)
        rank, factors = oracle.group_of_mu(mu)
        _expect(oracle.as_rows(doc["matrix"]) == m and doc["det"] == oracle.det3(m)
                and (doc["g"], doc["h"], doc["gcd_gh"]) == (g, h, mu)
                and doc["group"] == {"rank": rank, "invariant_factors": list(factors)}
                and doc["homology_hopf"] == (mu == 1),
                "classify output differs from the oracle")
        self._bits = max(self._bits, oracle.max_bits(sum(m, ())))

    def _check_compose(self, info, run):
        doc = json.loads(run.stdout)
        mu = oracle.tuple_mu(*info["plus"], *info["minus"])
        rank, factors = oracle.group_of_mu(mu)
        group = {"rank": rank, "invariant_factors": list(factors)}
        composed = oracle.as_rows(doc["composed_matrix"])
        _expect(doc["agreement"] is True and doc["group"] == group
                and doc["group_from_composition"] == group
                and oracle.det3(composed) == doc["det"] in (1, -1)
                and math.gcd(composed[0][2], composed[1][2]) == mu,
                "compose output differs from the minor-gcd oracle")

    def _check_reduce_verify(self, info, run):
        doc = json.loads(run.first_stdout)
        error = oracle.certificate_error(info["matrix"], doc)
        _expect(error is None, str(error))
        _expect(run.stdout == b"VALID\n", "verify did not print VALID")
        self._bits = max(self._bits, oracle.max_bits(sum(info["matrix"], [])))
        return {"certificate_factors": len(doc["left_factors"]) + len(doc["right_factors"])}

    def _check_sweep_csv(self, info, run):
        a, b, c, d = info["directions"]
        want = ["a,b,p,c,d,q,mu,homology_hopf,rank,invariant_factors"]
        for p in range(-CLI_SWEEP_RADIUS, CLI_SWEEP_RADIUS + 1):
            for q in range(-CLI_SWEEP_RADIUS, CLI_SWEEP_RADIUS + 1):
                if oracle.is_primitive(a, b, p) and oracle.is_primitive(c, d, q):
                    mu = oracle.tuple_mu(a, b, p, c, d, q)
                    rank, factors = oracle.group_of_mu(mu)
                    hh = "true" if mu == 1 else "false"
                    want.append(f"{a},{b},{p},{c},{d},{q},{mu},{hh},{rank},"
                                + "|".join(map(str, factors)))
        _expect(run.stdout.decode() == "\n".join(want) + "\n", "sweep CSV differs from the oracle")
        return {"cells_grid": (2 * CLI_SWEEP_RADIUS + 1) ** 2, "cells_evaluated": len(want) - 1}

    def _check_sweep_random(self, info, run):
        doc = json.loads(run.stdout)
        hist = {}
        for rec in doc["records"]:
            m = oracle.as_rows(rec["matrix"])
            mu = math.gcd(m[0][2], m[1][2])
            rank, factors = oracle.group_of_mu(mu)
            _expect(oracle.det3(m) == 1 and rec["mu"] == mu and rec["homology_hopf"] == (mu == 1)
                    and (rec["rank"], rec["invariant_factors"]) == (rank, list(factors)),
                    "sweep --random record differs from gcd(g, h)")
            hist[mu] = hist.get(mu, 0) + 1
            self._bits = max(self._bits, oracle.max_bits(sum(m, ())))
        summary = doc["summary"]
        _expect(len(doc["records"]) == CLI_RANDOM_N and summary["total"] == CLI_RANDOM_N
                and summary["homology_hopf"] == hist.get(1, 0)
                and summary["counts_by_mu"] == [[k, v] for k, v in sorted(hist.items())]
                and summary["skipped_non_primitive"] == 0,
                "sweep --random summary differs from the records")
        return {"cells_grid": CLI_RANDOM_N, "cells_evaluated": CLI_RANDOM_N}

    def properties(self):
        kinds = [entry[0] for entry in self.pool]
        return {"commands": {k: kinds.count(k) for k in CLI_KINDS}, "max_entry_bits": self._bits}


WORKLOADS = {w.name: w for w in (TupleSweep, MatrixCertify, Cli)}


def import_for(name):
    """Import what a workload needs; the timed part of set-up."""
    start = time.perf_counter()
    importlib.import_module("hopfglue")
    if name != TupleSweep.name:
        importlib.import_module("hopfglue.cli")
    return time.perf_counter() - start
