"""The benchmark's four workloads.

Each workload makes its inputs from the seed in `setup`, and `round` runs
one whole round of the same operations through a `Round`, which times
them and defers the checks of every output until the round's calls are
done.  Timing covers the library or CLI calls only.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from tropnorm import cli, core, families, graphs, ortho, search

import checks
import oracle as O
from spans import Layers, rate

ROOT = Path(__file__).resolve().parent.parent


def _cpu(children: bool) -> float:
    t = time.process_time()
    if children:
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        t += ru.ru_utime + ru.ru_stime
    return t


class Round:
    """Timings and counts of one round of a workload.  A round's checks are
    deferred until its calls are done (see `check`)."""

    def __init__(self, tracer, index: int = 0, children: bool = False):
        self.tracer = tracer
        self.index = index  # the round's number, which picks its inputs
        self.children = children
        # per operation, in order: (start, end, CPU s, proof?), start and
        # end being perf_counter readings
        self.ops: list[tuple] = []
        # (start, end) of each latency sample for op_p50_s and op_p90_s
        self.samples: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []     # wrong outputs of operations that ran
        self.failures: list[str] = []   # operations that failed
        self._checks: list = []

    @property
    def wall(self) -> float:
        return sum(op[1] - op[0] for op in self.ops)

    def call(self, name, fn, *args, proof=False, sample=False, counts=None, **attrs):
        """Run one operation; return its result, or None when it raised.
        A proof operation counts in proof_s; a sampled one is a latency
        sample for op_p50_s and op_p90_s."""
        self.attempted += 1
        w0, c0 = time.perf_counter(), _cpu(self.children)
        out = None
        try:
            with self.tracer.span(name, **attrs) as sp:
                out = fn(*args)
        except Exception as exc:  # an operation that raises is a failed one
            self.fail(f"{name}{attrs}: {exc!r}")
        else:
            if counts is not None and self.tracer.enabled:
                sp.set(**counts(out))
        w1 = time.perf_counter()
        self.ops.append((w0, w1, _cpu(self.children) - c0, proof))
        if sample:
            self.samples.append((w0, w1))
        return out

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def check(self, fn, *args) -> None:
        """Defer the check `fn(*args)`, which returns a list of errors, until
        `run_checks`: the checks' own memory and time stay out of the
        figures."""
        self._checks.append((fn, args))

    def run_checks(self) -> None:
        for fn, args in self._checks:
            self.errors += fn(*args)
        self._checks = []


def figures(rounds: list[Round], clock) -> dict:
    """The end-to-end figures of a run's rounds together, in reference
    seconds of the host-speed clock (see hostspeed.py).  A percentile
    needs at least ten samples beyond it."""
    samples = [clock.seconds(a, b) for r in rounds for a, b in r.samples]
    if len(samples) < 100:
        raise ValueError(f"{len(samples)} latency samples; op_p90_s needs 100")
    wall = cpu = proof = 0.0
    for a, b, c, is_proof in (op for r in rounds for op in r.ops):
        ref, busy = clock.seconds(a, b), clock.busy(a, b)
        wall += ref
        proof += ref if is_proof else 0.0
        # CPU time less the probes', at the host speed of the interval
        if busy > 0:
            cpu += max(0.0, c - (b - a - busy)) * ref / busy
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "proof_s": proof,
        "op_p50_s": statistics.median(samples),
        "op_p90_s": statistics.quantiles(samples, n=10)[8],
    }


def _random_matrix(rng: random.Random, n: int, density: float, forced=frozenset()):
    return [
        [O.Z if i == j or (i + 1, j + 1) in forced or rng.random() < density else O.M
         for j in range(n)]
        for i in range(n)
    ]


def _nm(a) -> core.NormalMatrix:
    return core.parse_matrix(O.fmt(a))


def _nodes(cert) -> dict:
    return {"nodes": cert.search_stats["nodes"]}


# -- theta-search ------------------------------------------------------------


class ThetaSearch:
    """The bounded proof of theta(5) = 14 and the exhaustive oracles.

    The searches take no random input: their instances are fixed by n and
    the budget, so the seed changes nothing here.  The latency samples are
    the 2,946 pairs `enumerate_orthogonal_pairs(4, 10)` yields, each timed
    from the call to its arrival, as the caller of the generator waits
    for it.  (The wait from one pair to the next, some 15 us, jumped
    between 9 and 16 us with the host's state and moved the percentiles
    by 30% and more from run to run.)"""

    rounds = 1

    def __init__(self, seed: int, tracer):
        self.tracer = tracer

    def setup(self) -> None:
        # warm-up on an instance the round does not run
        search.theta_bounded(3, 5)

    @staticmethod
    def _enumerate(rnd: Round) -> list:
        pairs = []
        t0 = time.perf_counter()
        for pair in search.enumerate_orthogonal_pairs(4, 10):
            rnd.samples.append((t0, time.perf_counter()))
            pairs.append(pair)
        return pairs

    def round(self, rnd: Round) -> None:
        c = {}
        c["d5"] = rnd.call("search.theta_delta", search.theta_delta_exhaustive, 5,
                           counts=_nodes, case="5")
        pairs = rnd.call("search.enumerate", self._enumerate, rnd,
                         counts=lambda p: {"pairs": len(p)}, case="4,10")
        c["3"] = rnd.call("search.theta_exhaustive", search.theta_exhaustive, 3,
                          counts=_nodes, case="3")
        c["4"] = rnd.call("search.theta_exhaustive", search.theta_exhaustive, 4,
                          counts=_nodes, case="4")
        c["4b"] = rnd.call("search.theta_bounded", search.theta_bounded, 4, 9,
                           counts=_nodes, case="4,9")
        theorem = rnd.call("search.check_theorem", search.check_theorem_theta, 4, case="4")
        proof = rnd.call("search.theta_bounded", search.theta_bounded, 5, 13,
                         proof=True, counts=_nodes, case="5,13")

        rnd.check(self._check_oracles, c, pairs, theorem)
        if proof is not None:
            # the paper's value theta(5) = 14
            rnd.check(lambda: checks.check_theta_cert(proof.to_document(), 5, 14, "bounded_proof"))

    def layer_metrics(self, lay: Layers) -> dict:
        m = {
            "search.theta_bounded.s": lay.busy("search.theta_bounded", "5,13"),
            "search.theta_bounded.nodes": lay.total("search.theta_bounded", "nodes", "5,13"),
            "search.theta_exhaustive.s": lay.busy("search.theta_exhaustive", "4"),
            "search.theta_exhaustive.nodes": lay.total("search.theta_exhaustive", "nodes", "4"),
            "search.theta_delta.s": lay.busy("search.theta_delta"),
            "search.theta_delta.nodes": lay.total("search.theta_delta", "nodes"),
            "search.enumerate.s": lay.busy("search.enumerate"),
            "search.check_theorem.s": lay.busy("search.check_theorem"),
        }
        m["search.theta_bounded.nodes_per_s"] = rate(
            m["search.theta_bounded.nodes"], m["search.theta_bounded.s"])
        m["search.enumerate.pairs_per_s"] = rate(
            lay.total("search.enumerate", "pairs"), m["search.enumerate.s"])
        return m

    @staticmethod
    def _check_oracles(c: dict, pairs, theorem) -> list[str]:
        # the paper's values: theta(3, 4) = 6, 8 and theta_delta(5) = 8
        docs = {k: v.to_document() for k, v in c.items() if v is not None}
        errs = []
        if "3" in docs:
            errs += checks.check_theta_cert(docs["3"], 3, 6, "exhaustive")
        if "d5" in docs:
            errs += checks.check_theta_delta_cert(docs["d5"], 5, 8)
        if "4" not in docs:
            return errs
        errs += checks.check_theta_cert(docs["4"], 4, 8, "exhaustive")
        minimal = {(w["a"], w["b"]) for w in docs["4"]["witnesses"]}
        if "4b" in docs:
            errs += checks.diff("theta_bounded(4, 9) value", docs["4b"]["value"], 8)
            errs += checks.diff(
                "theta_bounded(4, 9) witnesses = theta_exhaustive(4) witnesses",
                {(w["a"], w["b"]) for w in docs["4b"]["witnesses"]}, minimal)
        if pairs is not None:
            pairs = [(core.format_matrix(a), core.format_matrix(b)) for a, b in pairs]
            errs += checks.check_enumeration(pairs, 10, minimal)
        if theorem is not None:
            errs += checks.diff("check_theorem_theta(4)",
                                (theorem["holds"], theorem["theta"], theorem["minimal_pairs"]),
                                (True, 8, len(minimal)))
        return errs


# -- graph-metrics --------------------------------------------------------------


class GraphMetrics:
    """build and stats of ORTHO n=4, VNL n=5 and WNL n=4, the WNL n=5 build
    and a seeded batch of dist queries on WNL n=5, whose calls are the
    latency samples."""

    rounds = 1

    WNL_PAIRS = 40  # each half: random vertex pairs and adjacent pairs; dist both ways
    DIST_SLICES = 7

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tracer = tracer

    def setup(self) -> None:
        rng = random.Random(self.seed)
        wnl_pairs = []
        while len(wnl_pairs) < self.WNL_PAIRS:
            a, b = _random_matrix(rng, 5, 0.5), _random_matrix(rng, 5, 0.5)
            if a != b and O.is_vertex("wnl", a) and O.is_vertex("wnl", b):
                wnl_pairs.append((_nm(a), _nm(b)))
        while len(wnl_pairs) < 2 * self.WNL_PAIRS:
            # A carries W(k;m) and both corner cells, B carries W(m;k): an
            # edge under the first sufficient condition of the WNL rule
            k, m = rng.sample(range(1, 6), 2)
            a = _random_matrix(rng, 5, 0.3, O.atom_zeros("W", k, m, 5) | {(k, m), (m, k)})
            b = _random_matrix(rng, 5, 0.3, O.atom_zeros("W", m, k, 5))
            if a != b and not O.is_all_zero(a) and not O.is_all_zero(b):
                wnl_pairs.append((_nm(a), _nm(b)))
        self.wnl_pairs = wnl_pairs
        g = graphs.build(graphs.ORTHO, 3)
        graphs.stats(g)
        graphs.dist(g, g.vertices[0], g.vertices[-1])
        graphs.stats(graphs.build(graphs.WNL, 3))

    def _wnl5_peak(self) -> None:
        """Traced runs only: the tracemalloc peak of one more WNL n=5 build.
        tracemalloc slows the build twofold, so the timed build runs
        without it."""
        tracemalloc.start()
        try:
            with self.tracer.span("graphs.build", case="wnl5-tracemalloc") as sp:
                graphs.build(graphs.WNL, 5)
                sp.set(peak_mb=tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()

    @staticmethod
    def _dists(rnd: Round, g5, pairs) -> None:
        if g5 is None:
            return
        for u, v in pairs:
            d_uv = rnd.call("graphs.dist", graphs.dist, g5, u, v, sample=True, case="wnl5")
            d_vu = rnd.call("graphs.dist", graphs.dist, g5, v, u, sample=True, case="wnl5")
            # the paper's diameter of WNL n=5 is 2; edges from graphs.adjacent
            rnd.check(lambda u=u, v=v, d_uv=d_uv, d_vu=d_vu: checks.check_dist(
                d_uv, d_vu, graphs.adjacent(graphs.WNL, u, v), u == v, 2))

    def round(self, rnd: Round) -> None:
        want = {
            # paper values, and the vertex count 2^(n^2-n) - 2 of ORTHO
            "ortho4": lambda: {"vertices": 2**12 - 2, "diameter": 3, "girth": 3,
                               "connected": True},
            "vnl5": lambda: {"diameter": 2, "girth": 3, "connected": True},
            "wnl4": lambda: {"vertices": _wnl4_count(), "diameter": 2, "girth": 3,
                             "connected": True},
        }
        g5 = rnd.call("graphs.build", graphs.build, graphs.WNL, 5, case="wnl5")
        # the dist batch goes in slices between the other calls, so that
        # its latencies sample the whole round and not one spell of the host
        slices = [self.wnl_pairs[i::self.DIST_SLICES] for i in range(self.DIST_SLICES)]
        self._dists(rnd, g5, slices.pop())
        for case, kind, n in (("ortho4", graphs.ORTHO, 4), ("vnl5", graphs.VNL, 5),
                              ("wnl4", graphs.WNL, 4)):
            g = rnd.call("graphs.build", graphs.build, kind, n, proof=True, case=case)
            self._dists(rnd, g5, slices.pop())
            if g is not None:
                doc = rnd.call("graphs.stats", graphs.stats, g, proof=True, case=case)
                if doc is not None:
                    rnd.check(lambda doc=doc, case=case: checks.check_graph_stats(
                        doc, want[case]()))
            self._dists(rnd, g5, slices.pop())
        del g5
        if self.tracer.enabled:
            self._wnl5_peak()

    def layer_metrics(self, lay: Layers) -> dict:
        m = {f"graphs.build.{case}.s": lay.busy("graphs.build", case)
             for case in ("ortho4", "vnl5", "wnl4", "wnl5")}
        m.update({f"graphs.stats.{case}.s": lay.busy("graphs.stats", case)
                  for case in ("ortho4", "vnl5", "wnl4")})
        m["graphs.build.wnl5.peak_mb"] = lay.total("graphs.build", "peak_mb", "wnl5-tracemalloc")
        m["graphs.dist.s"] = lay.busy("graphs.dist")
        m["graphs.dist.calls"] = lay.calls("graphs.dist")
        return m


def _wnl4_count() -> int:
    """The vertices of WNL n=4, counted by brute force over all 4,096 matrices."""
    return sum(1 for a in O.all_matrices(4) if O.is_vertex("wnl", a))


# -- pair-queries ----------------------------------------------------------------


class PairQueries:
    """A seeded stream of pairs of order 8..12 per round: half generic
    minimal-family pairs, half random pairs near the orthogonality
    threshold (half of those orthogonal).  The make-up is fixed so that the
    latency percentiles compare across seeds and rounds; each round's pairs
    are fresh: no pair is queried twice in a run."""

    rounds = 2

    ORDERS = range(8, 13)
    PER_ORDER = 30     # family pairs, and random pairs, per order
    DENSITY = 0.6      # zero density where about half the pairs are orthogonal

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tracer = tracer

    def _stream(self, rng: random.Random, per_order: int, seen: set) -> list:
        """Pairs no earlier stream of the run holds (`seen`)."""
        stream = []
        for n in self.ORDERS:
            for i in range(per_order):
                # mm_classify stops at the first matching (k, m, variant), so
                # k runs through every row evenly to keep the work per round
                # the same on every seed
                k = 1 + i % n
                while True:
                    m = rng.choice([x for x in range(1, n + 1) if x != k])
                    variant = rng.randrange(4)
                    a, b = families.mm_pair(families.MmVariant(k, m, variant), n)
                    if (a.rows, b.rows) not in seen:
                        break
                seen.add((a.rows, b.rows))
                stream.append((a, b, (n, k, m, variant)))
            need = {True: per_order // 2, False: per_order - per_order // 2}
            while need[True] or need[False]:
                a = _random_matrix(rng, n, self.DENSITY)
                b = _random_matrix(rng, n, self.DENSITY)
                orth = O.orthogonal(a, b)
                pair = (_nm(a), _nm(b))
                if need[orth] and (pair[0].rows, pair[1].rows) not in seen:
                    need[orth] -= 1
                    seen.add((pair[0].rows, pair[1].rows))
                    stream.append((*pair, None))
        rng.shuffle(stream)
        return stream

    def setup(self) -> None:
        rng = random.Random(self.seed)
        seen = set()  # no pair is queried twice in a run
        warm_up = self._stream(rng, 2, seen)
        self.streams = [self._stream(rng, self.PER_ORDER, seen) for _ in range(self.rounds)]
        for a, b, _ in warm_up:
            self._query(a, b)

    def _query(self, a, b):
        tr = self.tracer
        n = a.n
        with tr.span("ortho.is_orthogonal"):
            orth = ortho.is_orthogonal(a, b)
        with tr.span("core.mat_odot"):
            ab = core.mat_odot(a, b)
        with tr.span("core.mat_odot"):
            ba = core.mat_odot(b, a)
        with tr.span("ortho.indicator", cells=n * (n - 1)):
            rep = ortho.indicator(a, b)
        rows = []
        for i in range(1, n + 1):
            with tr.span("ortho.row_type"):
                rows.append(ortho.row_type(rep, i))
        with tr.span("families.mm_classify"):
            variant = families.mm_classify(a, b)
        return orth, ab, ba, rep, rows, variant

    def round(self, rnd: Round) -> None:
        for a, b, fam in self.streams[rnd.index]:
            out = rnd.call("query", self._query, a, b, sample=True, proof=fam is not None)
            if out is not None:
                rnd.check(lambda a=a, b=b, out=out, fam=fam: checks.check_pair_query(
                    core.format_matrix(a), core.format_matrix(b), query_texts(out), fam))

    def layer_metrics(self, lay: Layers) -> dict:
        m = {f"{name}.s": lay.busy(name)
             for name in ("core.mat_odot", "ortho.is_orthogonal", "families.mm_classify",
                          "ortho.indicator", "ortho.row_type")}
        m["ortho.indicator.cells_per_s"] = rate(
            lay.total("ortho.indicator", "cells"), m["ortho.indicator.s"])
        return m


def query_texts(out) -> dict:
    """A pair query's outputs in the text form `checks.check_pair_query` reads."""
    orth, ab, ba, rep, rows, v = out
    return {
        "orthogonal": orth,
        "ab": core.format_matrix(ab),
        "ba": core.format_matrix(ba),
        "report": rep.to_document(),
        "rows": [(r.kind, r.k, r.m) for r in rows],
        "variant": None if v is None else (v.k, v.m, v.variant),
    }


# -- cli-oneshot -------------------------------------------------------------------


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH="src")


def _importtime(stderr: str) -> dict:
    """Cumulative import times (s) of tropnorm and numpy from -X importtime."""
    out = {"import_s": 0.0, "numpy_s": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        if name == "tropnorm":
            out["import_s"] = int(parts[1]) / 1e6
        elif name == "numpy":
            out["numpy_s"] = int(parts[1]) / 1e6
    return out


class CliOneshot:
    """A seeded, fixed cycle of one-shot `python -m tropnorm.cli` runs."""

    rounds = 1

    children = True  # CPU time and peak memory are the children's

    # invocations per cycle of each kind; graph and dist are the commands
    # that need numpy
    MAKEUP = {
        "mul": 12, "indicator": 12, "classify": 12, "mm": 10, "generic": 8,
        "border": 12, "reduce": 6, "theta": 4, "check-theorem": 4,
        "graph": 8, "dist": 12,
    }
    PROOF = ("theta", "check-theorem")
    INTERPRETER_STARTS = 5

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tracer = tracer
        self.clock = None  # the run's SpeedClock, paused while a child runs
        self._graphs = {}

    # -- inputs

    def _cycle(self, rng: random.Random) -> list:
        cmds = []
        mat = lambda n, d=0.5: O.fmt(_random_matrix(rng, n, d))  # noqa: E731
        inline = lambda txt: txt.replace("\n", "/")  # noqa: E731
        for _ in range(self.MAKEUP["mul"]):
            n = rng.randint(3, 6)
            cmds.append(("mul", ["mul", inline(mat(n)), inline(mat(n))]))
        for _ in range(self.MAKEUP["indicator"]):
            n = rng.randint(3, 5)
            cmds.append(("indicator", ["indicator", inline(mat(n, 0.6)), inline(mat(n, 0.6))]))
        for i in range(self.MAKEUP["classify"]):
            n = rng.randint(4, 6)
            if i % 2:
                k, m = rng.sample(range(1, n + 1), 2)
                a, b = map(O.fmt, O.family_pair(n, k, m, rng.randrange(4)))
            else:
                a, b = mat(n, 0.6), mat(n, 0.6)
            cmds.append(("classify", ["classify", inline(a), inline(b)]))
        for _ in range(self.MAKEUP["mm"]):
            n = rng.randint(4, 8)
            k, m = rng.sample(range(1, n + 1), 2)
            cmds.append(("mm", ["mm", "--n", str(n), "--k", str(k), "--m", str(m),
                                "--variant", str(rng.randrange(4))]))
        for _ in range(self.MAKEUP["generic"]):
            n = rng.randint(3, 6)
            atoms = [(rng.choice("VWZ"), *rng.sample(range(1, n + 1), 2))
                     for _ in range(rng.randint(1, 3))]
            spec = "&".join(f"{k}:{p},{q}" for k, p, q in atoms)
            cmds.append(("generic", ["generic", "--n", str(n), "--set", spec]))
        vec = lambda n: "".join(rng.choice("0-") for _ in range(n))  # noqa: E731
        for i in range(self.MAKEUP["border"]):
            n = rng.randint(3, 4)
            action = ("compose", "split", "check", "check-self")[i % 4]
            if action == "compose":
                args = [inline(mat(n)), vec(n), vec(n)]
            elif action == "split":
                args = [inline(mat(n + 1))]
            elif action == "check":
                a, b = self._orthogonal_pair(rng, n)
                args = [inline(a), vec(n), vec(n), inline(b), vec(n), vec(n)]
            else:
                a, _ = self._orthogonal_pair(rng, n, self_orth=True)
                args = [inline(a), vec(n), vec(n)]
            # "--" keeps a vector such as "-0-" from being read as an option
            cmds.append(("border", ["border", action, "--", *args]))
        for _ in range(self.MAKEUP["reduce"]):
            n = rng.randint(3, 5)
            idx = rng.randint(1, n)
            a = _random_matrix(rng, n, 0.5)
            for j in range(n):
                if j != idx - 1:
                    a[idx - 1][j] = a[j][idx - 1] = O.M
            cmds.append(("reduce", ["reduce", inline(O.fmt(a)), "--i", str(idx)]))
        cmds += [("theta", ["theta", "--n", "3"])] * self.MAKEUP["theta"]
        cmds += [("check-theorem", ["check-theorem", "--n", "2"])] * self.MAKEUP["check-theorem"]
        graph_cases = [("ortho", 3), ("ortho", 3), ("vnl", 3), ("vnl", 3),
                       ("wnl", 3), ("wnl", 3), ("wnl", 3),
                       # prints "girth": Infinity, which is not JSON: counted failed
                       ("ortho", 2)]
        assert len(graph_cases) == self.MAKEUP["graph"]
        for kind, n in graph_cases:
            cmds.append(("graph", ["graph", "--kind", kind, "--n", str(n)]))
        for i in range(self.MAKEUP["dist"]):
            kind = ("ortho", "wnl")[i % 2]
            while True:
                a, b = _random_matrix(rng, 3, 0.5), _random_matrix(rng, 3, 0.5)
                if O.is_vertex(kind, a) and O.is_vertex(kind, b):
                    break
            cmds.append(("dist", ["dist", "--kind", kind, "--n", "3",
                                  inline(O.fmt(a)), inline(O.fmt(b))]))
        rng.shuffle(cmds)
        return cmds

    @staticmethod
    def _orthogonal_pair(rng, n, self_orth=False):
        while True:
            a = _random_matrix(rng, n, 0.7)
            b = a if self_orth else _random_matrix(rng, n, 0.7)
            if O.orthogonal(a, b):
                return O.fmt(a), O.fmt(b)

    def setup(self) -> None:
        self.cycle = self._cycle(random.Random(self.seed))
        self._child(["mul", "0-/-0", "0-/-0"])
        self._child(["graph", "--kind", "wnl", "--n", "3"])

    # -- running

    def _paused(self):
        return self.clock.paused() if self.clock else contextlib.nullcontext()

    def _child(self, argv, importtime=False):
        flags = ["-X", "importtime"] if importtime else []
        with self._paused():
            return subprocess.run(
                [sys.executable, *flags, "-m", "tropnorm.cli", *argv],
                cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=120,
            )

    def _in_process(self, argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)

    def round(self, rnd: Round) -> None:
        tr = self.tracer
        for kind, argv in self.cycle:
            proc = rnd.call("cli.child", self._child, argv, sample=True,
                            proof=kind in self.PROOF, command=kind)
            if proc is not None:
                rnd.check(self._check_run, rnd, kind, argv, proc)
            if tr.enabled:
                # the same run again under -X importtime, which is tracing
                # too: its extra time counts as tracing overhead
                with tr.span("cli.child.importtime", command=kind) as sp:
                    timed = self._child(argv, importtime=True)
                sp.set(**_importtime(timed.stderr))
                tr.overhead += sp.seconds - (rnd.ops[-1][1] - rnd.ops[-1][0])
        if tr.enabled:
            # in-process main and bare interpreter start-up, traced only
            for kind, argv in self.cycle:
                with tr.span("cli.main", command=kind):
                    self._in_process(argv)
            for _ in range(self.INTERPRETER_STARTS):
                with tr.span("cli.interpreter"), self._paused():
                    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)

    def _check_run(self, rnd: Round, kind: str, argv: list, proc) -> list[str]:
        """A run that exits non-zero or prints no strict JSON is a failed
        operation; otherwise its document is checked."""
        try:
            if proc.returncode != 0:
                raise ValueError(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
            doc = O.strict_json(proc.stdout)
        except ValueError as exc:
            rnd.fail(f"{' '.join(argv)}: {exc}")
            return []
        return [f"{' '.join(argv)}: {e}" for e in self.check_doc(kind, argv, doc)]

    def layer_metrics(self, lay: Layers) -> dict:
        return {
            "cli.import.s": lay.each("cli.child.importtime", "import_s"),
            "cli.import.numpy.s": lay.each("cli.child.importtime", "numpy_s"),
            "cli.main.s": lay.each("cli.main"),
            "cli.interpreter.s": lay.each("cli.interpreter"),
        }

    # -- checks

    def check_doc(self, kind: str, argv: list, doc: dict) -> list[str]:
        d = checks.diff
        mats = lambda *txts: [t.replace("/", "\n") for t in txts]  # noqa: E731
        if kind == "mul":
            a_txt, b_txt = mats(argv[1], argv[2])
            prod = O.product(O.parse(a_txt), O.parse(b_txt))
            return d("product", doc["product"], O.fmt(prod)) + d(
                "is_all_zero", doc["is_all_zero"], O.is_all_zero(prod))
        if kind == "indicator":
            a_txt, b_txt = mats(argv[1], argv[2])
            return checks.check_indicator_doc(a_txt, b_txt, doc)
        if kind == "classify":
            a_txt, b_txt = mats(argv[1], argv[2])
            a, b = O.parse(a_txt), O.parse(b_txt)
            v = O.family_variant(a, b)
            rows = [(r["kind"], r["k"], r["m"]) for r in doc["rows"]]
            return (d("orthogonal", doc["orthogonal"], O.orthogonal(a, b))
                    + d("sigma", doc["sigma"], O.sigma(a, b))
                    + d("rows", rows, O.row_types(a, b, O.classify(a, b)))
                    + d("family_variant", doc["family_variant"],
                        None if v is None else dict(zip(("k", "m", "variant"), v))))
        if kind == "mm":
            n, k, m, variant = (int(argv[i]) for i in (2, 4, 6, 8))
            a, b = O.family_pair(n, k, m, variant)
            cls = O.classify(a, b)
            return (d("pair", (doc["a"], doc["b"]), (O.fmt(a), O.fmt(b)))
                    + d("sigma", doc["sigma"], 4 * n - 6)
                    + d("orthogonal", doc["orthogonal"], True)
                    + d("prop_count", doc["prop_count"], 4 * n - 6)
                    + d("gift_count", doc["gift_count"], (n - 2) * (n - 3))
                    + d("cost_count", doc["cost_count"], cls["cost_count"]))
        if kind == "generic":
            n = int(argv[2])
            atoms = [(p[0], *map(int, p[2:].split(","))) for p in argv[4].split("&")]
            return d("matrix", doc["matrix"], O.fmt(O.generic(n, atoms)))
        if kind == "border":
            return self._check_border(argv[1], argv[3:], doc)
        if kind == "reduce":
            a = O.parse(mats(argv[1])[0])
            return d("matrix", doc["matrix"], O.fmt(O.delete_index(a, int(argv[3]))))
        if kind == "theta":
            return checks.check_theta_cert(doc, 3, 6, "exhaustive")
        if kind == "check-theorem":
            return d("check-theorem --n 2", (doc["mode"], doc["holds"], doc["theta"]),
                     ("equivalence", True, 2))
        if kind in ("graph", "dist"):
            g = self._brute_graph(argv[argv.index("--kind") + 1], int(argv[argv.index("--n") + 1]))
            if kind == "graph":
                want = {k: v for k, v in g.items() if k not in ("dist", "index")}
                return checks.check_graph_stats(doc, want)
            iu, iv = (g["index"][t] for t in mats(argv[5], argv[6]))
            want = g["dist"][iu][iv]
            return d("dist", doc["dist"], "inf" if want == float("inf") else want)
        return [f"no check for {kind}"]

    def _check_border(self, action, args, doc) -> list[str]:
        d = checks.diff
        vec = lambda s: [O.Z if ch == "0" else O.M for ch in s]  # noqa: E731
        mat = lambda s: O.parse(s.replace("/", "\n"))  # noqa: E731
        if action == "compose":
            want = O.border_compose(mat(args[0]), vec(args[1]), vec(args[2]))
            return d("matrix", doc["matrix"], O.fmt(want))
        if action == "split":
            block, v, w = O.border_split(mat(args[0]))
            return d("split", (doc["block"], doc["v"], doc["w"]),
                     (O.fmt(block), O.vec_text(v), O.vec_text(w)))
        c1 = O.border_compose(mat(args[0]), vec(args[1]), vec(args[2]))
        if action == "check":
            c2 = O.border_compose(mat(args[3]), vec(args[4]), vec(args[5]))
            return d("orthogonal", doc["orthogonal"], O.orthogonal(c1, c2))
        return d("self_orthogonal", doc["self_orthogonal"], O.orthogonal(c1, c1))

    def _brute_graph(self, kind: str, n: int) -> dict:
        """Stats and all distances of a graph at small n by brute force:
        ORTHO edges from the oracle's orthogonality test, VNL and WNL edges
        from graphs.adjacent."""
        key = (kind, n)
        if key not in self._graphs:
            verts = [a for a in O.all_matrices(n) if O.is_vertex(kind, a)]
            if kind == "ortho":
                adj = O.orthogonal
            else:
                adj = lambda a, b: graphs.adjacent(kind, _nm(a), _nm(b))  # noqa: E731
            g = O.graph_stats(verts, adj)
            g["index"] = {O.fmt(a): i for i, a in enumerate(verts)}
            self._graphs[key] = g
        return self._graphs[key]


WORKLOADS = {
    "theta-search": ThetaSearch,
    "graph-metrics": GraphMetrics,
    "pair-queries": PairQueries,
    "cli-oneshot": CliOneshot,
}
