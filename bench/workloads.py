"""The benchmark's workloads: closed loops with a single caller.

Each workload is a fixed round of operations, repeated whole until the run
length has passed and at least MIN_OPS operations were made, so that every
run attempts the same mix. Only the program's work is timed; inputs are
made and outputs checked between operations.
"""

from __future__ import annotations

import io
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from time import perf_counter

import numpy as np

import checks
import schurkit.circuit
import schurkit.cli
import schurkit.schur
from checks import CheckFailed
from schurkit.bases import enumerate_gz, gz_to_ssyt
from schurkit.partitions import dim_P, dim_Q, enumerate_partitions
from tracing import Tracer

MIN_OPS = 100
# Cold set-ups per run of an apply workload, all but the last in a fork:
# about 0.5 s each at d=2, about 7 s each at d>=4.
SETUP_SAMPLES = {"apply-qubit": 7, "apply-qudit": 3}
# dense-cold: fresh interpreters started per round, spread over the round
# so that the samples span the run and not one moment of the machine.
IMPORTS_PER_ROUND = 3
TRACE_ROUNDS = 2  # rounds traced after the set-up in a --trace 1 run

# (n, d) and how many forward/inverse pairs of that size one round holds.
# The repeats place the median and the 90th percentile inside a size's
# samples, not at the edge between two sizes.
APPLY_ROUNDS = {
    "apply-qubit": (((12, 2), 3), ((16, 2), 4), ((20, 2), 1)),
    "apply-qudit": (((9, 4), 1), ((7, 5), 1), ((6, 6), 1)),
}

# One round of the dense route, interleaved. Per round: cg x5, verify x3,
# schur x4, circuit --decompose x5, replay x3. Sorted by latency, the
# median falls among the ~110 ms circuit operations at (7, 2) and the 90th
# percentile among the replays. A schur operation precedes the circuit
# operations of its size: its checked matrix is what their gate lists must
# replay to.
DENSE_ROUND = (
    ("cg", "2,2,1", 3),
    ("schur", 7, 2),
    ("cg", "2,1,1", 4),
    ("circuit", 7, 2),
    ("verify", 4, 3),
    ("schur", 5, 3),
    ("replay", 7, 2),
    ("cg", "2,2,1", 3),
    ("verify", 7, 2),
    ("circuit", 5, 3),
    ("circuit", 7, 2),
    ("cg", "2,1,1", 4),
    ("replay", 7, 2),
    ("verify", 4, 3),
    ("circuit", 7, 2),
    ("schur", 9, 2),
    ("cg", "2,2,1", 3),
    ("schur", 5, 3),
    ("circuit", 5, 3),
    ("replay", 7, 2),
)
VERIFY_TRIALS = 2


def _peak_rss_mb(usage) -> float:
    return usage.ru_maxrss / 1024.0  # Linux reports KiB


def summarize(loop: Loop, setup_s: float, peak_rss_mb: float) -> dict:
    """The end-to-end metrics of a run.

    ops_per_s is the median over rounds of each round's passed operations
    per second of timed work: a rare stall of the machine (a page
    compaction, a neighbour's burst) moves one round, not the run's figure.
    """
    latencies = loop.latencies
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    values = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(loop.round_rates), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def sector_bytes_peak(n: int, d: int, dense: bool) -> int:
    """Computed, not measured: the largest sum of input and output sector
    tensors over the cascade's steps, from dim_Q, dim_P, d and n.

    schur_apply carries complex (Q, P, d^(n-k)) tensors; the dense build
    carries real (Q, P, d^k) tensors.
    """

    def entries(k: int) -> int:
        cols = d**k if dense else d ** (n - k)
        return sum(dim_Q(lam, d) * dim_P(lam) for lam in enumerate_partitions(d, k)) * cols

    itemsize = 8 if dense else 16
    return max(itemsize * (entries(k) + entries(k + 1)) for k in range(1, n))


def _fork(child) -> tuple[dict | None, object]:
    """Run child() in a forked process; return its JSON reply and rusage.

    The child starts from this process's state, so nothing it computes or
    caches comes back. The reply is None when the child died.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        code = 0
        try:
            reply = json.dumps(child()).encode()
        except BaseException as exc:  # report anything, then leave
            reply = json.dumps({"error": repr(exc)}).encode()
            code = 1
        with os.fdopen(wfd, "wb") as out:
            out.write(reply)
        os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as inp:
        raw = inp.read()
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not raw:
        return None, usage
    return json.loads(raw), usage


class Loop:
    """Counts and latencies of a closed loop of whole rounds."""

    def __init__(self):
        self.latencies: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.traced = {"ops": 0, "time": 0.0}  # the traced rounds' share
        self.round_rates: list[float] = []  # passed operations per timed second
        self._round = [0, 0.0]

    def record(self, kind: str, latency: float | None, error: str | None, traced=False) -> None:
        self.attempted += 1
        if error is None:
            self._round[0] += 1
        if latency is not None:
            self._round[1] += latency
            self.latencies.append(latency)
            self.by_kind.setdefault(kind, []).append(latency)
            if traced:
                self.traced["ops"] += 1
                self.traced["time"] += latency
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)

    def end_round(self) -> None:
        if self._round[1] > 0:
            self.round_rates.append(self._round[0] / self._round[1])
        self._round = [0, 0.0]

    def export(self) -> dict:
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}

    def merge(self, data: dict) -> None:
        self.latencies += data["latencies"]
        for kind, times in data["by_kind"].items():
            self.by_kind.setdefault(kind, []).extend(times)
        self.round_rates += data["round_rates"]
        self.attempted += data["attempted"]
        self.failed += data["failed"]
        self.errors += data["errors"][: 5 - len(self.errors)]
        for key in self.traced:
            self.traced[key] += data["traced"][key]


# -- apply-qubit, apply-qudit ----------------------------------------------------


class ApplyWorkload:
    """Warm schur_apply, forward then inverse, interleaved over sizes.

    A run is a few epochs, each a fork of a process that has imported
    schurkit and computed nothing. An epoch times its cold set-up (one
    sample of setup_s), then runs whole rounds warm for its share of the
    run length. Spreading set-ups and warm rounds over the run keeps one
    slow or fast stretch of the machine from setting either metric.
    """

    def __init__(self, name: str, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)  # each epoch reseeds it
        self.round = []
        for rep in range(max(r for _, r in APPLY_ROUNDS[name])):
            self.round.extend(size for size, r in APPLY_ROUNDS[name] if rep < r)
        self.sizes = [size for size, _ in APPLY_ROUNDS[name]]
        self.epochs = SETUP_SAMPLES[name]
        self._layout: dict = {}

    def _apply(self, tracer, v, n, d, direction):
        t0 = perf_counter()
        if tracer is None:
            out = schurkit.schur.schur_apply(v, n, d, direction, max_dim=d**n)
        else:
            tracer.resume()
            try:
                out = tracer.call(
                    f"schur.{direction}", schurkit.schur.schur_apply, v, n, d, direction,
                    max_dim=d**n,
                )
            finally:
                tracer.pause()
        return out, perf_counter() - t0

    def setup(self, tracer=None) -> float:
        """First forward and inverse at every size, from cold caches."""
        inputs = [checks.random_state(d**n, np.random.default_rng(n)) for n, d in self.sizes]
        total = 0.0
        for (n, d), v in zip(self.sizes, inputs):
            out, t_fwd = self._apply(tracer, v, n, d, "forward")
            _, t_inv = self._apply(tracer, out, n, d, "inverse")
            total += t_fwd + t_inv
        return total

    def layout(self, n: int, d: int):
        """Block shapes and per-row torus weights of the forward output."""
        if (n, d) not in self._layout:
            blocks, weights = [], []
            for lam in enumerate_partitions(d, n):
                dq, dp = dim_Q(lam, d), dim_P(lam)
                if dq == 0:
                    continue
                blocks.append((dq, dp))
                wq = np.zeros((dq, d))
                for row, q in enumerate(enumerate_gz(lam, d)):
                    for entry in (e for tab_row in gz_to_ssyt(q) for e in tab_row):
                        wq[row, entry - 1] += 1
                weights.append(np.repeat(wq, dp, axis=0))
            if sum(a * b for a, b in blocks) != d**n:
                raise RuntimeError(f"blocks of ({n}, {d}) do not cover d^n")
            self._layout[(n, d)] = (blocks, np.concatenate(weights))
        return self._layout[(n, d)]

    def _check_forward(self, kind: int, v, out, n: int, d: int) -> None:
        """One of three properties, in turn, each needing one more forward."""
        checks.check_norm(out)
        blocks, weights = self.layout(n, d)

        def fwd(x):
            return schurkit.schur.schur_apply(x, n, d, max_dim=d**n)

        if kind == 0:
            theta = self.rng.uniform(0, 2 * np.pi, d)
            moved = checks.tensor_power_apply(np.diag(np.exp(1j * theta)), n, v)
            checks.check_torus(out, fwd(moved), weights, theta)
        elif kind == 1:
            moved = checks.tensor_power_apply(checks.haar_unitary(d, self.rng), n, v)
            checks.check_column_norms(out, fwd(moved), blocks)
        else:
            moved = checks.permute_qudits(v, self.rng.permutation(n), d)
            checks.check_row_norms(out, fwd(moved), blocks)

    def _round(self, loop: Loop, index: int, tracer) -> None:
        for i, (n, d) in enumerate(self.round):
            v = checks.random_state(d**n, self.rng)
            out, t_fwd = self._apply(tracer, v, n, d, "forward")
            error = None
            try:
                self._check_forward((index + i) % 3, v, out, n, d)
            except CheckFailed as exc:
                error = f"forward ({n},{d}): {exc}"
            loop.record(f"forward {n},{d}", t_fwd, error, tracer is not None)
            back, t_inv = self._apply(tracer, out, n, d, "inverse")
            error = None
            try:
                checks.check_roundtrip(v, back)
            except CheckFailed as exc:
                error = f"inverse ({n},{d}): {exc}"
            loop.record(f"inverse {n},{d}", t_inv, error, tracer is not None)

    def _epoch(self, epoch: int, seconds: float, ops_before: int, last: bool, tracer) -> dict:
        """The body of one epoch's process."""
        self.rng = np.random.default_rng([self.seed, epoch])
        if tracer is not None:
            tracer.clear()
        setup_s = self.setup(tracer)
        for n, d in self.sizes:
            self.layout(n, d)
        loop = Loop()
        peak = None
        t0 = perf_counter()
        rounds = 0
        while (
            rounds == 0
            or perf_counter() - t0 < seconds
            or (last and ops_before + loop.attempted < MIN_OPS)
        ):
            traced = tracer is not None and rounds < TRACE_ROUNDS
            if tracer is not None and rounds == TRACE_ROUNDS:
                tracer.uninstall()
            self._round(loop, rounds, tracer if traced else None)
            loop.end_round()
            rounds += 1
            if peak is None:  # read at a fixed point of the work; see README
                peak = _peak_rss_mb(resource.getrusage(resource.RUSAGE_SELF))
        reply = {"setup_s": setup_s, "peak_rss_mb": peak, "loop": loop.export()}
        if tracer is not None:
            tracer.finish()
            reply["trace"] = tracer.export()
        return reply

    def run(self, seconds: float, tracer: Tracer | None) -> dict:
        epochs = 1 if tracer is not None else self.epochs
        loop = Loop()
        setups, peaks = [], []
        for epoch in range(epochs):
            reply, _ = _fork(
                lambda: self._epoch(
                    epoch, seconds / epochs, loop.attempted, epoch == epochs - 1, tracer
                )
            )
            if reply is None or "loop" not in reply:
                raise RuntimeError(f"epoch {epoch} failed: {reply}")
            loop.merge(reply["loop"])
            setups.append(reply["setup_s"])
            peaks.append(reply["peak_rss_mb"])
            if tracer is not None:
                tracer.merge(reply["trace"])
        return {
            "loop": loop,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(peaks),
            "sector_bytes_peak": max(sector_bytes_peak(n, d, False) for n, d in self.sizes),
        }


# -- dense-cold ---------------------------------------------------------------------


class DenseColdWorkload:
    """The dense CLI route, each operation in a fork of a process that has
    imported schurkit.cli and computed nothing."""

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir

    @staticmethod
    def import_time() -> float:
        """Start-up of a fresh interpreter that runs import schurkit.cli."""
        path = [os.path.abspath("src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import schurkit.cli"], env=env, check=True)
        return perf_counter() - t0

    def _argv(self, op, path: str) -> list[str]:
        kind = op[0]
        if kind == "cg":
            return ["cg", "--lambda", op[1], "--d", str(op[2]), "--json", path]
        args = ["--n", str(op[1]), "--d", str(op[2])]
        if kind == "schur":
            return ["schur", *args, "--json", path]
        if kind == "circuit":
            return ["circuit", *args, "--decompose", "--json", path]
        seed = int(self.rng.integers(2**31))
        return ["verify", *args, "--trials", str(VERIFY_TRIALS), "--seed", str(seed), "--json", path]

    def _child(self, op, argv: list[str], path: str, tracer: Tracer | None):
        """The body of one operation's process."""
        n, d = op[1], op[2]
        if tracer is not None:
            tracer.clear()
            tracer.resume()
        if op[0] == "replay":
            t0 = perf_counter()
            su = schurkit.schur.schur_unitary(n, d)
            gates = schurkit.circuit.two_level_decompose(su.matrix.astype(complex))
            product = gates.replay()
            latency = perf_counter() - t0
            reply = {
                "code": 0,
                "residual": float(np.max(np.abs(product - su.matrix))),
                "rotations": gates.rotation_count,
                "size": gates.size,
            }
        else:
            with redirect_stdout(io.StringIO()):  # the CLI's text goes nowhere
                t0 = perf_counter()
                if tracer is None:
                    code = schurkit.cli.run(argv)
                else:
                    code = tracer.call("cli.run", schurkit.cli.run, argv)
                latency = perf_counter() - t0
            reply = {"code": code, "argv": argv}
        reply["latency"] = latency
        if tracer is not None:
            tracer.pause()
            if os.path.exists(path):
                tracer.counts["cli.json_bytes"] += os.path.getsize(path)
            tracer.finish()
            reply["trace"] = tracer.export()
        return reply

    def _check(self, op, reply: dict, path: str, refs: dict) -> None:
        kind, n, d = op
        if kind == "replay":
            checks.check_replay(reply["residual"], reply["rotations"], reply["size"])
            return
        checks.check_exit(reply["code"])
        with open(path) as fh:
            payload = json.load(fh)
        if kind == "schur":
            u = checks.haar_unitary(d, self.rng)
            refs[(n, d)] = checks.check_schur_json(payload, n, d, u, self.rng.permutation(n))
        elif kind == "verify":
            checks.check_verify_json(payload, VERIFY_TRIALS)
        elif kind == "circuit":
            if (n, d) not in refs:
                raise CheckFailed(f"no checked schur matrix of ({n}, {d}) to replay against")
            checks.check_gate_list(payload["gate_list"], refs[(n, d)])
        else:
            checks.check_cg_json(payload)

    def run(self, seconds: float, tracer: Tracer | None) -> dict:
        imports: list[float] = []
        import_at = {k * len(DENSE_ROUND) // IMPORTS_PER_ROUND for k in range(IMPORTS_PER_ROUND)}
        path = os.path.join(self.workdir, "op.json")
        loop = Loop()
        peak = 0.0
        rounds = 0
        t0 = perf_counter()
        while rounds == 0 or perf_counter() - t0 < seconds or loop.attempted < MIN_OPS:
            traced = tracer is not None and rounds < TRACE_ROUNDS
            if tracer is not None and rounds == TRACE_ROUNDS:
                tracer.uninstall()
            refs: dict = {}
            for i, op in enumerate(DENSE_ROUND):
                if tracer is None and i in import_at:
                    imports.append(self.import_time())
                if os.path.exists(path):
                    os.remove(path)
                argv = self._argv(op, path)
                reply, usage = _fork(lambda: self._child(op, argv, path, tracer if traced else None))
                peak = max(peak, _peak_rss_mb(usage))
                kind = " ".join(str(x) for x in op)
                if reply is None or "latency" not in reply:
                    loop.record(kind, None, f"{op}: process failed: {reply}")
                    continue
                error = None
                try:
                    self._check(op, reply, path, refs)
                except (CheckFailed, OSError, ValueError, KeyError) as exc:
                    error = f"{op}: {exc!r}"
                loop.record(kind, reply["latency"], error, traced)
                if traced:
                    tracer.merge(reply["trace"])
            loop.end_round()
            rounds += 1
        dense_sizes = {(n, d) for kind, n, d in DENSE_ROUND if kind != "cg"}
        return {
            "loop": loop,
            "setup_s": statistics.median(imports) if imports else 0.0,
            "peak_rss_mb": peak,
            "sector_bytes_peak": max(sector_bytes_peak(n, d, True) for n, d in dense_sizes),
        }
