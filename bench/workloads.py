"""The four seeded workloads, the checks on their outputs, and their timings.

Every input a workload feeds the program is derived from ``--seed``
through :func:`derive`; the program only ever sees the generated
inputs.  Each workload times two kinds of operation through public
entry points with default settings, and checks every output.
``ops_per_s`` comes from ``op``, except on serve-warm, where it is the
two-connection rate:

===============  =======================  ==========================
workload         ``op`` (op_ms, p75)       ``alt`` (alt_ms)
===============  =======================  ==========================
catalog-batch    warm ``api.batch``        cold ``api.batch``
verify-deep      plain ``api.verify``      ``api.verify(symbolic=True)``
serve-warm       ``POST /batch``, 1 conn.  ``POST /batch``, 2 conns.
codegen-corpus   exotic compile+simulate   decomposed compile+simulate
===============  =======================  ==========================
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import importlib
import itertools
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
import urllib.request
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import trace

#: the checkout root (the parent of ``bench/``) and the program source.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: modules whose public ``clear_*`` functions reset in-process caches.
CACHE_MODULES = ("repro.isdl", "repro.lint", "repro.symbolic", "repro.semantics")

#: verify-deep trial count per request.
VERIFY_TRIALS = 2048

#: serve-warm: trials per request.
SERVE_TRIALS = 12

#: catalog-batch: warm batches after each cold one.  The first warm
#: batch after a cold one runs about a quarter slower, and about one
#: more takes several times as long; at one in forty each, they stay
#: well clear of the upper quartile.
WARM_PER_COLD = 40

#: codegen-corpus targets; the VAX library includes the §7 extension.
MACHINES = ("i8086", "vax11", "ibm370")

#: codegen-corpus: every run compiles at least these first programs of
#: its corpus, and reports the emitted code's cycles and instructions
#: over exactly them, so the counts depend on the seed alone.
QUALITY_PROGRAMS = 500


def derive(seed: int, *labels: object) -> int:
    """A 31-bit seed for ``labels`` under the run's root ``seed``."""
    digest = hashlib.sha256(repr((seed,) + labels).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(work: Path) -> Dict[str, str]:
    """Environment for processes the benchmark starts: source on the
    path, temporary files inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["TMPDIR"] = str(work)
    return env


def peak_rss_mb(pid: object = "self") -> float:
    """The process's peak resident set (VmHWM) in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def clear_caches() -> None:
    """Drop every in-process cache, as a fresh process starts."""
    for name in CACHE_MODULES:
        module = importlib.import_module(name)
        for attr in dir(module):
            if attr.startswith("clear_"):
                function = getattr(module, attr)
                if callable(function):
                    function()


def percentile(values: List[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


# ---------------------------------------------------------------------------
# CPU speed gating
#
# On a shared host a CPU runs at full speed for a while, then at about half
# speed while another tenant uses the same core, and so on; each CPU
# switches on its own, at times every few seconds and at times every few
# milliseconds.  CPU time slows down just as wall time does, so neither can
# tell the two apart.  A run therefore times a fixed piece of pure-Python
# work (a probe) on every CPU between blocks of operations, moves the
# measured work to the fastest CPU for the next block, and tags every
# timing with the slower probe of its CPU before and after its block.  Its
# metrics use only the timings taken at full speed (see :func:`fast`),
# scaled to the speed of a reference CPU (see :func:`scale`).

#: one probe's iterations, and the probe time of the reference CPU that
#: reported times are scaled to: the fastest probe of a quiet core of the
#: host in bench/README.md.  A run where no CPU ever reached that speed
#: was slower throughout, about in proportion to its fastest probe.
PROBE_ITERATIONS = 1500
REFERENCE_PROBE_S = 0.00023

#: operations run in blocks of about this many seconds between probes.
BLOCK_S = 0.02

#: the block length of closed loops with more than one connection: the
#: loop drains between blocks, and a block must hold several requests per
#: connection to keep them overlapping.
OVERLAP_BLOCK_S = 0.1

#: the work stays on its CPU while that reads within this factor of the
#: fastest, rather than move for a difference the probe cannot resolve.
STAY = 1.1

#: a timing counts as taken at full speed if its tag is at most this
#: multiple of the run's fastest probe.  Half speed reads about 1.9.
FAST = 1.25

#: the smallest share of its timings a metric is taken over; when fewer
#: were taken at full speed, the best-tagged ones.  While the speed
#: changes every few ms, a block of two connections is rarely at full
#: speed on both CPUs from start to end.
FAST_SHARE = 0.25


def probe() -> float:
    """Seconds one fixed piece of pure-Python work takes on this CPU."""
    started = time.perf_counter()
    counts: Dict[int, int] = {}
    for i in range(PROBE_ITERATIONS):
        counts[i % 97] = counts.get(i % 97, 0) + len(str(i))
    return time.perf_counter() - started


def probe_cpus(cpus: Sequence[int]) -> Dict[int, float]:
    """A :func:`probe` on each of ``cpus``, this thread moved to each in turn."""
    own = os.sched_getaffinity(0)
    readings = {}
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            readings[cpu] = probe()
    finally:
        os.sched_setaffinity(0, own)
    return readings


def fastest_cpu(cpus: Sequence[int]) -> int:
    readings = probe_cpus(cpus)
    return min(readings, key=readings.get)


class Placement:
    """Keeps measured work on the fastest CPUs, block by block.

    ``move(ranked)`` puts the work on the CPUs ``ranked`` lists fastest
    first, and returns the CPUs it now occupies.  Every probe reading is
    added to ``probes``.
    """

    def __init__(self, cpus: Sequence[int], probes: List[float], move: Callable) -> None:
        self.cpus = cpus
        self.probes = probes
        self.move = move
        self.used: Sequence[int] = ()
        self.used, self.before = self._place()

    def _place(self) -> Tuple[Sequence[int], Dict[int, float]]:
        readings = probe_cpus(self.cpus)
        self.probes += readings.values()
        ranked = sorted(readings, key=readings.get)
        if self.used and readings[self.used[0]] <= STAY * readings[ranked[0]]:
            ranked.remove(self.used[0])
            ranked.insert(0, self.used[0])
        return self.move(ranked), readings

    def next_block(self) -> float:
        """End a block and place the next; the ended block's tag."""
        used, before = self.used, self.before
        self.used, self.before = self._place()
        return max(max(before[cpu], self.before[cpu]) for cpu in used)


def move_self(ranked: Sequence[int]) -> Sequence[int]:
    """This process onto the fastest CPU."""
    os.sched_setaffinity(0, {ranked[0]})
    return ranked[:1]


def popen_on(cpu: int, command: List[str], **options) -> subprocess.Popen:
    """``subprocess.Popen`` with the child starting on ``cpu`` alone."""
    own = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return subprocess.Popen(command, **options)
    finally:
        os.sched_setaffinity(0, own)


def scale(probes: List[float]) -> float:
    """The factor that takes a run's times to the reference CPU's speed:
    :data:`REFERENCE_PROBE_S` over the run's fastest probe."""
    return REFERENCE_PROBE_S / min(probes)


def fast(tagged: List[List[float]], ref: float, share: float = FAST_SHARE) -> List[float]:
    """The values of ``[value, tag]`` pairs taken at full speed: tag within
    :data:`FAST` of ``ref``, the run's fastest probe.  At least ``share``
    of them: the best-tagged ones."""
    ranked = sorted(tagged, key=lambda pair: pair[1])
    kept = [value for value, tag in ranked if tag <= FAST * ref]
    least = math.ceil(share * len(ranked))
    if len(kept) < least:
        kept = [value for value, _ in ranked[:least]]
    return kept


@dataclass
class Context:
    """One run's settings; ``tracer`` is set while a traced phase runs.

    A run measures in ``workers`` processes; this one is ``worker``.
    """

    seed: int
    work: Path
    smoke: bool = False
    tracer: Optional[trace.Tracer] = None
    worker: int = 0
    workers: int = 1
    #: the CPUs the run may use.  A worker is started pinned to one, so it
    #: is told them.
    cpus: Tuple[int, ...] = field(
        default_factory=lambda: tuple(sorted(os.sched_getaffinity(0)))
    )

    def index(self, local: int) -> int:
        """This worker's ``local``-th repetition, numbered so that no two
        workers of a run draw the same inputs."""
        return self.worker + self.workers * local

    def timed(self, kind: str, call: Callable[[], object]) -> Tuple[object, float]:
        """``call()`` and its wall time in ms, as one traced operation."""
        if self.tracer is None:
            started = time.perf_counter()
            result = call()
            return result, 1000.0 * (time.perf_counter() - started)
        with self.tracer.operation(kind):
            started = time.perf_counter()
            result = call()
            elapsed = time.perf_counter() - started
        return result, 1000.0 * elapsed


@dataclass
class Samples:
    """What one measuring loop saw.

    ``op`` and ``alt`` hold ``[ms, tag]`` per operation: its time, and the
    slower probe around it.  ``probes`` holds every probe reading.
    """

    op: List[List[float]] = field(default_factory=list)
    alt: List[List[float]] = field(default_factory=list)
    probes: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, message: str, count: int = 1) -> None:
        """Count ``count`` operations whose outputs ``ok`` judges."""
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.errors) < 5:
                self.errors.append(message)

    def merge(self, other: "Samples") -> None:
        """Pool another worker's samples into these."""
        self.op += other.op
        self.alt += other.alt
        self.probes += other.probes
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors = (self.errors + other.errors)[:5]
        for key, value in other.extra.items():
            self.extra.setdefault(key, value)


class Gate:
    """Collects the timings of this process's operations in blocks of
    about :data:`BLOCK_S`, each on the fastest CPU, and tags them."""

    def __init__(self, samples: Samples, cpus: Sequence[int]) -> None:
        self.samples = samples
        self.pending: List[Tuple[List[List[float]], float]] = []
        self.placement = Placement(cpus, samples.probes, move_self)
        self.opened = time.perf_counter()

    def add(self, series: List[List[float]], ms: float) -> None:
        """Record ``ms`` into ``series`` (``samples.op`` or ``.alt``)."""
        self.pending.append((series, ms))
        if time.perf_counter() - self.opened >= BLOCK_S:
            self.flush()

    def flush(self) -> None:
        """Close the current block; call once the loop ends."""
        if not self.pending:
            return
        tag = self.placement.next_block()
        for series, ms in self.pending:
            series.append([ms, tag])
        self.pending = []
        self.opened = time.perf_counter()


#: stdout line a worker prints once it is set up, and the stdin line
#: that tells it to measure; a worker whose stdin closes exits instead.
READY = "ready"
GO = "go"

#: ``setup_s`` is the median of the SETUPS fastest set-ups of a run, which
#: starts EXTRA_SETUPS processes beyond its workers that only set up.  A
#: set-up takes 0.3 s to 1.5 s, long next to the changes of CPU speed, so
#: the probes around it say little about it; but a slow CPU only ever
#: adds time.
SETUPS = 3
EXTRA_SETUPS = 2


class Workload:
    """A workload: in-process set-up, a timed loop, and clean-up.

    ``labels`` names what each shared end-to-end metric means on this
    workload, for the summary ``python -m bench run`` prints.  ``rate``
    names the series ``ops_per_s`` comes from, and how many of its
    operations run at once.
    """

    name = ""
    labels: Dict[str, str] = {}
    rate: Tuple[str, int] = ("op", 1)
    child: Optional[subprocess.Popen] = None

    def prepare(self, ctx: Context) -> None:
        """Everything a fresh process does before it can serve the workload."""

    def loop(self, ctx: Context, seconds: float) -> Samples:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def spawn(self, ctx: Context, cpu: int, index: int, count: int) -> float:
        """Start worker ``index`` of ``count`` on ``cpu``; seconds until it
        is ready."""
        command = [
            sys.executable, "-m", "bench", "worker", self.name,
            "--seed", str(ctx.seed), "--index", str(index), "--of", str(count),
            "--cpus", ",".join(map(str, ctx.cpus)),
        ] + (["--smoke"] if ctx.smoke else [])
        started = time.perf_counter()
        self.child = popen_on(
            cpu, command, cwd=ROOT, env=child_env(ctx.work),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        ready = self.child.stdout.readline()
        elapsed = time.perf_counter() - started
        if ready.strip() != READY:
            raise RuntimeError(f"{self.name}: worker {index} failed to start")
        return elapsed

    def collect(self, ctx: Context, seconds: float) -> Tuple[Samples, float]:
        """Let the started worker measure for ``seconds``; its samples and
        peak RSS in MB."""
        child = self.child
        child.stdin.write(f"{GO} {seconds!r}\n")
        child.stdin.close()
        lines = child.stdout.read().splitlines()
        if child.wait() != 0 or not lines:
            raise RuntimeError(f"{self.name}: worker failed (exit {child.returncode})")
        part = json.loads(lines[-1])
        return Samples(**part["samples"]), part["peak_rss_mb"]

    def close(self) -> None:
        child, self.child = self.child, None
        if child is not None:
            if not child.stdin.closed:
                child.stdin.close()
            child.stdout.close()
            child.wait()

    def measure(
        self, ctx: Context, seconds: float, workers: int
    ) -> Tuple[List[float], Samples, List[float]]:
        """Set up and measure in ``workers`` fresh processes, one after
        another, each for an equal share of ``seconds``; then start
        :data:`EXTRA_SETUPS` more that only set up.  Each starts on the
        fastest CPU.

        Returns the seconds each took from its start until ready, the
        pooled samples, and the measuring processes' peak RSS in MB.
        Pooling averages out what differs between processes, such as
        memory layout.
        """
        setups: List[float] = []
        rss: List[float] = []
        pooled = Samples()
        for launch in range(workers + (0 if ctx.smoke else EXTRA_SETUPS)):
            try:
                setups.append(self.spawn(ctx, fastest_cpu(ctx.cpus), launch, workers))
                if launch < workers:
                    part, peak = self.collect(ctx, seconds / workers)
                    pooled.merge(part)
                    rss.append(peak)
            finally:
                self.close()
        return setups, pooled, rss

    def inputs_digest(self, seed: int, count: int) -> str:
        """Digest of the first ``count`` generated inputs."""
        raise NotImplementedError


def _digest(items) -> str:
    return hashlib.sha256(repr(list(items)).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# catalog-batch


def _without_cache(report_json: str) -> Dict[str, object]:
    payload = json.loads(report_json)
    payload.pop("cache", None)
    return payload


class CatalogBatch(Workload):
    """Cold then warm batches of the whole catalog on a fresh dir store.

    Replay dominates the cold batch; the warm ones only key, look up
    and serialize.  Both use one store, writing then reading, so a gain
    for one that costs the other shows.
    """

    name = "catalog-batch"
    labels = {
        "op_ms": "batch_warm_ms", "op_ms_p75": "batch_warm_ms_p75",
        "alt_ms": "batch_cold_ms", "ops_per_s": "batch_warm_per_s",
    }

    def prepare(self, ctx: Context) -> None:
        import repro.api

        self.api = repro.api

    def inputs_digest(self, seed: int, count: int) -> str:
        return _digest(derive(seed, self.name, rep) for rep in range(count))

    def loop(self, ctx: Context, seconds: float) -> Samples:
        api = self.api
        samples = Samples()
        gate = Gate(samples, ctx.cpus)
        warm_runs = 2 if ctx.smoke else WARM_PER_COLD
        deadline = time.perf_counter() + seconds
        rep = 0
        while rep == 0 or time.perf_counter() < deadline:
            root_seed = derive(ctx.seed, self.name, ctx.index(rep))
            store = ctx.work / f"batch-store-{rep}"
            shutil.rmtree(store, ignore_errors=True)
            config = api.RunConfig(seed=root_seed, cache_dir=str(store))

            def run():
                result = api.batch(config=config)
                return result, result.to_json()

            clear_caches()
            (cold, cold_json), ms = ctx.timed("cold", run)
            gate.add(samples.alt, ms)
            cold_payload = json.loads(cold_json)
            total = cold_payload["summary"]["total"]
            samples.check(
                cold.ok and cold_payload["cache"] == {
                    "enabled": True, "hits": 0, "misses": total,
                },
                f"cold batch {root_seed}: ok={cold.ok} cache={cold_payload.get('cache')}",
            )
            cold_payload.pop("cache")
            for _ in range(warm_runs):
                (warm, warm_json), ms = ctx.timed("warm", run)
                gate.add(samples.op, ms)
                samples.check(
                    warm.ok
                    and warm.report.cache_hits == total
                    and _without_cache(warm_json) == cold_payload,
                    f"warm batch {root_seed} differs from its cold run",
                )
            shutil.rmtree(store, ignore_errors=True)
            rep += 1
        gate.flush()
        return samples


# ---------------------------------------------------------------------------
# verify-deep


class VerifyDeep(Workload):
    """Deep plain and symbolic verification of every scenario analysis.

    Scenario drawing and engine execution do most of the work here;
    the symbolic pair keeps the prover's fast path measured.  Caches are
    cleared before each request, the way a fresh ``repro verify``
    starts.
    """

    name = "verify-deep"
    labels = {
        "op_ms": "verify_ms", "op_ms_p75": "verify_ms_p75",
        "alt_ms": "verify_symbolic_ms", "ops_per_s": "verify_per_s",
    }

    def prepare(self, ctx: Context) -> None:
        import repro.analyses
        import repro.api

        self.api = repro.api
        self.names = tuple(
            spec.name
            for spec in repro.analyses.REGISTRY
            if getattr(spec.module, "SCENARIO", None) is not None
            and not spec.expect_failure
        )

    def plan(self, seed: int, pass_index: int) -> List[Tuple[str, int]]:
        order = list(self.names)
        random.Random(derive(seed, self.name, pass_index)).shuffle(order)
        return [(name, derive(seed, self.name, pass_index, name)) for name in order]

    def inputs_digest(self, seed: int, count: int) -> str:
        return _digest(self.plan(seed, index) for index in range(count))

    def calls(self, ctx: Context) -> Iterator[Tuple[str, int]]:
        """This worker's ``(analysis, seed)`` calls, pass after pass."""
        for pass_index in itertools.count():
            plan = self.plan(ctx.seed, ctx.index(pass_index))
            yield from plan[:2] if ctx.smoke else plan

    def loop(self, ctx: Context, seconds: float) -> Samples:
        api = self.api
        samples = Samples()
        gate = Gate(samples, ctx.cpus)
        deadline = time.perf_counter() + seconds
        for count, (name, call_seed) in enumerate(self.calls(ctx)):
            if count and time.perf_counter() >= deadline:
                break
            clear_caches()
            plain, ms = ctx.timed(
                "plain",
                lambda: api.verify(name, trials=VERIFY_TRIALS, seed=call_seed),
            )
            gate.add(samples.op, ms)
            samples.check(
                plain.ok and plain.verified_trials == VERIFY_TRIALS,
                f"verify {name} seed {call_seed}: {plain}",
            )
            clear_caches()
            symbolic, ms = ctx.timed(
                "symbolic",
                lambda: api.verify(
                    name, trials=VERIFY_TRIALS, seed=call_seed, symbolic=True
                ),
            )
            gate.add(samples.alt, ms)
            samples.check(
                symbolic.ok, f"symbolic verify {name} seed {call_seed}: {symbolic}"
            )
        gate.flush()
        return samples


# ---------------------------------------------------------------------------
# serve-warm


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


async def _exchange(reader, writer, path: str, body: bytes) -> Tuple[int, bytes]:
    writer.write(
        (
            "POST %s HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Content-Type: application/json\r\nContent-Length: %d\r\n\r\n"
            % (path, len(body))
        ).encode("ascii")
        + body
    )
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


def closed_loop(
    port: int, body: bytes, connections: int, seconds: float, next_block: Callable[[], float]
) -> Tuple[List[List[float]], Counter]:
    """Keep-alive clients that each ``POST /batch`` ``body`` again once
    the last answer came.

    The clients pause every :data:`BLOCK_S` (:data:`OVERLAP_BLOCK_S` with
    several connections), with no request in flight, while ``next_block()``
    probes the CPUs, places the server, and returns the ended block's tag.  Returns ``[ms, tag]`` of every request, and
    how often each distinct ``(status, answer)`` came back; the caller
    checks the answers after the loop, so checking takes no CPU from the
    server.
    """
    answers: Counter = Counter()

    async def client(reader, writer, until: float, out: List[float]) -> None:
        while trace.clock() < until:
            started = trace.clock()
            status, answer = await _exchange(reader, writer, "/batch", body)
            out.append(1000.0 * (trace.clock() - started))
            answers[status, answer] += 1

    async def main() -> List[List[float]]:
        streams = [
            await asyncio.open_connection("127.0.0.1", port) for _ in range(connections)
        ]
        timings: List[List[float]] = []
        block_s = BLOCK_S if connections == 1 else OVERLAP_BLOCK_S
        try:
            deadline = trace.clock() + seconds
            while trace.clock() < deadline:
                block: List[float] = []
                until = min(deadline, trace.clock() + block_s)
                await asyncio.gather(*(client(*pair, until, block) for pair in streams))
                tag = next_block()
                timings += [[ms, tag] for ms in block]
        finally:
            for _, writer in streams:
                writer.close()
                await writer.wait_closed()
        return timings

    return asyncio.run(main()), answers


class Server:
    """One ``repro serve`` process on a fresh sqlite store."""

    def __init__(self, ctx: Context, label: str, cpu: int, spans: Optional[Path] = None):
        self.port = _free_port()
        self.store = ctx.work / f"serve-store-{label}"
        self.spans = spans
        shutil.rmtree(self.store, ignore_errors=True)
        args = [
            "serve", "--port", str(self.port), "--trials", str(SERVE_TRIALS),
            "--cache-dir", str(self.store),
        ]
        if spans is None:
            command = [sys.executable, "-m", "repro"] + args
        else:
            command = [sys.executable, "-m", "bench", "serve-traced", str(spans)] + args
        self.log = open(ctx.work / f"serve-{label}.log", "wb")
        self.process = popen_on(
            cpu, command, cwd=ROOT, env=child_env(ctx.work),
            stdout=self.log, stderr=subprocess.STDOUT,
        )

    def move(self, cpu: int) -> None:
        """Put every thread of the server on ``cpu``; threads it starts
        later inherit that."""
        tasks = f"/proc/{self.process.pid}/task"
        for tid in os.listdir(tasks):
            with contextlib.suppress(ProcessLookupError):
                os.sched_setaffinity(int(tid), {cpu})

    def url(self, path: str) -> str:
        return f"http://127.0.0.1:{self.port}{path}"

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode}")
            try:
                with urllib.request.urlopen(self.url("/healthz"), timeout=5) as reply:
                    if reply.status == 200:
                        return
            except OSError:
                if time.perf_counter() > deadline:
                    raise
            time.sleep(0.01)

    def post(self, path: str, payload: Dict[str, object]) -> Tuple[int, bytes]:
        request = urllib.request.Request(
            self.url(path), data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with urllib.request.urlopen(request, timeout=120) as reply:
            return reply.status, reply.read()

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()
        shutil.rmtree(self.store, ignore_errors=True)


class ServeWarm(Workload):
    """Warm ``/batch`` traffic against ``repro serve``.

    Closed loops of keep-alive connections; every request is a store
    hit, so only HTTP, admission, the thread hand-off, store lookup and
    JSON run.  Half of each server's time has one connection, which
    times a request on its own; the other half has two, the loadtest
    shape, where the server's two worker threads contend.  Set-up is
    server start plus the warm-up batch.
    """

    name = "serve-warm"
    labels = {
        "op_ms": "svc_ms", "op_ms_p75": "svc_ms_p75",
        "alt_ms": "svc_2conn_ms", "ops_per_s": "svc_rps",
    }

    def __init__(self) -> None:
        self.server: Optional[Server] = None
        self.launch = 0
        self.connections = min(2, nproc())
        self.rate = ("alt", self.connections)

    def request_seed(self, seed: int) -> int:
        return derive(seed, self.name)

    def inputs_digest(self, seed: int, count: int) -> str:
        return _digest([self.request_seed(seed)])

    def place(self, ranked: Sequence[int], connections: int) -> Sequence[int]:
        """The server on the fastest CPU of ``ranked``, which is returned:
        the server does nearly all the work of a request.

        With one connection the client and the server take turns, so the
        client runs on the same CPU.  With more, the client runs on the
        next fastest, so that it does not take CPU time from the server.
        Left to the scheduler, the client and the server's threads shared
        CPUs at random, and one-connection latency moved by a third
        between runs.
        """
        self.server.move(ranked[0])
        os.sched_setaffinity(0, {ranked[0] if connections == 1 else ranked[1]})
        return ranked[:1]

    def start(self, ctx: Context, cpu: int, spans: Optional[Path] = None) -> float:
        """Start a server on ``cpu``, wait for it, warm its store; the
        seconds taken."""
        self.close()
        self.launch += 1
        started = time.perf_counter()
        self.server = Server(ctx, str(self.launch), cpu, spans)
        os.sched_setaffinity(0, set(ctx.cpus) - {cpu} or {cpu})
        self.server.wait_ready()
        status, body = self.server.post(
            "/batch", {"trials": SERVE_TRIALS, "seed": self.request_seed(ctx.seed)}
        )
        elapsed = time.perf_counter() - started
        if status != 200:
            raise RuntimeError(f"warm-up /batch answered {status}")
        self.warm = json.loads(body)
        return elapsed

    def spawn(self, ctx: Context, cpu: int, index: int, count: int) -> float:
        """A fresh server per worker; this process is the client, and
        set-up runs until the server has answered the warm-up batch."""
        return self.start(ctx, cpu)

    def collect(self, ctx: Context, seconds: float) -> Tuple[Samples, float]:
        return self.loop(ctx, seconds), self.peak_rss_mb()

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.server.process.pid)

    def loop(self, ctx: Context, seconds: float) -> Samples:
        """Each answer must equal the warm-up report apart from its cache
        counters (all hits now) and the service's metrics block."""
        samples = Samples()
        report = dict(self.warm)
        report.pop("cache")
        report.pop("metrics", None)
        hits = {"enabled": True, "hits": report["summary"]["total"], "misses": 0}
        body = json.dumps(
            {"trials": SERVE_TRIALS, "seed": self.request_seed(ctx.seed)}
        ).encode("utf-8")
        self.windows = []
        for connections, into in ((1, samples.op), (self.connections, samples.alt)):
            placement = Placement(
                ctx.cpus, samples.probes,
                lambda ranked: self.place(ranked, connections),
            )
            started = trace.clock()
            timings, answers = closed_loop(
                self.server.port, body, connections, seconds / 2, placement.next_block
            )
            self.windows.append((started, trace.clock()))
            into += timings
            for (status, answer), count in answers.items():
                payload = json.loads(answer)
                payload.pop("metrics", None)
                samples.check(
                    status == 200 and payload.pop("cache", None) == hits and payload == report,
                    f"/batch answered {status}, unlike the warm-up report",
                    count,
                )
        return samples

    def remote_roots(self, spans: Path) -> List[List[trace.Root]]:
        """Server roots that started inside each window of the last loop."""
        with open(spans, encoding="utf-8") as handle:
            roots = [trace.Root.from_dict(item) for item in json.load(handle)["roots"]]
        return [
            [root for root in roots if start <= root.start <= end]
            for start, end in self.windows
        ]


# ---------------------------------------------------------------------------
# codegen-corpus


class Oracle:
    """Reference semantics of the IR operations the corpus uses."""

    def __init__(self, params: Dict[str, int], memory: Dict[int, int]):
        self.params = dict(params)
        self.memory = dict(memory)
        self.results: Dict[str, int] = {}

    def value(self, expr) -> int:
        kind = type(expr).__name__
        if kind == "Const":
            return expr.value
        if kind == "Param":
            return self.params[expr.name]
        left, right = self.value(expr.left), self.value(expr.right)
        return left + right if kind == "Add" else left - right

    def byte(self, address: int) -> int:
        return self.memory.get(address, 0)

    def run(self, op) -> None:
        kind = type(op).__name__
        length = self.value(op.length)
        if kind in ("StringMove", "BlockCopy"):
            dst, src = self.value(op.dst), self.value(op.src)
            data = [self.byte(src + i) for i in range(length)]
            for i, value in enumerate(data):
                self.memory[dst + i] = value
        elif kind == "BlockClear":
            dst = self.value(op.dst)
            for i in range(length):
                self.memory[dst + i] = 0
        elif kind == "StringIndex":
            base, char = self.value(op.base), self.value(op.char)
            found = [i + 1 for i in range(length) if self.byte(base + i) == char]
            self.results[op.result] = found[0] if found else 0
        elif kind == "StringEqual":
            a, b = self.value(op.a), self.value(op.b)
            same = all(self.byte(a + i) == self.byte(b + i) for i in range(length))
            self.results[op.result] = int(same)
        else:
            raise ValueError(f"no oracle for {kind}")

    def final_memory(self) -> Dict[int, int]:
        return {address: value for address, value in self.memory.items() if value}


ARENA_BYTES = 96


def program(seed: int, index: int):
    """Program ``index`` of the corpus: ``(machine, ops, params, memory)``.

    Four disjoint arenas; one to five operations with constant or
    parametric lengths; block copies only where a target has them.
    """
    from repro.codegen import ir

    rng = random.Random(derive(seed, "codegen-corpus", index))
    machine = MACHINES[index % len(MACHINES)]
    arenas = [1000, 3000, 5000, 7000]
    rng.shuffle(arenas)
    params: Dict[str, int] = {}
    memory: Dict[int, int] = {}
    for slot, arena in enumerate(arenas):
        params[f"buf{slot}"] = arena
        for offset in range(ARENA_BYTES):
            memory[arena + offset] = rng.randrange(256)
    kinds = ["move", "clear", "index", "equal"] + (["copy"] if machine == "vax11" else [])
    ops = []
    for position in range(rng.randint(1, 5)):
        kind = rng.choice(kinds)
        src_slot, dst_slot = rng.randrange(4), rng.randrange(4)
        src = ir.Param(f"buf{src_slot}", 0, 8000)
        dst = ir.Param(f"buf{dst_slot}", 0, 8000)
        if src_slot == dst_slot:
            dst = ir.Add(dst, ir.Const(ARENA_BYTES))
        if rng.random() < 0.6:
            length = ir.Const(rng.randint(0, 64))
        else:
            length = ir.Param("n", 0, 8000)
        if kind in ("move", "copy"):
            cls = ir.StringMove if kind == "move" else ir.BlockCopy
            ops.append(cls(dst=dst, src=src, length=length))
        elif kind == "clear":
            ops.append(ir.BlockClear(dst=dst, length=length))
        elif kind == "index":
            char = ir.Const(rng.randrange(256))
            ops.append(ir.StringIndex(result=f"r{position}", base=src, length=length, char=char))
        else:
            ops.append(ir.StringEqual(result=f"r{position}", a=src, b=dst, length=length))
    params["n"] = rng.randint(0, 48)
    return machine, tuple(ops), params, memory


class CodegenCorpus(Workload):
    """Seeded random IR programs compiled and simulated in both modes.

    The paper's consumer: the only workload that runs the code
    generator and the machine simulators, and the one that reports the
    quality of the emitted code.
    """

    name = "codegen-corpus"
    labels = {
        "op_ms": "codegen_ms", "op_ms_p75": "codegen_ms_p75",
        "alt_ms": "codegen_decomposed_ms", "ops_per_s": "codegen_per_s",
    }

    def prepare(self, ctx: Context) -> None:
        from repro.codegen import target_for

        self.targets = {
            machine: target_for(machine, with_extensions=(machine == "vax11"))
            for machine in MACHINES
        }

    def inputs_digest(self, seed: int, count: int) -> str:
        return _digest(program(seed, index) for index in range(count))

    def loop(self, ctx: Context, seconds: float) -> Samples:
        samples = Samples()
        gate = Gate(samples, ctx.cpus)
        cycles = instructions = 0
        deadline = time.perf_counter() + seconds
        index = 0
        while index < QUALITY_PROGRAMS or time.perf_counter() < deadline:
            machine, ops, params, memory = program(ctx.seed, index)
            target = self.targets[machine]
            oracle = Oracle(params, memory)
            for op in ops:
                oracle.run(op)
            expected_memory = oracle.final_memory()
            for exotic, kind, into in ((True, "exotic", samples.op), (False, "decomposed", samples.alt)):

                def run():
                    asm = target.compile(ops, use_exotic=exotic)
                    return asm, target.simulate(asm, params, memory)

                (asm, result), ms = ctx.timed(kind, run)
                gate.add(into, ms)
                samples.check(
                    result.results == oracle.results
                    and result.memory.snapshot() == expected_memory,
                    f"program {index} on {machine} ({kind}) differs from the oracle",
                )
                if exotic and index < QUALITY_PROGRAMS:
                    cycles += result.cycles
                    instructions += len(asm)
            index += 1
        gate.flush()
        samples.extra = {
            "codegen.cycles": cycles / QUALITY_PROGRAMS,
            "codegen.instrs": instructions / QUALITY_PROGRAMS,
        }
        return samples


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (CatalogBatch, VerifyDeep, ServeWarm, CodegenCorpus)
}
