"""The serve-mixed workload: the live stack, loaded from another process.

Three processes take part, each stopped and joined before the run ends:

* the **server**: one process of the benchmark's own.  It boots the
  serving stack the way a fleet worker does, through the public API
  (estate, ``FleetSpec`` snapshot written and mapped back, estate
  verified, :class:`ServeCluster` started) with
  ``resolver_population="mixed"``, so a :class:`PublicResolverFront`
  runs beside the authoritative server and the HTTP edge;
* the **generator**: two closed-loop clients sharing one pooled HTTP
  client of two connections.  Each request resolves the full
  ``appldnld.apple.com`` chain -- half of the clients through the
  front, by the load generator's stable per-sequence split -- and then
  makes a ranged 64 KiB GET.  Every answer is checked: the chain must
  end in A records and the GET must return 206 with exactly the range;
* the **bench** process, which sequences the two and, at the end,
  freezes the server's clock and compares a deterministic sample of
  wire resolutions with the in-memory estate answer for the same
  client (the oracle of the fleet equivalence check).

The server and the generator share one CPU.  Both sample the host's
speed (``host.HostSpeed``): the server after every boot, the generator
every 20 ms of load.  The end-to-end timings are scaled by those
samples to the reference speed.

``--seed`` salts the client sequence (``ClientDirectory.sample(seq,
salt)``); nothing else depends on it.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import os
import shutil
import tempfile
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Optional

from host import HostSpeed, peak_rss_mb, placement
from spans import Patches, SpanLog, layer_table, share
from stats import percentile, timing

__all__ = ["run", "server_main", "generator_main"]

CLIENTS = 2
POOL = 2
RANGE_BYTES = 65536
OBJECTS = 32
PUBLIC_SHARE = 0.5
# About 1.5 s of boots on the host the benchmark was sized on, after
# one warm-up boot that pays the imports; setup_s is their median, each
# scaled by its own speed sample, as on the engine workloads.
SETUPS = 30
WARMUP_SECONDS = 1.0
# The generator's event-loop lag and the host's speed are sampled this
# often; each speed sample costs about 0.3 ms of the shared CPU.
SAMPLE_INTERVAL = 0.02
MIN_REQUESTS = 1000
# A phase stops topping up to MIN_REQUESTS this long after --seconds.
TOP_UP_SECONDS = 30.0
ORACLE_SAMPLES = 64
FROZEN_AT = 3600.0
REPLY_TIMEOUT = 120.0
# Outside-in handler time encloses the registry's own handle timing,
# so registry/outside-in lies a little below 1.
HANDLE_SUM_RATIO = (0.75, 1.0001)


# ----------------------------------------------------------------------
# server process
# ----------------------------------------------------------------------


class _Server:
    """The serving stack plus the control protocol the bench drives."""

    def __init__(self, conn) -> None:
        self.conn = conn
        self.frozen: Optional[float] = None
        self.origin = time.monotonic()
        self.cluster = None
        self.registry = None
        self.log: Optional[SpanLog] = None
        self.patches: Optional[Patches] = None
        self.stopped = asyncio.Event()
        self.bench_gone = False
        self._begin: Optional[tuple] = None

    def clock(self) -> float:
        """Seconds since the server started, unless frozen by the bench."""
        if self.frozen is not None:
            return self.frozen
        return time.monotonic() - self.origin

    async def boot(self, workdir: str) -> float:
        """Estate + snapshot + server ready; returns the seconds taken."""
        from repro.obs import NULL_TRACER, MetricsRegistry, use_registry, use_tracer
        from repro.serve import (
            ClientDirectory,
            ClusterConfig,
            FleetSpec,
            ServeCluster,
            build_serve_estate,
            estate_signature,
            load_snapshot,
            write_snapshot,
        )

        started = time.perf_counter()
        config = ClusterConfig(resolver_population="mixed")
        directory = ClientDirectory.from_adoption()
        spec = FleetSpec(
            cluster=config,
            vantages=directory.vantages,
            weights=directory.weights(),
            estate_sig=estate_signature(build_serve_estate(config)),
        )
        path = write_snapshot(os.path.join(workdir, "serve.rsnap"), spec)
        registry = MetricsRegistry()
        with load_snapshot(path) as snapshot:
            spec = snapshot.spec
            with use_registry(registry), use_tracer(NULL_TRACER):
                cluster = ServeCluster(
                    estate=build_serve_estate(spec.cluster),
                    directory=spec.directory(),
                    config=spec.cluster,
                    clock=self.clock,
                    metrics=registry,
                    tracer=NULL_TRACER,
                )
            snapshot.verify_estate(cluster.estate)
        self.origin = time.monotonic()
        await cluster.start(admin_port=None)
        elapsed = time.perf_counter() - started
        self.cluster, self.registry = cluster, registry
        return elapsed

    # -- control messages ----------------------------------------------

    def on_control(self) -> None:
        try:
            message = self.conn.recv()
        except EOFError:  # the bench is gone: shut down quietly
            self.bench_gone = True
            self.stopped.set()
            return
        kind = message[0]
        if kind == "begin":
            if message[1]:
                self._install_tracing()
            self._begin = (
                time.process_time(),
                self.registry.snapshot(),
                self.cluster.resolver_front.cache_stats(),
            )
            self.conn.send(("ok",))
        elif kind == "end":
            self.conn.send(("stats", self._end()))
        elif kind == "freeze":
            self.frozen = message[1]
            self.conn.send(("ok",))
        elif kind == "stop":
            self.stopped.set()

    def _install_tracing(self) -> None:
        import repro.serve.dnsserver as dnsserver
        import repro.serve.loadgen as loadgen
        import repro.serve.resolverfront as resolverfront
        from repro.obs import TraceContext

        if self.log is None:
            self.log = SpanLog("server")
        log = self.log
        patches = self.patches = Patches()
        cluster = self.cluster
        patches.wrap(cluster.dns, "handle_datagram_timed",
                     lambda fn: log.wrap("serve.dnsserver.handle", fn, root=True))
        patches.wrap(cluster.dns.frontend, "answer",
                     lambda fn: log.wrap("serve.dnsserver.answer", fn))
        patches.wrap(cluster.http, "router",
                     lambda fn: log.wrap("serve.httpserver.route", fn))
        # The wire codec wherever the server process runs it: the
        # authoritative server, the front, and the front's upstream client.
        for module in (dnsserver, resolverfront, loadgen):
            patches.wrap(module, "decode_message",
                         lambda fn: _codec(log, "dns.wire.decode", fn, True))
            patches.wrap(module, "encode_message",
                         lambda fn: _codec(log, "dns.wire.encode", fn, False))

        def adopt_http_trace(fn):
            def from_traceparent(value):
                context = fn(value)
                log.rid = context.trace_id if context is not None else None
                return context
            return from_traceparent

        patches.wrap(TraceContext, "from_traceparent", adopt_http_trace)

    def _end(self) -> dict:
        from repro.obs.registry import snapshot_delta

        cpu0, snap0, front0 = self._begin
        cpu = time.process_time() - cpu0
        delta = snapshot_delta(self.registry.snapshot(), snap0)
        front = self.cluster.resolver_front.cache_stats()
        stats = {
            "cpu_s": cpu,
            "registry_delta": delta,
            "front_lookups": front["hits"] + front["misses"] - front0["hits"] - front0["misses"],
            "peak_rss_mb": peak_rss_mb(),
        }
        if self.patches is not None:
            self.patches.undo()
            self.patches = None
            log = self.log
            stats["layers"] = layer_table(log)
            stats["handle_s"] = log.durations("serve.dnsserver.handle")
            # Every named span is synchronous code, so its wall time is
            # server CPU; roots hold their children, so they sum once.
            stats["root_busy_s"] = sum(
                log.ends[i] - log.starts[i]
                for i, parent in enumerate(log.parents)
                if parent < 0
            )
        return stats


def _codec(log: SpanLog, name: str, fn, rid_from_result: bool):
    """A timed wire codec whose span adopts the message's trace id."""
    timed = log.wrap(name, fn)

    def call(*args, **kwargs):
        result = timed(*args, **kwargs)
        message = result if rid_from_result else args[0]
        context = getattr(message, "trace_context", None)
        if context is not None:
            # The codec span is the latest span (it has no children);
            # a decode also names the handler span it runs under.
            log.rids[-1] = context.trace_id
            parent = log.parents[-1]
            if parent >= 0 and rid_from_result:
                log.rids[parent] = context.trace_id
        return result

    return call


async def _serve(conn, out_dir: Path, setups: int) -> None:
    server = _Server(conn)
    workdir = tempfile.mkdtemp(prefix="serve-", dir=out_dir)
    try:
        times = []
        speed = HostSpeed()
        for _ in range(setups + 1):
            if server.cluster is not None:
                await server.cluster.stop()
                server.cluster = server.registry = None
            gc.collect()
            times.append(await server.boot(workdir))
            speed.sample()
        cluster = server.cluster
        conn.send(("ready", {
            "dns": cluster.dns.endpoint,
            "http": cluster.http.endpoint,
            "resolver": cluster.resolver_front.endpoint,
        }, times[1:], speed.chunks[1:], placement("ServeCluster: dns, resolver front, http")))
        loop = asyncio.get_running_loop()
        loop.add_reader(conn.fileno(), server.on_control)
        try:
            await server.stopped.wait()
        finally:
            loop.remove_reader(conn.fileno())
        spans = 0
        if server.log is not None:
            spans = server.log.write_csv(out_dir / "serve-mixed-spans-server.csv.gz")
        await cluster.stop()
        if not server.bench_gone:
            conn.send(("bye", spans))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def server_main(conn, out_dir: str, setups: int) -> None:
    """Entry point of the server process."""
    asyncio.run(_serve(conn, Path(out_dir), setups))


# ----------------------------------------------------------------------
# generator process
# ----------------------------------------------------------------------


class _Generator:
    """Two closed-loop clients, plus the oracle comparison."""

    def __init__(self, endpoints: dict, seed: int) -> None:
        from repro.apple.mapping import NAMES
        from repro.serve import ClientDirectory, ClusterConfig, build_serve_estate

        self.endpoints = endpoints
        self.salt = f"perfbench-{seed}"
        self.seed = seed
        self.entry = NAMES.entry_point
        self.directory = ClientDirectory.from_adoption()
        # The in-memory oracle: the same estate the server built.
        self.estate = build_serve_estate(ClusterConfig(resolver_population="mixed"))
        self.next_seq = 0
        self.log: Optional[SpanLog] = None
        # Whether the bench went away; checked between requests.
        self.bench_gone = lambda: False

    async def open(self) -> None:
        from repro.serve import AsyncDnsClient, BackoffPolicy, HedgePolicy, PooledHttpClient

        def dns_client(endpoint):
            # The load generator's defaults (LoadConfig) for every knob.
            return AsyncDnsClient.open(
                *endpoint, timeout=2.0, retries=2, source_prefix_len=24,
                backoff=BackoffPolicy(), hedge=HedgePolicy(),
            )

        self.auth = await dns_client(self.endpoints["dns"])
        self.public = await dns_client(self.endpoints["resolver"])
        self.http = PooledHttpClient(*self.endpoints["http"], pool_size=POOL, timeout=5.0)

    async def close(self) -> None:
        self.auth.close()
        self.public.close()
        await self.http.close()

    def _client_counters(self) -> dict:
        return {
            key: getattr(self.auth, attr) + getattr(self.public, attr)
            for key, attr in (
                ("queries", "queries_sent"),
                ("timeouts", "timeouts"),
                ("tcp_fallbacks", "tcp_fallbacks"),
                ("hedged", "hedged_queries"),
            )
        } | {"public_queries": self.public.queries_sent}

    async def phase(self, seconds: float, traced: bool, min_requests: int) -> dict:
        """Run the closed loop; returns what it measured."""
        from repro.dns.policies import stable_fraction
        from repro.dns.records import RecordType
        from repro.obs import TraceContext, new_trace_id, use_context

        if traced and self.log is None:
            self.log = SpanLog("generator")
        log = self.log if traced else None
        req_s: list[float] = []
        dns_s: list[float] = []
        errors: list[str] = []
        counts = {"attempted": 0, "failed": 0, "public": 0}
        lags: list[float] = []
        speed = HostSpeed()
        before = self._client_counters()
        cpu0 = time.process_time()
        began = time.perf_counter()
        running = True

        async def sample_lag_and_speed() -> None:
            while running:
                due = time.perf_counter() + SAMPLE_INTERVAL
                await asyncio.sleep(SAMPLE_INTERVAL)
                lags.append(max(0.0, time.perf_counter() - due))
                speed.sample()

        async def one(seq: int, rid) -> None:
            client = self.directory.sample(seq, self.salt)
            public = stable_fraction("resolver-population", seq) < PUBLIC_SHARE
            dns = self.public if public else self.auth
            counts["public"] += public
            path = f"/content/ios11-part{seq % OBJECTS:03d}.ipsw"
            t0 = time.perf_counter()
            resolution = await dns.resolve(self.entry, client.address)
            t1 = time.perf_counter()
            final = resolution.steps[-1] if resolution.steps else ()
            if not any(r.rtype is RecordType.A for r in final):
                raise RuntimeError(
                    f"chain for {client.address} ended without A records "
                    f"at {resolution.final_name!r}"
                )
            addresses = resolution.addresses
            vip = addresses[seq % len(addresses)]
            status, _headers, length = await self.http.get(
                path, host=self.entry, vip=vip, client=client.address,
                range_bytes=(0, RANGE_BYTES - 1),
            )
            t2 = time.perf_counter()
            if status != 206 or length != RANGE_BYTES:
                raise RuntimeError(
                    f"GET {path} from {vip}: status {status}, {length} bytes "
                    f"(want 206 with {RANGE_BYTES})"
                )
            req_s.append(t2 - t0)
            dns_s.append(t1 - t0)
            if log is not None:
                parent = log.record("loadgen.request", t0, t2, rid=rid)
                log.record("loadgen.resolve", t0, t1, parent, rid)
                log.record("loadgen.get", t1, t2, parent, rid)

        def more() -> bool:
            elapsed = time.perf_counter() - began
            if self.bench_gone():
                return False
            return elapsed < seconds or (
                counts["attempted"] < min_requests
                and elapsed < seconds + TOP_UP_SECONDS
            )

        async def client_loop() -> None:
            while more():
                seq = self.next_seq
                self.next_seq += 1
                counts["attempted"] += 1
                try:
                    if traced:
                        # The trace id travels on the wire (EDNS0 option,
                        # Traceparent header), so server spans carry it too.
                        rid = new_trace_id(f"perfbench|{self.seed}|{seq}")
                        with use_context(TraceContext(trace_id=rid, sampled=True)):
                            await one(seq, rid)
                    else:
                        await one(seq, None)
                except Exception as exc:  # counted against error_rate
                    counts["failed"] += 1
                    if len(errors) < 10:
                        errors.append(f"seq={seq}: {type(exc).__name__}: {exc}")

        lag_task = asyncio.create_task(sample_lag_and_speed())
        try:
            await asyncio.gather(*(client_loop() for _ in range(CLIENTS)))
        finally:
            running = False
            await lag_task
        wall = time.perf_counter() - began
        after = self._client_counters()
        return {
            "wall_s": wall,
            "cpu_s": time.process_time() - cpu0 - speed.spent_s,
            "speed_chunks": speed.chunks,
            "req_s": req_s,
            "dns_s": dns_s,
            "errors": errors,
            "lag_s": lags,
            **counts,
            **{key: after[key] - before[key] for key in after},
        }

    async def oracle(self, frozen_at: float, samples: int) -> dict:
        """Wire answers at a frozen server clock vs the in-memory estate."""
        from repro.serve import AsyncDnsClient, DnsClientError

        resolver = self.estate.resolver(cache=False)
        client = await AsyncDnsClient.open(*self.endpoints["dns"], source_prefix_len=32)
        mismatches: list[str] = []
        stride = max(1, self.next_seq // samples)
        try:
            for seq in range(0, stride * samples, stride):
                sampled = self.directory.sample(seq, self.salt)
                try:
                    wire = await client.resolve(self.entry, sampled.address)
                except DnsClientError as exc:
                    mismatches.append(f"seq {seq}: wire resolution failed: {exc}")
                    continue
                memory = resolver.resolve(self.entry, sampled.context(frozen_at))
                if (wire.chain_names, tuple(wire.addresses)) != (
                    memory.chain_names, tuple(memory.addresses)
                ):
                    mismatches.append(
                        f"seq {seq}: wire {wire.chain_names} {wire.addresses} "
                        f"!= estate {memory.chain_names} {memory.addresses}"
                    )
        finally:
            client.close()
        return {"attempted": samples, "mismatches": mismatches}


async def _generate(conn, endpoints: dict, seed: int, out_dir: Path) -> None:
    generator = _Generator(endpoints, seed)
    # The bench sends nothing during a phase, so a readable channel
    # mid-phase means it closed.
    generator.bench_gone = lambda: conn.poll(0)
    await generator.open()
    try:
        conn.send(("ready", placement(f"{CLIENTS} closed-loop clients, pool {POOL}")))
        while True:
            try:
                message = conn.recv()
            except EOFError:  # the bench is gone: shut down quietly
                return
            kind = message[0]
            if kind == "phase":
                conn.send(("phase", await generator.phase(*message[1:])))
            elif kind == "oracle":
                conn.send(("oracle", await generator.oracle(*message[1:])))
            elif kind == "stop":
                break
    finally:
        await generator.close()
    spans = 0
    if generator.log is not None:
        spans = generator.log.write_csv(out_dir / "serve-mixed-spans-generator.csv.gz")
    conn.send(("bye", spans))


def generator_main(conn, endpoints: dict, seed: int, out_dir: str) -> None:
    """Entry point of the generator process."""
    asyncio.run(_generate(conn, endpoints, seed, Path(out_dir)))


# ----------------------------------------------------------------------
# bench process
# ----------------------------------------------------------------------


def _ask(conn, message, expect: str):
    """Send ``message``, wait for the reply of kind ``expect``."""
    if message is not None:
        conn.send(message)
    if not conn.poll(REPLY_TIMEOUT):
        raise TimeoutError(f"no {expect!r} reply within {REPLY_TIMEOUT:.0f}s")
    reply = conn.recv()
    if reply[0] != expect:
        raise RuntimeError(f"expected {expect!r}, got {reply[0]!r}")
    return reply


def _registry_figures(delta: dict) -> dict:
    """The serve counters and sums of one phase, from the merged registry."""
    from repro.obs.registry import merge_registry_snapshots

    merged = merge_registry_snapshots([delta])

    def children(name):
        family = merged.get(name)
        return list(family.children()) if family is not None else []

    def total(name, label=None):
        return sum(
            child.value for labels, child in children(name)
            if label is None or labels[-1] == label
        )

    def hist(name):
        found = children(name)
        return (sum(c.sum for _, c in found), sum(c.count for _, c in found))

    handle_sum, handle_count = hist("serve_dns_handle_seconds")
    http_sum, http_count = hist("serve_http_handle_seconds")
    return {
        "dns_queries": total("serve_dns_queries_total"),
        "dns_udp": total("serve_dns_queries_total", "udp"),
        "handle_sum_s": handle_sum,
        "handle_count": handle_count,
        "http_sum_s": http_sum,
        "http_count": http_count,
        "front_hits": total("resolver_front_cache_total", "hit"),
        "front_misses": total("resolver_front_cache_total", "miss"),
        "front_upstream": total("resolver_front_upstream_total"),
    }


def _phase_checks(load: dict, server: dict, registry: dict) -> list[str]:
    """Generator, server and merged-registry counts must line up."""
    problems = []
    front = registry["front_hits"] + registry["front_misses"]
    if not load["public_queries"] == front == server["front_lookups"]:
        problems.append(
            f"front lookups: generator sent {load['public_queries']}, "
            f"resolver_front_cache_total {front:.0f}, "
            f"cache_stats {server['front_lookups']}"
        )
    expected = load["queries"] - load["public_queries"] + registry["front_upstream"]
    if expected != registry["dns_queries"]:
        problems.append(
            f"authoritative queries: generator + front upstream {expected:.0f} "
            f"!= serve_dns_queries_total {registry['dns_queries']:.0f}"
        )
    return problems


def _shared_cpu() -> int:
    """The one CPU the server and the generator share (-1: leave unpinned).

    On the 2-CPU host this was sized on, the pair spread over two CPUs
    gave closed-loop req/s a quartile spread of 0.23 and p90 latency
    0.47 over five runs, against 0.11 and 0.12 with both on one CPU.
    Every request crosses between the processes about ten times, and
    a descheduled virtual CPU stalls each crossing.  On one CPU the
    pair stalls together, as a single process would.
    """
    if not hasattr(os, "sched_getaffinity"):
        return -1
    return min(os.sched_getaffinity(0))


class _Processes:
    """The server and generator processes, always stopped and joined.

    Each is a fresh interpreter (``spawn``) pinned to ``_shared_cpu()``
    and talking to the bench over a pipe.
    """

    def __init__(self) -> None:
        self.context = multiprocessing.get_context("spawn")
        self.started: list = []

    def start(self, target, *args):
        ours, theirs = self.context.Pipe()
        process = self.context.Process(
            target=_pinned, args=(target, _shared_cpu(), theirs) + args
        )
        process.start()
        theirs.close()
        self.started.append((process, ours))
        return ours

    def close(self) -> None:
        for process, conn in reversed(self.started):
            conn.close()
            process.join(timeout=30)
            if process.is_alive():
                process.kill()
                process.join()
        # Starting a spawn process also started multiprocessing's
        # resource tracker, which would outlive this process; stop it
        # and reap it too.
        resource_tracker._resource_tracker._stop()


def _pinned(target, cpu: int, conn, *args) -> None:
    """Run ``target(conn, *args)`` on ``cpu`` (``-1``: unpinned)."""
    if cpu >= 0:
        os.sched_setaffinity(0, {cpu})
    with conn:
        target(conn, *args)


def run(seconds: float, traced: bool, seed: int, out_dir: Path) -> dict:
    processes = _Processes()
    try:
        server = processes.start(server_main, str(out_dir), SETUPS)
        _, endpoints, setup_times, setup_chunks, server_place = _ask(server, None, "ready")
        generator = processes.start(generator_main, endpoints, seed, str(out_dir))
        _, generator_place = _ask(generator, None, "ready")
        warm = _ask(generator, ("phase", WARMUP_SECONDS, False, 0), "phase")[1]
        plan = [(seconds / 2, False), (seconds / 2, True)] if traced else [(seconds, False)]
        phases = []
        for span, trace_phase in plan:
            _ask(server, ("begin", trace_phase), "ok")
            load = _ask(generator, ("phase", span, trace_phase, MIN_REQUESTS), "phase")[1]
            stats = _ask(server, ("end",), "stats")[1]
            phases.append((load, stats, _registry_figures(stats["registry_delta"])))
        _ask(server, ("freeze", FROZEN_AT), "ok")
        oracle = _ask(generator, ("oracle", FROZEN_AT, ORACLE_SAMPLES), "oracle")[1]
        server_spans = _ask(server, ("stop",), "bye")[1]
        generator_spans = _ask(generator, ("stop",), "bye")[1]
    finally:
        processes.close()

    errors: list[str] = warm["errors"] + oracle["mismatches"]
    attempted = warm["attempted"] + oracle["attempted"]
    failed = warm["failed"] + len(oracle["mismatches"])
    problems: list[str] = []
    for load, stats, registry in phases:
        attempted += load["attempted"]
        failed += load["failed"]
        errors += load["errors"]
        problems += _phase_checks(load, stats, registry)
    places = {
        "server": server_place,
        "generator": generator_place,
        "bench": placement("orchestration and oracle checks"),
    }
    reference_load, reference_stats, _ = phases[0]
    requests = len(reference_load["req_s"])
    result = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "problems": problems,
        "placement": places,
        "spans": {"server": server_spans, "generator": generator_spans},
    }
    if not traced:
        # Scaled to the reference host speed: set-up by the server's
        # samples between boots, the load by the generator's.
        boot_speed = HostSpeed(setup_chunks)
        load_speed = HostSpeed(reference_load["speed_chunks"])
        factor = load_speed.factor()
        rate = share(requests, reference_load["wall_s"])
        raw = {
            "setup_s": timing(setup_times),
            "req_ms": timing(reference_load["req_s"], 1000.0),
            "dns_ms": timing(reference_load["dns_s"], 1000.0),
            "req_per_s": rate,
        }
        req = timing(reference_load["req_s"], 1000.0 * factor)
        if not req["p99_valid"]:
            problems.append(f"only {req['n']} requests timed: p99 needs 1000")
        setup = timing(boot_speed.scale_each(setup_times))
        result.update(
            metrics={
                "setup_s": setup["p50"],
                "throughput_per_s": rate / factor,
                "latency_p50_ms": req["p50"],
                "latency_p90_ms": req["p90"],
                "peak_rss_mb": reference_stats["peak_rss_mb"],
            },
            detail={
                "setup_s": setup,
                "req_ms": req,
                "dns_ms": timing(reference_load["dns_s"], 1000.0 * factor),
                "raw": raw,
                "host_speed": load_speed.summary(),
                "boot_host_speed": boot_speed.summary(),
                "requests": requests,
                "error_rate": share(failed, attempted),
                "server_cpu_ms_per_req": share(reference_stats["cpu_s"] * 1e3, requests),
                "loadgen_cpu_ms_per_req": share(reference_load["cpu_s"] * 1e3, requests),
                "queries_per_req": share(reference_load["queries"], requests),
            },
        )
        return result
    traced_load, traced_stats, traced_registry = phases[1]
    layers = traced_stats["layers"]
    traced_requests = len(traced_load["req_s"])

    def per_call_us(name: str) -> float:
        row = layers.get(name)
        return share(row["busy_s"] * 1e6, row["calls"]) if row else 0.0

    handle = timing(traced_stats["handle_s"], 1e6)
    handle_row = layers.get("serve.dnsserver.handle", {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    # Not the registry's serve_http_handle_seconds: that interval spans
    # awaits (drain), and with the generator on the same CPU it includes
    # the generator's time.  The edge's named CPU work is the router.
    attributed = traced_stats["root_busy_s"]
    lag = reference_load["lag_s"]
    metrics = {
        # Each half at the reference speed, as on the engine workloads.
        "trace_overhead": share(
            share(traced_load["wall_s"], traced_requests)
            * HostSpeed(traced_load["speed_chunks"]).factor(),
            share(reference_load["wall_s"], requests)
            * HostSpeed(reference_load["speed_chunks"]).factor(),
        ),
        "serve.dnsserver.handle_us.p50": handle["p50"],
        "serve.dnsserver.handle_us.p99": handle["p99"],
        "serve.dnsserver.handle.calls": handle_row["calls"],
        "serve.dnsserver.handle.self_us": share(handle_row["self_s"] * 1e6, handle_row["calls"]),
        "dns.wire.decode_us": per_call_us("dns.wire.decode"),
        "dns.wire.encode_us": per_call_us("dns.wire.encode"),
        "serve.dnsserver.answer_us": per_call_us("serve.dnsserver.answer"),
        "serve.resolverfront.hit_ratio": share(
            traced_registry["front_hits"],
            traced_registry["front_hits"] + traced_registry["front_misses"],
        ),
        "serve.resolverfront.lookups": traced_registry["front_hits"] + traced_registry["front_misses"],
        "serve.resolverfront.upstream_per_req": share(
            traced_registry["front_upstream"], traced_load["public"]
        ),
        "serve.httpserver.handle_us": share(
            traced_registry["http_sum_s"] * 1e6, traced_registry["http_count"]
        ),
        "serve.httpserver.route_us": per_call_us("serve.httpserver.route"),
        "serve.worker.cpu_ms_per_req": share(reference_stats["cpu_s"] * 1e3, requests),
        "serve.loadgen.cpu_ms_per_req": share(reference_load["cpu_s"] * 1e3, requests),
        "serve.attributed_share": share(attributed, traced_stats["cpu_s"]),
        "serve.requests": traced_requests,
        "serve.loadgen.queries_per_req": share(reference_load["queries"], requests),
        "serve.loadgen.timeouts": sum(p[0]["timeouts"] for p in phases),
        "serve.loadgen.tcp_fallbacks": sum(p[0]["tcp_fallbacks"] for p in phases),
        "serve.loadgen.hedged": sum(p[0]["hedged"] for p in phases),
        "serve.loadgen.loop_lag_p99_ms": percentile(lag, 99.0) * 1e3 if lag else 0.0,
        "check.serve.handle_calls_registry": traced_registry["dns_udp"],
        "check.serve.handle_sum_ratio": share(
            traced_registry["handle_sum_s"], handle_row["busy_s"]
        ),
    }
    if traced_registry["dns_udp"] != handle_row["calls"]:
        problems.append(
            f"handler calls outside-in {handle_row['calls']} != "
            f"serve_dns_queries_total{{udp}} {traced_registry['dns_udp']:.0f}"
        )
    low, high = HANDLE_SUM_RATIO
    if not low <= metrics["check.serve.handle_sum_ratio"] <= high:
        problems.append(
            f"serve_dns_handle_seconds sum / outside-in handler time "
            f"{metrics['check.serve.handle_sum_ratio']:.3f} outside [{low}, {high}]"
        )
    result.update(
        metrics=metrics,
        detail={
            "layers": layers,
            "registry": traced_registry,
            "server_cpu_s": traced_stats["cpu_s"],
            "attributed_s": attributed,
            "reference_requests": requests,
            "traced_requests": traced_requests,
        },
    )
    return result

