"""The engine workloads: whole simulation windows, serial, timed from outside.

One *window* builds a fresh scenario and engine (set-up), runs every
tick of the workload's window (``workers=1``: sharded numbers on a
2-CPU host say nothing about scaling) and folds the run into a
:class:`RunSummary`, whose canonical JSON digest must match the one
pinned in ``digests.json``.  The engine scenario has no seed of its
own, so these workloads do not depend on ``--seed``.

Untraced runs repeat windows until ``--seconds`` have passed (at
least one window), with timings scaled to the reference host speed.
Traced runs alternate an untraced reference window with a traced one.
The traced window gives the engine a metrics registry of its own (for
the cross-check against ``engine_phase_seconds``; the rest of the
scenario keeps the null registry, so netflow and SNMP do not count
into it) and installs the benchmark's wrappers around the public calls
of each layer.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from host import HostSpeed, peak_rss_mb
from spans import Patches, SpanLog, busy, layer_table, share
from stats import timing

__all__ = ["WORKLOADS", "EngineWorkload", "summary_digest", "run"]

# About 1.5 s of set-up work on the host the benchmark was sized on.
# Build times are bimodal with the host's state, so each is scaled by
# the speed sample taken right after it before setup_s takes the median.
SETUP_BUILDS = 40
DIGESTS = Path(__file__).resolve().parent / "digests.json"
# Outside-in and registry phase shares time the same intervals, so
# they agree to well within this (absolute) tolerance.
CROSSCHECK_TOLERANCE = 0.02


@dataclass(frozen=True)
class EngineWorkload:
    name: str
    config: dict
    start: tuple
    end: tuple
    step_seconds: float


WORKLOADS = {
    w.name: w
    for w in (
        EngineWorkload(
            name="engine-release",
            config=dict(
                global_probe_count=160,
                isp_probe_count=80,
                global_dns_interval=1800.0,
                isp_dns_interval=43200.0,
                traceroute_probe_count=16,
            ),
            start=(9, 17),
            end=(9, 21),
            step_seconds=1800.0,
        ),
        EngineWorkload(
            name="engine-isp-traffic",
            config=dict(
                global_probe_count=1,
                isp_probe_count=80,
                global_dns_interval=864000.0,
                isp_dns_interval=43200.0,
            ),
            start=(9, 15),
            end=(9, 23),
            step_seconds=900.0,
        ),
    )
}


def summary_digest(summary) -> str:
    """SHA-256 of the summary's canonical (golden-run) JSON form."""
    canonical = json.dumps(summary.to_json_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def pinned_digest(name: str) -> Optional[str]:
    return json.loads(DIGESTS.read_text()).get(name)


@dataclass
class Window:
    run_s: float = 0.0
    summary_s: float = 0.0
    steps: int = 0
    tick_s: list = field(default_factory=list)
    digest: Optional[str] = None
    error: Optional[str] = None


def build(workload: EngineWorkload, metrics=None):
    """A fresh scenario and engine; ``metrics`` is the engine's registry only."""
    from repro.simulation import ScenarioConfig, Sep2017Scenario, SimulationEngine

    scenario = Sep2017Scenario(ScenarioConfig(**workload.config))
    engine = SimulationEngine(
        scenario, step_seconds=workload.step_seconds, metrics=metrics
    )
    return scenario, engine


def run_window(
    workload: EngineWorkload,
    instrument: Optional[Callable] = None,
    log: Optional[SpanLog] = None,
    speed: Optional[HostSpeed] = None,
    metrics=None,
) -> Window:
    """Build, run and summarise one window.

    ``instrument(scenario, engine)`` runs between build and run (the
    traced pass installs its wrappers there); ``log`` receives the
    summary span; ``metrics`` goes to the engine.  With ``speed``, the
    host's speed is sampled after every tick, outside the timed
    intervals.
    """
    from repro.simulation.engine import RunSummary
    from repro.workload import TIMELINE

    gc.collect()
    clock = time.perf_counter
    scenario, engine = build(workload, metrics)
    window = Window()
    sample = speed.sample if speed is not None else (lambda: None)
    if instrument is not None:
        instrument(scenario, engine)
    reports: list = []
    ticks = window.tick_s
    last = [0.0]

    def progress(report) -> None:
        ticks.append(clock() - last[0])
        reports.append(report)
        sample()
        last[0] = clock()

    try:
        last[0] = clock()
        window.steps = engine.run(
            TIMELINE.at(*workload.start), TIMELINE.at(*workload.end),
            progress=progress,
        )
        window.run_s = sum(ticks)
        folded = clock()
        summary = RunSummary.from_run(scenario, reports)
        done = clock()
        window.summary_s = done - folded
        if log is not None:
            log.record("simulation.summary", folded, done)
        window.digest = summary_digest(summary)
    except Exception as exc:  # a failed window is counted, not raised
        window.error = f"{type(exc).__name__}: {exc}"
    return window


def _window_ok(window: Window, pinned: Optional[str]) -> bool:
    return window.error is None and pinned is not None and window.digest == pinned


def setup_times(workload: EngineWorkload, speed: HostSpeed) -> list[float]:
    """Seconds per scenario + engine build, after one warm-up build.

    The warm-up pays the imports and first-use caches.  The host's
    speed is sampled after every build.
    """
    build(workload)
    times = []
    for _ in range(SETUP_BUILDS):
        gc.collect()
        started = time.perf_counter()
        build(workload)
        times.append(time.perf_counter() - started)
        speed.sample()
    return times


def measure(workload: EngineWorkload, seconds: float) -> dict:
    """The untraced run: end-to-end metrics over repeated windows.

    Timings are scaled to the reference host speed (``host.HostSpeed``)
    sampled through the whole run; ``detail`` keeps the raw figures.
    Tick times, like set-up times, are scaled one by one, by the sample
    taken right after each: the tick-time distribution has two clusters
    and its median falls between them, where one factor for the whole
    run moved it by a quartile spread of 0.11 over ten runs against
    0.04 scaled tick by tick.
    """
    pinned = pinned_digest(workload.name)
    setup_speed = HostSpeed()
    setups = setup_times(workload, setup_speed)
    speeds: list[HostSpeed] = []
    windows: list[Window] = []
    began = time.perf_counter()
    while not windows or time.perf_counter() - began < seconds:
        speeds.append(HostSpeed())
        windows.append(run_window(workload, speed=speeds[-1]))
        if windows[-1].error is not None:
            break
    ok = [(w, s) for w, s in zip(windows, speeds) if _window_ok(w, pinned)]
    ticks = [t for w, _ in ok for t in w.tick_s]
    scaled_ticks = [t for w, s in ok for t in s.scale_each(w.tick_s)]
    rates = [w.steps / w.run_s for w, _ in ok]
    summaries = [w.summary_s for w, _ in ok]
    speed = HostSpeed([c for s in speeds for c in s.chunks])
    factor = speed.factor()
    raw = {
        "setup_s": timing(setups),
        "steps_per_s": timing(rates),
        "tick_ms": timing(ticks, 1000.0),
        "summary_s": timing(summaries),
    }
    scaled = {
        "setup_s": timing(setup_speed.scale_each(setups)),
        "steps_per_s": timing(rates, 1.0 / factor),
        "tick_ms": timing(scaled_ticks, 1000.0),
        "summary_s": timing(summaries, factor),
    }
    return {
        "attempted": len(windows),
        "failed": len(windows) - len(ok),
        "errors": [
            w.error or f"digest {w.digest} != pinned {pinned}"
            for w in windows if not _window_ok(w, pinned)
        ],
        "problems": [],
        "metrics": {
            "setup_s": scaled["setup_s"]["p50"],
            "throughput_per_s": scaled["steps_per_s"]["p50"],
            "latency_p50_ms": scaled["tick_ms"]["p50"],
            "latency_p90_ms": scaled["tick_ms"]["p90"],
            "peak_rss_mb": peak_rss_mb(),
        },
        "detail": {
            **scaled,
            "raw": raw,
            "host_speed": speed.summary(),
            "setup_host_speed": setup_speed.summary(),
            "windows": len(windows),
            "steps_per_window": windows[0].steps,
            "digest": windows[-1].digest,
            "pinned_digest": pinned,
        },
    }


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------


class _Instruments:
    """The wrappers one traced window installs, and what they saw."""

    def __init__(self, log: SpanLog, patches: Patches) -> None:
        self.log = log
        self.patches = patches
        self.bgp_sources: set = set()
        self.scenario = None

    def segments_sealed(self) -> int:
        """Columnar segments the campaigns' stores sealed in the window."""
        scenario = self.scenario
        return sum(
            campaign.store.segment_count
            for campaign in (
                scenario.global_campaign,
                scenario.isp_campaign,
                scenario.traceroute_campaign,
            )
        )

    def __call__(self, scenario, engine) -> None:
        self.scenario = scenario
        self._install_global()
        log, wrap = self.log, self.patches.wrap

        def timed(name, root=False):
            return lambda fn: log.wrap(name, fn, root=root)

        wrap(engine, "advance", timed("simulation.engine.advance", root=True))
        wrap(scenario.demand, "demand_gbps", timed("workload.demand"))
        wrap(scenario.estate.controller, "observe_demand",
             timed("apple.controller.observe_demand"))
        wrap(engine, "operator_split", timed("simulation.engine.operator_split"))
        for deployment in scenario.estate.deployments.values():
            wrap(deployment, "offer_demand", timed("cdn.deployment.offer_demand"))
        for attr, label in (
            ("global_campaign", "global"),
            ("isp_campaign", "isp"),
            ("aws_campaign", "aws"),
            ("traceroute_campaign", "traceroute"),
        ):
            wrap(getattr(scenario, attr), "maybe_run",
                 timed(f"atlas.campaign.{label}"))
        # The one non-public seam: the traffic phase exactly as the
        # engine's own engine_phase_seconds{phase="traffic"} times it.
        wrap(engine, "_generate_isp_traffic", timed("simulation.engine.traffic"))
        # Leaf calls of the traffic phase, about a million a window on
        # engine-isp-traffic: counted and timed, with no span each.
        tally = log.tally
        wrap(scenario.rib, "lookup",
             lambda fn: tally("isp.bgp.lookup", fn, seen=self.bgp_sources))
        wrap(scenario.netflow, "observe_exact",
             lambda fn: tally("isp.netflow.observe", fn))
        wrap(scenario.netflow, "observe",
             lambda fn: tally("isp.netflow.observe", fn))
        wrap(scenario.snmp, "add_bytes", lambda fn: tally("isp.snmp.add_bytes", fn))

    def _install_global(self) -> None:
        """Module- and class-level wrappers (undone with the patches)."""
        import repro.atlas.campaign as campaign
        from repro.atlas.probe import AtlasProbe
        from repro.atlas.results import MeasurementStore
        from repro.dns.records import ResourceRecord
        from repro.dns.zone import AuthoritativeServer

        log, wrap = self.log, self.patches.wrap
        wrap(campaign, "resolve_bulk",
             lambda fn: log.wrap("dns.resolver.resolve_bulk", fn))
        wrap(AtlasProbe, "measurement_from",
             lambda fn: log.wrap("atlas.probe.measurement_from", fn))
        wrap(MeasurementStore, "add_dns",
             lambda fn: log.wrap("atlas.results.add_dns", fn))
        wrap(MeasurementStore, "add_traceroute",
             lambda fn: log.wrap("atlas.results.add_traceroute", fn))
        # Counted only inside the RIPE campaigns' chain chase, so the
        # per-measurement ratios leave out the AWS sweep's resolutions.
        chase = "dns.resolver.resolve_bulk"
        wrap(AuthoritativeServer, "query_in_zone",
             lambda fn: log.counter("dns.zone.queries", fn, within=chase))
        wrap(ResourceRecord, "__post_init__",
             lambda fn: log.counter("dns.records.built", fn, within=chase))


def _registry_sum(registry, family: str, by_label: Optional[int] = None) -> dict:
    """Counter values (or histogram sums) of one family, per label."""
    found = registry.get(family)
    totals: dict = {}
    if found is None:
        return totals
    for labels, child in found.children():
        key = labels[by_label] if by_label is not None else ""
        value = child.sum if hasattr(child, "sum") else child.value
        totals[key] = totals.get(key, 0.0) + value
    return totals


def trace(workload: EngineWorkload, seconds: float, out_dir: Path) -> dict:
    """The traced run: per-layer metrics, spans and trace overhead.

    Each traced window gets its own span log; their layer tables add
    up, and the first window's spans are written out (one window of
    engine-isp-traffic is about a million spans).
    """
    from repro.obs import MetricsRegistry

    pinned = pinned_digest(workload.name)
    untraced: list[Window] = []
    traced: list[Window] = []
    untraced_speed, traced_speed = HostSpeed(), HostSpeed()
    table: dict = {}
    counts: dict = {}
    first_log: Optional[SpanLog] = None
    bgp_distinct = 0
    phases: dict = {}
    sealed = 0.0
    began = time.perf_counter()
    while not traced or time.perf_counter() - began < seconds:
        untraced.append(run_window(workload, speed=untraced_speed))
        log = SpanLog("bench")
        registry = MetricsRegistry()
        with Patches() as patches:
            instruments = _Instruments(log, patches)
            traced.append(run_window(
                workload, instruments, log, speed=traced_speed, metrics=registry
            ))
        for name, row in layer_table(log).items():
            total = table.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                total[key] += value
        for name, value in log.counts.items():
            counts[name] = counts.get(name, 0) + value
        if first_log is None:
            first_log = log
        bgp_distinct += len(instruments.bgp_sources)
        for phase, value in _registry_sum(
            registry, "engine_phase_seconds", by_label=0
        ).items():
            phases[phase] = phases.get(phase, 0.0) + value
        sealed += instruments.segments_sealed()
        if traced[-1].error is not None or untraced[-1].error is not None:
            break
    windows = untraced + traced
    failed = [w for w in windows if not _window_ok(w, pinned)]
    n = len(traced)
    per_window = {name: row["busy_s"] / n for name, row in table.items()}

    def calls(name: str) -> int:
        row = table.get(name)
        return row["calls"] if row is not None else 0

    measurements = calls("atlas.results.add_dns")
    lookups = calls("isp.bgp.lookup")
    campaigns = sum(
        busy(table, f"atlas.campaign.{c}")
        for c in ("global", "isp", "aws", "traceroute")
    )
    outside = {
        "arrivals": busy(table, "workload.demand")
        + busy(table, "apple.controller.observe_demand"),
        "selection": busy(table, "simulation.engine.operator_split")
        + busy(table, "cdn.deployment.offer_demand"),
        "campaigns": campaigns,
        "traffic": busy(table, "simulation.engine.traffic"),
    }
    outside_total = sum(outside.values())
    registry_total = sum(
        phases.get(p, 0.0) for p in ("arrivals", "selection", "campaigns", "traffic")
    )
    checks = {
        "check.engine.campaigns_share": share(outside["campaigns"], outside_total),
        "check.engine.campaigns_share_registry": share(
            phases.get("campaigns", 0.0), registry_total
        ),
        "check.engine.traffic_share": share(outside["traffic"], outside_total),
        "check.engine.traffic_share_registry": share(
            phases.get("traffic", 0.0), registry_total
        ),
    }
    disagreements = [
        f"{phase} share outside-in {checks[f'check.engine.{phase}_share']:.4f} "
        f"vs registry {checks[f'check.engine.{phase}_share_registry']:.4f}"
        for phase in ("campaigns", "traffic")
        if abs(
            checks[f"check.engine.{phase}_share"]
            - checks[f"check.engine.{phase}_share_registry"]
        ) > CROSSCHECK_TOLERANCE
    ]
    metrics = {
        # Each side at the reference speed, so host drift between the
        # alternating windows does not read as tracing cost.
        "trace_overhead": share(
            sum(w.run_s for w in traced) * traced_speed.factor(),
            sum(w.run_s for w in untraced) * untraced_speed.factor(),
        ),
        "dns.resolver.resolve_bulk.busy_s": per_window.get(
            "dns.resolver.resolve_bulk", 0.0
        ),
        "dns.resolver.resolve_bulk.us_per_measurement": share(
            busy(table, "dns.resolver.resolve_bulk") * 1e6, measurements
        ),
        "dns.zone.queries_per_measurement": share(
            counts.get("dns.zone.queries", 0), measurements
        ),
        "dns.records.built_per_measurement": share(
            counts.get("dns.records.built", 0), measurements
        ),
        "atlas.columnar.segments_sealed": sealed / n,
        "atlas.campaign.aws.share": share(
            busy(table, "atlas.campaign.aws"),
            busy(table, "simulation.engine.advance"),
        ),
        "simulation.engine.advance.self_s": busy(
            table, "simulation.engine.advance", "self_s"
        ) / n,
        "isp.bgp.lookup.calls": lookups / n,
        "isp.bgp.lookup.distinct_ratio": share(bgp_distinct, lookups),
        **checks,
    }
    for name in (
        "atlas.probe.measurement_from",
        "atlas.results.add_dns",
        "atlas.results.add_traceroute",
        "atlas.campaign.global",
        "atlas.campaign.isp",
        "atlas.campaign.aws",
        "atlas.campaign.traceroute",
        "workload.demand",
        "simulation.engine.operator_split",
        "simulation.engine.advance",
        "simulation.summary",
        "simulation.engine.traffic",
        "isp.bgp.lookup",
        "isp.netflow.observe",
        "isp.snmp.add_bytes",
    ):
        metrics[f"{name}.busy_s"] = per_window.get(name, 0.0)
    spans_path = out_dir / f"{workload.name}-spans.csv.gz"
    first_log.write_csv(spans_path)
    return {
        "attempted": len(windows),
        "failed": len(failed),
        "errors": [
            w.error or f"digest {w.digest} != pinned {pinned}" for w in failed
        ],
        "problems": disagreements,
        "metrics": metrics,
        "detail": {
            "layers": table,
            "counts": counts,
            "registry_phase_s": phases,
            "outside_phase_s": outside,
            "traced_windows": n,
            "spans": len(first_log),
            "spans_file": str(spans_path),
        },
    }



def run(workload_name: str, seconds: float, traced: bool, out_dir: Path) -> dict:
    workload = WORKLOADS[workload_name]
    return trace(workload, seconds, out_dir) if traced else measure(workload, seconds)
