"""Declarative scenarios: one frozen spec from protocol to metrics.

A :class:`ScenarioSpec` composes everything one simulated study needs —
protocol (any plugin registered in :mod:`repro.protocols`), config
overrides, an open-loop workload with optional bursts, a fault
schedule, network conditions and duration/seed — as a frozen,
picklable value.  Specs run one-off (:func:`run_scenario`), as a
seed grid over the multiprocessing runner
(:func:`repro.harness.runner.scenario_grid` +
:func:`~repro.harness.runner.execute`), or from the command line::

    python -m repro scenario --list
    python -m repro scenario bursty-load
    python -m repro scenario my_scenario.toml --seeds 1,2,3 --jobs 4
    python -m repro scenario delay-surge-recovery --dump > spec.json

The paper's figure points are specs too
(:meth:`repro.harness.runner.SweepTask.spec`): every simulated point
is wired by :func:`wire_spec`, and only its probe context and result
type depend on what described it.

Spec files are JSON or TOML mirroring the dataclasses, e.g.::

    name = "surge-then-recover"
    protocol = "scr"
    duration = 4.0
    # optional: extra measurement probes (metrics namespaced
    # "<probe>.<metric>" in the result)
    probes = ["order-latency"]

    [workload]
    rate = 150.0

    [[faults]]
    kind = "delay_surge"
    target = "pair:1"
    at = 1.0
    until = 1.8
    factor = 40000.0

The built-in scenarios (:data:`BUILTIN_SCENARIOS`) are deliberately
*non-paper* workloads — bursty load, cascading pair failures, false
suspicion with recovery, a closed SMR loop — proving the API reaches
studies the four figures never ran.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path

import repro.harness.probes as probe_registry
import repro.protocols as protocols
from repro.calibration import resolve_calibration
from repro.errors import ConfigError
from repro.harness.cluster import Cluster, build_cluster
from repro.harness.population import (
    ClassSpec,
    EnvelopeSpec,
    PopulationSpec,
    population_from_dict,
    population_to_dict,
)
from repro.harness.probes import Probe, ProbeContext
from repro.harness.report import render_table
from repro.harness.workload import (
    AggregatedWorkload,
    OpenLoopWorkload,
    saturating_rate,
)
from repro.sim.trace import Tracer, TraceRecord

# ----------------------------------------------------------------------
# Spec dataclasses (frozen, picklable, hashable)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BurstSpec:
    """One extra open-loop burst on top of the base workload."""

    at: float
    duration: float
    rate: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigError("burst 'at' must be >= 0")
        if self.duration <= 0 or self.rate <= 0:
            raise ConfigError("burst duration and rate must be positive")


@dataclass(frozen=True)
class WorkloadSpec:
    """Open-loop client load.

    ``rate`` is aggregate requests/second; ``None`` derives the
    saturating rate for the scenario's batching interval (the paper's
    keep-every-batch-full pressure).  ``duration`` defaults to the
    scenario duration.  ``bursts`` add further open-loop phases, each
    drawing from its own RNG stream so phases compose independently.
    """

    rate: float | None = None
    duration: float | None = None
    spacing: str = "poisson"
    headroom: float = 1.3
    bursts: tuple[BurstSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.spacing not in ("poisson", "uniform"):
            raise ConfigError(f"unknown spacing {self.spacing!r}")
        if self.rate is not None and self.rate <= 0:
            raise ConfigError("workload rate must be positive")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``kind`` names an entry of
    :data:`repro.failures.injector.FAULT_KINDS`; ``target`` is a
    process name, ``"coordinator"`` (resolved through the protocol
    plugin), or ``"pair:<rank>"`` for delay surges; ``until`` and
    ``factor`` apply to ``delay_surge`` only.  ``hold_acks`` ignores
    ``target``: from ``at`` the network holds every ``Ack`` until the
    next fail-over completes — without one, until the run ends.
    """

    kind: str
    target: str = "coordinator"
    at: float = 0.0
    until: float | None = None
    factor: float | None = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigError("fault 'at' must be >= 0")

    def params(self) -> dict[str, float]:
        """The kind-specific constructor parameters that were set."""
        out: dict[str, float] = {}
        if self.until is not None:
            out["until"] = self.until
        if self.factor is not None:
            out["factor"] = self.factor
        return out


@dataclass(frozen=True)
class NetSpec:
    """Network/testbed conditions: a named calibration profile (see
    :data:`repro.calibration.CALIBRATION_PROFILES`)."""

    calibration: str = "paper"


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, runnable experiment description."""

    name: str
    protocol: str = "sc"
    f: int = 2
    scheme: str = "md5-rsa1024"
    batching_interval: float = 0.100
    duration: float = 3.0
    drain: float = 2.0
    seed: int = 1
    n_clients: int = 2
    workload: WorkloadSpec = WorkloadSpec()
    #: Aggregated population model (see :mod:`repro.harness.population`):
    #: when set, the per-client workload is replaced by one merged
    #: arrival stream with client ids sampled at delivery time, so
    #: scenario cost is O(events) regardless of ``population.clients``.
    population: PopulationSpec | None = None
    faults: tuple[FaultSpec, ...] = ()
    net: NetSpec = NetSpec()
    config: tuple[tuple[str, object], ...] = ()
    #: Extra measurement probes (registered names) attached to the run;
    #: their metrics join :meth:`ScenarioResult.metrics` namespaced as
    #: ``<probe>.<metric>``.  The built-in scenario measurement always
    #: runs.
    probes: tuple[str, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("scenario needs a name")
        if self.duration <= 0:
            raise ConfigError("scenario duration must be positive")
        if self.drain < 0:
            raise ConfigError("scenario drain must be >= 0")
        if self.n_clients < 1:
            raise ConfigError("scenario n_clients must be >= 1")
        # Normalise the override order so semantically identical specs
        # compare (and round-trip) equal however they were written.
        object.__setattr__(self, "config", tuple(sorted(self.config)))
        # Unknown probe names fail here, at spec construction — long
        # before a grid of them reaches a worker pool.
        object.__setattr__(
            self, "probes", probe_registry.validate_names(self.probes)
        )
        if self.population is not None:
            if self.workload.bursts:
                raise ConfigError(
                    "population workloads model load phases with rate "
                    "envelopes, not bursts"
                )
            if dict(self.config).get("send_replies"):
                raise ConfigError(
                    "population workloads sample client ids at delivery "
                    "time; send_replies needs addressable per-client "
                    "actors (drop send_replies or the population block)"
                )

    def with_(self, **changes) -> "ScenarioSpec":
        """A copy with the given fields replaced (grid helper)."""
        return replace(self, **changes)

    def config_overrides(self) -> dict[str, object]:
        """Extra :class:`ProtocolConfig` fields as a mapping."""
        return dict(self.config)


# ----------------------------------------------------------------------
# Dict / JSON / TOML conversion
# ----------------------------------------------------------------------


def _build(cls, data: dict, where: str):
    """Construct a spec dataclass from a mapping, rejecting unknown
    keys with a message naming the valid ones."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a table/object, got {type(data).__name__}")
    allowed = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown {where} field(s) {unknown}; allowed: {sorted(allowed)}"
        )
    return cls(**data)


def spec_from_dict(data: dict) -> ScenarioSpec:
    """Build a :class:`ScenarioSpec` from plain data (JSON/TOML shape)."""
    data = dict(data)
    workload = data.pop("workload", None)
    if workload is not None:
        workload = dict(workload)
        bursts = workload.pop("bursts", ())
        workload["bursts"] = tuple(
            _build(BurstSpec, burst, "workload burst") for burst in bursts
        )
        data["workload"] = _build(WorkloadSpec, workload, "workload")
    faults = data.pop("faults", None)
    if faults is not None:
        data["faults"] = tuple(_build(FaultSpec, fault, "fault") for fault in faults)
    net = data.pop("net", None)
    if net is not None:
        data["net"] = _build(NetSpec, net, "net")
    population = data.pop("population", None)
    if population is not None:
        data["population"] = population_from_dict(population)
    overrides = data.pop("config", None)
    if overrides is not None:
        if not isinstance(overrides, dict):
            raise ConfigError("scenario 'config' must be a table of overrides")
        data["config"] = tuple(sorted(overrides.items()))
    selected = data.pop("probes", None)
    if selected is not None:
        if isinstance(selected, str) or not isinstance(selected, (list, tuple)):
            raise ConfigError("scenario 'probes' must be an array of names")
        data["probes"] = tuple(selected)
    return _build(ScenarioSpec, data, "scenario")


def spec_to_dict(spec: ScenarioSpec) -> dict:
    """The plain-data form of a spec (inverse of :func:`spec_from_dict`)."""
    data = dataclasses.asdict(spec)
    data["workload"]["bursts"] = [dict(b) for b in _asdicts(spec.workload.bursts)]
    data["faults"] = [
        {k: v for k, v in fault.items() if v is not None}
        for fault in _asdicts(spec.faults)
    ]
    data["config"] = spec.config_overrides()
    data["probes"] = list(spec.probes)
    # Drop defaults that only add noise to dumped specs.
    if spec.population is not None:
        data["population"] = population_to_dict(spec.population)
    else:
        del data["population"]
    if not spec.probes:
        del data["probes"]
    if spec.workload.rate is None:
        del data["workload"]["rate"]
    if spec.workload.duration is None:
        del data["workload"]["duration"]
    return data


def _asdicts(items) -> list[dict]:
    return [dataclasses.asdict(item) for item in items]


def dump_spec(spec: ScenarioSpec) -> str:
    """The spec as pretty JSON (a ready-to-edit spec file)."""
    return json.dumps(spec_to_dict(spec), indent=2, sort_keys=False)


def read_spec_file(path: str | Path, what: str = "scenario") -> dict:
    """The plain data of a ``what`` spec file; the suffix picks the
    format (.json/.toml)."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{what} file not found: {path}")
    if path.suffix == ".toml":
        import tomllib

        try:
            data = tomllib.loads(path.read_text())
        except tomllib.TOMLDecodeError as exc:
            raise ConfigError(f"bad TOML in {path}: {exc}") from None
    elif path.suffix == ".json":
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad JSON in {path}: {exc}") from None
    else:
        raise ConfigError(
            f"unknown {what} file type {path.suffix!r} (use .json or .toml)"
        )
    return data


def load_spec(path: str | Path) -> ScenarioSpec:
    """Load a scenario spec file (.json/.toml)."""
    return spec_from_dict(read_spec_file(path))


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

#: The probes behind a scenario's built-in metrics: the paper's three
#: measurements, run leniently (no warm-up discard, no sample floor).
BUILTIN_PROBES = ("order-latency", "throughput", "failover")


@dataclass(frozen=True)
class ScenarioResult:
    """Deterministic outcome of one scenario run."""

    name: str
    protocol: str
    scheme: str
    f: int
    seed: int
    duration: float
    requests_issued: int
    requests_committed: int
    batches_measured: int
    latency_mean: float
    latency_p50: float
    latency_p95: float
    throughput: float
    failovers: int
    failover_latency: float
    view_changes: int
    recoveries: int
    safety_ok: bool
    #: Simulator events processed — deterministic harness telemetry,
    #: deliberately excluded from :meth:`metrics` so artifacts' gated
    #: metric dictionaries stay byte-identical across harness changes.
    events_processed: int = 0
    #: Probes the spec attached, and their finalized metrics keyed as
    #: ``<probe>.<metric>`` (namespaced so a probe can never collide
    #: with — or silently shadow — a built-in scenario metric).
    probes: tuple[str, ...] = ()
    probe_metrics: tuple[tuple[str, float], ...] = ()
    #: Fingerprint of the seeded population arrival stream (empty for
    #: per-client workloads).  Like ``events_processed`` it stays out
    #: of :meth:`metrics`; the live driver reproduces the same digest
    #: from the same seed, proving sim/live stream identity.
    stream_digest: str = ""

    def metrics(self) -> dict[str, float]:
        """Flat numeric view (artifact/runner shape)."""
        out = {
            "requests_issued": float(self.requests_issued),
            "requests_committed": float(self.requests_committed),
            "batches_measured": float(self.batches_measured),
            "latency_mean": self.latency_mean,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "throughput": self.throughput,
            "failovers": float(self.failovers),
            "failover_latency": self.failover_latency,
            "view_changes": float(self.view_changes),
            "recoveries": float(self.recoveries),
            "safety_ok": 1.0 if self.safety_ok else 0.0,
        }
        out.update(self.probe_metrics)
        return out


def wire_spec(
    spec: ScenarioSpec, context: ProbeContext, probes: tuple[str, ...]
) -> tuple[Cluster, tuple[Probe, ...], list]:
    """The one measured run: ``spec``'s cluster built, the named probes
    created against ``context`` and attached, the spec's workloads
    installed and its faults armed — ready for ``cluster.start()``.

    The one retention rule: the tracer keeps the union of the attached
    probes' declared kinds and nothing else, so a run's memory is
    bounded by what it measures.  The tracer is replaced before
    anything is armed (actors emit via ``sim.trace``), so the filter
    and the subscriptions cover everything the run produces.  Returns
    the cluster, the probes and the installed workloads.
    """
    config = protocols.get(spec.protocol).configure(
        scheme=spec.scheme,
        f=spec.f,
        batching_interval=spec.batching_interval,
        **spec.config_overrides(),
    )
    cluster = build_cluster(
        spec.protocol, config=config,
        calibration=resolve_calibration(spec.net.calibration),
        seed=spec.seed, n_clients=spec.n_clients,
    )
    active = probe_registry.create_all(probes, context)
    cluster.sim.trace = Tracer(keep_kinds=probe_registry.kinds_union(probes))
    for probe in active:
        probe.attach(cluster.sim.trace)

    w = spec.workload
    duration = w.duration if w.duration is not None else spec.duration
    rate = (
        w.rate
        if w.rate is not None
        else saturating_rate(
            config.batch_size_bytes,
            config.request_bytes,
            config.batching_interval,
            headroom=w.headroom,
        )
    )
    if spec.population is not None:
        workloads: list = [
            AggregatedWorkload(cluster, spec.population, rate=rate, duration=duration)
        ]
    else:
        workloads = [
            OpenLoopWorkload(cluster, rate=rate, duration=duration, spacing=w.spacing)
        ]
        workloads.extend(
            OpenLoopWorkload(
                cluster,
                rate=burst.rate,
                duration=burst.duration,
                start=burst.at,
                spacing=w.spacing,
                stream=f"workload:burst{i}",
            )
            for i, burst in enumerate(w.bursts, start=1)
        )
    for workload in workloads:
        workload.install()

    for fault in spec.faults:
        cluster.injector.inject_named(
            cluster, fault.kind, fault.target, at=fault.at, **fault.params()
        )
    return cluster, active, workloads


def probe_context(spec: ScenarioSpec, label: str) -> ProbeContext:
    """The lenient probe context of ``spec``'s run: rates over the
    arrival phase ``[0, duration)``, no warm-up discard, no sample
    floor (a run without, say, a fail-over episode reports zeros)."""
    return ProbeContext(
        protocol=spec.protocol, scheme=spec.scheme, f=spec.f, seed=spec.seed,
        batching_interval=spec.batching_interval, window_end=spec.duration,
        label=label,
    )


def _wire_scenario(spec: ScenarioSpec) -> tuple[Cluster, tuple[Probe, ...], list]:
    """A scenario's wiring: the lenient context and the built-in probes
    plus the spec's own."""
    context = probe_context(spec, f"scenario {spec.name!r}")
    # One instance per name: a spec that re-selects a built-in probe
    # reads the same measurement under its namespaced keys.
    return wire_spec(spec, context, tuple(dict.fromkeys(BUILTIN_PROBES + spec.probes)))


def build_scenario(spec: ScenarioSpec) -> tuple[Cluster, list]:
    """Materialise a spec: cluster built, probes attached, workloads
    installed, faults armed — ready for ``cluster.start()``.

    With a ``population`` block the workload list holds a single
    :class:`~repro.harness.workload.AggregatedWorkload` (no per-client
    actors are built beyond the spec's ``n_clients``, which population
    runs keep at the 2-client floor purely for cluster wiring)."""
    cluster, _, workloads = _wire_scenario(spec)
    return cluster, workloads


#: Milestones a scenario counts (no probe provides them).
_COUNTED_KINDS = ("order_committed", "failover_complete", "view_installed",
                  "pair_recovered")


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Run a spec end-to-end and extract its metrics."""
    cluster, probes, workloads = _wire_scenario(spec)
    seen = dict.fromkeys(_COUNTED_KINDS, 0)
    committed: dict[str, int] = {}  # requests, per committing process

    def count(record: TraceRecord) -> None:
        seen[record.kind] += 1
        if record.kind == "order_committed":
            actor = record.fields.get("actor", "?")
            committed[actor] = committed.get(actor, 0) + record.fields["n_requests"]

    cluster.sim.trace.subscribe(count, kinds=_COUNTED_KINDS)
    cluster.start()
    cluster.run(until=spec.duration + spec.drain)

    measured = {probe.name: probe.finalize() for probe in probes}
    latency = measured["order-latency"]
    return ScenarioResult(
        name=spec.name,
        protocol=spec.protocol,
        scheme=cluster.plugin.reported_scheme(spec.scheme),
        f=spec.f,
        seed=spec.seed,
        duration=spec.duration,
        requests_issued=sum(w.issued for w in workloads),
        requests_committed=max(committed.values(), default=0),
        batches_measured=int(latency["batches_measured"]),
        latency_mean=latency["latency_mean"],
        latency_p50=latency["latency_p50"],
        latency_p95=latency["latency_p95"],
        throughput=measured["throughput"]["throughput"],
        failovers=seen["failover_complete"],
        failover_latency=measured["failover"]["failover_latency"],
        view_changes=seen["view_installed"],
        recoveries=seen["pair_recovered"],
        safety_ok=_prefixes_agree(cluster),
        events_processed=cluster.sim.events_processed,
        probes=spec.probes,
        probe_metrics=tuple(
            (f"{name}.{metric}", float(value))
            for name in spec.probes
            for metric, value in measured[name].items()
        ),
        stream_digest=next(
            (w.stream_digest() for w in workloads
             if isinstance(w, AggregatedWorkload)),
            "",
        ),
    )


def _prefixes_agree(cluster: Cluster) -> bool:
    """Safety check: committed histories agree on their common prefix."""
    histories = list(cluster.committed_histories().values())
    if not histories:
        return True
    shortest = min(len(h) for h in histories)
    reference = histories[0][:shortest]
    return all(history[:shortest] == reference for history in histories)


# ----------------------------------------------------------------------
# Built-in scenarios (non-paper workloads)
# ----------------------------------------------------------------------

BUILTIN_SCENARIOS: dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            name="bursty-load",
            protocol="sc",
            duration=4.0,
            drain=2.0,
            workload=WorkloadSpec(
                rate=120.0,
                bursts=(
                    BurstSpec(at=1.0, duration=0.6, rate=400.0),
                    BurstSpec(at=2.4, duration=0.6, rate=400.0),
                ),
            ),
            description="open-loop base load with two 400 req/s bursts "
                        "(latency under pressure spikes, not saturation)",
        ),
        ScenarioSpec(
            name="cascading-pair-failures",
            protocol="sc",
            duration=5.0,
            drain=3.0,
            workload=WorkloadSpec(rate=150.0),
            faults=(
                FaultSpec(kind="wrong_digest", target="p1", at=1.0),
                FaultSpec(kind="wrong_digest", target="p2", at=2.5),
            ),
            description="two successive value-domain faults: coordination "
                        "cascades pair 1 -> pair 2 -> unpaired p3",
        ),
        ScenarioSpec(
            name="delay-surge-recovery",
            protocol="scr",
            duration=4.0,
            drain=4.0,
            workload=WorkloadSpec(rate=150.0),
            faults=(
                FaultSpec(
                    kind="delay_surge", target="pair:1",
                    at=1.0, until=1.8, factor=40000.0,
                ),
            ),
            description="a delay surge falsely implicates pair 1; SCR view-"
                        "changes past it and the pair later recovers",
        ),
        ScenarioSpec(
            name="smr-closed-loop",
            protocol="sc",
            duration=3.0,
            drain=2.0,
            workload=WorkloadSpec(rate=150.0),
            config=(("checkpoint_interval", 8), ("send_replies", True)),
            description="full SMR loop: execution replies to clients plus "
                        "periodic checkpoint garbage collection",
        ),
        ScenarioSpec(
            name="diurnal-day",
            protocol="sc",
            duration=6.0,
            drain=2.0,
            workload=WorkloadSpec(rate=250.0),
            population=PopulationSpec(
                clients=1_000_000,
                id_distribution="zipf",
                zipf_s=1.1,
                envelope=EnvelopeSpec(points=(
                    (0.0, 0.35), (1.5, 1.0), (3.0, 0.55),
                    (4.5, 1.0), (6.0, 0.25),
                )),
            ),
            probes=("client-fairness", "queue-depth", "crypto-cost"),
            description="a compressed day over 10^6 Zipf clients: two "
                        "diurnal peaks via a thinned rate envelope",
        ),
        ScenarioSpec(
            name="flash-crowd",
            protocol="sc",
            duration=5.0,
            drain=3.0,
            workload=WorkloadSpec(rate=200.0),
            population=PopulationSpec(
                clients=100_000,
                id_distribution="zipf",
                zipf_s=1.2,
                classes=(
                    ClassSpec(name="steady", share=3.0, spacing="poisson"),
                    ClassSpec(name="crowd", share=1.0, spacing="pareto",
                              pareto_alpha=1.5, pareto_cap=50.0),
                ),
                envelope=EnvelopeSpec(points=(
                    (0.0, 0.3), (1.8, 0.3), (2.0, 3.0),
                    (2.8, 3.0), (3.2, 0.3),
                )),
            ),
            probes=("client-fairness", "queue-depth", "crypto-cost"),
            description="steady Poisson base plus a heavy-tailed class; a "
                        "10x flash-crowd spike between t=2.0 and t=2.8",
        ),
    )
}


def resolve_spec(target: str) -> ScenarioSpec:
    """A builtin scenario by name, or a spec loaded from a file path."""
    if target in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[target]
    if target.endswith((".json", ".toml")):
        return load_spec(target)
    raise ConfigError(
        f"unknown scenario {target!r}; builtins: "
        f"{tuple(BUILTIN_SCENARIOS)} (or pass a .json/.toml spec file)"
    )


# ----------------------------------------------------------------------
# Rendering (`python -m repro scenario ...`)
# ----------------------------------------------------------------------


def render_builtins() -> str:
    """The built-in scenarios as a table."""
    return render_table(
        "Built-in scenarios (python -m repro scenario <name>)",
        ("name", "protocol", "duration (s)", "description"),
        [
            (spec.name, spec.protocol, f"{spec.duration:g}", spec.description)
            for spec in BUILTIN_SCENARIOS.values()
        ],
    )


def render_results(spec: ScenarioSpec, results: list[ScenarioResult]) -> str:
    """One row per executed seed of ``spec``."""
    rows = [
        (
            str(r.seed),
            str(r.requests_issued),
            str(r.requests_committed),
            f"{r.latency_mean * 1e3:.1f}",
            f"{r.throughput:.0f}",
            str(r.failovers),
            str(r.recoveries),
            "ok" if r.safety_ok else "VIOLATED",
        )
        for r in results
    ]
    return render_table(
        f"Scenario {spec.name!r}",
        ("seed", "issued", "committed", "latency (ms)", "req/s/proc",
         "failovers", "recoveries", "safety"),
        rows,
    )
