//! End-to-end benchmark of the blockpart pipeline, with a traced
//! per-layer breakdown. See `README.md` in this directory for the
//! workloads, the metrics and which layer each metric measures.
//!
//! [`bench`] makes one benchmark run: it sets the workload up, then
//! repeats the workload's timed section for the requested number of
//! seconds, setting the workload up again between passes, and reports
//! medians. With tracing on, it alternates plain and traced passes and
//! reports the per-layer metrics instead.

pub mod layers;
pub mod workloads;

use std::collections::BTreeMap;
use std::time::Instant;

use layers::{self_ns, Recorder, Span};
use workloads::{timed, Checks, Kind, Outcome, Setup, SetupStages};

/// Set-ups per run at the least; `setup_s` is their median.
pub const SETUP_MIN_REPEATS: usize = 3;

/// Between timed passes, the workload is set up again (and the result
/// dropped) until set-up time reaches this share of the time the timed
/// section has run. Set-up samples then span the whole run, so a burst of load
/// from other processes on the machine moves `setup_s` no more than it
/// moves `wall_s`.
pub const SETUP_SHARE: f64 = 0.15;

/// Timed passes per run at the least, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;

/// The end-to-end metrics every workload reports with tracing off, as
/// `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("edge_cut", "ratio"),
    ("balance", "ratio"),
];

/// The per-layer metrics every workload reports with tracing on, as
/// `(name, unit)`. A layer a workload does not call reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("ethereum.gen_s", "s"),
    ("ethereum.gen_txs", "count"),
    ("graph.build_s", "s"),
    ("graph.csr_s", "s"),
    ("graph.vertices", "count"),
    ("graph.edges", "count"),
    ("partition.calls", "count"),
    ("partition.busy_s", "s"),
    ("partition.max_call_ms", "ms"),
    ("partition.vertices", "count"),
    ("partition.us_per_vertex", "us"),
    ("partition.oneshot_s", "s"),
    ("shard.sim_s", "s"),
    ("shard.self_s", "s"),
    ("shard.repartitions", "count"),
    ("core.pair_s.max", "s"),
    ("core.fanout_idle_s", "s"),
    ("runtime.replay_s.hash-serial", "s"),
    ("runtime.replay_s.hash-parallel", "s"),
    ("runtime.replay_s.metis-serial", "s"),
    ("runtime.replay_s.metis-parallel", "s"),
    ("runtime.self_s", "s"),
    ("runtime.prepare_rounds", "count"),
    ("runtime.aborted_rounds", "count"),
    ("runtime.local_conflicts", "count"),
    ("runtime.utilization_max", "ratio"),
    ("ethereum.exec_calls", "count"),
    ("ethereum.exec_busy_s", "s"),
    ("ethereum.exec_calls_per_tx", "ratio"),
    ("ethereum.speculate_busy_s", "s"),
    ("ethereum.speculated", "count"),
    ("ethereum.conflicts", "count"),
    ("ethereum.speculation_useful_ratio", "ratio"),
    ("live.run_s", "s"),
    ("live.self_s", "s"),
    ("live.windows", "count"),
    ("live.migrations", "count"),
    ("live.bytes_moved", "bytes"),
    ("live.trigger_ratio", "ratio"),
    ("obs.metered_overhead_ratio", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.traced_passes", "count"),
];

/// All twelve end-to-end figures of the README, with units, for the
/// human-readable summary. `None` where one does not apply.
pub type Summary = Vec<(&'static str, Option<f64>, &'static str)>;

/// One metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The metric's name.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything one benchmark run reports.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Operations attempted (see [`Outcome::ops`]) plus output checks.
    pub attempted: u64,
    /// Operations that failed plus checks that failed.
    pub failed: u64,
    /// Descriptions of the failed checks.
    pub failures: Vec<String>,
    /// [`END_TO_END`] without tracing, [`PER_LAYER`] with it.
    pub metrics: Vec<Metric>,
    /// The full end-to-end summary (tracing off only).
    pub summary: Summary,
}

impl RunResult {
    /// True when every output check held.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The median of `values` (the mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident memory of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Tallies passes: operations, failures, checks, and whether every pass
/// reported the same deterministic output as the first.
struct Tally {
    ops: u64,
    failed_ops: u64,
    checks: Checks,
    first: Option<Outcome>,
}

impl Tally {
    fn new(setup_checks: Checks) -> Self {
        Tally {
            ops: 0,
            failed_ops: 0,
            checks: setup_checks,
            first: None,
        }
    }

    fn add(&mut self, out: &Outcome, what: &str) {
        self.ops += out.ops;
        self.failed_ops += out.failed_ops;
        self.checks.merge(out.checks.clone());
        match &self.first {
            None => self.first = Some(out.clone()),
            Some(first) => self.checks.check(
                first.fingerprint == out.fingerprint && first.quality == out.quality,
                || format!("{what} pass differs from the first pass on the same inputs"),
            ),
        }
    }

    fn finish(self, metrics: Vec<Metric>, summary: Summary) -> RunResult {
        RunResult {
            attempted: self.ops + self.checks.attempted(),
            failed: self.failed_ops + self.checks.failed.len() as u64,
            failures: self.checks.failed,
            metrics,
            summary,
        }
    }
}

/// Set-up samples of one run. The first set-up's inputs feed every pass;
/// later set-ups are timed, checked against the first and dropped.
struct SetupSamples {
    kind: Kind,
    seed: u64,
    digest: u64,
    times: Vec<f64>,
    stages: Vec<SetupStages>,
}

impl SetupSamples {
    /// Sets the workload up once; returns the inputs and the samples.
    fn first(kind: Kind, seed: u64) -> (Setup, SetupSamples) {
        let (setup, s) = timed(|| workloads::setup(kind, seed, kind.scale()));
        let samples = SetupSamples {
            kind,
            seed,
            digest: setup.digest,
            times: vec![s],
            stages: vec![setup.stages.clone()],
        };
        (setup, samples)
    }

    /// Sets up again (see [`SETUP_SHARE`]) when the timed section has
    /// run for `elapsed_s` seconds.
    fn top_up(&mut self, elapsed_s: f64, checks: &mut Checks) {
        while self.times.len() < SETUP_MIN_REPEATS
            || self.times.iter().sum::<f64>() < SETUP_SHARE * elapsed_s
        {
            let (again, s) = timed(|| workloads::setup(self.kind, self.seed, self.kind.scale()));
            checks.check(again.digest == self.digest, || {
                "two set-ups from the same seed made different inputs".to_string()
            });
            self.times.push(s);
            self.stages.push(again.stages);
        }
    }

    /// The median of one stage's time over every set-up.
    fn stage(&self, f: fn(&SetupStages) -> f64) -> f64 {
        median(&self.stages.iter().map(f).collect::<Vec<_>>())
    }
}

/// Makes one benchmark run: the workload `kind` made from `seed`, timed
/// for at least `seconds`.
pub fn bench(kind: Kind, seed: u64, seconds: f64, trace: bool) -> RunResult {
    let (setup, mut samples) = SetupSamples::first(kind, seed);
    let mut tally = Tally::new(setup.checks.clone());
    if trace {
        return traced(kind, seed, seconds, &setup, samples, tally);
    }

    let start = Instant::now();
    let (mut walls, mut rss) = (Vec::new(), 0.0);
    while walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let (out, s) = timed(|| workloads::run(kind, &setup, seed, None));
        walls.push(s);
        if walls.len() == 1 {
            // later passes only add allocator retention (per-thread
            // arenas of the next pass's workers), not workload memory
            rss = peak_rss_mb();
        }
        tally.add(&out, "a");
        samples.top_up(start.elapsed().as_secs_f64(), &mut tally.checks);
    }
    let setup_times = &samples.times;
    eprintln!(
        "{}: {} set-ups, {} timed passes: {walls:.3?} s",
        kind.name(),
        setup_times.len(),
        walls.len()
    );
    let q = tally
        .first
        .as_ref()
        .expect("at least one pass")
        .quality
        .clone();
    let (setup_s, wall_s) = (median(setup_times), median(&walls));
    let value = |name: &str| match name {
        "setup_s" => setup_s,
        "wall_s" => wall_s,
        "peak_rss_mb" => rss,
        "edge_cut" => q.edge_cut.expect("every workload reports an edge-cut"),
        "balance" => q.balance.expect("every workload reports a balance"),
        other => unreachable!("unknown end-to-end metric {other}"),
    };
    let metrics = END_TO_END
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: value(name),
            unit,
        })
        .collect();
    let failed_ratio = (tally.failed_ops + tally.checks.failed.len() as u64) as f64
        / (tally.ops + tally.checks.attempted()).max(1) as f64;
    let summary = vec![
        ("setup_s", Some(setup_s), "s"),
        ("wall_s", Some(wall_s), "s"),
        ("peak_rss_mb", Some(rss), "MiB"),
        ("failed_ratio", Some(failed_ratio), "ratio"),
        ("edge_cut", q.edge_cut, "ratio"),
        ("balance", q.balance, "ratio"),
        ("moved_vertices", q.moved_vertices, "count"),
        ("cross_shard_ratio", q.cross_shard_ratio, "ratio"),
        ("abort_rate", q.abort_rate, "ratio"),
        ("commit_p50_virtual_ms", q.commit_p50_virtual_ms, "ms"),
        ("commit_p99_virtual_ms", q.commit_p99_virtual_ms, "ms"),
        ("migration_virtual_s", q.migration_virtual_s, "s"),
    ];
    tally.finish(metrics, summary)
}

/// The traced run: plain and traced passes alternate (which goes first
/// alternates too), so the tracing overhead is a paired comparison. The
/// replay workload also pairs `run_metered` against `run`.
fn traced(
    kind: Kind,
    seed: u64,
    seconds: f64,
    setup: &Setup,
    mut samples: SetupSamples,
    mut tally: Tally,
) -> RunResult {
    let start = Instant::now();
    let (mut plain, mut passes, mut metered) = (Vec::new(), Vec::new(), Vec::new());
    let mut round = 0;
    while round < 2 || start.elapsed().as_secs_f64() < seconds {
        let traced_first = round % 2 == 1;
        for traced in [traced_first, !traced_first] {
            if traced {
                let rec = Recorder::new();
                let (out, s) = timed(|| workloads::run(kind, setup, seed, Some(&rec)));
                tally.add(&out, "a traced");
                passes.push((out, rec.spans(), s));
            } else {
                let (out, s) = timed(|| workloads::run(kind, setup, seed, None));
                tally.add(&out, "a plain");
                plain.push(s);
            }
        }
        if kind == Kind::Replay2pc {
            let (run, run_metered) = workloads::metered_pair(setup, seed, round % 2 == 0);
            metered.push(run_metered / run);
        }
        round += 1;
        samples.top_up(start.elapsed().as_secs_f64(), &mut tally.checks);
    }

    let per_pass: Vec<BTreeMap<&'static str, f64>> = passes
        .iter()
        .map(|(out, spans, wall)| pass_layers(out, spans, *wall))
        .collect();
    let stage = |f| samples.stage(f);
    let traced_walls: Vec<f64> = passes.iter().map(|p| p.2).collect();
    let value = |name: &'static str| -> f64 {
        match name {
            "ethereum.gen_s" => stage(|s| s.gen_s),
            "ethereum.gen_txs" => setup.stages.gen_txs as f64,
            "graph.build_s" => stage(|s| s.graph_s),
            "graph.csr_s" => stage(|s| s.csr_s),
            "graph.vertices" => setup.stages.vertices as f64,
            "graph.edges" => setup.stages.edges as f64,
            "partition.oneshot_s" => stage(|s| s.oneshot_s),
            "obs.metered_overhead_ratio" if !metered.is_empty() => median(&metered) - 1.0,
            "bench.trace_overhead_ratio" => median(&traced_walls) / median(&plain) - 1.0,
            "bench.traced_passes" => passes.len() as f64,
            _ => median(
                &per_pass
                    .iter()
                    .map(|m| m.get(name).copied().unwrap_or(0.0))
                    .collect::<Vec<_>>(),
            ),
        }
    };
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: value(name),
            unit,
        })
        .collect();
    tally.finish(metrics, Vec::new())
}

/// The per-layer figures of one traced pass, from its spans, its engine
/// counters and the program's reports.
fn pass_layers(out: &Outcome, spans: &[Span], wall: f64) -> BTreeMap<&'static str, f64> {
    let s = |ns: u64| ns as f64 / 1e9;
    let of = |layer: &'static str| spans.iter().filter(move |sp| sp.layer == layer);
    let mut m: BTreeMap<&'static str, f64> = out.layers.counts.iter().copied().collect();

    let calls: Vec<&Span> = of("partition").collect();
    let busy_ns: u64 = calls.iter().map(|c| c.dur_ns()).sum();
    let vertices: u64 = calls.iter().map(|c| c.work).sum();
    m.insert("partition.calls", calls.len() as f64);
    m.insert("partition.busy_s", s(busy_ns));
    m.insert(
        "partition.max_call_ms",
        calls.iter().map(|c| c.dur_ns()).max().unwrap_or(0) as f64 / 1e6,
    );
    m.insert("partition.vertices", vertices as f64);
    if vertices > 0 {
        m.insert(
            "partition.us_per_vertex",
            busy_ns as f64 / 1e3 / vertices as f64,
        );
    }

    // in an offline-only experiment a pair is its simulation: the
    // partitioner is built just before the simulator and dropped with it
    let pairs: Vec<&Span> = of("core.pair").collect();
    if !pairs.is_empty() {
        let sum_ns: u64 = pairs.iter().map(|p| p.dur_ns()).sum();
        let workers = blockpart_types::resolve_workers(0).min(pairs.len());
        m.insert("shard.sim_s", s(sum_ns));
        m.insert(
            "shard.self_s",
            s(pairs.iter().map(|p| self_ns(spans, p)).sum()),
        );
        m.insert(
            "core.pair_s.max",
            s(pairs.iter().map(|p| p.dur_ns()).max().unwrap_or(0)),
        );
        m.insert("core.fanout_idle_s", workers as f64 * wall - s(sum_ns));
    }

    let engine = |label: &str| {
        out.layers
            .engine
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    };
    let replays: Vec<&Span> = of("runtime.replay").collect();
    if !replays.is_empty() {
        let mut runtime_self = 0.0;
        for r in &replays {
            let key = match r.name.as_str() {
                "hash-serial" => "runtime.replay_s.hash-serial",
                "hash-parallel" => "runtime.replay_s.hash-parallel",
                "metis-serial" => "runtime.replay_s.metis-serial",
                "metis-parallel" => "runtime.replay_s.metis-parallel",
                other => unreachable!("unknown replay pass {other}"),
            };
            m.insert(key, s(r.dur_ns()));
            let t = engine(&r.name);
            runtime_self += s(self_ns(spans, r)) - t.exec_s - t.speculate_s;
        }
        m.insert("runtime.self_s", runtime_self);
        let (mut useful, mut speculated) = (0.0, 0.0);
        for placement in ["hash", "metis"] {
            let serial = engine(&format!("{placement}-serial"));
            let parallel = engine(&format!("{placement}-parallel"));
            // a speculation that validates replaces an execution at the
            // commit point, so the parallel pass calls the engine less
            useful += serial.exec_calls as f64 - parallel.exec_calls as f64;
            speculated += parallel.speculated as f64;
        }
        if speculated > 0.0 {
            m.insert("ethereum.speculation_useful_ratio", useful / speculated);
        }
    }

    if let Some(live) = of("live.run").next() {
        let t = engine("live");
        m.insert("live.run_s", s(live.dur_ns()));
        m.insert(
            "live.self_s",
            s(self_ns(spans, live)) - t.exec_s - t.speculate_s,
        );
    }

    let totals = out.layers.engine.iter().map(|(_, t)| t);
    let exec_calls: u64 = totals.clone().map(|t| t.exec_calls).sum();
    if !out.layers.engine.is_empty() {
        m.insert("ethereum.exec_calls", exec_calls as f64);
        m.insert(
            "ethereum.exec_busy_s",
            totals.clone().map(|t| t.exec_s).sum(),
        );
        m.insert(
            "ethereum.speculate_busy_s",
            totals.clone().map(|t| t.speculate_s).sum(),
        );
        m.insert(
            "ethereum.speculated",
            totals.map(|t| t.speculated).sum::<u64>() as f64,
        );
        m.insert(
            "ethereum.exec_calls_per_tx",
            exec_calls as f64 / out.layers.offered_txs.max(1) as f64,
        );
    }
    m
}
