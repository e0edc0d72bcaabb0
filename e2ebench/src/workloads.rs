//! The three workloads: set-up (inputs made from the seed), the timed
//! section (one call into a public entry point per pass), and the
//! output checks.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use blockpart_core::{
    EngineRegistry, Experiment, ScenarioRegistry, StrategyRegistry, StrategySpec,
};
use blockpart_ethereum::gen::{ChainGenerator, GeneratorConfig};
use blockpart_ethereum::{ExecHandle, SyntheticChain};
use blockpart_graph::InteractionLog;
use blockpart_live::{LiveConfig, LiveRunner, MigrationReport};
use blockpart_partition::{kway, CutMetrics, MultilevelConfig};
use blockpart_runtime::{Assignment, RuntimeConfig, RuntimeReport, ShardedRuntime};
use blockpart_shard::SimulationResult;
use blockpart_types::{Duration, ShardCount};

use crate::layers::{EngineTotals, Recorder, TimedEngine, TimedPartitioner, TimedStrategy};

/// HASH's expected mean dynamic edge-cut is `1 − 1/k`; the observed
/// value may stray this far (hub traffic makes edges non-uniform).
const HASH_CUT_TOLERANCE: f64 = 0.05;

/// The paper's measurement window.
const WINDOW_HOURS: u64 = 4;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The paper's study: `Experiment` offline over hash, metis and
    /// tr-metis at k ∈ {2, 4} on the friendly chain.
    OfflineWindowed,
    /// The friendly chain replayed through `ShardedRuntime` on fixed
    /// HASH and one-shot METIS assignments at k = 4, serial and
    /// parallel engines.
    Replay2pc,
    /// The hub-burst chain through `LiveRunner` with TR-METIS at k = 4.
    HubBurstLive,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::OfflineWindowed, Kind::Replay2pc, Kind::HubBurstLive];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::OfflineWindowed => "offline-windowed",
            Kind::Replay2pc => "replay-2pc",
            Kind::HubBurstLive => "hub-burst-live",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Generator scale (fraction of the full transaction rate).
    pub fn scale(self) -> f64 {
        match self {
            Kind::OfflineWindowed => 2.0e-4,
            Kind::Replay2pc => 6.0e-4,
            Kind::HubBurstLive => 3.0e-4,
        }
    }
}

fn shards(k: u16) -> ShardCount {
    ShardCount::new(k).expect("non-zero shard count")
}

/// Output checks of one run: how many passed, and a line per failure.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Checks that held.
    pub passed: u64,
    /// Checks that failed, described.
    pub failed: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failed.push(what());
        }
    }

    /// Checks performed.
    pub fn attempted(&self) -> u64 {
        self.passed + self.failed.len() as u64
    }

    /// Folds another set of checks into this one.
    pub fn merge(&mut self, other: Checks) {
        self.passed += other.passed;
        self.failed.extend(other.failed);
    }
}

/// The deterministic end-to-end quality figures of one run. `None`
/// where a metric does not apply to the workload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Quality {
    /// Edge-cut ratio.
    pub edge_cut: Option<f64>,
    /// Normalized balance, `(b − 1)/(k − 1)`.
    pub balance: Option<f64>,
    /// Vertices moved by repartitioning.
    pub moved_vertices: Option<f64>,
    /// Share of transactions that spanned shards.
    pub cross_shard_ratio: Option<f64>,
    /// Aborted ÷ prepared 2PC rounds.
    pub abort_rate: Option<f64>,
    /// Median commit latency on the virtual clock, ms.
    pub commit_p50_virtual_ms: Option<f64>,
    /// 99th-percentile commit latency on the virtual clock, ms.
    pub commit_p99_virtual_ms: Option<f64>,
    /// Total migration time on the virtual clock, s.
    pub migration_virtual_s: Option<f64>,
}

/// Set-up timings and sizes, measured around the public calls.
#[derive(Clone, Debug, Default)]
pub struct SetupStages {
    /// Chain (or scenario) generation, s.
    pub gen_s: f64,
    /// Transactions generated.
    pub gen_txs: u64,
    /// `InteractionLog::graph_of`, s (replay-2pc only).
    pub graph_s: f64,
    /// `Graph::to_csr`, s (replay-2pc only).
    pub csr_s: f64,
    /// One-shot `kway`, s (replay-2pc only).
    pub oneshot_s: f64,
    /// Graph vertices (replay-2pc only).
    pub vertices: u64,
    /// Graph edges (replay-2pc only).
    pub edges: u64,
}

/// The replay workload's two fixed assignments.
pub struct Placements {
    hash: Assignment,
    metis: Assignment,
    oneshot: CutMetrics,
}

/// A workload's inputs, made from the seed by [`setup`], with what it
/// cost to make them.
pub struct Setup {
    /// The friendly or adversarial chain.
    pub chain: SyntheticChain,
    /// The replay workload's assignments (`None` for the others).
    pub placements: Option<Placements>,
    /// How long each set-up stage took.
    pub stages: SetupStages,
    /// Checks made on the inputs.
    pub checks: Checks,
    /// A digest of the inputs: equal seeds must give equal digests.
    pub digest: u64,
}

/// Runs `f`, returning its result and its wall time in seconds.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn friendly_config(seed: u64, scale: f64) -> GeneratorConfig {
    GeneratorConfig::demo_scale(seed).with_scale(scale)
}

fn chain_digest(chain: &SyntheticChain, h: &mut impl Hasher) {
    chain.txs.len().hash(h);
    chain.log.len().hash(h);
    for e in chain.log.events().iter().step_by(97) {
        format!("{e:?}").hash(h);
    }
}

/// Builds a workload's inputs from `seed` at generator `scale`.
pub fn setup(kind: Kind, seed: u64, scale: f64) -> Setup {
    let mut stages = SetupStages::default();
    let mut checks = Checks::default();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    let (chain, placements) = match kind {
        Kind::OfflineWindowed => {
            let (chain, s) = timed(|| ChainGenerator::new(friendly_config(seed, scale)).generate());
            stages.gen_s = s;
            stages.gen_txs = chain.txs.len() as u64;
            (chain, None)
        }
        Kind::HubBurstLive => {
            let scenario = ScenarioRegistry::with_builtins()
                .resolve("hub-burst")
                .expect("built-in scenario resolves");
            let (chain, s) = timed(|| scenario.build(&friendly_config(seed, scale)));
            stages.gen_s = s;
            stages.gen_txs = chain.txs.len() as u64;
            (chain, None)
        }
        Kind::Replay2pc => {
            let k = shards(4);
            let (chain, s) = timed(|| ChainGenerator::new(friendly_config(seed, scale)).generate());
            stages.gen_s = s;
            stages.gen_txs = chain.txs.len() as u64;
            let (graph, s) = timed(|| InteractionLog::graph_of(chain.log.events()));
            stages.graph_s = s;
            let (csr, s) = timed(|| graph.to_csr());
            stages.csr_s = s;
            let config = MultilevelConfig {
                seed,
                ..MultilevelConfig::default()
            };
            let (partition, s) = timed(|| kway(&csr, k, &config));
            stages.oneshot_s = s;
            stages.vertices = graph.node_count() as u64;
            stages.edges = graph.edge_count() as u64;

            let map: HashMap<_, _> = graph
                .nodes()
                .map(|n| (n.address, partition.shard_of(n.id.index())))
                .collect();
            checks.check(
                partition.len() == graph.node_count() && map.len() == graph.node_count(),
                || {
                    format!(
                        "one-shot assignment covers {} of {} vertices",
                        map.len().min(partition.len()),
                        graph.node_count()
                    )
                },
            );
            partition.as_slice().hash(&mut h);
            let placements = Placements {
                hash: Assignment::hashed(k),
                metis: Assignment::from_map(map, k),
                oneshot: CutMetrics::compute(&csr, &partition),
            };
            (chain, Some(placements))
        }
    };
    chain_digest(&chain, &mut h);
    Setup {
        chain,
        placements,
        stages,
        checks,
        digest: h.finish(),
    }
}

/// Per-layer measurements of a traced run that come from the program's
/// own reports (deterministic) or from the engine wrapper.
#[derive(Clone, Debug, Default)]
pub struct LayerData {
    /// Named deterministic counts (`shard.repartitions`, …).
    pub counts: Vec<(&'static str, f64)>,
    /// Engine totals per replay pass or live run, with its label.
    pub engine: Vec<(String, EngineTotals)>,
    /// Transactions offered to the engine's callers (all passes).
    pub offered_txs: u64,
}

/// The result of one pass through a workload's timed section.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted: pairs, offered transactions, or
    /// foreground transactions plus migration batches.
    pub ops: u64,
    /// Operations that failed.
    pub failed_ops: u64,
    /// Output checks.
    pub checks: Checks,
    /// End-to-end quality figures.
    pub quality: Quality,
    /// Per-layer data.
    pub layers: LayerData,
    /// Everything deterministic the program reported, rendered; equal
    /// inputs must give equal fingerprints, traced or not.
    pub fingerprint: String,
}

/// Runs a workload's timed section once. With `rec`, the run goes
/// through the tracing wrappers and records spans into it.
pub fn run(kind: Kind, setup: &Setup, seed: u64, rec: Option<&Arc<Recorder>>) -> Outcome {
    match kind {
        Kind::OfflineWindowed => offline_windowed(&setup.chain, seed, rec),
        Kind::Replay2pc => replay_2pc(setup, seed, rec),
        Kind::HubBurstLive => hub_burst_live(&setup.chain, seed, rec),
    }
}

/// Mean dynamic edge-cut and balance over windows with traffic.
fn mean_window_metrics(sim: &SimulationResult) -> (f64, f64) {
    let active: Vec<_> = sim.windows.iter().filter(|w| w.events > 0).collect();
    let n = active.len().max(1) as f64;
    (
        active.iter().map(|w| w.dynamic_edge_cut).sum::<f64>() / n,
        active.iter().map(|w| w.dynamic_balance).sum::<f64>() / n,
    )
}

fn offline_windowed(chain: &SyntheticChain, seed: u64, rec: Option<&Arc<Recorder>>) -> Outcome {
    let registry = StrategyRegistry::with_builtins();
    let specs: Vec<Arc<dyn StrategySpec>> = ["hash", "metis", "tr-metis"]
        .into_iter()
        .map(|name| {
            let spec = registry.resolve(name).expect("built-in strategy resolves");
            match rec {
                Some(rec) => Arc::new(TimedStrategy::new(spec, Arc::clone(rec))) as _,
                None => spec,
            }
        })
        .collect();
    let report = Experiment::over_chain(chain)
        .strategies(specs)
        .shard_counts(vec![shards(2), shards(4)])
        .seed(seed)
        .run();

    let mut out = Outcome::default();
    let mut hash_cut: HashMap<u16, f64> = HashMap::new();
    let (mut cuts, mut balances, mut moves, mut repartitions) = (Vec::new(), Vec::new(), 0, 0);
    for run in &report.runs {
        out.ops += 1;
        let Some(sim) = &run.offline else {
            out.failed_ops += 1;
            continue;
        };
        let k = run.k.get();
        let (cut, balance) = mean_window_metrics(sim);
        let balance = CutMetrics::normalized_balance(balance, k as usize);
        moves += sim.total_moves;
        repartitions += sim.repartitions;
        if run.strategy == "HASH" {
            let expected = 1.0 - 1.0 / f64::from(k);
            out.checks.check(sim.total_moves == 0, || {
                format!("HASH k={k} moved {} vertices", sim.total_moves)
            });
            out.checks
                .check((cut - expected).abs() <= HASH_CUT_TOLERANCE, || {
                    format!("HASH k={k} cut {cut:.4}, expected about {expected:.4}")
                });
            hash_cut.insert(k, cut);
        } else {
            cuts.push((run.strategy.clone(), k, cut));
            balances.push(balance);
            out.checks.check((0.0..=1.0).contains(&balance), || {
                format!("{} k={k} balance {balance:.4} outside [0, 1]", run.strategy)
            });
        }
    }
    for (name, k, cut) in &cuts {
        let hash = hash_cut.get(k).copied().unwrap_or(f64::NAN);
        out.checks.check(*cut < hash, || {
            format!("{name} k={k} cut {cut:.4} is not below HASH's {hash:.4}")
        });
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let cut_values: Vec<f64> = cuts.iter().map(|c| c.2).collect();
    out.quality = Quality {
        edge_cut: Some(mean(&cut_values)),
        balance: Some(mean(&balances)),
        moved_vertices: Some(moves as f64),
        ..Quality::default()
    };
    out.layers.counts = vec![("shard.repartitions", repartitions as f64)];
    out.fingerprint = report.to_json();
    out
}

/// A report with the engine's own scheduling counters cleared: what
/// serial and parallel passes must agree on.
fn without_exec_counters(rep: &RuntimeReport) -> RuntimeReport {
    let mut rep = rep.clone();
    rep.exec_speculated = 0;
    rep.exec_conflicts = 0;
    rep.exec_re_executions = 0;
    for s in &mut rep.per_shard {
        s.exec_speculated = 0;
        s.exec_conflicts = 0;
        s.exec_re_executions = 0;
    }
    rep
}

fn placements(setup: &Setup) -> &Placements {
    setup
        .placements
        .as_ref()
        .expect("the replay workload's set-up builds its placements")
}

fn replay_2pc(setup: &Setup, seed: u64, rec: Option<&Arc<Recorder>>) -> Outcome {
    let k = shards(4);
    let engines = EngineRegistry::with_builtins();
    let (chain, inputs) = (&setup.chain, placements(setup));
    let mut out = Outcome::default();
    let mut reports: Vec<(String, RuntimeReport)> = Vec::new();
    for (placement, assignment) in [("hash", &inputs.hash), ("metis", &inputs.metis)] {
        for engine in ["serial", "parallel"] {
            let label = format!("{placement}-{engine}");
            let exec: ExecHandle = engines.resolve(engine).expect("built-in engine resolves");
            let (exec, counters) = match rec {
                Some(_) => {
                    let (exec, counters) = TimedEngine::wrap(exec);
                    (exec, Some(counters))
                }
                None => (exec, None),
            };
            let cfg = RuntimeConfig::new(k).with_seed(seed).with_exec(exec);
            let runtime = ShardedRuntime::new(cfg, assignment.clone());
            let rep = match rec {
                Some(rec) => rec.time("runtime.replay", &label, None, |_| {
                    runtime.run(chain.chain.world(), &chain.txs)
                }),
                None => runtime.run(chain.chain.world(), &chain.txs),
            };
            if let Some(counters) = counters {
                let totals = counters.totals();
                out.checks
                    .check(totals.speculated == rep.exec_speculated, || {
                        format!(
                            "{label}: engine speculated {} but the report counts {}",
                            totals.speculated, rep.exec_speculated
                        )
                    });
                out.layers.engine.push((label.clone(), totals));
            }
            reports.push((label, rep));
        }
    }

    for (label, rep) in &reports {
        out.ops += rep.total_txs as u64;
        out.failed_ops += rep.failed;
        out.checks.check(
            rep.committed + rep.failed == rep.total_txs as u64 && rep.total_txs == chain.txs.len(),
            || {
                format!(
                    "{label}: committed {} + failed {} != offered {} (chain has {})",
                    rep.committed,
                    rep.failed,
                    rep.total_txs,
                    chain.txs.len()
                )
            },
        );
    }
    for pair in reports.chunks(2) {
        let [(serial_label, serial), (parallel_label, parallel)] = pair else {
            unreachable!("passes come in serial/parallel pairs")
        };
        out.checks.check(
            without_exec_counters(serial) == without_exec_counters(parallel),
            || format!("{serial_label} and {parallel_label} reports differ"),
        );
    }
    let (hash, metis) = (&reports[0].1, &reports[2].1);
    out.checks
        .check(metis.cross_shard_ratio < hash.cross_shard_ratio, || {
            format!(
                "METIS cross-shard ratio {:.4} is not below HASH's {:.4}",
                metis.cross_shard_ratio, hash.cross_shard_ratio
            )
        });

    let sum = |f: fn(&RuntimeReport) -> u64| reports.iter().map(|(_, r)| f(r)).sum::<u64>();
    let (prepared, aborted) = (sum(|r| r.prepare_rounds), sum(|r| r.aborted_rounds));
    let worst = |f: fn(&RuntimeReport) -> u64| reports.iter().map(|(_, r)| f(r)).max();
    let utilization_max = reports
        .iter()
        .flat_map(|(_, r)| r.per_shard.iter().map(|s| s.utilization))
        .fold(0.0, f64::max);
    out.quality = Quality {
        edge_cut: Some(inputs.oneshot.static_edge_cut),
        balance: Some(CutMetrics::normalized_balance(
            inputs.oneshot.dynamic_balance,
            k.as_usize(),
        )),
        cross_shard_ratio: Some(metis.cross_shard_ratio),
        abort_rate: Some(aborted as f64 / prepared.max(1) as f64),
        commit_p50_virtual_ms: worst(|r| r.p50_commit_latency_us).map(|us| us as f64 / 1e3),
        commit_p99_virtual_ms: worst(|r| r.p99_commit_latency_us).map(|us| us as f64 / 1e3),
        ..Quality::default()
    };
    out.layers.offered_txs = out.ops;
    out.layers.counts = vec![
        ("runtime.prepare_rounds", prepared as f64),
        ("runtime.aborted_rounds", aborted as f64),
        ("runtime.local_conflicts", sum(|r| r.local_conflicts) as f64),
        ("runtime.utilization_max", utilization_max),
        ("ethereum.conflicts", sum(|r| r.exec_conflicts) as f64),
    ];
    out.fingerprint = format!("{reports:?}");
    out
}

/// One `run` and one `run_metered` of the serial engine on the HASH
/// assignment, in the order given; returns their wall times, plain
/// first.
pub fn metered_pair(setup: &Setup, seed: u64, metered_first: bool) -> (f64, f64) {
    let cfg = RuntimeConfig::new(shards(4)).with_seed(seed);
    let runtime = ShardedRuntime::new(cfg, placements(setup).hash.clone());
    let (world, txs) = (setup.chain.chain.world(), &setup.chain.txs);
    let plain = || timed(|| runtime.run(world, txs)).1;
    let metered = || timed(|| runtime.run_metered(world, txs)).1;
    if metered_first {
        let m = metered();
        (plain(), m)
    } else {
        let p = plain();
        (p, metered())
    }
}

fn hub_burst_live(chain: &SyntheticChain, seed: u64, rec: Option<&Arc<Recorder>>) -> Outcome {
    let k = shards(4);
    let spec = StrategyRegistry::with_builtins()
        .resolve("tr-metis")
        .expect("built-in strategy resolves");
    let window = Duration::hours(WINDOW_HOURS);
    let sim_cfg = spec.simulator_config(k);
    let depth = (sim_cfg.scope_window.as_secs() / window.as_secs()).max(1) as usize;
    let mut runtime_cfg = spec.runtime_config(k).with_seed(seed);
    runtime_cfg.k = k;
    let counters = rec.map(|_| {
        let (exec, counters) = TimedEngine::wrap(runtime_cfg.exec.clone());
        runtime_cfg.exec = exec;
        counters
    });
    let cfg = LiveConfig::new(k)
        .with_window(window)
        .with_depth(depth)
        .with_policy(sim_cfg.policy)
        .with_runtime(runtime_cfg)
        .with_label(spec.name());
    let world = chain.chain.world();
    let report: MigrationReport = match rec {
        Some(rec) => rec.time("live.run", spec.name(), None, |id| {
            let partitioner =
                TimedPartitioner::new(spec.build_partitioner(seed), Arc::clone(rec), Some(id));
            LiveRunner::new(cfg, Box::new(partitioner))
                .run(world, &chain.txs)
                .report
        }),
        None => {
            LiveRunner::new(cfg, spec.build_partitioner(seed))
                .run(world, &chain.txs)
                .report
        }
    };

    let mut out = Outcome::default();
    if let Some(counters) = counters {
        out.layers
            .engine
            .push(("live".to_string(), counters.totals()));
    }
    let offered: usize = report.windows.iter().map(|w| w.txs).sum();
    let batches: u64 = report.episodes.iter().map(|e| e.stats.batches).sum();
    out.ops = offered as u64 + batches;
    out.layers.offered_txs = offered as u64;
    out.failed_ops = report.total_failed();
    out.checks.check(offered == chain.txs.len(), || {
        format!(
            "live windows offered {offered} of {} transactions",
            chain.txs.len()
        )
    });
    for w in &report.windows {
        out.checks
            .check(w.committed + w.failed == w.txs as u64, || {
                format!(
                    "window at {:?}: committed {} + failed {} != offered {}",
                    w.start, w.committed, w.failed, w.txs
                )
            });
    }
    out.checks.check(report.migrations() >= 1, || {
        "hub-burst-live triggered no migration".to_string()
    });

    let active: Vec<_> = report.windows.iter().filter(|w| w.txs > 0).collect();
    let n = active.len().max(1) as f64;
    let cross: usize = report.windows.iter().map(|w| w.cross_shard_txs).sum();
    let staged = report.windows.iter().filter(|w| w.staged_moves > 0).count();
    out.quality = Quality {
        edge_cut: Some(active.iter().map(|w| w.window_cut).sum::<f64>() / n),
        balance: Some(
            active
                .iter()
                .map(|w| CutMetrics::normalized_balance(w.window_balance, k.as_usize()))
                .sum::<f64>()
                / n,
        ),
        moved_vertices: Some(report.accounts_moved() as f64),
        cross_shard_ratio: Some(cross as f64 / offered.max(1) as f64),
        commit_p50_virtual_ms: report
            .episodes
            .iter()
            .map(|e| e.during.p50_us)
            .max()
            .map(|us| us as f64 / 1e3),
        commit_p99_virtual_ms: Some(report.worst_during_p99_us() as f64 / 1e3),
        migration_virtual_s: Some(report.migration_wall_us() as f64 / 1e6),
        ..Quality::default()
    };
    out.layers.counts = vec![
        ("live.windows", report.windows.len() as f64),
        ("live.migrations", report.migrations() as f64),
        ("live.bytes_moved", report.bytes_moved() as f64),
        (
            "live.trigger_ratio",
            staged as f64 / report.windows.len().max(1) as f64,
        ),
    ];
    out.fingerprint = format!("{report:?}");
    out
}
