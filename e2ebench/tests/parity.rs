//! The tracing wrappers must not change what the program computes, and
//! `BENCHMARK.json` must list exactly the metrics this crate prints.
//!
//! Run with `cargo test --release --manifest-path e2ebench/Cargo.toml`
//! (the workloads are slow in a debug build).

use blockpart_core::EngineRegistry;
use blockpart_e2ebench::layers::{Recorder, TimedEngine};
use blockpart_e2ebench::workloads::{run, setup, Kind};
use blockpart_e2ebench::{END_TO_END, PER_LAYER};
use blockpart_ethereum::evm::ExecContext;
use blockpart_ethereum::exec::ExecRequest;
use blockpart_ethereum::gen::{ChainGenerator, GeneratorConfig};
use blockpart_metrics::Json;

/// Small inputs that still exercise every layer the workload calls.
fn small_scale(kind: Kind) -> f64 {
    kind.scale() / 4.0
}

#[test]
fn traced_passes_report_what_plain_passes_report() {
    for kind in Kind::ALL {
        let seed = 7;
        let setup = setup(kind, seed, small_scale(kind));
        let plain = run(kind, &setup, seed, None);
        let rec = Recorder::new();
        let traced = run(kind, &setup, seed, Some(&rec));

        let name = kind.name();
        assert_eq!(plain.fingerprint, traced.fingerprint, "{name}: reports");
        assert_eq!(plain.quality, traced.quality, "{name}: quality");
        assert_eq!(plain.layers.counts, traced.layers.counts, "{name}: counts");
        assert_eq!(
            (plain.ops, plain.failed_ops),
            (traced.ops, traced.failed_ops),
            "{name}: operations"
        );
        assert_eq!(
            plain.checks.failed, traced.checks.failed,
            "{name}: check failures"
        );

        let spans = rec.spans();
        let has = |layer: &str| spans.iter().any(|s| s.layer == layer);
        match kind {
            Kind::OfflineWindowed => {
                assert!(has("core.pair") && has("partition"), "{name}: spans");
                assert!(traced.layers.engine.is_empty(), "{name}: no engine");
            }
            Kind::Replay2pc => {
                assert!(has("runtime.replay") && !has("partition"), "{name}: spans");
                assert_eq!(traced.layers.engine.len(), 4, "{name}: one engine per pass");
            }
            Kind::HubBurstLive => {
                assert!(has("live.run") && has("partition"), "{name}: spans");
                assert_eq!(traced.layers.engine.len(), 1, "{name}: one engine");
            }
        }
    }
}

#[test]
fn timed_engine_forwards_speculation_exactly() {
    let engines = EngineRegistry::with_builtins();
    let chain = ChainGenerator::new(GeneratorConfig::test_scale(3)).generate();
    let reqs: Vec<ExecRequest> = chain
        .txs
        .iter()
        .take(64)
        .enumerate()
        .map(|(i, rec)| {
            ExecRequest::new(
                rec.tx,
                ExecContext::new(rec.time, i as u64, rec.tx.gas_limit),
            )
        })
        .collect();
    for spec in ["serial", "parallel", "parallel[window=8]"] {
        let inner = engines.resolve(spec).expect("built-in engine resolves");
        let (wrapped, counters) = TimedEngine::wrap(inner.clone());
        assert_eq!(wrapped.name(), inner.name(), "{spec}");
        assert_eq!(
            wrapped.speculation_window(),
            inner.speculation_window(),
            "{spec}"
        );
        let world = chain.chain.world();
        let direct = inner.speculate(world, &reqs);
        let through = wrapped.speculate(world, &reqs);
        assert_eq!(direct.len(), through.len(), "{spec}");
        for (a, b) in direct.iter().zip(&through) {
            assert_eq!(a.receipt(), b.receipt(), "{spec}");
            assert_eq!(a.reads(), b.reads(), "{spec}");
            assert_eq!(a.writes(), b.writes(), "{spec}");
        }
        assert_eq!(counters.totals().speculated, through.len() as u64, "{spec}");

        let (mut w1, mut w2) = (world.clone(), world.clone());
        let a = inner.execute_block(&mut w1, &reqs);
        let b = wrapped.execute_block(&mut w2, &reqs);
        assert_eq!(a.receipts, b.receipts, "{spec}");
        assert_eq!(a.metrics, b.metrics, "{spec}");
        assert_eq!(counters.totals().exec_calls, reqs.len() as u64, "{spec}");
    }
}

fn listed(json: &Json, key: &str) -> Vec<(String, String)> {
    json.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("`{key}` entry without `{f}`"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_printed_metrics_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed(&json, "end_to_end"), owned(&END_TO_END));
    assert_eq!(listed(&json, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<String> = json
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
    assert_eq!(workloads, ours);
}
