//! The per-layer sweep of a traced run: each layer's public entry
//! points called directly, on the inputs of the workload whose
//! end-to-end metrics that layer drives, and timed by the benchmark.
//!
//! * `fusion` and the binary snapshot (`io`) on the nation-1.0
//!   registry of `etl-nation`;
//! * `core` phases, counts, the baseline and the query kernels on the
//!   nation-0.5 network of `build-nation` and `investigate-nation`,
//!   whose sessions the kernels and the `serve` read probes replay;
//! * batch parsing (`io`), `delta` and the `serve` publish and reader
//!   probes on the province-0.5 feeds of `ingest-province`.
//!
//! The sweep is the same for every workload, so every traced run
//! reports every per-layer metric.

use std::hint::black_box;
use std::time::Instant;

use tpiin::delta::{DeltaEngine, DeltaPath};
use tpiin::detect::{
    baseline, groups_behind_arc, segment_tpiin, CircularTradingMiner, Detector, DetectorConfig,
    GroupMiner, MineContext, Provenance,
};
use tpiin::fusion::{fuse, fuse_with, FuseOptions};
use tpiin::io::json::Json;
use tpiin::io::{mutation_feed, snapshot_bin};
use tpiin::obs::alloc;
use tpiin::serve::ServerHandle;

use crate::stats::{median, percentile};
use crate::trace::{Tracer, SWEEP_OP};
use crate::{http, ingest, inputs, investigate, Metric};

const MIB: f64 = (1u64 << 20) as f64;
/// Repeats of the fusion and snapshot probes; the sweep reports their
/// medians.
const REPEATS: usize = 3;

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

pub fn sweep(seed: u64, tracer: &Tracer) -> Vec<Metric> {
    let mut out = Vec::new();
    fusion_and_snapshot(seed, tracer, &mut out);
    core_and_requests(seed, tracer, &mut out);
    ingest_path(seed, tracer, &mut out);
    out
}

fn span<R>(tracer: &Tracer, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
    tracer.span(SWEEP_OP, 0, layer, name, |_| f())
}

const STAGES: [&str; 6] = [
    "validate",
    "contract_persons",
    "contract_sccs",
    "attach_trading",
    "freeze",
    "verify_dag",
];

fn fusion_and_snapshot(seed: u64, tracer: &Tracer, out: &mut Vec<Metric>) {
    let registry = inputs::nation(1.0, seed);
    let (mut fuse_ms, mut alloc_mib, mut write_ms, mut read_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut stage_ms: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len()];
    let mut bytes = 0;
    for _ in 0..REPEATS {
        let ledger = alloc::checkpoint();
        let start = Instant::now();
        let (tpiin, report) = span(tracer, "fusion", "fuse_with", || {
            fuse_with(&registry, FuseOptions::default())
        })
        .expect("nation-1.0 registry fuses");
        fuse_ms.push(ms_since(start));
        alloc_mib.push(alloc::consume(ledger).alloc_bytes as f64 / MIB);
        for t in &report.stage_timings {
            if let Some(i) = STAGES.iter().position(|s| *s == t.stage) {
                stage_ms[i].push(t.nanos as f64 / 1e6);
            }
        }
        let start = Instant::now();
        let encoded = span(tracer, "io", "write_snapshot_bin", || {
            snapshot_bin::write_snapshot_bin(&tpiin)
        });
        write_ms.push(ms_since(start));
        bytes = encoded.len();
        let start = Instant::now();
        let decoded = span(tracer, "io", "read_snapshot_bin", || {
            snapshot_bin::read_snapshot_bin(&encoded)
        })
        .expect("fresh snapshot decodes");
        read_ms.push(ms_since(start));
        black_box(decoded);
    }
    out.push(Metric::new("fusion.fuse_ms", "ms", median(&fuse_ms)));
    for (stage, times) in STAGES.iter().zip(&stage_ms) {
        let value = if times.is_empty() {
            f64::NAN
        } else {
            median(times)
        };
        out.push(Metric::new(format!("fusion.{stage}_ms"), "ms", value));
    }
    out.push(Metric::new("fusion.alloc_mib", "MiB", median(&alloc_mib)));
    out.push(Metric::new("io.snapshot_write_ms", "ms", median(&write_ms)));
    out.push(Metric::new("io.snapshot_bytes", "bytes", bytes as f64));
    out.push(Metric::new("io.snapshot_read_ms", "ms", median(&read_ms)));
}

fn core_and_requests(seed: u64, tracer: &Tracer, out: &mut Vec<Metric>) {
    let registry = inputs::nation(0.5, seed);
    let (tpiin, _) = fuse(&registry).expect("nation-0.5 registry fuses");

    let start = Instant::now();
    let shards = span(tracer, "core", "segment_tpiin", || segment_tpiin(&tpiin));
    out.push(Metric::new("core.segment_ms", "ms", ms_since(start)));
    out.push(Metric::new("core.subtpiins", "count", shards.len() as f64));
    drop(shards);

    let counting = Detector {
        config: DetectorConfig {
            collect_groups: false,
            ..DetectorConfig::default()
        },
    };
    let start = Instant::now();
    black_box(span(tracer, "core", "detect (count only)", || {
        counting.detect(&tpiin)
    }));
    out.push(Metric::new("core.mine_ms", "ms", ms_since(start)));

    let ledger = alloc::checkpoint();
    let rules = span(tracer, "core", "detect", || tpiin::detect::detect(&tpiin));
    let used = alloc::consume(ledger);
    out.push(Metric::new(
        "core.detect_alloc_mib",
        "MiB",
        used.alloc_bytes as f64 / MIB,
    ));
    out.push(Metric::new(
        "core.detect_allocs",
        "count",
        used.allocs as f64,
    ));

    let start = Instant::now();
    span(tracer, "core", "Provenance::assemble", || {
        for g in &rules.groups {
            black_box(Provenance::assemble(&tpiin, g));
        }
    });
    out.push(Metric::new("core.provenance_ms", "ms", ms_since(start)));

    let ctx = MineContext {
        tax_rates: registry.company_tax_rates(),
        ..MineContext::default()
    };
    let start = Instant::now();
    black_box(span(tracer, "core", "CircularTradingMiner::mine", || {
        CircularTradingMiner::default().mine(&tpiin, &ctx)
    }));
    out.push(Metric::new("core.circular_ms", "ms", ms_since(start)));

    out.push(Metric::new(
        "core.groups",
        "count",
        rules.group_count() as f64,
    ));
    out.push(Metric::new(
        "core.suspicious_arcs",
        "count",
        rules.suspicious_trading_arcs.len() as f64,
    ));
    out.push(Metric::new(
        "core.tree_nodes",
        "count",
        rules
            .per_subtpiin
            .iter()
            .map(|s| s.tree_nodes)
            .sum::<usize>() as f64,
    ));
    let start = Instant::now();
    black_box(span(tracer, "core", "detect_baseline", || {
        baseline::detect_baseline(&tpiin, 1_000_000)
    }));
    out.push(Metric::new("core.baseline_ms", "ms", ms_since(start)));

    let sessions = investigate::plan(&tpiin, &rules, seed);
    let (mut involving_ms, mut behind_ms) = (Vec::new(), Vec::new());
    for s in &sessions {
        let start = Instant::now();
        black_box(span(tracer, "core", "groups_involving", || {
            rules.groups_involving(s.seller).count()
        }));
        involving_ms.push(ms_since(start));
        let start = Instant::now();
        black_box(span(tracer, "core", "groups_behind_arc", || {
            groups_behind_arc(&tpiin, s.seller, s.buyer)
        }));
        behind_ms.push(ms_since(start));
    }
    out.push(Metric::new(
        "core.groups_involving_ms",
        "ms",
        median(&involving_ms),
    ));
    out.push(Metric::new(
        "core.groups_behind_arc_ms",
        "ms",
        median(&behind_ms),
    ));
    drop(rules);

    let path = inputs::work_dir().join(format!("sweep-seed{seed}.tpiin"));
    std::fs::write(&path, snapshot_bin::write_snapshot_bin(&tpiin))
        .expect("writing the snapshot into the work directory");
    drop(tpiin);
    let loaded = span(tracer, "io", "load_snapshot_file", || {
        tpiin::serve::load_snapshot_file(&path)
    })
    .expect("snapshot loads");
    let start = Instant::now();
    let handle = span(tracer, "serve", "ServerHandle::bind", || {
        ServerHandle::bind(loaded, tpiin::serve::ServeConfig::default())
    })
    .expect("daemon binds");
    out.push(Metric::new("serve.bind_ms", "ms", ms_since(start)));

    let addr = handle.addr();
    let connections = http::connections();
    let mut per_request: [Vec<f64>; 4] = Default::default();
    let (mut company_bytes, mut healthz_ms) = (0usize, Vec::new());
    for s in &sessions {
        let times = investigate::session(addr, s, Some(tracer), SWEEP_OP, 0)
            .expect("sweep session answers");
        for (i, (ms, bytes)) in times.iter().enumerate() {
            per_request[i].push(*ms);
            if i == 0 {
                company_bytes += bytes;
            }
        }
        let start = Instant::now();
        let health = http::get(addr, "/healthz").expect("healthz answers");
        assert!(health.ok(), "healthz answers 200");
        healthz_ms.push(ms_since(start));
    }
    handle.shutdown();
    out.push(Metric::new(
        "serve.company_p50_ms",
        "ms",
        median(&per_request[0]),
    ));
    out.push(Metric::new(
        "serve.company_p99_ms",
        "ms",
        percentile(&per_request[0], 99.0),
    ));
    out.push(Metric::new(
        "serve.company_kib",
        "KiB",
        company_bytes as f64 / 1024.0 / sessions.len() as f64,
    ));
    out.push(Metric::new(
        "serve.arc_p50_ms",
        "ms",
        median(&per_request[1]),
    ));
    out.push(Metric::new(
        "serve.provenance_p50_ms",
        "ms",
        median(&per_request[2]),
    ));
    out.push(Metric::new(
        "serve.page_p50_ms",
        "ms",
        median(&per_request[3]),
    ));
    out.push(Metric::new(
        "serve.healthz_p50_ms",
        "ms",
        median(&healthz_ms),
    ));
    out.push(Metric::new(
        "serve.connections",
        "count",
        (http::connections() - connections) as f64,
    ));
}

fn ingest_path(seed: u64, tracer: &Tracer, out: &mut Vec<Metric>) {
    let day0 = ingest::day0(seed);
    let feeds: Vec<ingest::Feed> = ingest::plan(seed)
        .iter()
        .map(|(j, expect)| ingest::feed(&day0, seed, *j, expect))
        .collect();

    // Per feed and batch position: parse and apply times.
    let mut parse_ms: Vec<Vec<f64>> = Vec::new();
    let mut apply_ms: Vec<Vec<f64>> = Vec::new();
    let (mut paths, mut shards_remined) = ([0usize; 4], 0usize);
    for feed in &feeds {
        parse_ms.push(
            feed.bodies
                .iter()
                .map(|body| {
                    let start = Instant::now();
                    black_box(span(tracer, "io", "batch_from_json", || {
                        let json = Json::parse(body).expect("rendered batch parses");
                        mutation_feed::batch_from_json(&json, "feed", 1)
                            .expect("rendered batch decodes")
                    }));
                    ms_since(start)
                })
                .collect(),
        );
        let mut engine = DeltaEngine::new(feed.stream.base.clone()).expect("day-0 registry fuses");
        let mut times = Vec::new();
        for batch in &feed.stream.batches {
            let start = Instant::now();
            let outcome = span(tracer, "delta", "DeltaEngine::apply", || {
                engine.apply(batch)
            })
            .expect("generated batches apply");
            times.push(ms_since(start));
            paths[match outcome.path {
                DeltaPath::TradingAppend => 0,
                DeltaPath::CompanyAppend => 1,
                DeltaPath::Incremental => 2,
                DeltaPath::FullRebuild => 3,
            }] += 1;
            shards_remined += outcome.shards_remined;
        }
        apply_ms.push(times);
    }
    let all_parse: Vec<f64> = parse_ms.iter().flatten().copied().collect();
    out.push(Metric::new("io.batch_parse_ms", "ms", median(&all_parse)));
    let all_apply: Vec<f64> = apply_ms.iter().flatten().copied().collect();
    out.push(Metric::new("delta.apply_p50_ms", "ms", median(&all_apply)));
    out.push(Metric::new(
        "delta.apply_p95_ms",
        "ms",
        percentile(&all_apply, 95.0),
    ));
    for (name, count) in [
        "delta.path_trading",
        "delta.path_company_append",
        "delta.path_incremental",
        "delta.path_full_rebuild",
    ]
    .iter()
    .zip(paths)
    {
        out.push(Metric::new(*name, "count", count as f64));
    }
    out.push(Metric::new(
        "delta.shards_remined",
        "count",
        shards_remined as f64,
    ));

    let mut rebuild_ms = Vec::new();
    for feed in &feeds {
        let mut registry = feed.stream.base.clone();
        for batch in &feed.stream.batches {
            let start = Instant::now();
            black_box(span(tracer, "fusion+core", "full rebuild", || {
                batch
                    .apply_to_registry(&mut registry)
                    .expect("generated batches apply");
                let (tpiin, _) = fuse(&registry).expect("replayed registry fuses");
                tpiin::detect::detect(&tpiin).group_count()
            }));
            rebuild_ms.push(ms_since(start));
        }
    }
    out.push(Metric::new(
        "delta.full_rebuild_ref_p50_ms",
        "ms",
        median(&rebuild_ms),
    ));

    // Publish: what an HTTP ingest costs beyond parsing the body and
    // the engine's own apply of the same batch.
    let (mut publish_ms, mut reads_ms) = (Vec::new(), Vec::new());
    for (f, feed) in feeds.iter().enumerate() {
        let handle = ingest::bind(&day0);
        let replay = ingest::replay(None, handle.addr(), feed, 0);
        handle.shutdown();
        assert!(
            replay.errors.is_empty() && replay.epoch_faults.is_empty(),
            "sweep replay failed: {:?} {:?}",
            replay.errors,
            replay.epoch_faults
        );
        for (b, ms) in replay.batch_ms.iter().enumerate() {
            let ms = ms.expect("every sweep batch answers");
            publish_ms.push(ms - parse_ms[f][b] - apply_ms[f][b]);
        }
        reads_ms.extend(replay.reads_ms);
    }
    out.push(Metric::new(
        "serve.publish_p50_ms",
        "ms",
        median(&publish_ms),
    ));
    out.push(Metric::new("serve.read_p50_ms", "ms", median(&reads_ms)));
    out.push(Metric::new(
        "serve.read_p99_ms",
        "ms",
        percentile(&reads_ms, 99.0),
    ));
}
