//! `ingest-province`: the ingest path.  A registry-backed daemon at
//! province-0.5 ingests a fixed, seeded mutation feed.  One writer
//! posts the batches in a closed loop; one operation is one batch, from
//! `POST /ingest` until the response that reports its published epoch.
//! One reader issues `/groups` and `/company` requests at a fixed
//! open-loop rate and times each from when it was due.  Its rate and
//! mix are those of the repository's open-loop load generator,
//! `bench_loadgen`: the lowest step of its default rate ladder
//! (50, 100, 200, 400 requests/s), and its weights of two
//! `/groups?limit=5` to one `/company` of a suspicious arc's seller.
//! The generator's third endpoint, `/groups_behind_arc`, is left out:
//! the reader probes whether the writer blocks readers, and
//! `investigate-nation` measures that endpoint.
//!
//! Per-batch cost rises along a feed, so every round replays whole
//! feeds, each on a freshly bound daemon: each run measures the same
//! mix.  A run replays `FEEDS` feeds per round, picked from the seed's
//! pool of candidates by a systematic sample over their from-scratch
//! group counts, so every seed covers light and heavy feeds alike.
//! Each replay ends with `POST /reload` against the day-0 snapshot the
//! daemon was started with (see [`reload_keeps_ingested_data`]).

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tpiin::datagen::MutationStream;
use tpiin::io::json::Json;
use tpiin::io::{mutation_feed, snapshot_bin};
use tpiin::model::SourceRegistry;
use tpiin::obs::alloc;
use tpiin::serve::{ServeConfig, ServerHandle};

use crate::oracle::{self, LabelKey};
use crate::trace::traced;
use crate::{http, inputs, stats, Ctx, Run, SETUP_REPEATS};

/// The reader's schedule: one request every 20 ms, 50 requests/s.
pub const READ_INTERVAL: Duration = Duration::from_millis(20);
/// At least 720 batches per run; p95 leaves three dozen beyond it (p99
/// would leave seven).
const TAIL_PCT: f64 = 95.0;

/// Feeds replayed per round.
pub const FEEDS: usize = 12;

/// The state every feed starts from: the reference day-0 registry, the
/// binary snapshot of its TPIIN that `/reload` re-reads, and the labels
/// of its company nodes.
pub struct Day0 {
    pub registry: SourceRegistry,
    pub snapshot: PathBuf,
    companies: Vec<String>,
}

/// Generates and fuses the day-0 registry and writes its snapshot.
pub fn day0(seed: u64) -> Day0 {
    let registry = inputs::province_day0();
    let (tpiin, _) = tpiin::fusion::fuse(&registry).expect("day-0 registry fuses");
    let snapshot = inputs::work_dir().join(format!("ingest-day0-seed{seed}.tpiin"));
    std::fs::write(&snapshot, snapshot_bin::write_snapshot_bin(&tpiin))
        .expect("writing the day-0 snapshot into the work directory");
    let companies = tpiin
        .company_node
        .iter()
        .map(|&node| tpiin.label(node).to_string())
        .collect();
    Day0 {
        registry,
        snapshot,
        companies,
    }
}

/// A replayable feed: the batches over the day-0 registry, each batch
/// as the JSON body `POST /ingest` takes, and the reader's request
/// paths in their weighted order.
pub struct Feed {
    pub stream: MutationStream,
    pub bodies: Vec<String>,
    pub reads: Vec<String>,
}

/// Renders feed `j` of `seed`'s pool.  The reader's `/company` target
/// is, as in `bench_loadgen`, the seller of the first suspicious arc:
/// the first one, in the replayed feed's detection, whose seller is
/// already a day-0 company, so it answers from the first read on.
pub fn feed(day0: &Day0, seed: u64, j: u64, expect: &Expected) -> Feed {
    let stream = inputs::province_feed(&day0.registry, seed, j);
    let bodies = stream
        .batches
        .iter()
        .map(|b| mutation_feed::batch_to_json(b).to_string())
        .collect();
    let seller = expect
        .sellers
        .iter()
        .find(|label| day0.companies.contains(label))
        .unwrap_or(&day0.companies[0]);
    let groups = "/groups?limit=5".to_string();
    let reads = vec![
        groups.clone(),
        groups,
        format!("/company/{}", http::encode(seller)),
    ];
    Feed {
        stream,
        bodies,
        reads,
    }
}

/// The feeds a run replays, by pool index and from light to heavy, with
/// what a from-scratch fuse + detect of each replayed registry mines.
pub fn plan(seed: u64) -> Vec<(u64, Expected)> {
    let day0 = inputs::province_day0();
    let mut pool: Vec<(u64, Expected)> = (0..inputs::FEED_POOL)
        .map(|j| (j, expected(&inputs::province_feed(&day0, seed, j))))
        .collect();
    pool.sort_by_key(|(j, e)| (e.counts[0], *j));
    let mut rng = inputs::Rng::new(seed);
    let offset = rng.below(1 << 20) as f64 / (1 << 20) as f64;
    let stride = pool.len() as f64 / FEEDS as f64;
    let picks: Vec<usize> = (0..FEEDS)
        .map(|i| ((i as f64 + offset) * stride) as usize)
        .collect();
    pool.into_iter()
        .enumerate()
        .filter(|(rank, _)| picks.contains(rank))
        .map(|(_, feed)| feed)
        .collect()
}

/// A daemon over the day-0 registry whose `/reload` re-reads the day-0
/// snapshot.
pub fn bind(day0: &Day0) -> ServerHandle {
    ServerHandle::bind_with_registry(
        day0.registry.clone(),
        ServeConfig {
            snapshot_path: Some(day0.snapshot.clone()),
            ..ServeConfig::default()
        },
    )
    .expect("daemon binds")
}

/// What a from-scratch fuse + detect of the replayed registry mines.
pub struct Expected {
    pub counts: [usize; 4],
    pub keys: BTreeSet<LabelKey>,
    /// Sellers of the suspicious arcs, in the detector's arc order.
    pub sellers: Vec<String>,
}

pub fn expected(stream: &MutationStream) -> Expected {
    let replayed = stream.replayed().expect("feed replays");
    let (tpiin, _) = tpiin::fusion::fuse(&replayed).expect("replayed registry fuses");
    let rules = tpiin::detect::detect(&tpiin);
    Expected {
        counts: served_counts_of(&rules),
        keys: rules
            .groups
            .iter()
            .map(|g| oracle::label_key(&tpiin, g))
            .collect(),
        sellers: rules
            .suspicious_trading_arcs
            .iter()
            .map(|&(seller, _)| tpiin.label(seller).to_string())
            .collect(),
    }
}

fn served_counts_of(r: &tpiin::detect::DetectionResult) -> [usize; 4] {
    [
        r.group_count(),
        r.complex_group_count,
        r.simple_group_count,
        r.suspicious_trading_arcs.len(),
    ]
}

/// `group_count`, `complex`, `simple` and `suspicious_trading_arcs` of
/// the served rules result.
fn served_counts(addr: SocketAddr) -> Result<[usize; 4], String> {
    let resp = http::get(addr, "/groups?limit=0").map_err(|e| e.to_string())?;
    let mut counts = [0; 4];
    for (slot, key) in counts.iter_mut().zip([
        "group_count",
        "complex",
        "simple",
        "suspicious_trading_arcs",
    ]) {
        *slot = http::field_u64(&resp.body, key).ok_or("no counts in /groups")? as usize;
    }
    Ok(counts)
}

fn epoch(addr: SocketAddr) -> Result<u64, String> {
    let resp = http::get(addr, "/healthz").map_err(|e| e.to_string())?;
    http::field_u64(&resp.body, "epoch").ok_or_else(|| "no epoch in /healthz".to_string())
}

/// The reload operation: passes if every ingested mutation stays
/// visible after `POST /reload`, or if the reload is refused and the
/// served epoch is left unchanged.
pub fn reload_keeps_ingested_data(
    addr: SocketAddr,
    epoch_before: u64,
    expect: &Expected,
) -> Result<(), String> {
    let resp = http::request(addr, "POST", "/reload", "").map_err(|e| e.to_string())?;
    if resp.ok() {
        let after = served_counts(addr)?;
        if after != expect.counts {
            return Err(format!(
                "POST /reload answered {} and now serves {} groups; the replayed feed mines {}",
                resp.status, after[0], expect.counts[0]
            ));
        }
    } else {
        let now = epoch(addr)?;
        if now != epoch_before {
            return Err(format!(
                "POST /reload was refused but moved the epoch {epoch_before} -> {now}"
            ));
        }
    }
    Ok(())
}

/// Latencies of one feed replay.
#[derive(Default)]
pub struct Replay {
    /// Per batch, in feed order: HTTP ingest time in ms (`None` when
    /// the batch failed).
    pub batch_ms: Vec<Option<f64>>,
    /// Reader latencies, each from when the request was due, in ms.
    pub reads_ms: Vec<f64>,
    /// Largest delay between a read's due time and its send, in ms.
    pub reader_lag_ms: f64,
    /// Time from the first post to the last response, in s.
    pub feed_s: f64,
    pub last_epoch: u64,
    /// Batches that got no answer or an HTTP error.
    pub errors: Vec<String>,
    /// Batches whose published epoch did not rise: an output check.
    pub epoch_faults: Vec<String>,
}

/// Posts every batch of the feed to `addr` with the open-loop reader
/// running alongside.  `op_base + b` is batch `b`'s operation id.
pub fn replay(ctx: Option<&Ctx>, addr: SocketAddr, feed: &Feed, op_base: u64) -> Replay {
    let mut out = Replay::default();
    let stop = AtomicBool::new(false);
    let mut last_epoch = match epoch(addr) {
        Ok(e) => e,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    let (reads_ms, lag) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let start = Instant::now();
            let (mut samples, mut lag) = (Vec::new(), 0.0f64);
            for i in 0u32.. {
                let due = start + READ_INTERVAL * i;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                lag = lag.max(due.elapsed().as_secs_f64() * 1e3);
                if let Ok(resp) = http::get(addr, &feed.reads[i as usize % feed.reads.len()]) {
                    if resp.ok() {
                        samples.push(due.elapsed().as_secs_f64() * 1e3);
                    }
                }
            }
            (samples, lag)
        });
        let start = Instant::now();
        for (b, body) in feed.bodies.iter().enumerate() {
            let op = op_base + b as u64;
            let tracer = ctx.and_then(|c| c.tracer_for(op));
            let sent = Instant::now();
            let resp = traced(tracer, op, 0, "serve", "POST /ingest", |_| {
                http::request(addr, "POST", "/ingest", body)
            });
            let ms = sent.elapsed().as_secs_f64() * 1e3;
            let published = match resp {
                Ok(r) if r.ok() => http::field_u64(&r.body, "epoch"),
                Ok(r) => {
                    out.errors
                        .push(format!("batch {b}: HTTP {}: {}", r.status, r.body));
                    None
                }
                Err(e) => {
                    out.errors.push(format!("batch {b}: {e}"));
                    None
                }
            };
            match published {
                Some(e) if e > last_epoch => {
                    last_epoch = e;
                    out.batch_ms.push(Some(ms));
                }
                Some(e) => {
                    out.epoch_faults.push(format!(
                        "batch {b}: epoch {e} does not rise above {last_epoch}"
                    ));
                    out.batch_ms.push(None);
                }
                None => out.batch_ms.push(None),
            }
        }
        out.feed_s = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::SeqCst);
        reader.join().expect("reader thread")
    });
    out.reads_ms = reads_ms;
    out.reader_lag_ms = lag;
    out.last_epoch = last_epoch;
    out
}

pub fn run(ctx: &Ctx) -> Run {
    let mut run = Run::new(TAIL_PCT);
    let planned = Instant::now();
    let plan = plan(ctx.seed);
    let plan_s = planned.elapsed().as_secs_f64();

    let mut setup: Option<(Day0, Vec<Feed>, ServerHandle)> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((_, _, old)) = setup.take() {
            old.shutdown();
        }
        let start = Instant::now();
        let day0 = day0(ctx.seed);
        let feeds: Vec<Feed> = plan
            .iter()
            .map(|(j, expect)| feed(&day0, ctx.seed, *j, expect))
            .collect();
        // Warm-up: one whole replay of the middle feed on a throwaway
        // daemon.
        let middle = &feeds[feeds.len() / 2];
        let warm = bind(&day0);
        let warmed = replay(None, warm.addr(), middle, 0);
        warm.shutdown();
        if let Some(e) = warmed.errors.iter().chain(&warmed.epoch_faults).next() {
            run.fail_check(format!("warm-up replay: {e}"));
        }
        let handle = bind(&day0);
        run.setup_s.push(start.elapsed().as_secs_f64());
        setup = Some((day0, feeds, handle));
    }
    let (day0, feeds, first) = setup.expect("at least one set-up");
    let mut daemon = Some(first);

    let deadline = ctx.deadline();
    let (mut reads, mut lag, mut replays, mut peaks) = (Vec::new(), 0.0f64, 0u64, Vec::new());
    let mut rounds = 0;
    loop {
        for (i, (feed, (j, expect))) in feeds.iter().zip(&plan).enumerate() {
            let handle = daemon.take().unwrap_or_else(|| bind(&day0));
            let addr = handle.addr();
            // One operation id per batch plus one for the reload: an odd
            // count per replay alternates which batches a traced run
            // traces.
            let op_base = 1 + replays * (feed.bodies.len() as u64 + 1);
            alloc::reset_peak();
            let r = replay(Some(ctx), addr, feed, op_base);
            peaks.push(alloc::stats().peak_bytes as f64);
            run.phase_s += r.feed_s;
            for (b, ms) in r.batch_ms.iter().enumerate() {
                run.attempted += 1;
                match ms {
                    Some(ms) => run.record(ctx.tracer_for(op_base + b as u64), *ms),
                    None => run.failed += 1,
                }
            }
            for e in r.errors.iter().take(3) {
                run.note(format!("feed {j}: {e}"));
            }
            for e in r.epoch_faults.iter().take(3) {
                run.fail_check(format!("feed {j}: {e}"));
            }
            reads.extend(r.reads_ms);
            lag = lag.max(r.reader_lag_ms);
            match served_counts(addr) {
                Ok(counts) if counts == expect.counts => {}
                Ok(counts) => run.fail_check(format!(
                    "feed {j}: serves {counts:?} after the feed, from-scratch fuse + detect mines {:?}",
                    expect.counts
                )),
                Err(e) => run.fail_check(e),
            }
            if rounds == 0 {
                let served = http::get(addr, "/groups")
                    .map_err(|e| e.to_string())
                    .and_then(|r| Json::parse(&r.body))
                    .and_then(|body| oracle::served_groups(&body));
                match served {
                    Ok(keys) if keys.iter().cloned().collect::<BTreeSet<_>>() == expect.keys => {}
                    Ok(keys) => run.fail_check(format!(
                        "feed {j}: served groups differ from a from-scratch fuse + detect ({} vs {})",
                        keys.len(),
                        expect.keys.len()
                    )),
                    Err(e) => run.fail_check(e),
                }
            }
            run.attempted += 1;
            if let Err(e) = reload_keeps_ingested_data(addr, r.last_epoch, expect) {
                run.failed += 1;
                if rounds == 0 && i == 0 {
                    run.note(format!("reload failed: {e}"));
                }
            }
            replays += 1;
            handle.shutdown();
        }
        rounds += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    // Each replay runs on its own daemon; the typical replay's peak is
    // the figure, so one heavy feed does not set it alone.
    run.peak_bytes = stats::median(&peaks) as u64;
    run.note(format!(
        "{rounds} rounds of {} feeds x {} batches; feeds mine {:?} groups after their last batch",
        feeds.len(),
        inputs::FEED_BATCHES,
        plan.iter().map(|(_, e)| e.counts[0]).collect::<Vec<_>>()
    ));
    if !reads.is_empty() {
        run.note(format!(
            "reader: {} reads at one per {} ms, p50 {:.3} ms, p99 {:.3} ms, max lag {:.3} ms",
            reads.len(),
            READ_INTERVAL.as_millis(),
            stats::percentile(&reads, 50.0),
            stats::percentile(&reads, 99.0),
            lag
        ));
    }
    run.note(format!("untimed: feed plan {plan_s:.2} s"));
    run
}
