//! `investigate-nation`: the request path.  A daemon loaded from a
//! nation-0.5 binary snapshot serves `nproc` analysts in a closed loop.
//! One operation is a seeded session of four requests against a
//! suspicious arc: the seller's `/company` page, `/groups_behind_arc`,
//! the provenance of the first group `k` behind the arc, and the
//! `/groups?limit=50` page that holds group `k`.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use tpiin::detect::DetectionResult;
use tpiin::fusion::Tpiin;
use tpiin::graph::NodeId;
use tpiin::io::json::Json;
use tpiin::io::snapshot_bin;
use tpiin::obs::alloc;
use tpiin::serve::{ServeConfig, ServerHandle};

use crate::oracle::{self, LabelKey};
use crate::trace::{traced, Tracer};
use crate::{http, inputs, Ctx, Run, SETUP_REPEATS};

/// Sessions in one round, shared out between the analysts.
pub const SESSIONS: usize = 256;
/// Closed-loop analysts: one per core of the 2-CPU reference host.
pub const ANALYSTS: usize = 2;
/// Untimed sessions after each bind.
const WARM_SESSIONS: usize = 32;
/// `/groups` page size of the fourth request.
const PAGE: usize = 50;
/// p99 would leave 35 or more sessions beyond it, but in each round they
/// are the two or three sessions on the largest hub seller, so p99
/// follows that one seller's size from seed to seed.  p95 spans the
/// heaviest 13 sessions of a round.
const TAIL_PCT: f64 = 95.0;

/// The four request kinds of a session, in order.
pub const REQUESTS: [&str; 4] = [
    "GET /company/{seller}",
    "GET /groups_behind_arc",
    "GET /groups/{k}/provenance",
    "GET /groups?limit=50",
];

/// One analyst session and the answers a scan of the offline groups
/// expects from it.
pub struct Session {
    pub seller: NodeId,
    pub buyer: NodeId,
    seller_label: String,
    buyer_label: String,
    k: usize,
    page_offset: usize,
    company_groups: usize,
    behind: BTreeSet<LabelKey>,
    paths: [String; 4],
}

/// Picks `SESSIONS` distinct suspicious arcs that carry at least one
/// rules group, seeded, in a seeded order, and records what each session must return: the
/// number of groups the seller takes part in (on either trail, or as
/// the end) and the groups whose trading arc is the session's arc.
pub fn plan(tpiin: &Tpiin, rules: &DetectionResult, seed: u64) -> Vec<Session> {
    let mut first: BTreeMap<(NodeId, NodeId), usize> = BTreeMap::new();
    for (i, g) in rules.groups.iter().enumerate() {
        first.entry(g.trading_arc).or_insert(i);
    }
    let mut involving: HashMap<NodeId, usize> = HashMap::new();
    for g in &rules.groups {
        let mut members: Vec<NodeId> = g.trail_with_trade.clone();
        members.extend(&g.trail_plain);
        members.push(g.end);
        members.sort_unstable();
        members.dedup();
        for node in members {
            *involving.entry(node).or_default() += 1;
        }
    }
    // Systematic sample over the arcs ordered by the seller's group
    // count: a session's cost is set mostly by the seller's `/company`
    // page, so every seed gets the same spread of light and hub sellers.
    let mut arcs: Vec<((NodeId, NodeId), usize)> = first.into_iter().collect();
    arcs.sort_by_key(|&((seller, buyer), _)| (involving.get(&seller).copied(), seller, buyer));
    let mut rng = inputs::Rng::new(seed);
    let offset = rng.below(1 << 20) as f64 / (1 << 20) as f64;
    let stride = arcs.len() as f64 / SESSIONS as f64;
    let mut picked: Vec<((NodeId, NodeId), usize)> = (0..SESSIONS.min(arcs.len()))
        .map(|i| arcs[((i as f64 + offset) * stride) as usize])
        .collect();
    rng.shuffle(&mut picked);
    picked
        .into_iter()
        .map(|((seller, buyer), k)| {
            let seller_label = tpiin.label(seller).to_string();
            let buyer_label = tpiin.label(buyer).to_string();
            let page_offset = k / PAGE * PAGE;
            let paths = [
                format!("/company/{}", http::encode(&seller_label)),
                format!(
                    "/groups_behind_arc?src={}&dst={}",
                    http::encode(&seller_label),
                    http::encode(&buyer_label)
                ),
                format!("/groups/{k}/provenance"),
                format!("/groups?limit={PAGE}&offset={page_offset}"),
            ];
            Session {
                seller,
                buyer,
                company_groups: involving.get(&seller).copied().unwrap_or(0),
                behind: rules
                    .groups
                    .iter()
                    .filter(|g| g.trading_arc == (seller, buyer))
                    .map(|g| oracle::label_key(tpiin, g))
                    .collect(),
                seller_label,
                buyer_label,
                k,
                page_offset,
                paths,
            }
        })
        .collect()
}

/// Time (ms) and body bytes of each request of one session.
pub type SessionTimes = [(f64, usize); 4];

/// Runs one session; fails on the first request that does not answer
/// 2xx.
pub fn session(
    addr: SocketAddr,
    s: &Session,
    tracer: Option<&Tracer>,
    op: u64,
    parent: u64,
) -> Result<SessionTimes, String> {
    let mut times = [(0.0, 0); 4];
    for (i, path) in s.paths.iter().enumerate() {
        let start = Instant::now();
        let resp = traced(tracer, op, parent, "serve", REQUESTS[i], |_| {
            http::get(addr, path)
        })
        .map_err(|e| format!("{path}: {e}"))?;
        if !resp.ok() {
            return Err(format!("{path}: HTTP {}", resp.status));
        }
        times[i] = (start.elapsed().as_secs_f64() * 1e3, resp.body.len());
    }
    Ok(times)
}

/// Fetches and parses one response body.
fn fetch(addr: SocketAddr, path: &str) -> Result<Json, String> {
    let resp = http::get(addr, path).map_err(|e| format!("{path}: {e}"))?;
    if !resp.ok() {
        return Err(format!("{path}: HTTP {}", resp.status));
    }
    Json::parse(&resp.body).map_err(|e| format!("{path}: {e}"))
}

/// Checks every answer of a session against the offline scan.
pub fn check_session(addr: SocketAddr, s: &Session) -> Result<(), String> {
    let arc = vec![s.seller_label.clone(), s.buyer_label.clone()];
    let company = fetch(addr, &s.paths[0])?;
    let count = company.get("group_count").and_then(Json::as_f64);
    if count != Some(s.company_groups as f64) {
        return Err(format!(
            "{}: group_count {count:?}, scan finds {}",
            s.paths[0], s.company_groups
        ));
    }
    let behind: BTreeSet<LabelKey> = oracle::served_groups(&fetch(addr, &s.paths[1])?)?
        .into_iter()
        .collect();
    if behind != s.behind {
        return Err(format!(
            "{}: {} groups, scan finds {}",
            s.paths[1],
            behind.len(),
            s.behind.len()
        ));
    }
    let prov = fetch(addr, &s.paths[2])?;
    let prov_arc = prov.get("group").and_then(oracle::label_key_from_json);
    if prov.get("group_id").and_then(Json::as_f64) != Some(s.k as f64)
        || prov_arc.map(|key| key.0) != Some(arc.clone())
    {
        return Err(format!("{}: not group {} behind the arc", s.paths[2], s.k));
    }
    let page = oracle::served_groups(&fetch(addr, &s.paths[3])?)?;
    match page.get(s.k - s.page_offset) {
        Some(key) if key.0 == arc => Ok(()),
        _ => Err(format!("{}: group {} is not on the page", s.paths[3], s.k)),
    }
}

/// Fuses the registry and writes its binary snapshot, as
/// `save-snapshot --format bin` does.
pub fn write_snapshot(registry: &tpiin::model::SourceRegistry, path: &Path) {
    let (tpiin, _) = tpiin::fusion::fuse(registry).expect("nation registry fuses");
    std::fs::write(path, snapshot_bin::write_snapshot_bin(&tpiin))
        .expect("writing the snapshot into the work directory");
}

/// Loads the snapshot and binds a daemon with the default
/// configuration.
pub fn bind(path: &Path) -> ServerHandle {
    let tpiin = tpiin::serve::load_snapshot_file(path).expect("snapshot loads");
    ServerHandle::bind(tpiin, ServeConfig::default()).expect("daemon binds")
}

#[derive(Default)]
struct AnalystOut {
    attempted: u64,
    failed: u64,
    untraced: Vec<f64>,
    traced: Vec<f64>,
    errors: Vec<String>,
}

pub fn run(ctx: &Ctx) -> Run {
    let mut run = Run::new(TAIL_PCT);
    // The session plan is the benchmark's own: built from an offline
    // detection and dropped before any set-up is timed.
    let planned = Instant::now();
    let sessions = {
        let registry = inputs::nation(0.5, ctx.seed);
        let (tpiin, _) = tpiin::fusion::fuse(&registry).expect("nation-0.5 registry fuses");
        let rules = tpiin::detect::detect(&tpiin);
        plan(&tpiin, &rules, ctx.seed)
    };
    let plan_s = planned.elapsed().as_secs_f64();
    let path = inputs::work_dir().join(format!("investigate-seed{}.tpiin", ctx.seed));

    let mut server: Option<ServerHandle> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = server.take() {
            old.shutdown();
        }
        let start = Instant::now();
        write_snapshot(&inputs::nation(0.5, ctx.seed), &path);
        let handle = bind(&path);
        for s in sessions.iter().take(WARM_SESSIONS) {
            if let Err(e) = session(handle.addr(), s, None, 0, 0) {
                run.fail_check(format!("warm-up session: {e}"));
            }
        }
        run.setup_s.push(start.elapsed().as_secs_f64());
        server = Some(handle);
    }
    let handle = server.expect("at least one set-up");
    let addr = handle.addr();

    let deadline = ctx.deadline();
    // The next session of the round: analysts take sessions from the
    // round in turn, so neither idles at the round's end while the other
    // works through a larger share of hub sellers.
    let cursor = AtomicUsize::new(0);
    let next_op = AtomicU64::new(1);
    let barrier = Barrier::new(ANALYSTS);
    let stop = AtomicBool::new(false);
    let connections = http::connections();
    alloc::reset_peak();
    let phase = Instant::now();
    let outs: Vec<AnalystOut> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..ANALYSTS)
            .map(|_| {
                let (sessions, cursor, next_op, barrier, stop) =
                    (&sessions, &cursor, &next_op, &barrier, &stop);
                scope.spawn(move || {
                    let mut out = AnalystOut::default();
                    loop {
                        while let Some(s) = sessions.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                            let op = next_op.fetch_add(1, Ordering::Relaxed);
                            let tracer = ctx.tracer_for(op);
                            out.attempted += 1;
                            let start = Instant::now();
                            let result = traced(tracer, op, 0, "bench", "session", |parent| {
                                session(addr, s, tracer, op, parent)
                            });
                            let ms = start.elapsed().as_secs_f64() * 1e3;
                            match result {
                                Ok(_) if tracer.is_some() => out.traced.push(ms),
                                Ok(_) => out.untraced.push(ms),
                                Err(e) => {
                                    out.failed += 1;
                                    out.errors.push(e);
                                }
                            }
                        }
                        // Whole rounds: both analysts finish the round,
                        // then one of them decides for both.
                        if barrier.wait().is_leader() {
                            cursor.store(0, Ordering::SeqCst);
                            stop.store(Instant::now() >= deadline, Ordering::SeqCst);
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            return out;
                        }
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("analyst thread"))
            .collect()
    });
    run.phase_s = phase.elapsed().as_secs_f64();
    run.peak_bytes = alloc::stats().peak_bytes;
    let opened = http::connections() - connections;
    for out in outs {
        run.attempted += out.attempted;
        run.failed += out.failed;
        run.samples_ms.extend(out.untraced);
        run.traced_ms.extend(out.traced);
        for e in out.errors.into_iter().take(3) {
            run.note(format!("session failed: {e}"));
        }
    }
    run.note(format!(
        "{} sessions over {} connections ({} per session, Connection: close)",
        run.attempted,
        opened,
        REQUESTS.len()
    ));

    let checked = Instant::now();
    let wrong: Vec<String> = std::thread::scope(|scope| {
        let checkers: Vec<_> = (0..ANALYSTS)
            .map(|a| {
                let sessions = &sessions;
                scope.spawn(move || {
                    sessions
                        .iter()
                        .skip(a)
                        .step_by(ANALYSTS)
                        .find_map(|s| check_session(addr, s).err())
                })
            })
            .collect();
        checkers
            .into_iter()
            .filter_map(|c| c.join().expect("checker thread"))
            .collect()
    });
    for e in wrong {
        run.fail_check(e);
    }
    run.note(format!(
        "untimed: session plan {plan_s:.2} s, output checks {:.2} s",
        checked.elapsed().as_secs_f64()
    ));
    handle.shutdown();
    run
}
