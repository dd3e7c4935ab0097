//! `build-nation`: the paper's batch computation at the reference
//! scale.  One operation runs `tpiin::Pipeline` on the nation-0.5
//! registry with the default serving miners (`rules` and `circular`),
//! from registry to groups.

use std::time::Instant;

use tpiin::obs::alloc;
use tpiin::{Pipeline, RunOutput};

use crate::trace::traced;
use crate::{inputs, oracle, Ctx, Run, SETUP_REPEATS};

/// Fewer than forty operations fit in a run, so no percentile above the
/// median has ten samples beyond it.
const TAIL_PCT: f64 = 50.0;

fn pipeline(registry: &tpiin::model::SourceRegistry) -> Result<RunOutput, tpiin::Error> {
    Pipeline::from_registry(registry)
        .miners(["rules", "circular"])
        .run()
}

pub fn run(ctx: &Ctx) -> Run {
    let mut run = Run::new(TAIL_PCT);
    let mut registry = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let fresh = inputs::nation(0.5, ctx.seed);
        // Warm-up: the first pipeline in a process runs 1.6-2x slower.
        drop(pipeline(&fresh).expect("nation-0.5 registry fuses"));
        run.setup_s.push(start.elapsed().as_secs_f64());
        registry = Some(fresh);
    }
    let registry = registry.expect("at least one set-up");

    let deadline = ctx.deadline();
    let mut last: Option<RunOutput> = None;
    let mut counts = None;
    alloc::reset_peak();
    let phase = Instant::now();
    for op in 1.. {
        run.attempted += 1;
        let tracer = ctx.tracer_for(op);
        let start = Instant::now();
        let out = traced(tracer, op, 0, "fusion+core", "Pipeline::run", |_| {
            pipeline(&registry)
        });
        let ms = start.elapsed().as_secs_f64() * 1e3;
        match out {
            Ok(out) => {
                run.record(tracer, ms);
                let shape = (
                    out.groups.group_count(),
                    out.groups.suspicious_trading_arcs.len(),
                    out.result_for("circular").map(|r| r.group_count()),
                );
                if *counts.get_or_insert(shape) != shape {
                    run.fail_check(format!(
                        "operation {op} mined {shape:?}, earlier {counts:?}"
                    ));
                }
                if Instant::now() >= deadline {
                    last = Some(out);
                    break;
                }
            }
            Err(err) => {
                run.failed += 1;
                run.note(format!("operation {op} failed: {err}"));
                if Instant::now() >= deadline {
                    break;
                }
            }
        }
    }
    run.phase_s = phase.elapsed().as_secs_f64();
    run.peak_bytes = alloc::stats().peak_bytes;

    let Some(out) = last else {
        run.fail_check("no operation succeeded".into());
        return run;
    };
    if let Err(e) = oracle::rules_match_baseline(&out.tpiin, &out.groups) {
        run.fail_check(format!("rules vs baseline: {e}"));
    }
    match out.result_for("circular") {
        Some(circular) => {
            if let Err(e) = oracle::cycles_are_real(&out.tpiin, circular) {
                run.fail_check(format!("circular groups: {e}"));
            }
        }
        None => run.fail_check("no circular result".into()),
    }
    run.note(format!(
        "nation-0.5: {} TPIIN nodes, {} rules groups, {} suspicious arcs, {} circular groups",
        out.tpiin.node_count(),
        out.groups.group_count(),
        out.groups.suspicious_trading_arcs.len(),
        out.result_for("circular").map_or(0, |r| r.group_count())
    ));
    run
}
