//! `etl-nation`: one operation fuses the nation-1.0 registry with the
//! library's default `FuseOptions` and encodes the binary snapshot, as
//! `save-snapshot --format bin` does.  Fusion does most of the work
//! here; detection does none.

use std::time::Instant;

use tpiin::fusion::{fuse_with, FuseOptions, Tpiin};
use tpiin::io::snapshot_bin;
use tpiin::obs::alloc;

use crate::trace::traced;
use crate::{inputs, oracle, Ctx, Run, SETUP_REPEATS};

/// At least 35 operations fit in a 20 s run; p70 leaves ten beyond it.
const TAIL_PCT: f64 = 70.0;

fn etl(
    registry: &tpiin::model::SourceRegistry,
    tracer: Option<&crate::trace::Tracer>,
    op: u64,
) -> Result<(Tpiin, Vec<u8>), String> {
    let (tpiin, _report) = traced(tracer, op, 0, "fusion", "fuse_with", |_| {
        fuse_with(registry, FuseOptions::default())
    })
    .map_err(|e| e.to_string())?;
    let bytes = traced(tracer, op, 0, "io", "write_snapshot_bin", |_| {
        snapshot_bin::write_snapshot_bin(&tpiin)
    });
    Ok((tpiin, bytes))
}

pub fn run(ctx: &Ctx) -> Run {
    let mut run = Run::new(TAIL_PCT);
    let mut registry = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let fresh = inputs::nation(1.0, ctx.seed);
        drop(etl(&fresh, None, 0).expect("nation-1.0 registry fuses"));
        run.setup_s.push(start.elapsed().as_secs_f64());
        registry = Some(fresh);
    }
    let registry = registry.expect("at least one set-up");

    let deadline = ctx.deadline();
    let mut last = None;
    let mut sizes = None;
    alloc::reset_peak();
    let phase = Instant::now();
    for op in 1.. {
        run.attempted += 1;
        let tracer = ctx.tracer_for(op);
        let start = Instant::now();
        let out = etl(&registry, tracer, op);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        match out {
            Ok((tpiin, bytes)) => {
                run.record(tracer, ms);
                let shape = (tpiin.node_count(), bytes.len());
                if *sizes.get_or_insert(shape) != shape {
                    run.fail_check(format!(
                        "operation {op} produced {shape:?}, earlier {sizes:?}"
                    ));
                }
                if Instant::now() >= deadline {
                    last = Some((tpiin, bytes));
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

    let Some((tpiin, bytes)) = last else {
        run.fail_check("no operation succeeded".into());
        return run;
    };
    match snapshot_bin::read_snapshot_bin(&bytes) {
        Ok(decoded) => {
            if let Err(e) = oracle::same_tpiin(&tpiin, &decoded) {
                run.fail_check(format!(
                    "decoded snapshot differs from the fused network: {e}"
                ));
            }
        }
        Err(e) => run.fail_check(format!("snapshot does not decode: {e}")),
    }
    if let Err(e) = oracle::antecedent_network_is_sound(&tpiin) {
        run.fail_check(e);
    }
    run.note(format!(
        "nation-1.0: {} TPIIN nodes, {} influence arcs, {} trading arcs, snapshot {} bytes",
        tpiin.node_count(),
        tpiin.influence_arc_count,
        tpiin.trading_arc_count,
        bytes.len()
    ));
    run
}
