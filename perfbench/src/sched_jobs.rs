//! `sched_jobs`: a closed loop of at most `nproc` clients, each submitting
//! jobs from a fixed mix of ring, pingpong and allreduce gangs of 1–4
//! ranks, in a seeded order, to a 2 × 2-slot `Scheduler` and waiting for
//! each result. It loads
//! admission, the ledger and rt's per-job world launch and teardown: many
//! tiny worlds, against `rt_allreduce`'s one long world.

use crate::checks::check_job;
use crate::metrics::Outcome;
use crate::rt_p2p::{maybe_catch_up, Probe};
use crate::stats::median;
use crate::sys::{cpu_time, max_rss_kb, rss_kb};
use crate::trace::{rec, SpanBuf, Tracer};
use crate::RunCfg;
use dcuda_des::SplitMix64;
use dcuda_sched::{run_solo, JobEnd, JobProgram, JobSpec, SchedLimits, Scheduler};
use std::sync::Arc;
use std::time::Instant;

/// Scheduler capacity: devices × slots per device.
const DEVICES: u32 = 2;
const SLOTS: u32 = 2;
/// Gang shapes (devices, ranks per device): 1 to 4 ranks.
const SHAPES: [(u32, u32); 4] = [(1, 1), (1, 2), (2, 1), (2, 2)];
const ITERS: [u32; 3] = [2, 3, 4];
const PAYLOADS: [usize; 3] = [64, 128, 256];
/// Jobs per block: every program × shape × iteration count × payload.
const JOBS: usize = 3 * SHAPES.len() * ITERS.len() * PAYLOADS.len();
/// Blocks per scheduler. A fresh scheduler per segment bounds how many
/// finished jobs its table holds, so peak memory does not depend on how
/// many jobs fit in the run.
const SEGMENT_BLOCKS: u32 = 16;

/// The job mix of one run: every combination once per block, in a seeded
/// order, each with its own seeded data.
fn specs(seed: u64) -> Vec<JobSpec> {
    let mut rng = SplitMix64::new(seed ^ 0x5C4E_D000);
    let mut shapes = Vec::with_capacity(JOBS);
    for program in [
        JobProgram::Ring,
        JobProgram::PingPong,
        JobProgram::Allreduce,
    ] {
        for &(devices, rpd) in &SHAPES {
            for &iters in &ITERS {
                for &payload in &PAYLOADS {
                    shapes.push((program, devices, rpd, iters, payload));
                }
            }
        }
    }
    for i in (1..shapes.len()).rev() {
        shapes.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    shapes
        .into_iter()
        .enumerate()
        .map(|(i, (program, devices, rpd, iters, payload))| {
            let mut spec = JobSpec::small(format!("job-{i}"), program);
            spec.devices = devices;
            spec.ranks_per_device = rpd;
            spec.iters = iters;
            spec.payload = payload;
            spec.seed = rng.next_u64();
            spec
        })
        .collect()
}

fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(JOBS))
}

/// What the clients of one block observed.
#[derive(Default)]
struct BlockOut {
    latency_ms: Vec<f64>,
    submit_us: Vec<f64>,
    queue_ms: Vec<f64>,
    run_ms: Vec<f64>,
    failed: u64,
    errors: Vec<String>,
}

/// One block: every client submits its share of the specs, one at a time,
/// waiting for each result before the next submission.
fn block(
    sched: &Scheduler,
    specs: &[JobSpec],
    solo: &[u64],
    tracer: Option<&Arc<Tracer>>,
    parent: u32,
) -> BlockOut {
    let n = clients();
    let parts: Vec<BlockOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|c| {
                s.spawn(move || {
                    let mut spans = tracer.map(Tracer::buf);
                    let mut o = BlockOut::default();
                    for j in (c..specs.len()).step_by(n) {
                        let t0 = Instant::now();
                        let submitted = sched.submit(specs[j].clone());
                        let t1 = Instant::now();
                        rec(&mut spans, "sched.submit", parent, t0, t1, 1);
                        let result = submitted.and_then(|id| sched.wait(id));
                        let t2 = Instant::now();
                        rec(&mut spans, "sched.wait", parent, t1, t2, 1);
                        match result {
                            Ok(r) => {
                                o.latency_ms.push((t2 - t0).as_secs_f64() * 1e3);
                                o.submit_us.push((t1 - t0).as_secs_f64() * 1e6);
                                o.queue_ms.push(r.wait_ms);
                                o.run_ms.push(r.run_ms);
                                let done = r.end == JobEnd::Completed;
                                o.failed += u64::from(!done);
                                if let Err(e) = check_job(&r.name, done, r.checksum, solo[j]) {
                                    o.errors.push(e);
                                }
                            }
                            Err(e) => {
                                o.failed += 1;
                                o.errors.push(format!("{}: {e}", specs[j].name));
                            }
                        }
                    }
                    o
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = BlockOut::default();
    for p in parts {
        all.latency_ms.extend(p.latency_ms);
        all.submit_us.extend(p.submit_us);
        all.queue_ms.extend(p.queue_ms);
        all.run_ms.extend(p.run_ms);
        all.failed += p.failed;
        all.errors.extend(p.errors);
    }
    all
}

/// One set-up: the seeded specs, each run alone (the reference
/// checksums), a fresh scheduler and one warm-up block through it.
fn setup(
    seed: u64,
    spans: &mut Option<SpanBuf>,
    solo_ms: &mut Vec<f64>,
) -> Result<(Vec<JobSpec>, Vec<u64>, Scheduler), String> {
    let specs = specs(seed);
    let mut solo = Vec::with_capacity(specs.len());
    for spec in &specs {
        let t0 = Instant::now();
        let r = run_solo(spec).map_err(|e| format!("{} solo: {e}", spec.name))?;
        let t1 = Instant::now();
        rec(spans, "sched.run_solo", 0, t0, t1, 1);
        solo_ms.push((t1 - t0).as_secs_f64() * 1e3);
        if r.end != JobEnd::Completed {
            return Err(format!(
                "{} solo run ended {:?}: {:?}",
                spec.name, r.end, r.error
            ));
        }
        solo.push(r.checksum);
    }
    let sched = Scheduler::new(DEVICES, SLOTS, SchedLimits::default());
    let warm = block(&sched, &specs, &solo, None, 0);
    if let Some(e) = warm.errors.first() {
        return Err(format!("warm-up: {e}"));
    }
    Ok((specs, solo, sched))
}

/// Everything measured over the segments of one run.
#[derive(Default)]
struct Acc {
    setup_s: Vec<f64>,
    solo_ms: Vec<f64>,
    wall: Vec<f64>,
    cpu: Vec<f64>,
    blocks: BlockOut,
    utilization: Vec<f64>,
    /// Resident-set growth per job over the first segment, KiB.
    rss_kb_per_job: Option<f64>,
}

/// One segment: set up, then [`SEGMENT_BLOCKS`] blocks, then drain.
fn segment(cfg: &RunCfg, tracer: Option<&Arc<Tracer>>, acc: &mut Acc, out: &mut Outcome) {
    let mut spans = tracer.map(Tracer::buf);
    let t0 = Instant::now();
    let (specs, solo, sched) = match setup(cfg.seed, &mut spans, &mut acc.solo_ms) {
        Ok(s) => s,
        Err(e) => {
            out.check(Err(e));
            out.attempted += 1;
            out.failed += 1;
            return;
        }
    };
    acc.setup_s.push(t0.elapsed().as_secs_f64());
    let rss0 = rss_kb();
    for _ in 0..SEGMENT_BLOCKS {
        let (w0, c0) = (Instant::now(), cpu_time());
        let id = spans.as_ref().map_or(0, SpanBuf::open);
        let b = block(&sched, &specs, &solo, tracer, id);
        let (w1, c1) = (Instant::now(), cpu_time());
        if let Some(s) = spans.as_mut() {
            s.close(id, "bench.sched_block", 0, w0, w1, JOBS as u32);
        }
        acc.wall.push((w1 - w0).as_secs_f64());
        acc.cpu.push((c1 - c0).as_secs_f64());
        out.attempted += JOBS as u64;
        out.failed += b.failed;
        for e in b.errors {
            out.check(Err(e));
        }
        let a = &mut acc.blocks;
        a.latency_ms.extend(b.latency_ms);
        a.submit_us.extend(b.submit_us);
        a.queue_ms.extend(b.queue_ms);
        a.run_ms.extend(b.run_ms);
    }
    let jobs = f64::from(SEGMENT_BLOCKS) * JOBS as f64;
    acc.rss_kb_per_job
        .get_or_insert(rss_kb().saturating_sub(rss0) as f64 / jobs);
    acc.utilization.push(sched.utilization());
    let stats = sched.drain();
    drop(sched);
    crate::sys::release_free_memory();
    if stats.slots_busy != 0 || stats.running != 0 || stats.queue_depth != 0 {
        out.check(Err(format!(
            "after drain the ledger holds {} busy slots, {} running, {} queued",
            stats.slots_busy, stats.running, stats.queue_depth
        )));
    }
    if stats.completed != stats.submitted {
        out.check(Err(format!(
            "{} of {} submitted jobs completed",
            stats.completed, stats.submitted
        )));
    }
}

/// Run the workload.
pub fn run(cfg: &RunCfg, tracer: Option<&Arc<Tracer>>) -> Outcome {
    let mut out = Outcome::default();
    let mut probe = cfg.probe.then(|| Probe::new(cfg.seed));
    let mut acc = Acc::default();
    let start = Instant::now();
    // Whole segments only, and at least two so that set-up has a median.
    while acc.setup_s.len() < 2 || start.elapsed() < cfg.seconds {
        segment(cfg, tracer, &mut acc, &mut out);
        maybe_catch_up(&mut probe, start);
        if out.failed > 0 {
            break;
        }
    }
    let e = &mut out.e2e;
    e.set("setup_s", median(&acc.setup_s), "s");
    e.set("wall_s", median(&acc.wall), "s");
    e.set("cpu_s", median(&acc.cpu), "s");
    let rates: Vec<f64> = acc.wall.iter().map(|w| JOBS as f64 / w).collect();
    e.set("ops_per_s", median(&rates), "1/s");
    e.set("op_p50_ms", median(&acc.blocks.latency_ms), "ms");
    if let Some(p) = probe {
        p.finish(&mut out);
    }
    out.e2e
        .set("max_rss_mb", max_rss_kb() as f64 / 1024.0, "MB");

    if tracer.is_some() {
        let l = &mut out.layer;
        l.set("sched.submit_us", median(&acc.blocks.submit_us), "us");
        l.set("sched.queue_ms", median(&acc.blocks.queue_ms), "ms");
        l.set("sched.run_ms", median(&acc.blocks.run_ms), "ms");
        l.set("sched.solo_ms", median(&acc.solo_ms), "ms");
        l.set("sched.utilization", median(&acc.utilization), "ratio");
        l.set(
            "sched.rss_kb_per_job",
            acc.rss_kb_per_job.unwrap_or(0.0),
            "KiB",
        );
    }
    out
}
