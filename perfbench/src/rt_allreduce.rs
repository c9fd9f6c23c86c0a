//! `rt_allreduce`: a chunked ring allreduce of 64 KiB of `u64` in 2 KiB
//! chunks on 4 devices × 13 ranks — 52 rank threads on however few cores
//! the machine has. This is the paper's over-decomposition: most ranks
//! wait at any instant, so waiting cost and the coll pipeline show here.
//!
//! The timed phase is split over ten worlds (segments), each launched and
//! warmed up afresh; each launch is one set-up sample, and the round-trip
//! probe runs between segments, when no rank thread spins.

use crate::blocks::Blocks;
use crate::checks::{allreduce_input, allreduce_reference, check_allreduce};
use crate::metrics::Outcome;
use crate::rt_p2p::{maybe_catch_up, own_share, Probe};
use crate::stats::median;
use crate::sys::{cpu_time, max_rss_kb};
use crate::trace::{per_op_ns, rec, Tracer};
use crate::world::{launch, Plane, Times};
use crate::RunCfg;
use dcuda_coll::{reduce_into, Dtype, ReduceOp};
use dcuda_rt::cluster::RankProgram;
use dcuda_rt::{
    allreduce_scratch_bytes, CollAlgo, CollCtx, CollPlan, CollStats, RtConfig, WindowId,
};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const DEVICES: u32 = 4;
const RANKS_PER_DEVICE: u32 = 13;
const WORLD: u32 = DEVICES * RANKS_PER_DEVICE;
/// Reduction buffer per rank.
const LEN: usize = 64 << 10;
/// Pipeline chunk.
const CHUNK: usize = 2 << 10;
/// Allreduce calls per block: few, so that the median block falls outside
/// the stretches in which the host runs other guests on this machine's
/// cores.
const CALLS: u32 = 4;
/// Calls of the warm-up pass that ends a set-up.
const WARMUP: u32 = 16;
/// Distinct seeded input sets the calls cycle through.
const SETS: u64 = 8;
const W: WindowId = WindowId(0);

/// State shared by the benchmark's main thread and every rank program of
/// one world.
struct Shared {
    seed: u64,
    /// Timed length of this world, counted from the end of its warm-up.
    seconds: Duration,
    refs: Vec<Vec<u8>>,
    blocks: Blocks,
    times: Times,
    tracer: Option<Arc<Tracer>>,
    /// When rank 0 finished its warm-up.
    ready: Mutex<Option<Instant>>,
    /// Rank 0's per-call ms, block wall s and block CPU s.
    rank0: Mutex<(Vec<f64>, Vec<f64>, Vec<f64>)>,
    /// Per rank, the instant each timed call returned.
    returns: Mutex<Vec<Vec<Instant>>>,
    errors: Mutex<Vec<String>>,
}

fn config() -> RtConfig {
    RtConfig::builder()
        .devices(DEVICES)
        .ranks_per_device(RANKS_PER_DEVICE)
        .windows(vec![LEN])
        .coll_scratch(allreduce_scratch_bytes(CollAlgo::Ring, LEN, 8, WORLD))
        .build()
        .expect("valid allreduce config")
}

fn plan() -> CollPlan {
    CollPlan::builder()
        .algo(CollAlgo::Ring)
        .chunk_bytes(CHUNK)
        .op(ReduceOp::Sum)
        .dtype(Dtype::U64)
        .build()
        .expect("valid coll plan")
}

/// One call: fill this rank's input set, allreduce it, check the result
/// against the benchmark's own wrapping sum. Returns (start, end).
fn call(
    ctx: &mut dcuda_rt::RtCtx,
    sh: &Shared,
    plan: &CollPlan,
    r: u32,
    c: u64,
) -> (Instant, Instant) {
    let set = c % SETS;
    allreduce_input(ctx.win_mut(W), sh.seed, set, r);
    let t0 = Instant::now();
    ctx.allreduce(W, 0, LEN, plan);
    let t1 = Instant::now();
    let what = format!("rank {r} call {c}");
    if let Err(e) = check_allreduce(ctx.win(W), &sh.refs[set as usize], &what) {
        let mut errs = sh.errors.lock().expect("errors lock poisoned");
        if errs.len() < 16 {
            errs.push(e);
        }
    }
    (t0, t1)
}

fn program(sh: Arc<Shared>, r: u32) -> RankProgram {
    Box::new(move |ctx| {
        sh.times.enter();
        let plan = plan();
        let mut c = 0u64;
        for _ in 0..WARMUP {
            call(ctx, &sh, &plan, r, c);
            c += 1;
        }
        let start = Instant::now();
        if r == 0 {
            *sh.ready.lock().expect("lock poisoned") = Some(start);
        }
        let mut spans = sh.tracer.as_ref().map(Tracer::buf);
        let mut returns = Vec::new();
        let (mut per_call, mut wall, mut cpu) = (Vec::new(), Vec::new(), Vec::new());
        for b in 0.. {
            let (w0, c0) = (Instant::now(), cpu_time());
            let block = match (r, spans.as_ref()) {
                (0, Some(s)) => s.open(),
                _ => 0,
            };
            for _ in 0..CALLS {
                let (t0, t1) = call(ctx, &sh, &plan, r, c);
                c += 1;
                rec(&mut spans, "coll.allreduce", block, t0, t1, 1);
                returns.push(t1);
                per_call.push((t1 - t0).as_secs_f64() * 1e3);
            }
            let go_on = if r == 0 {
                let (w1, c1) = (Instant::now(), cpu_time());
                if let Some(sp) = spans.as_mut() {
                    sp.close(block, "bench.allreduce_block", 0, w0, w1, CALLS);
                }
                wall.push((w1 - w0).as_secs_f64());
                cpu.push((c1 - c0).as_secs_f64());
                let go_on = start.elapsed() < sh.seconds;
                sh.blocks.decide(b, go_on);
                go_on
            } else {
                sh.blocks.follow(b)
            };
            if !go_on {
                break;
            }
        }
        if r == 0 {
            *sh.rank0.lock().expect("lock poisoned") = (per_call, wall, cpu);
        }
        sh.returns.lock().expect("lock poisoned")[r as usize] = returns;
        drop(spans);
        sh.times.exit();
    })
}

/// Everything measured over the segments of one run.
#[derive(Default)]
struct Acc {
    setup_s: Vec<f64>,
    launch_ms: Vec<f64>,
    teardown_ms: Vec<f64>,
    per_call: Vec<f64>,
    wall: Vec<f64>,
    cpu: Vec<f64>,
    spread_ms: Vec<f64>,
    coll: CollStats,
    calls: u64,
}

/// Set up, warm up and measure one world for `seconds`.
fn segment(
    cfg: &RunCfg,
    seconds: Duration,
    tracer: Option<&Arc<Tracer>>,
    acc: &mut Acc,
    out: &mut Outcome,
) {
    let t0 = Instant::now();
    let refs = (0..SETS)
        .map(|set| allreduce_reference(LEN, cfg.seed, set, WORLD))
        .collect();
    let sh = Arc::new(Shared {
        seed: cfg.seed,
        seconds,
        refs,
        blocks: Blocks::default(),
        times: Times::default(),
        tracer: tracer.cloned(),
        ready: Mutex::new(None),
        rank0: Mutex::default(),
        returns: Mutex::new(vec![Vec::new(); WORLD as usize]),
        errors: Mutex::default(),
    });
    let programs = (0..WORLD).map(|r| program(Arc::clone(&sh), r)).collect();
    let world = launch(Plane::InProcess, &config(), programs, &crate::out_dir())
        .expect("the in-process plane has no set-up that can fail");
    let called = world.called;
    let (report, returned) = world.join();
    if let (Some(en), Some(ex)) = sh.times.get() {
        acc.launch_ms.push((en - called).as_secs_f64() * 1e3);
        acc.teardown_ms.push((returned - ex).as_secs_f64() * 1e3);
    }
    if let Some(ready) = *sh.ready.lock().expect("lock poisoned") {
        acc.setup_s.push((ready - t0).as_secs_f64());
    }
    for e in sh.errors.lock().expect("lock poisoned").drain(..) {
        out.check(Err(e));
    }
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            out.check(Err(format!("allreduce world failed: {e}")));
            out.attempted += 1;
            out.failed += 1;
            return;
        }
    };
    let (per_call, wall, cpu) = std::mem::take(&mut *sh.rank0.lock().expect("lock poisoned"));
    let calls = per_call.len();
    acc.calls += calls as u64;
    acc.per_call.extend(per_call);
    acc.wall.extend(wall);
    acc.cpu.extend(cpu);
    let c = report.coll;
    acc.coll.puts += c.puts;
    acc.coll.bytes += c.bytes;
    acc.coll.hidden_waits += c.hidden_waits;
    acc.coll.blocked_waits += c.blocked_waits;
    let returns = sh.returns.lock().expect("lock poisoned");
    acc.spread_ms.extend((0..calls).filter_map(|i| {
        let ts = returns.iter().filter_map(|v| v.get(i));
        let (lo, hi) = (ts.clone().min()?, ts.max()?);
        Some((*hi - *lo).as_secs_f64() * 1e3)
    }));
}

/// Run the workload.
pub fn run(cfg: &RunCfg, tracer: Option<&Arc<Tracer>>) -> Outcome {
    let mut out = Outcome::default();
    let mut probe = cfg.probe.then(|| Probe::new(cfg.seed));
    let mut acc = Acc::default();
    // Two segments per requested set-up: the untraced run makes ten
    // set-up samples, and its probe as many visits between them.
    let segments = 2 * cfg.setups.max(1) as u32;
    let seconds = cfg.seconds.mul_f64(own_share(&probe)) / segments;
    let start = Instant::now();
    for _ in 0..segments {
        segment(cfg, seconds, tracer, &mut acc, &mut out);
        maybe_catch_up(&mut probe, start);
    }
    out.attempted += acc.calls;
    let e = &mut out.e2e;
    e.set("setup_s", median(&acc.setup_s), "s");
    e.set("wall_s", median(&acc.wall), "s");
    e.set("cpu_s", median(&acc.cpu), "s");
    let rates: Vec<f64> = acc.wall.iter().map(|w| f64::from(CALLS) / w).collect();
    e.set("ops_per_s", median(&rates), "1/s");
    e.set("op_p50_ms", median(&acc.per_call), "ms");
    if let Some(p) = probe {
        p.finish(&mut out);
    }
    out.e2e
        .set("max_rss_mb", max_rss_kb() as f64 / 1024.0, "MB");

    if let Some(t) = tracer {
        let mut spans = Some(t.buf());
        let (mut sum, mut src) = (vec![0u8; LEN], vec![0u8; LEN]);
        allreduce_input(&mut sum, cfg.seed, 0, 0);
        allreduce_input(&mut src, cfg.seed, 0, 1);
        for _ in 0..256 {
            let t0 = Instant::now();
            reduce_into(&mut sum, &src, ReduceOp::Sum, Dtype::U64).expect("aligned buffers");
            rec(
                &mut spans,
                "coll.reduce_into",
                0,
                t0,
                Instant::now(),
                LEN as u32,
            );
        }
        std::hint::black_box(&sum);
        drop(spans);
        let all = t.spans();
        let total_calls = (acc.calls + u64::from(WARMUP * segments)) as f64;
        let l = &mut out.layer;
        l.set("coll.call_spread_ms", median(&acc.spread_ms), "ms");
        l.set(
            "coll.hidden_fraction",
            acc.coll.hidden_fraction().unwrap_or(0.0),
            "ratio",
        );
        // Per-op ns per byte -> GB/s.
        l.set(
            "coll.reduce_gbps",
            1.0 / median(&per_op_ns(&all, "coll.reduce_into")),
            "GB/s",
        );
        l.set(
            "coll.puts_per_call",
            acc.coll.puts as f64 / total_calls,
            "count",
        );
        l.set(
            "coll.bytes_per_call",
            acc.coll.bytes as f64 / total_calls,
            "count",
        );
        l.set(
            "rt.cpu_ms_per_call",
            median(&acc.cpu) / f64::from(CALLS) * 1e3,
            "ms",
        );
        l.set("rt.launch_ms", median(&acc.launch_ms), "ms");
        l.set("rt.teardown_ms", median(&acc.teardown_ms), "ms");
    }
    out
}
