//! `rt_p2p`: closed-loop put→notify round trips between two ranks on two
//! devices, on each plane: inprocess, then tcp and shm over an in-process
//! loopback mesh (two `ClusterPart`s). Round trips alternate a 64 B
//! payload (`small`) with a 16 KiB one (`large`, above `EAGER_MAX`, so the
//! socket planes take rendezvous). It is the latency-bound use of rt and
//! net.
//!
//! The timed phase is a sequence of rounds; a round launches a fresh world
//! on each plane in turn, warms it up and measures a fixed number of
//! blocks. Round trip latency drifts from one stretch of seconds to the
//! next on a shared machine, so spreading every plane's samples over the
//! whole run steadies its median; each round's launch is one set-up
//! sample. The other workloads run the same rounds between their own
//! blocks (the *probe*), for the `rtt_p50_us.*` metrics: a fixed share of
//! their timed phase, spread over the whole of it.

use crate::checks::{check_payload, fill_pattern};
use crate::metrics::Outcome;
use crate::stats::{mean, median};
use crate::sys::{cpu_time, max_rss_kb};
use crate::trace::{per_op_ns, rec, SpanBuf, Tracer};
use crate::world::{launch, Plane, Times};
use crate::RunCfg;
use dcuda_net::WireMsg;
use dcuda_rt::cluster::RankProgram;
use dcuda_rt::{Rank, RtConfig, RtQuery, RtReport, Tag, WindowId};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Small payload (eager on every plane).
pub const SMALL: usize = 64;
/// Large payload (rendezvous on the socket planes).
pub const LARGE: usize = 16 << 10;
/// Round trips per block (half small, half large). Blocks are short (about
/// 1.5 ms on tcp) so that the median block falls outside the stretches in
/// which the host runs other guests on this machine's cores; a long block
/// would average them in.
const BLOCK: u32 = 20;
/// Round trips of the warm-up pass that ends a set-up.
const WARMUP: u32 = 100;
/// Blocks per plane (inprocess, tcp, shm) of one round. A world's
/// latency stays near its own level (on tcp, world medians measured from
/// 50 to 93 µs within one run), so many short-lived worlds give a steadier
/// median than a few long ones.
const ROUND_BLOCKS: [u32; 3] = [20, 20, 20];
/// Share of another workload's timed phase that its probe takes. The
/// probe's worlds are what steadies its medians (see `ROUND_BLOCKS`), so
/// it gets a large share: at 30 s, about 60 rounds.
const PROBE_SHARE: f64 = 0.4;
/// Probe rounds a run makes at least, whatever its length.
const PROBE_MIN_ROUNDS: u64 = 20;
/// Rank window: two payload slots (small, large) then two echo slots.
const WIN: usize = 4 * LARGE;
const W: WindowId = WindowId(0);

const _: () = assert!(LARGE > dcuda_net::EAGER_MAX && SMALL < dcuda_net::EAGER_MAX);

/// State shared by the benchmark's main thread and the two rank programs
/// of one world.
struct Shared {
    seed: u64,
    blocks: u32,
    plane: Plane,
    tracer: Option<Arc<Tracer>>,
    times: Times,
    /// When rank 0 finished its warm-up.
    ready: Mutex<Option<Instant>>,
    samples: Mutex<Samples>,
    errors: Mutex<Vec<String>>,
}

impl Shared {
    fn fail(&self, e: String) {
        let mut errs = self.errors.lock().expect("errors lock poisoned");
        if errs.len() < 16 {
            errs.push(e);
        }
    }
}

/// Samples rank 0 collects.
#[derive(Default)]
struct Samples {
    small_us: Vec<f64>,
    large_us: Vec<f64>,
    block_wall: Vec<f64>,
    block_cpu: Vec<f64>,
}

fn slots(i: u32) -> (usize, usize, usize) {
    // Even round trips are small, odd ones large; each size has its own
    // slot, so a slot is rewritten only two messages later, after the
    // peer has consumed it.
    let (len, slot) = if i.is_multiple_of(2) {
        (SMALL, 0)
    } else {
        (LARGE, LARGE)
    };
    (len, slot, 2 * LARGE + slot)
}

fn span_names(plane: Plane) -> (&'static str, &'static str) {
    match plane {
        Plane::InProcess => ("rt.put_notify.inprocess", "rt.wait_notifications.inprocess"),
        Plane::Tcp => ("rt.put_notify.tcp", "rt.wait_notifications.tcp"),
        Plane::Shm => ("rt.put_notify.shm", "rt.wait_notifications.shm"),
    }
}

/// Rank 0: one timed round trip. Returns its length in µs.
fn round_trip(
    ctx: &mut dcuda_rt::RtCtx,
    sh: &Shared,
    i: u32,
    spans: &mut Option<SpanBuf>,
    parent: u32,
) -> f64 {
    let (len, slot, echo) = slots(i);
    fill_pattern(&mut ctx.win_mut(W)[slot..slot + len], sh.seed, u64::from(i));
    ctx.win_mut(W)[echo..echo + len].fill(0);
    let t0 = Instant::now();
    ctx.put_notify(W, Rank(1), slot, slot, len, Tag(i));
    let t1 = Instant::now();
    ctx.wait_notifications(RtQuery::exact(W, Rank(1), Tag(i)), 1);
    let t2 = Instant::now();
    let (put, wait) = span_names(sh.plane);
    rec(spans, put, parent, t0, t1, 1);
    rec(spans, wait, parent, t1, t2, 1);
    let echoed = &ctx.win(W)[echo..echo + len];
    if let Err(e) = check_payload(echoed, sh.seed, u64::from(i), "echo at rank 0") {
        sh.fail(e);
    }
    (t2 - t0).as_secs_f64() * 1e6
}

/// Rank 1: answer one round trip with the bytes it received.
fn echo(ctx: &mut dcuda_rt::RtCtx, sh: &Shared, i: u32) {
    let (len, slot, echo) = slots(i);
    ctx.wait_notifications(RtQuery::exact(W, Rank(0), Tag(i)), 1);
    ctx.put_notify(W, Rank(0), echo, slot, len, Tag(i));
    let got = &ctx.win(W)[slot..slot + len];
    if let Err(e) = check_payload(got, sh.seed, u64::from(i), "payload at rank 1") {
        sh.fail(e);
    }
}

fn origin(sh: Arc<Shared>) -> RankProgram {
    Box::new(move |ctx| {
        sh.times.enter();
        for i in 0..WARMUP {
            round_trip(ctx, &sh, i, &mut None, 0);
        }
        *sh.ready.lock().expect("ready lock poisoned") = Some(Instant::now());
        let mut spans = sh.tracer.as_ref().map(Tracer::buf);
        let mut s = Samples::default();
        let mut i = WARMUP;
        for _ in 0..sh.blocks {
            let (w0, c0) = (Instant::now(), cpu_time());
            let block = spans.as_ref().map_or(0, SpanBuf::open);
            for _ in 0..BLOCK {
                let us = round_trip(ctx, &sh, i, &mut spans, block);
                if i.is_multiple_of(2) {
                    s.small_us.push(us);
                } else {
                    s.large_us.push(us);
                }
                i += 1;
            }
            let (w1, c1) = (Instant::now(), cpu_time());
            if let Some(sp) = spans.as_mut() {
                sp.close(block, "bench.p2p_block", 0, w0, w1, BLOCK);
            }
            s.block_wall.push((w1 - w0).as_secs_f64());
            s.block_cpu.push((c1 - c0).as_secs_f64());
        }
        *sh.samples.lock().expect("samples lock poisoned") = s;
        drop(spans);
        sh.times.exit();
    })
}

fn responder(sh: Arc<Shared>) -> RankProgram {
    Box::new(move |ctx| {
        sh.times.enter();
        for i in 0..WARMUP + sh.blocks * BLOCK {
            echo(ctx, &sh, i);
        }
        sh.times.exit();
    })
}

fn config() -> RtConfig {
    RtConfig::builder()
        .devices(2)
        .ranks_per_device(1)
        .windows(vec![WIN])
        .build()
        .expect("valid p2p config")
}

/// A fresh directory for one world's shared-memory pair files.
fn shm_dir() -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    crate::out_dir().join(format!("shm-{}-{n}", std::process::id()))
}

/// Everything measured on one plane, over all rounds so far.
#[derive(Default)]
struct PlaneAcc {
    samples: Samples,
    setup_s: Vec<f64>,
    mesh_ms: Vec<f64>,
    launch_ms: Vec<f64>,
    teardown_ms: Vec<f64>,
    frames_sent: u64,
    round_trips: u64,
    failed: u64,
    errors: Vec<String>,
}

/// Launch, warm up and measure one world on `plane`; fold it into `acc`.
fn plane_run(
    plane: Plane,
    seed: u64,
    blocks: u32,
    tracer: Option<&Arc<Tracer>>,
    acc: &mut PlaneAcc,
) {
    let sh = Arc::new(Shared {
        seed,
        blocks,
        plane,
        tracer: tracer.cloned(),
        times: Times::default(),
        ready: Mutex::new(None),
        samples: Mutex::default(),
        errors: Mutex::default(),
    });
    let dir = shm_dir();
    let t0 = Instant::now();
    let programs = vec![origin(Arc::clone(&sh)), responder(Arc::clone(&sh))];
    let result = launch(plane, &config(), programs, &dir).map(|world| {
        acc.mesh_ms.extend(world.mesh_ms);
        let called = world.called;
        let (report, returned) = world.join();
        if let (Some(en), Some(ex)) = sh.times.get() {
            acc.launch_ms.push((en - called).as_secs_f64() * 1e3);
            acc.teardown_ms.push((returned - ex).as_secs_f64() * 1e3);
        }
        report
    });
    let _ = std::fs::remove_dir_all(&dir);
    acc.errors
        .extend(sh.errors.lock().expect("errors lock poisoned").drain(..));
    let report: RtReport = match result {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => {
            acc.errors
                .push(format!("{} world failed: {e}", plane.name()));
            acc.failed += 1;
            return;
        }
        Err(e) => {
            acc.errors.push(format!("{}: {e}", plane.name()));
            acc.failed += 1;
            return;
        }
    };
    if let Some(ready) = *sh.ready.lock().expect("ready lock poisoned") {
        acc.setup_s.push((ready - t0).as_secs_f64());
    }
    // Every put was notified and every notification matched.
    let expected = 2 * u64::from(WARMUP + blocks * BLOCK);
    if !(report.puts == expected && report.notifications == expected && report.matched == expected)
    {
        acc.errors.push(format!(
            "{}: puts {} / notifications {} / matched {}, expected {expected} each",
            plane.name(),
            report.puts,
            report.notifications,
            report.matched
        ));
    }
    acc.frames_sent += report.net.frames_sent;
    acc.round_trips += u64::from(WARMUP + blocks * BLOCK);
    let s = std::mem::take(&mut *sh.samples.lock().expect("samples lock poisoned"));
    let a = &mut acc.samples;
    a.small_us.extend(s.small_us);
    a.large_us.extend(s.large_us);
    a.block_wall.extend(s.block_wall);
    a.block_cpu.extend(s.block_cpu);
}

/// Rounds over the three planes, accumulated.
#[derive(Default)]
struct Rounds {
    planes: [PlaneAcc; 3],
    rounds: u64,
    /// Per round, the summed set-up seconds of its three worlds.
    setup_s: Vec<f64>,
}

impl Rounds {
    fn round(&mut self, seed: u64, blocks: [u32; 3], tracer: Option<&Arc<Tracer>>) {
        let round_seed = seed ^ self.rounds.wrapping_mul(0xA076_1D64_78BD_642F);
        let mut setup = 0.0;
        for (k, plane) in Plane::ALL.into_iter().enumerate() {
            let acc = &mut self.planes[k];
            let before = acc.setup_s.len();
            plane_run(plane, round_seed ^ k as u64, blocks[k], tracer, acc);
            setup += acc.setup_s[before..].iter().sum::<f64>();
        }
        self.setup_s.push(setup);
        self.rounds += 1;
    }

    /// Record errors and set the six `rtt_p50_us.<plane>.<size>` metrics.
    fn report(&self, out: &mut Outcome, what: &str) {
        for (k, plane) in Plane::ALL.into_iter().enumerate() {
            let p = &self.planes[k];
            for e in &p.errors {
                out.check(Err(format!("{what}: {e}")));
            }
            let n = plane.name();
            out.e2e.set(
                &format!("rtt_p50_us.{n}.small"),
                median(&p.samples.small_us),
                "us",
            );
            out.e2e.set(
                &format!("rtt_p50_us.{n}.large"),
                median(&p.samples.large_us),
                "us",
            );
        }
    }
}

/// The round-trip probe the other workloads run between their blocks.
pub struct Probe {
    seed: u64,
    rounds: Rounds,
    /// Time spent in probe rounds so far.
    spent: Duration,
}

impl Probe {
    /// A probe that has made no round yet.
    pub fn new(seed: u64) -> Probe {
        Probe {
            seed,
            rounds: Rounds::default(),
            spent: Duration::ZERO,
        }
    }

    fn round(&mut self) {
        let t0 = Instant::now();
        self.rounds.round(self.seed, ROUND_BLOCKS, None);
        self.spent += t0.elapsed();
    }

    /// Make rounds until the probe has had its share of the timed phase
    /// that began at `start`.
    pub fn catch_up(&mut self, start: Instant) {
        let due = PROBE_SHARE / (1.0 - PROBE_SHARE);
        while self.spent.as_secs_f64() < due * (start.elapsed() - self.spent).as_secs_f64() {
            self.round();
        }
    }

    /// Top up to the minimum number of rounds, then report.
    pub fn finish(mut self, out: &mut Outcome) {
        while self.rounds.rounds < PROBE_MIN_ROUNDS {
            self.round();
        }
        self.rounds.report(out, "rt probe");
    }
}

/// Let the probe, if the run has one, catch up with the timed phase that
/// began at `start`.
pub fn maybe_catch_up(probe: &mut Option<Probe>, start: Instant) {
    if let Some(p) = probe.as_mut() {
        p.catch_up(start);
    }
}

/// The share of a timed phase its workload keeps for itself when it runs
/// the probe.
pub fn own_share(probe: &Option<Probe>) -> f64 {
    if probe.is_some() {
        1.0 - PROBE_SHARE
    } else {
        1.0
    }
}

/// `WireMsg` encode and decode of one payload size.
fn codec_batch(len: usize, spans: &mut Option<SpanBuf>, names: (&'static str, &'static str)) {
    const N: u32 = 256;
    let msg = WireMsg::Deliver {
        dst_local: 0,
        win: 0,
        dst_off: 0,
        source: 1,
        tag: 7,
        notify: true,
        seq: 0,
        origin_device: 0,
        origin_local: 0,
        flush_id: 1,
        data: vec![0xA5; len],
    };
    let mut buf = Vec::with_capacity(len + 64);
    let t0 = Instant::now();
    for _ in 0..N {
        buf.clear();
        std::hint::black_box(&msg).encode_into(&mut buf);
    }
    let t1 = Instant::now();
    rec(spans, names.0, 0, t0, t1, N);
    for _ in 0..N {
        let m = WireMsg::decode(std::hint::black_box(&buf)).expect("own encoding decodes");
        std::hint::black_box(m);
    }
    rec(spans, names.1, 0, t1, Instant::now(), N);
}

/// `channel` send + receive: the queue under the in-process plane.
fn spsc_batch(spans: &mut Option<SpanBuf>) {
    const N: u32 = 4096;
    let (mut tx, mut rx) = dcuda_queues::channel::<u64>(256);
    let t0 = Instant::now();
    for i in 0..u64::from(N) {
        tx.try_send(i).expect("ring has room");
        let v = rx.try_recv().expect("value is there");
        assert_eq!(v, i, "spsc channel reordered");
    }
    rec(spans, "queues.spsc", 0, t0, Instant::now(), N);
}

/// Payload copies (send plus receive side) per put on a socket plane,
/// from a world that moves one payload size only.
fn copies_per_msg(plane: Plane, len: usize) -> Result<f64, String> {
    const N: u32 = 64;
    let mk = move |me: u32| -> RankProgram {
        Box::new(move |ctx| {
            let peer = Rank(1 - me);
            for i in 0..N {
                let q = RtQuery::exact(W, peer, Tag(i));
                if me == 0 {
                    ctx.put_notify(W, peer, 0, 0, len, Tag(i));
                    ctx.wait_notifications(q, 1);
                } else {
                    ctx.wait_notifications(q, 1);
                    ctx.put_notify(W, peer, 2 * LARGE, 0, len, Tag(i));
                }
            }
        })
    };
    let dir = shm_dir();
    let world = launch(plane, &config(), vec![mk(0), mk(1)], &dir);
    let report = world.map(|w| w.join().0);
    let _ = std::fs::remove_dir_all(&dir);
    let r = report?.map_err(|e| e.to_string())?;
    Ok((r.net.copies_tx + r.net.copies_rx) as f64 / r.puts as f64)
}

/// Run the workload.
pub fn run(cfg: &RunCfg, tracer: Option<&Arc<Tracer>>) -> Outcome {
    let mut out = Outcome::default();
    let mut rounds = Rounds::default();
    let start = Instant::now();
    // Whole rounds only, and at least two so that set-up has a median.
    while rounds.rounds < 2 || start.elapsed() < cfg.seconds {
        rounds.round(cfg.seed, ROUND_BLOCKS, tracer);
    }
    for p in &rounds.planes {
        out.attempted += p.round_trips;
        out.failed += p.failed;
    }
    rounds.report(&mut out, "rt_p2p");
    // A virtual block is one block on each plane.
    let planes = &rounds.planes;
    let sum_of = |f: &dyn Fn(&PlaneAcc) -> f64| planes.iter().map(f).sum::<f64>();
    let wall = sum_of(&|p| median(&p.samples.block_wall));
    let e = &mut out.e2e;
    e.set("setup_s", median(&rounds.setup_s), "s");
    e.set("wall_s", wall, "s");
    e.set("cpu_s", sum_of(&|p| median(&p.samples.block_cpu)), "s");
    e.set(
        "ops_per_s",
        f64::from(BLOCK) * planes.len() as f64 / wall,
        "1/s",
    );
    let class_ms: Vec<f64> = planes
        .iter()
        .flat_map(|p| [median(&p.samples.small_us), median(&p.samples.large_us)])
        .map(|us| us * 1e-3)
        .collect();
    e.set("op_p50_ms", mean(&class_ms), "ms");
    e.set("max_rss_mb", max_rss_kb() as f64 / 1024.0, "MB");

    if let Some(t) = tracer {
        let mut spans = Some(t.buf());
        for _ in 0..64 {
            codec_batch(SMALL, &mut spans, ("net.encode.small", "net.decode.small"));
            codec_batch(LARGE, &mut spans, ("net.encode.large", "net.decode.large"));
            spsc_batch(&mut spans);
        }
        drop(spans);
        let all = t.spans();
        let l = &mut out.layer;
        for (k, plane) in Plane::ALL.into_iter().enumerate() {
            let (n, p) = (plane.name(), &planes[k]);
            let (put, wait) = span_names(plane);
            l.set(
                &format!("rt.put_us.{n}"),
                median(&per_op_ns(&all, put)) * 1e-3,
                "us",
            );
            l.set(
                &format!("rt.wait_us.{n}"),
                median(&per_op_ns(&all, wait)) * 1e-3,
                "us",
            );
            if plane == Plane::InProcess {
                continue;
            }
            l.set(&format!("net.mesh_ms.{n}"), median(&p.mesh_ms), "ms");
            let frames = p.frames_sent as f64 / p.round_trips as f64;
            l.set(&format!("net.frames_per_rtt.{n}"), frames, "count");
            for (size, len) in [("small", SMALL), ("large", LARGE)] {
                match copies_per_msg(plane, len) {
                    Ok(c) => l.set(&format!("net.copies_per_msg.{n}.{size}"), c, "count"),
                    Err(e) => out.errors.push(format!("copy count on {n}: {e}")),
                }
            }
        }
        let pooled = |f: &dyn Fn(&PlaneAcc) -> &Vec<f64>| -> Vec<f64> {
            planes.iter().flat_map(|p| f(p).iter().copied()).collect()
        };
        l.set("rt.launch_ms", median(&pooled(&|p| &p.launch_ms)), "ms");
        l.set("rt.teardown_ms", median(&pooled(&|p| &p.teardown_ms)), "ms");
        for (metric, span) in [
            ("net.encode_ns.small", "net.encode.small"),
            ("net.encode_ns.large", "net.encode.large"),
            ("net.decode_ns.small", "net.decode.small"),
            ("net.decode_ns.large", "net.decode.large"),
            ("queues.spsc_ns", "queues.spsc"),
        ] {
            l.set(metric, median(&per_op_ns(&all, span)), "ns");
        }
    }
    out
}
