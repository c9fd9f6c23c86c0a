//! `sim_apps`: the simulator, single-threaded. Each block runs particles,
//! stencil and SpMV (Figures 9–11) in their dCUDA and MPI-CUDA variants
//! at two nodes (SpMV's square grid makes that four), plus one Figure 7
//! (Newton) and one Figure 8 (copy) overlap point. It loads des, device,
//! fabric, queues, mpi, core and apps, and never touches rt, net or sched.

use crate::checks::check_field;
use crate::metrics::Outcome;
use crate::rt_p2p::{maybe_catch_up, Probe};
use crate::stats::{mean, median};
use crate::sys::{cpu_time, max_rss_kb};
use crate::trace::{rec, SpanBuf, Tracer};
use crate::RunCfg;
use dcuda_apps::micro::overlap::{self, OverlapConfig, Workload};
use dcuda_apps::particles::{self, model, ParticleConfig, Particles};
use dcuda_apps::spmv::{self, csr, SpmvConfig};
use dcuda_apps::stencil::{self, numerics, StencilConfig};
use dcuda_core::SystemSpec;
use dcuda_des::{EventQueue, SimTime, SplitMix64};
use dcuda_queues::{IndexedMatcher, Notification, Query, ANY};
use std::sync::Arc;
use std::time::Instant;

/// Main-loop iterations of every mini-app run.
const APP_ITERS: u32 = 4;
/// Compute iterations per exchange of the two overlap points.
const OVERLAP_WORK: u32 = 64;
/// Halo exchanges of the two overlap points.
const OVERLAP_EXCHANGES: u32 = 10;

/// The eight operations of one block, in run order, named as their spans.
/// Even entries of the first six are the dCUDA variants.
const OPS: [&str; 8] = [
    "apps.particles.dcuda",
    "apps.particles.mpicuda",
    "apps.stencil.dcuda",
    "apps.stencil.mpicuda",
    "apps.spmv.dcuda",
    "apps.spmv.mpicuda",
    "apps.overlap.newton",
    "apps.overlap.copy",
];

/// The seeded inputs of one run.
struct Inputs {
    spec: SystemSpec,
    particles: ParticleConfig,
    stencil: StencilConfig,
    spmv: SpmvConfig,
    newton: OverlapConfig,
    copy: OverlapConfig,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let mut rng = SplitMix64::new(seed ^ 0x5133_A995);
        let mut particles = ParticleConfig::paper(2);
        particles.iters = APP_ITERS;
        particles.seed = rng.next_u64();
        let mut stencil = StencilConfig::paper(2);
        stencil.iters = APP_ITERS;
        let mut spmv = SpmvConfig::paper(2);
        spmv.iters = APP_ITERS;
        spmv.seed = rng.next_u64();
        let point = |w| {
            let mut c = OverlapConfig::paper(w, OVERLAP_WORK, OVERLAP_EXCHANGES);
            c.nodes = 2;
            c
        };
        Inputs {
            spec: SystemSpec::greina(),
            particles,
            stencil,
            spmv,
            newton: point(Workload::Newton),
            copy: point(Workload::Copy),
        }
    }
}

/// Serial references of the three mini-apps.
struct References {
    particles: Vec<f64>,
    stencil: Vec<f64>,
    spmv: Vec<f64>,
}

fn flatten(cells: &[Particles]) -> Vec<f64> {
    let mut v = Vec::new();
    for c in cells {
        v.push(c.len() as f64);
        for field in [&c.xs, &c.ys, &c.vxs, &c.vys] {
            v.extend_from_slice(field);
        }
    }
    v
}

/// One set-up: inputs, serial references and a warm-up of each variant
/// at test size. Returns the inputs, references and each reference's
/// host seconds.
fn setup(seed: u64, spans: &mut Option<SpanBuf>) -> (Inputs, References, [f64; 3]) {
    let inputs = Inputs::new(seed);
    let timed = |spans: &mut Option<SpanBuf>, name, f: &dyn Fn() -> Vec<f64>| {
        let t0 = Instant::now();
        let v = f();
        let t1 = Instant::now();
        rec(spans, name, 0, t0, t1, 1);
        (v, (t1 - t0).as_secs_f64())
    };
    let (p, p_s) = timed(spans, "apps.particles.serial", &|| {
        flatten(&model::serial_reference(&inputs.particles))
    });
    let (s, s_s) = timed(spans, "apps.stencil.serial", &|| {
        numerics::serial_reference(&inputs.stencil)
    });
    let (m, m_s) = timed(spans, "apps.spmv.serial", &|| {
        csr::serial_reference(&inputs.spmv)
    });
    // Warm-up: every variant once at test size, so first-touch costs do not
    // land in the first timed block.
    let spec = &inputs.spec;
    std::hint::black_box(particles::run_dcuda(spec, &ParticleConfig::tiny(2)));
    std::hint::black_box(particles::run_mpicuda(spec, &ParticleConfig::tiny(2)));
    std::hint::black_box(stencil::run_dcuda(spec, &StencilConfig::tiny(2)));
    std::hint::black_box(stencil::run_mpicuda(spec, &StencilConfig::tiny(2)));
    std::hint::black_box(spmv::run_dcuda(spec, &SpmvConfig::tiny(2)));
    std::hint::black_box(spmv::run_mpicuda(spec, &SpmvConfig::tiny(2)));
    let refs = References {
        particles: p,
        stencil: s,
        spmv: m,
    };
    (inputs, refs, [p_s, s_s, m_s])
}

/// Run operation `op` of a block; checks its output and returns its
/// modelled time in ms.
fn run_op(op: usize, inp: &Inputs, refs: &References, out: &mut Outcome) -> f64 {
    let spec = &inp.spec;
    let dcuda = op.is_multiple_of(2);
    let (got, want, time_ms) = match op {
        0 | 1 => {
            let run = if dcuda {
                particles::run_dcuda
            } else {
                particles::run_mpicuda
            };
            let (cells, r) = run(spec, &inp.particles);
            (flatten(&cells), &refs.particles, r.time_ms)
        }
        2 | 3 => {
            let run = if dcuda {
                stencil::run_dcuda
            } else {
                stencil::run_mpicuda
            };
            let (field, r) = run(spec, &inp.stencil);
            (field, &refs.stencil, r.time_ms)
        }
        4 | 5 => {
            let run = if dcuda {
                spmv::run_dcuda
            } else {
                spmv::run_mpicuda
            };
            let (y, r) = run(spec, &inp.spmv);
            (y, &refs.spmv, r.time_ms)
        }
        6 => return overlap::run(spec, &inp.newton),
        7 => return overlap::run(spec, &inp.copy),
        _ => unreachable!("a block has {} operations", OPS.len()),
    };
    out.check(check_field(&got, want, OPS[op]));
    time_ms
}

/// `EventQueue::schedule_at` + `pop` over one batch of seeded event times;
/// returns the batch size.
fn des_batch(rng: &mut SplitMix64) -> u32 {
    const N: u32 = 4096;
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..N {
        q.schedule_at(SimTime::from_ps(rng.next_below(1 << 30)), i);
    }
    let mut last = SimTime::ZERO;
    while let Some((t, _)) = q.pop() {
        assert!(t >= last, "event queue popped out of time order");
        last = t;
    }
    N
}

/// `IndexedMatcher` `insert` + `try_match` with a backlog shaped like a
/// 208-rank run: one parked straggler per rank of 8 nodes while each wait
/// consumes a batch of fresh arrivals. Returns the operations timed.
fn matcher_batch() -> u32 {
    const DEPTH: usize = 8 * 208;
    const ROUNDS: usize = 256;
    const BATCH: usize = 8;
    let mut m = IndexedMatcher::new();
    for i in 0..DEPTH {
        m.insert(Notification {
            win: 0,
            source: (i % 208) as u32,
            tag: 0,
        });
    }
    let q = Query {
        win: 0,
        source: ANY,
        tag: 1,
    };
    for round in 0..ROUNDS {
        for j in 0..BATCH {
            m.insert(Notification {
                win: 0,
                source: ((round * BATCH + j) % 208) as u32,
                tag: 1,
            });
        }
        let (got, _) = m.try_match(q, BATCH).expect("batch is buffered");
        assert_eq!(got.len(), BATCH, "matcher lost a notification");
    }
    assert_eq!(m.len(), DEPTH, "matcher lost its backlog");
    (ROUNDS * (BATCH + 1)) as u32
}

/// Traced per-block probes of des, queues and core.
fn layer_probes(
    inp: &Inputs,
    rng: &mut SplitMix64,
    spans: &mut Option<SpanBuf>,
    events: &mut Vec<(u64, f64)>,
) {
    let t0 = Instant::now();
    let n = des_batch(rng);
    rec(spans, "des.event", 0, t0, Instant::now(), n);
    let t0 = Instant::now();
    let n = matcher_batch();
    rec(spans, "queues.matcher", 0, t0, Instant::now(), n);
    let t0 = Instant::now();
    let (report, _) = overlap::run_traced(&inp.spec, &inp.newton, None);
    let t1 = Instant::now();
    rec(spans, "core.run_traced", 0, t0, t1, 1);
    events.push((report.events, (t1 - t0).as_secs_f64()));
}

/// Run the workload.
pub fn run(cfg: &RunCfg, tracer: Option<&Arc<Tracer>>) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = tracer.map(Tracer::buf);
    let mut setup_s = Vec::new();
    let mut serial_s = [Vec::new(), Vec::new(), Vec::new()];
    let mut kept = None;
    for _ in 0..cfg.setups.max(1) {
        let t0 = Instant::now();
        let (inputs, refs, ser) = setup(cfg.seed, &mut spans);
        setup_s.push(t0.elapsed().as_secs_f64());
        for (acc, s) in serial_s.iter_mut().zip(ser) {
            acc.push(s);
        }
        kept = Some((inputs, refs));
    }
    let (inputs, refs) = kept.expect("at least one setup");

    let mut host_s: Vec<Vec<f64>> = vec![Vec::new(); OPS.len()];
    let mut modelled: Vec<Option<f64>> = vec![None; OPS.len()];
    let (mut block_wall, mut block_cpu) = (Vec::new(), Vec::new());
    let mut rng = SplitMix64::new(cfg.seed);
    let mut events = Vec::new();
    let mut probe = cfg.probe.then(|| Probe::new(cfg.seed));
    let start = Instant::now();
    while start.elapsed() < cfg.seconds {
        let (w0, c0) = (Instant::now(), cpu_time());
        let block = spans.as_ref().map_or(0, SpanBuf::open);
        let mut times = [0.0; OPS.len()];
        for (op, t) in times.iter_mut().enumerate() {
            let t0 = Instant::now();
            *t = run_op(op, &inputs, &refs, &mut out);
            let t1 = Instant::now();
            rec(&mut spans, OPS[op], block, t0, t1, 1);
            host_s[op].push((t1 - t0).as_secs_f64());
            out.attempted += 1;
            // The simulator is deterministic: every block models the same time.
            match modelled[op] {
                None => modelled[op] = Some(*t),
                Some(m) if m.to_bits() != t.to_bits() => out.check(Err(format!(
                    "{}: modelled {t} ms, an earlier block modelled {m} ms",
                    OPS[op]
                ))),
                Some(_) => {}
            }
            if !(*t > 0.0 && t.is_finite()) {
                out.check(Err(format!("{}: modelled time {t} ms", OPS[op])));
            }
        }
        // The paper's property at two nodes: dCUDA's overlap beats
        // MPI-CUDA's phases for particles and stencil (SpMV is a known
        // fidelity gap and exempt).
        for (d, m, app) in [(0, 1, "particles"), (2, 3, "stencil")] {
            if times[d] >= times[m] {
                out.check(Err(format!(
                    "{app}: dCUDA modelled {} ms, not below MPI-CUDA's {} ms",
                    times[d], times[m]
                )));
            }
        }
        let (w1, c1) = (Instant::now(), cpu_time());
        if let Some(s) = spans.as_mut() {
            s.close(block, "bench.sim_block", 0, w0, w1, OPS.len() as u32);
        }
        block_wall.push((w1 - w0).as_secs_f64());
        block_cpu.push((c1 - c0).as_secs_f64());
        if spans.is_some() {
            layer_probes(&inputs, &mut rng, &mut spans, &mut events);
        }
        maybe_catch_up(&mut probe, start);
    }

    let e = &mut out.e2e;
    e.set("setup_s", median(&setup_s), "s");
    e.set("wall_s", median(&block_wall), "s");
    e.set("cpu_s", median(&block_cpu), "s");
    let rates: Vec<f64> = block_wall.iter().map(|w| OPS.len() as f64 / w).collect();
    e.set("ops_per_s", median(&rates), "1/s");
    let per_kind: Vec<f64> = host_s.iter().map(|v| median(v) * 1e3).collect();
    e.set("op_p50_ms", mean(&per_kind), "ms");
    if let Some(p) = probe {
        p.finish(&mut out);
    }
    out.e2e
        .set("max_rss_mb", max_rss_kb() as f64 / 1024.0, "MB");

    if let Some(t) = tracer {
        drop(spans.take());
        let all = t.spans();
        let l = &mut out.layer;
        for (op, name) in OPS.iter().enumerate() {
            l.set(&format!("{name}_s"), median(&host_s[op]), "s");
        }
        for (i, app) in ["particles", "stencil", "spmv"].iter().enumerate() {
            let serial = median(&serial_s[i]);
            l.set(&format!("apps.{app}.serial_s"), serial, "s");
            l.set(
                &format!("apps.{app}.sim_overhead"),
                median(&host_s[2 * i]) / serial,
                "ratio",
            );
        }
        l.set(
            "des.event_ns",
            median(&crate::trace::per_op_ns(&all, "des.event")),
            "ns",
        );
        l.set(
            "queues.matcher_ns",
            median(&crate::trace::per_op_ns(&all, "queues.matcher")),
            "ns",
        );
        let ev: Vec<f64> = events.iter().map(|(n, _)| *n as f64).collect();
        let rate: Vec<f64> = events.iter().map(|(n, s)| *n as f64 / s).collect();
        l.set("core.events", median(&ev), "count");
        l.set("core.events_per_s", median(&rate), "1/s");
    }
    out
}
