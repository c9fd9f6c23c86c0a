//! Launching threaded-runtime worlds on each transport plane, and timing
//! their launch and teardown from outside the runtime.

use dcuda_net::{MeshOpts, NetConfig, NetEndpoint, NetError, NetStats, PlaneKind, SocketPlane};
use dcuda_net::{Transport, WireMsg};
use dcuda_rt::cluster::RankProgram;
use dcuda_rt::{ClusterPart, RtConfig, RtError, RtReport};
use std::net::TcpListener;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// A transport plane of the threaded runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// Same-process channels (`try_run_cluster`).
    InProcess,
    /// A loopback TCP mesh between two `ClusterPart`s of this process.
    Tcp,
    /// The shared-memory plane between two `ClusterPart`s of this process.
    Shm,
}

impl Plane {
    /// The three planes, in the order the benchmark measures them.
    pub const ALL: [Plane; 3] = [Plane::InProcess, Plane::Tcp, Plane::Shm];

    /// Metric-name form.
    pub fn name(self) -> &'static str {
        match self {
            Plane::InProcess => "inprocess",
            Plane::Tcp => "tcp",
            Plane::Shm => "shm",
        }
    }
}

/// When the first rank program of a world started and the last one ended.
#[derive(Default)]
pub struct Times {
    entered: Mutex<Option<Instant>>,
    exited: Mutex<Option<Instant>>,
}

impl Times {
    /// Called first thing by every rank program.
    pub fn enter(&self) {
        let mut e = self.entered.lock().expect("times lock poisoned");
        e.get_or_insert_with(Instant::now);
    }

    /// Called last thing by every rank program.
    pub fn exit(&self) {
        let now = Instant::now();
        let mut x = self.exited.lock().expect("times lock poisoned");
        if x.is_none_or(|t| t < now) {
            *x = Some(now);
        }
    }

    /// `(first entry, last exit)`.
    pub fn get(&self) -> (Option<Instant>, Option<Instant>) {
        (
            *self.entered.lock().expect("times lock poisoned"),
            *self.exited.lock().expect("times lock poisoned"),
        )
    }
}

/// A world running on background threads.
pub struct Launched {
    handle: JoinHandle<Result<RtReport, RtError>>,
    /// When the `try_run_cluster*` call was made.
    pub called: Instant,
    /// `SocketPlane::establish` time for the socket planes, ms.
    pub mesh_ms: Option<f64>,
}

impl Launched {
    /// Wait for the world; returns its report and when the call returned.
    pub fn join(self) -> (Result<RtReport, RtError>, Instant) {
        let r = self.handle.join().expect("world thread panicked");
        let returned = Instant::now();
        crate::sys::release_free_memory();
        (r, returned)
    }
}

/// A socket endpoint that stays open until the whole world has returned.
///
/// A `ClusterPart` drops its endpoints as it returns. The part that
/// returns last can then read the other part's `Finished` frame and its
/// end-of-stream in one go, mark the peer gone before its host loop has
/// counted the frame, and fail the world with "peer process died before
/// quiescence" (see `CHANGES.md`). A multi-process launcher keeps its mesh
/// until the job ends; so does this wrapper, by handing the endpoint to a
/// holder the world drops after both parts returned.
struct Held {
    inner: Option<NetEndpoint>,
    holder: Arc<Mutex<Vec<NetEndpoint>>>,
}

impl Held {
    fn ep(&self) -> &NetEndpoint {
        self.inner.as_ref().expect("endpoint is held until drop")
    }

    fn ep_mut(&mut self) -> &mut NetEndpoint {
        self.inner.as_mut().expect("endpoint is held until drop")
    }
}

impl Transport for Held {
    fn send(&mut self, peer: u32, msg: WireMsg) -> Result<(), NetError> {
        self.ep_mut().send(peer, msg)
    }
    fn try_recv(&mut self) -> Result<Option<WireMsg>, NetError> {
        self.ep_mut().try_recv()
    }
    fn pump(&mut self) -> Result<bool, NetError> {
        self.ep_mut().pump()
    }
    fn idle(&self) -> bool {
        self.ep().idle()
    }
    fn remote_devices(&self) -> Vec<u32> {
        self.ep().remote_devices()
    }
    fn peer_gone(&self) -> Option<u32> {
        self.ep().peer_gone()
    }
    fn stats(&self) -> NetStats {
        self.ep().stats()
    }
    fn peer_planes(&self) -> Vec<(u32, PlaneKind)> {
        self.ep().peer_planes()
    }
    fn take_tracer(&mut self) -> dcuda_trace::Tracer {
        self.ep_mut().take_tracer()
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        if let Some(ep) = self.inner.take() {
            // Never panic in drop: a poisoned holder still takes it.
            match self.holder.lock() {
                Ok(mut h) => h.push(ep),
                Err(p) => p.into_inner().push(ep),
            }
        }
    }
}

fn mesh(shm_dir: Option<&Path>) -> Result<(NetEndpoint, NetEndpoint), String> {
    let bind = || TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"));
    let (l0, l1) = (bind()?, bind()?);
    let addr = |l: &TcpListener| l.local_addr().map(|a| a.to_string());
    let addrs = vec![
        addr(&l0).map_err(|e| e.to_string())?,
        addr(&l1).map_err(|e| e.to_string())?,
    ];
    let hosts = match shm_dir {
        Some(_) => vec!["perfbench".to_string(), "perfbench".to_string()],
        None => Vec::new(),
    };
    let opts = |my_proc, listener| MeshOpts {
        my_proc,
        procs: 2,
        devices_per_proc: 1,
        peer_addrs: addrs.clone(),
        peer_hosts: hosts.clone(),
        shm_dir: shm_dir.map(Path::to_path_buf),
        listener,
        config: NetConfig::default(),
    };
    let o1 = opts(1, l1);
    let partner = std::thread::spawn(move || SocketPlane::establish(o1));
    let e0 = SocketPlane::establish(opts(0, l0)).map_err(|e| format!("establish: {e}"));
    let e1 = partner
        .join()
        .expect("establish thread panicked")
        .map_err(|e| format!("establish: {e}"));
    let one = |v: Vec<NetEndpoint>| v.into_iter().next().ok_or("no endpoint");
    Ok((one(e0?)?, one(e1?)?))
}

/// Launch a world on `plane`. The socket planes split a two-device world
/// into two single-device `ClusterPart`s joined by a freshly established
/// mesh, as a two-process launch would; `programs` are in world rank
/// order.
pub fn launch(
    plane: Plane,
    cfg: &RtConfig,
    mut programs: Vec<RankProgram>,
    shm_dir: &Path,
) -> Result<Launched, String> {
    let cfg = cfg.clone();
    if plane == Plane::InProcess {
        let called = Instant::now();
        let handle = std::thread::spawn(move || dcuda_rt::try_run_cluster(&cfg, programs));
        return Ok(Launched {
            handle,
            called,
            mesh_ms: None,
        });
    }
    assert_eq!(cfg.devices, 2, "socket worlds are two single-device parts");
    if plane == Plane::Shm {
        std::fs::create_dir_all(shm_dir)
            .map_err(|e| format!("cannot create {}: {e}", shm_dir.display()))?;
    }
    let t0 = Instant::now();
    let (e0, e1) = mesh((plane == Plane::Shm).then_some(shm_dir))?;
    let mesh_ms = Some(t0.elapsed().as_secs_f64() * 1e3);
    let upper = programs.split_off(programs.len() / 2);
    let part = |first_device| ClusterPart {
        first_device,
        local_devices: 1,
    };
    let holder = Arc::new(Mutex::new(Vec::new()));
    let boxed = |e: NetEndpoint| {
        let held = Held {
            inner: Some(e),
            holder: Arc::clone(&holder),
        };
        vec![Box::new(held) as Box<dyn Transport>]
    };
    let (planes0, planes1) = (boxed(e0), boxed(e1));
    let called = Instant::now();
    let handle = std::thread::spawn(move || {
        let cfg1 = cfg.clone();
        let other = std::thread::spawn(move || {
            dcuda_rt::try_run_cluster_part(&cfg1, part(1), upper, planes1, false)
        });
        let r0 = dcuda_rt::try_run_cluster_part(&cfg, part(0), programs, planes0, false);
        let r1 = other.join().expect("cluster part thread panicked");
        // Both parts returned: now the sockets may close.
        drop(holder);
        let (mut a, _) = r0?;
        let (b, _) = r1?;
        a.puts += b.puts;
        a.notifications += b.notifications;
        a.matched += b.matched;
        a.net.absorb(b.net);
        Ok(a)
    });
    Ok(Launched {
        handle,
        called,
        mesh_ms,
    })
}
