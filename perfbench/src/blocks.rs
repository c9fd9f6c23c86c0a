//! The per-block continue/stop decision shared by the rank threads of one
//! world, kept outside the runtime.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// Rank 0 decides after each block whether the timed phase goes on; the
/// other ranks of the world follow that decision, so every rank runs the
/// same whole number of blocks (a collective needs every rank).
#[derive(Default)]
pub struct Blocks {
    decided: AtomicU32,
    last: AtomicBool,
}

impl Blocks {
    /// Rank 0: publish the decision taken after block `b`.
    pub fn decide(&self, b: u32, go_on: bool) {
        if !go_on {
            self.last.store(true, Ordering::Relaxed);
        }
        // Release pairs with the Acquire in `follow`, which publishes
        // `last` along with the count.
        self.decided.store(b + 1, Ordering::Release);
    }

    /// Other ranks: wait for the decision after block `b`.
    pub fn follow(&self, b: u32) -> bool {
        while self.decided.load(Ordering::Acquire) <= b {
            std::thread::yield_now();
        }
        !self.last.load(Ordering::Relaxed)
    }
}
