//! The traced run's only instrument: a [`Service`] wrapper that stamps
//! entry and exit around the real service's `call` on the generator's
//! clock. In a traced phase the request's `session` field carries the
//! benchmark's sequence number, so these stamps join the generator's
//! per-request record without touching the program.

use feral_server::{Request, Response, Service};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub struct Stamps {
    pub entry: Vec<AtomicU64>,
    pub exit: Vec<AtomicU64>,
}

impl Stamps {
    pub fn new(n: usize) -> Stamps {
        Stamps {
            entry: (0..n).map(|_| AtomicU64::new(crate::gen::NEVER)).collect(),
            exit: (0..n).map(|_| AtomicU64::new(crate::gen::NEVER)).collect(),
        }
    }

    /// `(entry, exit)` of request `i`; read after the server's threads
    /// are joined, which orders every executor's stores before it.
    pub fn get(&self, i: usize) -> (u64, u64) {
        (
            self.entry[i].load(Ordering::Relaxed),
            self.exit[i].load(Ordering::Relaxed),
        )
    }
}

pub struct Traced {
    pub inner: Arc<dyn Service>,
    pub stamps: Arc<Stamps>,
    pub epoch: Instant,
}

impl Service for Traced {
    fn call(&self, request: Request) -> Response {
        let seq = request.session as usize;
        let entry = self.epoch.elapsed().as_nanos() as u64;
        let response = self.inner.call(request);
        let exit = self.epoch.elapsed().as_nanos() as u64;
        if seq < self.stamps.entry.len() {
            self.stamps.entry[seq].store(entry, Ordering::Relaxed);
            self.stamps.exit[seq].store(exit, Ordering::Relaxed);
        }
        response
    }
}
