//! The served stack: a `ServeDriver` over engines built from
//! `EngineSpec`, behind a `NetServer` bound on loopback.

use crate::workload::{Workload, DEADLINE};
use pdr_storage::CostModel;
use pdr_workload::{FaultPolicy, NetClient, NetServer, NetServerConfig, ServeDriver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A bound, not yet serving front-end and the time it took to build.
pub struct Built {
    server: NetServer,
    pub setup: Duration,
}

/// Builds the stack for `w`: `ServeDriver` construction (network, simulator,
/// engines), bootstrap bulk load, the journal's initial checkpoint and
/// the listening socket. The returned `setup` times all of it.
pub fn build(w: &Workload) -> Result<Built, String> {
    let start = Instant::now();
    let mut serving = ServeDriver::new(w.simulator(), CostModel::PAPER_DEFAULT);
    for (label, spec) in w.specs() {
        let engine = spec
            .try_build(0)
            .map_err(|e| format!("building engine {label}: {e}"))?;
        serving.add_engine(label, engine);
    }
    serving.bootstrap();
    if let Some(every) = w.journal_every() {
        serving.enable_journal(every);
    }
    let policy = FaultPolicy {
        deadline: Some(DEADLINE),
        ..FaultPolicy::default()
    };
    let server = NetServer::bind("127.0.0.1:0", serving, policy, NetServerConfig::default())
        .map_err(|e| format!("binding loopback: {e}"))?;
    Ok(Built {
        server,
        setup: start.elapsed(),
    })
}

/// A serving front-end on its own thread.
pub struct Stack {
    pub addr: String,
    serve: JoinHandle<String>,
}

impl Built {
    /// Starts serving on a background thread.
    pub fn start(self) -> Result<Stack, String> {
        let addr = self
            .server
            .local_addr()
            .map_err(|e| format!("reading bound address: {e}"))?
            .to_string();
        let server = self.server;
        let serve = std::thread::Builder::new()
            .name("perfbench-serve".into())
            .spawn(move || server.serve())
            .map_err(|e| format!("spawning the server thread: {e}"))?;
        Ok(Stack { addr, serve })
    }
}

impl Stack {
    /// Sends `shutdown`, waits for the server to drain and returns its
    /// summary line. Client connections must be closed first.
    pub fn stop(self) -> Result<String, String> {
        NetClient::connect(&self.addr)
            .and_then(|mut c| c.request("{\"op\":\"shutdown\"}"))
            .map_err(|e| format!("shutdown request: {e}"))?;
        self.serve
            .join()
            .map_err(|_| "server thread panicked".to_string())
    }
}
