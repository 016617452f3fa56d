//! One server stack under test: generated data, a `TasterEngine`, a
//! `SessionService` and a `TcpServer` on loopback — everything a client
//! frame passes through, started the way `taster-server` starts it.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use taster_core::{CompactorHandle, TasterConfig, TasterEngine};
use taster_server::{Client, Response, ServiceConfig, SessionService, TcpServer, TenantBudgets};
use taster_storage::Catalog;
use taster_workloads::tpch::{self, TpchScale};

use crate::requests;

/// Partitions of `lineitem`; with 600k rows the table (≈ 52 MB) is about
/// twice the synopsis budget, so the tuner has to choose.
pub const PARTITIONS: usize = 8;
/// Share of the dataset size the synopsis warehouse may use.
pub const BUDGET_FRACTION: f64 = 0.5;
/// Jobs that may wait beyond the executing ones (`taster-server`'s default).
pub const MAX_QUEUE: usize = 16;
/// `compact_dead_fraction` for `mutate_mix`, so that its retention window
/// pushes sealed partitions over the threshold several times in one run.
pub const MUTATE_COMPACT_DEAD_FRACTION: f64 = 0.1;
/// Sweep interval of the background compactor in `mutate_mix`.
pub const COMPACTOR_INTERVAL: Duration = Duration::from_millis(100);

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Drift,
    SteadyReuse,
    ExactScan,
    MutateMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Drift,
        Workload::SteadyReuse,
        Workload::ExactScan,
        Workload::MutateMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Drift => "drift",
            Workload::SteadyReuse => "steady_reuse",
            Workload::ExactScan => "exact_scan",
            Workload::MutateMix => "mutate_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Concurrent reader connections (never more than `nproc`).
    pub fn readers(self) -> usize {
        match self {
            Workload::Drift | Workload::MutateMix => 1,
            Workload::SteadyReuse | Workload::ExactScan => 2.min(nproc()),
        }
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Data scale of every stack. The rows are the same on every `--seed` (see
/// [`requests::FIXED_SEED`]); the seed makes the requests and the appended
/// batches.
pub fn tpch_scale(lineitem_rows: usize) -> TpchScale {
    TpchScale {
        lineitem_rows,
        partitions: PARTITIONS,
        seed: requests::FIXED_SEED,
    }
}

/// A running stack. Dropping it stops the server, the service and the
/// compactor and removes the durable directory.
pub struct Stack {
    pub scale: TpchScale,
    pub catalog: Arc<Catalog>,
    pub engine: Arc<TasterEngine>,
    pub service: Arc<SessionService>,
    pub server: TcpServer,
    pub config: TasterConfig,
    compactor: Option<CompactorHandle>,
    /// Durable directory (`mutate_mix` only).
    pub dir: Option<PathBuf>,
}

impl Stack {
    /// Generate the data, start engine, service and server the way
    /// `workload` needs them, and warm up. `tag` names the durable directory
    /// under `out_dir` when the workload needs one.
    pub fn start(
        workload: Workload,
        lineitem_rows: usize,
        out_dir: &Path,
        tag: &str,
    ) -> Result<Self, String> {
        let scale = tpch_scale(lineitem_rows);
        let catalog = tpch::generate(scale);
        if workload == Workload::ExactScan {
            catalog
                .table("lineitem")
                .and_then(|t| t.create_index("l_orderkey"))
                .map_err(|e| format!("create index: {e}"))?;
        }
        let mut config =
            TasterConfig::with_budget_fraction(catalog.total_size_bytes(), BUDGET_FRACTION);
        let (engine, dir) = if workload == Workload::MutateMix {
            config.compact_dead_fraction = MUTATE_COMPACT_DEAD_FRACTION;
            let dir = out_dir.join(format!("durable-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
            let engine = TasterEngine::open_durable(catalog.clone(), config, &dir)
                .map_err(|e| format!("open durable engine: {e}"))?;
            (Arc::new(engine), Some(dir))
        } else {
            (Arc::new(TasterEngine::new(catalog.clone(), config)), None)
        };
        let service = SessionService::start(
            Arc::clone(&engine),
            ServiceConfig {
                workers: nproc(),
                max_queue: MAX_QUEUE,
                default_budgets: TenantBudgets::default(),
            },
        );
        let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0")
            .map_err(|e| format!("bind loopback: {e}"))?;
        let stack = Self {
            scale,
            catalog,
            engine,
            service,
            server,
            config,
            compactor: None,
            dir,
        };
        stack.warm_up(workload)?;
        Ok(stack)
    }

    /// Start the background compactor (`mutate_mix`'s timed phase only; the
    /// traced run compacts explicitly so that it can time the call).
    pub fn start_compactor(&mut self) {
        self.compactor = Some(self.engine.start_background_compactor(COMPACTOR_INTERVAL));
    }

    /// Stop the background compactor, if any, and wait for it.
    pub fn stop_compactor(&mut self) {
        self.compactor = None;
    }

    /// A new client connection to this stack's server.
    pub fn client(&self) -> Result<Client, String> {
        Client::connect(self.server.local_addr(), "bench").map_err(|e| format!("connect: {e}"))
    }

    /// Let caches fill and lazy set-up finish before timing, where users do
    /// not pay that cost on every run: `steady_reuse` and `mutate_mix`
    /// materialise the synopses their readers reuse, `exact_scan` runs each
    /// kind of statement once. `drift` starts cold on purpose — its
    /// subject is what the tuner builds and when.
    fn warm_up(&self, workload: Workload) -> Result<(), String> {
        let statements = match workload {
            Workload::Drift => return Ok(()),
            Workload::SteadyReuse | Workload::MutateMix => requests::reuse_requests(
                requests::FIXED_SEED,
                0,
                3 * requests::REUSE_TEMPLATES.len(),
            ),
            Workload::ExactScan => {
                // One statement of each kind.
                let mut rotation = requests::exact_requests(
                    requests::FIXED_SEED,
                    requests::EXACT_CYCLE,
                    &self.scale,
                );
                rotation.sort_by(|a, b| a.template_id.cmp(&b.template_id));
                rotation.dedup_by(|a, b| a.template_id == b.template_id);
                rotation
            }
        };
        let mut client = self.client()?;
        for q in &statements {
            match client.query(&q.sql, false) {
                Ok(Response::Reply(_)) => {}
                Ok(Response::Reject { kind, message }) => {
                    return Err(format!("warm-up rejected ({kind}): {message}: {}", q.sql))
                }
                Err(e) => return Err(format!("warm-up transport error: {e}")),
            }
        }
        Ok(())
    }

    /// Stop everything (`Drop` does) but keep the durable directory, and hand
    /// back what is needed to recover from it.
    pub fn shutdown(mut self) -> (TasterConfig, Option<PathBuf>) {
        (self.config, self.dir.take())
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        self.compactor = None;
        self.server.stop();
        self.service.shutdown();
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Total size of the files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
