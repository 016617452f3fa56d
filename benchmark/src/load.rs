//! The untraced run: set-up, the timed phase of one workload driven over
//! loopback TCP, answer verification, and the end-to-end metrics.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use taster_baselines::BaselineEngine;
use taster_core::TasterEngine;
use taster_server::{Client, QueryReply, Response};
use taster_storage::{Catalog, Table, TableSnapshot};
use taster_workloads::tpch::{self, TpchScale};
use taster_workloads::QueryInstance;

use crate::metrics::{median, percentile, Metrics};
use crate::requests::{self, Epoch, WriteOp};
use crate::stack::{dir_bytes, Stack, Workload};
use crate::verify::{check_replies, Verdict};

/// A request slower than this counts as failed.
pub const SLOW_REQUEST: Duration = Duration::from_secs(5);
/// The ingest stream of `mutate_mix` issues one operation per slot.
pub const SLOT: Duration = Duration::from_millis(200);
/// Times set-up is repeated in one run; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// How much work one run does. Request counts are fixed per `--seconds`
/// from rates calibrated once on the reference host (2 cores, see README),
/// never a deadline inside the run: both sides of a comparison do identical
/// work, and the serial workloads repeat their counters exactly.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    pub lineitem_rows: usize,
    pub steady_per_client: usize,
    pub exact_per_client: usize,
    pub drift_per_epoch: usize,
    pub mutate_slots: usize,
    /// Replies whose answers are checked against the baseline: a multiple
    /// of 8, the number of `drift` epochs and of `exact_scan` statements.
    pub verify_replies: usize,
    /// `mutate_mix` is checked in a serial interleaving of this many slots
    /// of its ingest stream with this many checked reads after each.
    pub check_slots: usize,
    pub check_reads_per_slot: usize,
    /// Whether the workload-shape invariants are enforced: the full scale
    /// is sized so that they hold, the smoke scale is too small for some.
    pub enforce_shape: bool,
    /// The traced run's fraction of each request list: `steady_reuse`
    /// requests, replies checked against the baseline, `exact_scan`
    /// statements, `drift` queries per epoch, `mutate_mix` slots with this
    /// many reads after each, and slots of `mutate_mix`'s real shape
    /// (scheduled writer beside the reader).
    pub traced_requests: usize,
    pub traced_verify: usize,
    pub traced_exact: usize,
    pub traced_drift_per_epoch: usize,
    pub traced_mutate_slots: usize,
    pub traced_reads_per_slot: usize,
    pub traced_shape_slots: usize,
}

impl Sizing {
    pub fn full(seconds: f64) -> Self {
        Self {
            lineitem_rows: 600_000,
            steady_per_client: (230.0 * seconds) as usize,
            exact_per_client: ((4.0 * seconds) as usize).next_multiple_of(requests::EXACT_CYCLE),
            drift_per_epoch: (5.9 * seconds) as usize,
            mutate_slots: (seconds / SLOT.as_secs_f64()) as usize,
            verify_replies: 48,
            check_slots: 25,
            check_reads_per_slot: 2,
            enforce_shape: true,
            traced_requests: 320,
            traced_verify: 8,
            traced_exact: 2 * requests::EXACT_CYCLE,
            traced_drift_per_epoch: 8,
            traced_mutate_slots: 60,
            traced_reads_per_slot: 2,
            traced_shape_slots: 30,
        }
    }

    /// Everything small: the benchmark's own CI.
    pub fn smoke() -> Self {
        Self {
            lineitem_rows: 60_000,
            steady_per_client: 40,
            exact_per_client: 2 * requests::EXACT_CYCLE,
            drift_per_epoch: 4,
            mutate_slots: 15,
            verify_replies: 8,
            check_slots: 10,
            check_reads_per_slot: 1,
            enforce_shape: false,
            traced_requests: 24,
            traced_verify: 4,
            traced_exact: requests::EXACT_CYCLE,
            traced_drift_per_epoch: 3,
            traced_mutate_slots: 15,
            traced_reads_per_slot: 2,
            traced_shape_slots: 5,
        }
    }
}

/// What one run produced.
pub struct Outcome {
    pub metrics: Metrics,
    /// Further numbers worth a line in the report but not part of the
    /// contract: `(name, value, unit)`.
    pub notes: Vec<(String, f64, &'static str)>,
    pub attempted: usize,
    pub failed: usize,
}

/// What one reader connection saw.
#[derive(Default)]
pub struct ReaderLog {
    pub latency_ms: Vec<f64>,
    /// Time the generator itself spent between a reply and the next request.
    pub gap_ms: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    pub approximate: usize,
    pub reused: usize,
    /// Replies kept for verification, by request index.
    pub kept: Vec<(usize, QueryReply)>,
    /// The successful latencies again, by template.
    pub by_template: BTreeMap<String, Vec<f64>>,
    last_reply: Option<Instant>,
}

impl ReaderLog {
    fn merge(&mut self, other: ReaderLog) {
        self.latency_ms.extend(other.latency_ms);
        self.gap_ms.extend(other.gap_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.approximate += other.approximate;
        self.reused += other.reused;
        self.kept.extend(other.kept);
        for (template, latencies) in other.by_template {
            self.by_template
                .entry(template)
                .or_default()
                .extend(latencies);
        }
    }
}

/// Closed loop: send `requests[i]`, wait for the reply, send the next.
/// `offset` is the index of `requests[0]` in the whole request list, `keep`
/// the (sorted) indices whose replies are kept, `stop` ends the loop early.
pub fn read_loop(
    client: &mut Client,
    requests: &[QueryInstance],
    offset: usize,
    keep: &[usize],
    stop: Option<&AtomicBool>,
    log: &mut ReaderLog,
) {
    for (i, q) in requests.iter().enumerate() {
        if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
            break;
        }
        let sent = Instant::now();
        if let Some(prev) = log.last_reply {
            log.gap_ms.push((sent - prev).as_secs_f64() * 1e3);
        }
        let response = client.query(&q.sql, false);
        let done = Instant::now();
        log.last_reply = Some(done);
        log.attempted += 1;
        match response {
            Ok(Response::Reply(reply)) if done - sent <= SLOW_REQUEST => {
                let ms = (done - sent).as_secs_f64() * 1e3;
                log.latency_ms.push(ms);
                match log.by_template.get_mut(&q.template_id) {
                    Some(latencies) => latencies.push(ms),
                    None => {
                        log.by_template.insert(q.template_id.clone(), vec![ms]);
                    }
                }
                log.approximate += usize::from(reply.approximate);
                log.reused += usize::from(reply.plan.starts_with("reuse"));
                if keep.binary_search(&(offset + i)).is_ok() {
                    log.kept.push((offset + i, reply));
                }
            }
            Ok(Response::Reply(_)) => {
                log.failed += 1;
                eprintln!("SLOW ({:?}): {}", done - sent, q.sql);
            }
            Ok(Response::Reject { kind, message }) => {
                log.failed += 1;
                eprintln!("REJECTED ({kind}): {message}: {}", q.sql);
            }
            Err(e) => {
                log.failed += 1;
                eprintln!("TRANSPORT ERROR: {e}: {}", q.sql);
            }
        }
    }
}

/// What the ingest stream saw.
#[derive(Default)]
pub struct WriterLog {
    pub append_ms: Vec<f64>,
    pub mutation_ms: Vec<f64>,
    /// How late each operation started after its due time.
    pub late_ms: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    pub rows_appended: usize,
    pub rows_deleted: usize,
    pub bytes_appended: usize,
    /// Sweeps of the background compactor that rewrote something, as seen
    /// between two operations, and what they rewrote.
    pub compactions_seen: usize,
    pub rows_rewritten: usize,
    pub rows_dropped: usize,
}

impl WriterLog {
    /// Whether the stream kept its schedule. The appends queued behind a
    /// mutation start late by what the mutation took beyond its slot — at
    /// seed an `UPDATE` takes 400–700 ms, so `late_p95_ms` lies on either
    /// side of one slot from run to run — and catch up within two slots; a
    /// backlog that grows makes every operation late, which the median shows.
    pub fn kept_schedule(&mut self) -> bool {
        median(&mut self.late_ms) < SLOT.as_secs_f64() * 1e3
    }
}

/// Sealed partitions are immutable: one that is a different allocation in a
/// later snapshot was rewritten by compaction (appends and in-place deletes
/// only ever replace the last partition). Returns `(rewritten, dropped)`
/// rows between the two snapshots.
pub fn rows_compacted(before: &TableSnapshot, after: &TableSnapshot) -> (usize, usize) {
    let sealed = before.num_partitions().saturating_sub(1);
    before.partitions()[..sealed]
        .iter()
        .zip(after.partitions())
        .filter(|(old, new)| !Arc::ptr_eq(old, new))
        .fold((0, 0), |(rewritten, dropped), (old, new)| {
            (
                rewritten + new.num_rows(),
                dropped + old.num_rows().saturating_sub(new.num_rows()),
            )
        })
}

/// Apply `ops` to `lineitem`: appends through `Table::append`, mutations
/// over the wire. With `slot` set this is an open loop — operation `k` is
/// due at `k · slot` and timed from then, however late it starts; without,
/// operations run back to back.
pub fn write_loop(
    client: &mut Client,
    lineitem: &Table,
    ops: &[WriteOp],
    slot: Option<Duration>,
    log: &mut WriterLog,
) {
    let start = Instant::now();
    let mut seen = lineitem.snapshot();
    for (k, op) in ops.iter().enumerate() {
        let due = match slot {
            Some(slot) => {
                let due = start + slot * k as u32;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                due
            }
            None => Instant::now(),
        };
        log.late_ms.push((Instant::now() - due).as_secs_f64() * 1e3);
        let now = lineitem.snapshot();
        let (rewritten, dropped) = rows_compacted(&seen, &now);
        log.compactions_seen += usize::from(rewritten + dropped > 0);
        log.rows_rewritten += rewritten;
        log.rows_dropped += dropped;
        seen = now;
        log.attempted += 1;
        match op {
            WriteOp::Append(batch) => match lineitem.append(batch) {
                Ok(report) => {
                    log.append_ms
                        .push((Instant::now() - due).as_secs_f64() * 1e3);
                    log.rows_appended += report.rows;
                    log.bytes_appended += batch.size_bytes();
                }
                Err(e) => {
                    log.failed += 1;
                    eprintln!("APPEND FAILED: {e}");
                }
            },
            WriteOp::Mutation { sql, .. } => match client.query(sql, false) {
                Ok(Response::Reply(reply)) if Instant::now() - due <= SLOW_REQUEST => {
                    log.mutation_ms
                        .push((Instant::now() - due).as_secs_f64() * 1e3);
                    // An UPDATE replaces the rows it touches, a DELETE only
                    // removes them.
                    if sql.starts_with("DELETE") {
                        log.rows_deleted += reply.rows;
                    }
                }
                Ok(Response::Reply(_)) => {
                    log.failed += 1;
                    eprintln!("SLOW: {sql}");
                }
                Ok(Response::Reject { kind, message }) => {
                    log.failed += 1;
                    eprintln!("REJECTED ({kind}): {message}: {sql}");
                }
                Err(e) => {
                    log.failed += 1;
                    eprintln!("TRANSPORT ERROR: {e}: {sql}");
                }
            },
        }
    }
}

/// The request lists of the concurrent readers, and the positions of the
/// `probes_per_client` requests per list whose replies are checked (client
/// `c`'s request `i` is position `c * per_client + i`). `steady_reuse`: every
/// client its own stream, starting the rotation one template apart, the
/// checked ones fixed probes. `exact_scan`: one stream for all, so
/// same-snapshot scans can share passes.
pub fn reader_lists(
    workload: Workload,
    seed: u64,
    per_client: usize,
    probes_per_client: usize,
    scale: &TpchScale,
) -> (Vec<Vec<QueryInstance>>, Vec<usize>) {
    let period = match workload {
        Workload::SteadyReuse => requests::REUSE_TEMPLATES.len(),
        _ => requests::EXACT_CYCLE,
    };
    let probes = requests::sample_indices(per_client, probes_per_client, period);
    let lists: Vec<Vec<QueryInstance>> = (0..workload.readers())
        .map(|c| match workload {
            Workload::SteadyReuse => {
                let mut list = requests::reuse_requests(seed ^ (c as u64 + 1) << 20, c, per_client);
                requests::fix_probes(&mut list, &probes, c as u64);
                list
            }
            _ => requests::exact_requests(seed, per_client, scale),
        })
        .collect();
    let keep = (0..lists.len())
        .flat_map(|c| probes.iter().map(move |i| c * per_client + i))
        .collect();
    (lists, keep)
}

/// Closed loops side by side: one connection and one thread per list, all
/// released together. Replies at the `keep` positions (client `c`'s request
/// `i` is position `c * list length + i`) are kept. Returns what the readers
/// saw and the time from the release to the last reply.
pub fn read_concurrently(
    stack: &Stack,
    lists: &[Vec<QueryInstance>],
    keep: &[usize],
) -> Result<(ReaderLog, Duration), String> {
    let mut connections = lists
        .iter()
        .map(|_| stack.client())
        .collect::<Result<Vec<_>, _>>()?;
    let barrier = Barrier::new(lists.len() + 1);
    let (start, logs) = std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .iter_mut()
            .zip(lists)
            .enumerate()
            .map(|(c, (client, list))| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut log = ReaderLog::default();
                    barrier.wait();
                    read_loop(client, list, c * list.len(), keep, None, &mut log);
                    (log, Instant::now())
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let logs: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect();
        (start, logs)
    });
    let end = logs.iter().map(|(_, t)| *t).max().unwrap_or(start);
    let mut readers = ReaderLog::default();
    for (log, _) in logs {
        readers.merge(log);
    }
    Ok((readers, end - start))
}

/// One closed-loop reader beside the scheduled ingest stream; the writer's
/// schedule ends the phase. Returns both logs and the phase's length.
pub fn read_beside_writer(
    stack: &Stack,
    list: &[QueryInstance],
    ops: &[WriteOp],
) -> Result<(ReaderLog, WriterLog, Duration), String> {
    let table = lineitem(&stack.catalog)?;
    let mut reader_client = stack.client()?;
    let mut writer_client = stack.client()?;
    let mut writer = WriterLog::default();
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let readers = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut log = ReaderLog::default();
            read_loop(&mut reader_client, list, 0, &[], Some(&stop), &mut log);
            log
        });
        write_loop(&mut writer_client, &table, ops, Some(SLOT), &mut writer);
        stop.store(true, Ordering::Relaxed);
        reader.join().expect("reader thread panicked")
    });
    Ok((readers, writer, start.elapsed()))
}

/// High-water mark of this process's resident set, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Start the high-water mark of the resident set again from the current
/// size, so that `peak_rss_mb` is the peak of the timed phase and not of the
/// data generator in set-up. Where the kernel does not allow it the mark
/// simply stays.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

pub fn lineitem(catalog: &Catalog) -> Result<Arc<Table>, String> {
    catalog.table("lineitem").map_err(|e| e.to_string())
}

/// Set up `SETUP_REPEATS` times, keep the last stack, report the median.
/// `spare` gets the first stack before it is dropped.
fn timed_setup(
    workload: Workload,
    sizing: &Sizing,
    out_dir: &Path,
    spare: impl FnOnce(&Stack) -> Result<(), String>,
) -> Result<(Stack, f64), String> {
    let mut spare = Some(spare);
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut stack = None;
    for _ in 0..SETUP_REPEATS {
        // Release the previous stack first: its memory must not add to the
        // next one's in `peak_rss_mb`.
        drop(stack.take());
        let start = Instant::now();
        let fresh = Stack::start(workload, sizing.lineitem_rows, out_dir, "run")?;
        times.push(start.elapsed().as_secs_f64());
        if let Some(spare) = spare.take() {
            spare(&fresh)?;
        }
        stack = Some(fresh);
    }
    Ok((stack.expect("SETUP_REPEATS > 0"), median(&mut times)))
}

/// `mutate_mix`'s answers, checked beside its writes: a stretch of the
/// ingest stream applied one operation at a time — compacting after every
/// mutation, as the background compactor would within its 100 ms — with
/// fixed probes after each, every reply compared at once with the baseline
/// over the rows as they are at that moment. Serial and made from
/// `FIXED_SEED`, so it asks and answers the same on every run.
fn check_beside_writes(
    stack: &Stack,
    sizing: &Sizing,
    verdict: &mut Verdict,
    failed: &mut usize,
) -> Result<(), String> {
    let table = lineitem(&stack.catalog)?;
    let baseline = BaselineEngine::new(stack.catalog.clone());
    let mut client = stack.client()?;
    let ops = requests::writer_ops(requests::FIXED_SEED, sizing.check_slots, &stack.scale);
    let per_slot = sizing.check_reads_per_slot;
    let reads = requests::reuse_requests(requests::FIXED_SEED, 0, ops.len() * per_slot);
    for (op, reads) in ops.iter().zip(reads.chunks(per_slot)) {
        let mut writer = WriterLog::default();
        write_loop(
            &mut client,
            &table,
            std::slice::from_ref(op),
            None,
            &mut writer,
        );
        *failed += writer.failed;
        if matches!(op, WriteOp::Mutation { .. }) {
            stack
                .engine
                .compact_now()
                .map_err(|e| format!("compact: {e}"))?;
        }
        let keep: Vec<usize> = (0..reads.len()).collect();
        let mut log = ReaderLog::default();
        read_loop(&mut client, reads, 0, &keep, None, &mut log);
        *failed += log.failed;
        let replies: Vec<_> = log
            .kept
            .iter()
            .map(|(i, reply)| (reads[*i].sql.as_str(), reply))
            .collect();
        check_replies(&baseline, &replies, verdict)?;
    }
    Ok(())
}

/// Count a broken workload-shape invariant as a failed operation.
fn require(holds: bool, what: &str, failed: &mut usize) {
    if !holds {
        *failed += 1;
        eprintln!("SHAPE: {what}");
    }
}

/// The whole untraced run of one workload.
pub fn run(
    workload: Workload,
    seed: u64,
    sizing: &Sizing,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let mut verdict = Verdict::default();
    let mut failed = 0;
    let (mut stack, setup_s) = timed_setup(workload, sizing, out_dir, |spare| {
        if workload == Workload::MutateMix {
            check_beside_writes(spare, sizing, &mut verdict, &mut failed)?;
        }
        Ok(())
    })?;
    let scale = stack.scale;
    let mut readers = ReaderLog::default();
    let mut writer = WriterLog::default();
    let mut notes: Vec<(String, f64, &'static str)> = Vec::new();

    // ---- timed phase -----------------------------------------------------
    reset_peak_rss();
    let elapsed: Duration;
    // Answers are checked once the phase is over and `peak_rss_mb` is read:
    // `drift`'s against a twin catalog that receives the same boundary
    // appends, epoch by epoch, the static workloads' against their own rows.
    let mut drift_epochs: Vec<Epoch> = Vec::new();
    let mut lists: Vec<Vec<QueryInstance>> = Vec::new();
    match workload {
        Workload::Drift => {
            let per_epoch = sizing.drift_per_epoch;
            let epochs = tpch::fig6_epochs().len() * requests::DRIFT_LAPS;
            drift_epochs =
                requests::drift_epochs(seed, per_epoch, sizing.verify_replies / epochs, &scale);
            let table = lineitem(&stack.catalog)?;
            let mut client = stack.client()?;
            let mut boundary_ms = Vec::new();
            let start = Instant::now();
            for (e, epoch) in drift_epochs.iter().enumerate() {
                if let Some(batch) = &epoch.growth {
                    let t = Instant::now();
                    table
                        .append(batch)
                        .map_err(|e| format!("drift append: {e}"))?;
                    boundary_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
                read_loop(
                    &mut client,
                    &epoch.queries,
                    e * per_epoch,
                    &epoch
                        .probes
                        .iter()
                        .map(|i| e * per_epoch + i)
                        .collect::<Vec<_>>(),
                    None,
                    &mut readers,
                );
            }
            elapsed = start.elapsed();
            notes.push((
                "drift.boundary_append_ms".into(),
                median(&mut boundary_ms),
                "ms",
            ));
        }
        Workload::SteadyReuse | Workload::ExactScan => {
            let clients = workload.readers();
            // An `exact_scan` answer costs the baseline 0.2–0.7 s, twenty
            // times a `steady_reuse` one, and cannot be a little wrong: half
            // as many are checked.
            let (per_client, probes) = match workload {
                Workload::SteadyReuse => (sizing.steady_per_client, sizing.verify_replies),
                _ => (sizing.exact_per_client, sizing.verify_replies / 2),
            };
            let keep;
            (lists, keep) = reader_lists(workload, seed, per_client, probes / clients, &scale);
            (readers, elapsed) = read_concurrently(&stack, &lists, &keep)?;
        }
        Workload::MutateMix => {
            stack.start_compactor();
            let ops = requests::writer_ops(seed, sizing.mutate_slots, &scale);
            // More than the reader can get through; the writer's schedule
            // ends the phase.
            let list = requests::reuse_requests(seed ^ 1 << 20, 0, sizing.mutate_slots * 200);
            let dir = stack
                .dir
                .clone()
                .expect("mutate_mix runs on a durable engine");
            let disk_before = dir_bytes(&dir);
            (readers, writer, elapsed) = read_beside_writer(&stack, &list, &ops)?;
            stack.stop_compactor();
            let late_p95_ms = percentile(&mut writer.late_ms, 0.95);
            if sizing.enforce_shape {
                // A tenth of a sealed partition dies every five mutations.
                let mutations = writer.mutation_ms.len();
                require(
                    mutations < 12 || writer.compactions_seen >= 2,
                    "mutate_mix: fewer than 2 compactions",
                    &mut failed,
                );
                require(
                    writer.kept_schedule(),
                    "mutate_mix: the ingest stream fell behind its schedule",
                    &mut failed,
                );
            }
            notes.extend([
                (
                    "storage.wal_bytes_per_user_byte".into(),
                    (dir_bytes(&dir) - disk_before) as f64 / writer.bytes_appended.max(1) as f64,
                    "ratio",
                ),
                (
                    "storage.compactions".into(),
                    writer.compactions_seen as f64,
                    "count",
                ),
                (
                    "storage.rows_rewritten".into(),
                    writer.rows_rewritten as f64,
                    "rows",
                ),
                (
                    "storage.rows_dropped".into(),
                    writer.rows_dropped as f64,
                    "rows",
                ),
                ("loadgen.late_p95_ms".into(), late_p95_ms, "ms"),
                // From each operation's due time, so a stall behind an
                // earlier one counts. Mutations are bimodal at seed (see
                // README), hence both ends.
                ("append_p50_ms".into(), median(&mut writer.append_ms), "ms"),
                (
                    "mutation_p50_ms".into(),
                    median(&mut writer.mutation_ms),
                    "ms",
                ),
                (
                    "mutation_p90_ms".into(),
                    percentile(&mut writer.mutation_ms, 0.9),
                    "ms",
                ),
            ]);
        }
    }
    let peak_rss_mb = peak_rss_mb();

    // ---- counters of the program, read from outside ------------------------
    let admission = stack.service.admission_stats();
    let scans = stack.engine.shared_scan_stats();
    let usage = stack.engine.store().usage();
    let requests_ok = readers.latency_ms.len();
    let (builds, refreshes) = (
        stack.engine.synopsis_builds(),
        stack.engine.synopsis_refreshes(),
    );
    require(
        admission.rejected == 0,
        "admission rejected a request",
        &mut failed,
    );
    match workload {
        // The warm-up is exact statements too, so the engine's counters are
        // the phase's.
        Workload::ExactScan => require(
            readers.approximate == 0 && builds == 0 && refreshes == 0,
            "exact_scan: a reply was approximate or a synopsis was built",
            &mut failed,
        ),
        Workload::Drift if sizing.enforce_shape => require(
            builds > 0 && refreshes > 0,
            "drift: no synopsis built or none refreshed",
            &mut failed,
        ),
        Workload::SteadyReuse if sizing.enforce_shape => require(
            readers.approximate == requests_ok,
            "steady_reuse: a reply was not approximate",
            &mut failed,
        ),
        _ => {}
    }
    let requests_ok = requests_ok.max(1) as f64;
    notes.extend([
        (
            "taster.approx_ratio".into(),
            readers.approximate as f64 / requests_ok,
            "ratio",
        ),
        (
            "taster.reuse_ratio".into(),
            readers.reused as f64 / requests_ok,
            "ratio",
        ),
        ("taster.synopsis_builds".into(), builds as f64, "count"),
        (
            "taster.synopsis_refreshes".into(),
            refreshes as f64,
            "count",
        ),
        (
            "taster.builds_coalesced".into(),
            stack.engine.builds_coalesced() as f64,
            "count",
        ),
        (
            "taster.store_bytes".into(),
            (usage.buffer_bytes + usage.warehouse_bytes) as f64,
            "B",
        ),
        (
            "server.admission_rejected".into(),
            admission.rejected as f64,
            "count",
        ),
        (
            "server.admission_peak_inflight".into(),
            admission.peak_inflight as f64,
            "count",
        ),
        (
            "engine.shared_scan_attach_ratio".into(),
            scans.attached as f64 / (scans.passes + scans.attached).max(1) as f64,
            "ratio",
        ),
        (
            "loadgen.gap_p95_ms".into(),
            percentile(&mut readers.gap_ms, 0.95),
            "ms",
        ),
        (
            "query.samples".into(),
            readers.latency_ms.len() as f64,
            "count",
        ),
    ]);
    failed += readers.failed + writer.failed;

    // ---- verification, which had to wait for the phase to end ---------------
    if let Some(first) = lists.first() {
        let baseline = BaselineEngine::new(stack.catalog.clone());
        let replies: Vec<_> = readers
            .kept
            .iter()
            .map(|(i, reply)| (lists[i / first.len()][i % first.len()].sql.as_str(), reply))
            .collect();
        check_replies(&baseline, &replies, &mut verdict)?;
    }
    if workload == Workload::Drift {
        // The twin: same generated rows, same appends, never touched by the
        // server.
        let twin = tpch::generate(scale);
        let twin_table = lineitem(&twin)?;
        let baseline = BaselineEngine::new(twin.clone());
        for (e, epoch) in drift_epochs.iter().enumerate() {
            if let Some(batch) = &epoch.growth {
                twin_table
                    .append(batch)
                    .map_err(|e| format!("twin append: {e}"))?;
            }
            let range = e * sizing.drift_per_epoch..(e + 1) * sizing.drift_per_epoch;
            let replies: Vec<_> = readers
                .kept
                .iter()
                .filter(|(i, _)| range.contains(i))
                .map(|(i, reply)| (epoch.queries[i - range.start].sql.as_str(), reply))
                .collect();
            check_replies(&baseline, &replies, &mut verdict)?;
        }
    }
    failed += verdict.exact_wrong;

    let mut attempted = readers.attempted + writer.attempted + verdict.replies;
    if workload == Workload::MutateMix {
        let table = lineitem(&stack.catalog)?;
        let (live, physical) = (table.live_rows(), table.num_rows());
        let expected = sizing.lineitem_rows + writer.rows_appended - writer.rows_deleted;
        notes.push((
            "storage.dead_row_ratio".into(),
            1.0 - live as f64 / physical as f64,
            "ratio",
        ));
        notes.push((
            "storage.bytes_per_row".into(),
            table.size_bytes() as f64 / physical as f64,
            "B/row",
        ));
        // Every acknowledged append and delete must be visible, before and
        // after a restart from the directory alone.
        let (config, dir) = stack.shutdown();
        let dir = dir.expect("mutate_mix runs on a durable engine");
        let t = Instant::now();
        let recovered = TasterEngine::recover(config, &dir).map_err(|e| format!("recover: {e}"));
        notes.push((
            "taster.recover_ms".into(),
            t.elapsed().as_secs_f64() * 1e3,
            "ms",
        ));
        let recovered_live = recovered
            .and_then(|(engine, _)| lineitem(&engine.catalog_handle()))
            .map(|t| t.live_rows());
        let _ = std::fs::remove_dir_all(&dir);
        attempted += 1;
        if live != expected || recovered_live.as_ref() != Ok(&expected) {
            failed += 1;
            eprintln!(
                "RECOVERY CHECK FAILED: acknowledged {expected} live rows, engine had {live}, recovered {recovered_live:?}"
            );
        }
    }

    let mut metrics = Metrics::default();
    metrics.set("setup_s", setup_s);
    metrics.set(
        "qps",
        readers.latency_ms.len() as f64 / elapsed.as_secs_f64(),
    );
    metrics.set("query_p50_ms", median(&mut readers.latency_ms));
    // The highest percentile with ten samples beyond it on every workload:
    // `exact_scan` has 128 replies. The 95th is in the notes.
    metrics.set("query_p90_ms", percentile(&mut readers.latency_ms, 0.90));
    metrics.set("err_coverage", verdict.coverage());
    metrics.set("peak_rss_mb", peak_rss_mb);
    for (template, latencies) in &mut readers.by_template {
        notes.push((format!("query_p50_ms[{template}]"), median(latencies), "ms"));
    }
    notes.extend([
        (
            "query_p95_ms".into(),
            percentile(&mut readers.latency_ms, 0.95),
            "ms",
        ),
        ("timed_phase_s".into(), elapsed.as_secs_f64(), "s"),
        ("verify.replies".into(), verdict.replies as f64, "count"),
        ("verify.estimates".into(), verdict.estimates as f64, "count"),
        (
            "verify.exact_replies".into(),
            verdict.exact_checked as f64,
            "count",
        ),
        (
            "taster.missed_groups".into(),
            verdict.missed_groups as f64,
            "count",
        ),
        (
            "failed_ratio".into(),
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ]);
    Ok(Outcome {
        metrics,
        notes,
        attempted,
        failed,
    })
}
