//! The traced run: where a request's time goes, measured from outside.
//!
//! Nothing inside the program is instrumented (spans in the program are a
//! later change), so a layer's time is found by calling the same public
//! function a layer below would call, on a twin:
//!
//! * twin **C** answers through `Client::query` over TCP (span `tcp.request`),
//! * twin **A** through `SessionService::submit` (span `service.submit`),
//! * twin **B** through `TasterEngine::execute_sql` (span `taster.execute`,
//!   whose children `taster.plan` and `engine.exec` are synthesised from the
//!   `planning_ns` and `metrics.wall_time_ns` the call returns).
//!
//! The three stacks are built alike and stepped in lock-step,
//! one operation at a time, so they hold the same rows and the same synopses
//! and choose the same plans (`trace.twin_divergence` counts the requests
//! for which they did not). Differences between twins, paired per request,
//! are the self times of the transport and of the service. Frame encoding
//! and decoding and `parse_statement` are timed directly on the real frames
//! and statements. When the pass is over, twin C answers the same reads once
//! more with no span around them, which gives `trace.overhead_ratio`, and
//! then takes its workload's real shape for a moment (two clients, or the
//! scheduled writer) for the counters only concurrency moves.
//!
//! Spans stay in memory and are written to `out/trace-<workload>.json` when
//! the run ends.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::path::Path;
use std::time::Instant;

use taster_baselines::BaselineEngine;
use taster_core::TasterEngine;
use taster_engine::{parse_query, parse_statement, Statement};
use taster_server::proto::{read_frame, write_frame};
use taster_server::{QueryReply, Request, Response};
use taster_storage::io_model::ExecutionMetrics;
use taster_storage::Table;
use taster_synopses::distinct::DistinctSamplerConfig;
use taster_synopses::{DistinctSampler, SketchJoin, UniformSampler};
use taster_workloads::tpch;
use taster_workloads::QueryInstance;

use crate::json;
use crate::load::{
    lineitem, read_beside_writer, read_concurrently, read_loop, reader_lists, rows_compacted,
    Outcome, ReaderLog, Sizing, WriterLog, SLOW_REQUEST,
};
use crate::metrics::{median, percentile, Metrics};
use crate::requests::{self, WriteOp};
use crate::stack::{dir_bytes, Stack, Workload};
use crate::verify::{check_reply, Verdict};

/// `steady_reuse` reads at most this share of `lineitem`'s row count in base
/// rows per request (the dimension tables its joins scan), and `exact_scan`
/// at least 20 times as many.
const REUSE_MAX_BASE_ROWS: f64 = 1.0 / 30.0;
/// ROADMAP's "a per-layer time budget that adds up to within 10 %". Held to
/// on `steady_reuse` only: on `exact_scan` the same join costs one twin 20 ms
/// and the next 520 ms of page faults (6 000 to 94 000 of them for the same
/// statement on identical stacks), so its twins differ by more than that
/// whatever the layers do (0.08–0.40 over three seeds).
const MAX_UNATTRIBUTED: f64 = 0.10;

/// One timed interval. `parent` and `id` index into the trace's span list;
/// spans of one request share `request`.
struct Span {
    name: &'static str,
    request: u32,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
    /// Derived from a duration the program reported, not timed here.
    synthesised: bool,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Time `f` as a span; returns its value, the span's id and duration.
    fn time<T>(
        &mut self,
        name: &'static str,
        request: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, u32, u64) {
        let start = self.origin.elapsed().as_nanos() as u64;
        let value = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns: start,
            end_ns: end,
            synthesised: false,
        });
        (value, self.spans.len() as u32 - 1, end - start)
    }

    /// Record a child of `parent` lasting `nanos`, placed at its start.
    fn synthesise(
        &mut self,
        name: &'static str,
        request: u32,
        parent: u32,
        offset: u64,
        nanos: u64,
    ) {
        let start = self.spans[parent as usize].start_ns + offset;
        self.spans.push(Span {
            name,
            request,
            parent: Some(parent),
            start_ns: start,
            end_ns: start + nanos,
            synthesised: true,
        });
    }

    fn write(&self, path: &Path, workload: Workload, seed: u64) -> Result<(), String> {
        let mut out = format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"unit\": \"ns\", \"spans\": [\n",
            json::quote(workload.name())
        );
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {id}, \"name\": {}, \"request\": {}, \"parent\": {parent}, \"start\": {}, \"end\": {}, \"synthesised\": {}}}{}\n",
                json::quote(s.name),
                s.request,
                s.start_ns,
                s.end_ns,
                s.synthesised,
                if id + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        std::fs::write(path, out).map_err(|e| format!("write {path:?}: {e}"))
    }
}

/// One operation of the serial interleaving the twins are stepped through.
enum Op {
    Read(QueryInstance),
    Write(WriteOp),
}

/// Leading reads that are stepped through every stack but not recorded: one
/// rotation of the statements on the workloads that are measured warm. The
/// first heavy statement on a path costs several times the later ones (at
/// seed a first `x_join` takes 1.3–2.1 s against 0.6 s), which would
/// otherwise decide every sum over a short list.
fn unrecorded_reads(workload: Workload) -> usize {
    match workload {
        Workload::SteadyReuse => requests::REUSE_TEMPLATES.len(),
        Workload::ExactScan => requests::EXACT_CYCLE,
        Workload::Drift | Workload::MutateMix => 0,
    }
}

/// The stated fraction of each workload's request list the traced run uses:
/// every kind of operation of the workload, in its order, just fewer.
/// `stream` is `mutate_mix`'s ingest stream, of which this takes the front.
fn traced_ops(
    workload: Workload,
    seed: u64,
    sizing: &Sizing,
    scale: &tpch::TpchScale,
    stream: &mut Vec<WriteOp>,
) -> Vec<Op> {
    match workload {
        Workload::SteadyReuse => requests::reuse_requests(
            seed ^ 1 << 20,
            0,
            sizing.traced_requests + unrecorded_reads(workload),
        )
        .into_iter()
        .map(Op::Read)
        .collect(),
        Workload::ExactScan => requests::exact_requests(
            seed,
            sizing.traced_exact + unrecorded_reads(workload),
            scale,
        )
        .into_iter()
        .map(Op::Read)
        .collect(),
        Workload::Drift => requests::drift_epochs(seed, sizing.traced_drift_per_epoch, 0, scale)
            .into_iter()
            .flat_map(|epoch| {
                epoch
                    .growth
                    .map(|batch| Op::Write(WriteOp::Append(batch)))
                    .into_iter()
                    .chain(epoch.queries.into_iter().map(Op::Read))
            })
            .collect(),
        Workload::MutateMix => {
            let per_slot = sizing.traced_reads_per_slot;
            let mut reads =
                requests::reuse_requests(seed ^ 1 << 20, 0, sizing.traced_mutate_slots * per_slot)
                    .into_iter();
            stream
                .drain(..sizing.traced_mutate_slots)
                .flat_map(|op| {
                    std::iter::once(Op::Write(op))
                        .chain(reads.by_ref().take(per_slot).map(Op::Read))
                        .collect::<Vec<_>>()
                })
                .collect()
        }
    }
}

/// What the three twins measured for one read.
struct ReadRecord {
    tcp_ns: u64,
    submit_ns: u64,
    execute_ns: u64,
    plan_ns: u64,
    exec_ns: u64,
    proto_encode_ns: u64,
    proto_decode_ns: u64,
    parse_ns: u64,
    reply_bytes: usize,
    metrics: ExecutionMetrics,
    approximate: bool,
    reused: bool,
    built: bool,
    template: String,
}

fn wire_request(sql: &str) -> Request {
    Request {
        tenant: "bench".to_string(),
        explain: false,
        sql: sql.to_string(),
    }
}

fn expect_reply(response: std::io::Result<Response>, sql: &str) -> Result<QueryReply, String> {
    match response {
        Ok(Response::Reply(reply)) => Ok(reply),
        Ok(Response::Reject { kind, message }) => {
            Err(format!("rejected ({kind}): {message}: {sql}"))
        }
        Err(e) => Err(format!("transport error: {e}: {sql}")),
    }
}

/// Apply a parsed DELETE/UPDATE straight to the engine, as a worker does.
fn mutate_engine(engine: &TasterEngine, sql: &str) -> Result<usize, String> {
    let report = match parse_statement(sql).map_err(|e| e.to_string())? {
        Statement::Delete(d) => engine.delete_where(&d.table, &d.predicates),
        Statement::Update(u) => engine.update_where(&u.table, &u.assignments, &u.predicates),
        Statement::Select(_) => return Err(format!("not a mutation: {sql}")),
    };
    report.map(|r| r.rows_affected).map_err(|e| e.to_string())
}

/// Median wall time in ms of three runs of `f`.
fn probe_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut times)
}

/// Direct calls into the synopsis builders over the `lineitem` snapshot,
/// with the parameters the planner uses for `q1`-like queries.
fn synopsis_probes(
    table: &Table,
    scale: &tpch::TpchScale,
    seed: u64,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let snapshot = table.snapshot();
    let partitions = snapshot.partitions();
    metrics.set(
        "synopses.uniform_build_ms",
        probe_ms(|| UniformSampler::new(0.02, seed).sample_partitions(partitions)),
    );
    let strata = vec!["l_returnflag".to_string(), "l_linestatus".to_string()];
    let config = DistinctSamplerConfig::new(strata, 100, 0.02);
    metrics.set(
        "synopses.distinct_build_ms",
        probe_ms(|| DistinctSampler::new(config.clone(), seed).sample_partitions(partitions)),
    );
    metrics.set(
        "synopses.sketch_build_ms",
        probe_ms(|| {
            SketchJoin::build(
                partitions,
                vec!["l_partkey".to_string()],
                Some("l_extendedprice".to_string()),
                0.0005,
                0.01,
            )
        }),
    );
    let delta = tpch::lineitem_growth_batch(scale, snapshot.num_rows() / 10, 99);
    let mut sampler = UniformSampler::new(0.02, seed);
    let sample = sampler
        .sample_partitions(partitions)
        .ok_or("lineitem has no partitions")?;
    metrics.set(
        "synopses.uniform_update_ms",
        probe_ms(|| {
            let mut grown = sample.clone();
            sampler.update(&mut grown, &delta).map(|()| grown.len())
        }),
    );
    Ok(())
}

/// What twin C does once the lock-step pass is over.
struct AfterPass {
    read_p50_ms: f64,
    late_p95_ms: f64,
    kept_schedule: bool,
    failed: usize,
    attempted: usize,
}

/// The recorded reads once more over the same connection with no span
/// around them — on `drift` and `mutate_mix` against the rows and synopses
/// the pass ended with, so there the ratio carries that difference too —
/// and then the workload's real shape for a short while. `stream` is what is
/// left of `mutate_mix`'s ingest stream.
fn after_pass(
    workload: Workload,
    seed: u64,
    sizing: &Sizing,
    stack: &mut Stack,
    ops: &[Op],
    stream: &[WriteOp],
) -> Result<AfterPass, String> {
    let reads: Vec<QueryInstance> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Read(q) => Some(q.clone()),
            Op::Write(_) => None,
        })
        .skip(unrecorded_reads(workload))
        .collect();
    let mut log = ReaderLog::default();
    read_loop(&mut stack.client()?, &reads, 0, &[], None, &mut log);
    let read_p50_ms = median(&mut log.latency_ms);
    let mut shape = ReaderLog::default();
    let mut writer = WriterLog::default();
    match workload {
        Workload::Drift => {}
        Workload::SteadyReuse | Workload::ExactScan => {
            let per_client = match workload {
                Workload::SteadyReuse => sizing.traced_requests,
                _ => requests::EXACT_CYCLE,
            };
            let (lists, _) = reader_lists(workload, seed ^ 5 << 20, per_client, 0, &stack.scale);
            shape = read_concurrently(stack, &lists, &[])?.0;
        }
        Workload::MutateMix => {
            let list = requests::reuse_requests(seed ^ 7 << 20, 0, stream.len() * 200);
            stack.start_compactor();
            (shape, writer, _) = read_beside_writer(stack, &list, stream)?;
            stack.stop_compactor();
        }
    }
    // Open loop: how late the writer started its operations. Closed loops:
    // the generator's own time between a reply and the next request.
    let late_p95_ms = if workload == Workload::MutateMix {
        percentile(&mut writer.late_ms, 0.95)
    } else {
        log.gap_ms.append(&mut shape.gap_ms);
        percentile(&mut log.gap_ms, 0.95)
    };
    Ok(AfterPass {
        read_p50_ms,
        late_p95_ms,
        kept_schedule: writer.kept_schedule(),
        failed: log.failed + shape.failed + writer.failed,
        attempted: log.attempted + shape.attempted + writer.attempted,
    })
}

/// Median of `values`, 0 where the workload has no such operation.
fn median_or_zero(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

fn us(nanos: impl Iterator<Item = u64>) -> f64 {
    let mut values: Vec<f64> = nanos.map(|n| n as f64 / 1e3).collect();
    median(&mut values)
}

/// The whole traced run of one workload.
pub fn run(
    workload: Workload,
    seed: u64,
    sizing: &Sizing,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let mut metrics = Metrics::default();
    let mut notes: Vec<(String, f64, &'static str)> = Vec::new();
    let start_stack = |tag: &str| Stack::start(workload, sizing.lineitem_rows, out_dir, tag);

    // ---- three twins in lock-step -----------------------------------------
    let (mut tcp, svc, eng) = (
        start_stack("tcp")?,
        start_stack("service")?,
        start_stack("engine")?,
    );
    // Everything that is not one of the stepped operations happens on a
    // fourth copy of the rows that no twin reads: the baseline's exact
    // answers, the direct probes, `to_exact_plan`. The twins are comparable
    // only while each receives exactly the calls the others do, and reading
    // a catalog is not free of effects (table statistics are computed lazily
    // on first access, and the planner prices plans with them).
    let reference = tpch::generate(eng.scale);
    let reference_engine = TasterEngine::new(reference.clone(), eng.config);
    let reference_table = reference.table("lineitem").map_err(|e| e.to_string())?;
    synopsis_probes(&reference_table, &eng.scale, seed, &mut metrics)?;
    let mut client = tcp.client()?;
    let mut null_rtt = Vec::with_capacity(200);
    for _ in 0..200 {
        let t = Instant::now();
        let response = client.query("SELEC 1", false);
        null_rtt.push(t.elapsed().as_nanos() as f64 / 1e3);
        if !matches!(response, Ok(Response::Reject { .. })) {
            return Err(format!(
                "a statement that cannot parse was not rejected: {response:?}"
            ));
        }
    }
    let tables = [
        lineitem(&tcp.catalog)?,
        lineitem(&svc.catalog)?,
        lineitem(&eng.catalog)?,
    ];
    let baseline = BaselineEngine::new(reference.clone());
    let builds_before = eng.engine.synopsis_builds();
    let refreshes_before = eng.engine.synopsis_refreshes();
    let disk_before = eng.dir.as_deref().map_or(0, dir_bytes);

    let mut stream = match workload {
        Workload::MutateMix => requests::writer_ops(
            seed,
            sizing.traced_mutate_slots + sizing.traced_shape_slots,
            &eng.scale,
        ),
        _ => Vec::new(),
    };
    let ops = traced_ops(workload, seed, sizing, &eng.scale, &mut stream);
    let mut unrecorded = unrecorded_reads(workload);
    let reads_total = ops.iter().filter(|op| matches!(op, Op::Read(_))).count() - unrecorded;
    let mut check: Vec<usize> =
        requests::sample_indices(reads_total, sizing.traced_verify, requests::EXACT_CYCLE);
    check.reverse();
    let mut tracer = Tracer::new();
    let mut reads: Vec<ReadRecord> = Vec::with_capacity(reads_total);
    let mut verdict = Verdict::default();
    let (mut divergence, mut failed, mut attempted) = (0usize, 0usize, 0usize);
    let (mut exact_ms, mut speedups, mut exact_plan_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut append_us_per_krow, mut delete_ms, mut compact_ms) =
        (Vec::new(), Vec::new(), Vec::new());
    let (mut compactions, mut rows_rewritten, mut appended_bytes) = (0usize, 0usize, 0usize);

    for (i, op) in ops.iter().enumerate() {
        let request = i as u32;
        attempted += 1;
        match op {
            Op::Read(q) if unrecorded > 0 => {
                unrecorded -= 1;
                expect_reply(client.query(&q.sql, false), &q.sql)?;
                svc.service.submit(wire_request(&q.sql));
                eng.engine
                    .execute_sql(&q.sql)
                    .map_err(|e| format!("{e}: {}", q.sql))?;
            }
            Op::Read(q) => {
                let sql = q.sql.as_str();
                let wire_request = wire_request(sql);
                let (mut tcp_out, mut svc_out, mut eng_out) = (None, None, None);
                // Rotate who goes first, so that no twin always runs on the
                // caches another one just warmed.
                for turn in 0..3 {
                    match (turn + i) % 3 {
                        0 => {
                            let (r, id, ns) = tracer
                                .time("tcp.request", request, None, || client.query(sql, false));
                            tcp_out = Some((expect_reply(r, sql)?, id, ns));
                        }
                        1 => {
                            let (r, id, ns) = tracer.time("service.submit", request, None, || {
                                svc.service.submit(wire_request.clone())
                            });
                            svc_out = Some((r, id, ns));
                        }
                        _ => {
                            let (r, id, ns) = tracer.time("taster.execute", request, None, || {
                                eng.engine.execute_sql(sql)
                            });
                            eng_out = Some((r.map_err(|e| format!("{e}: {sql}"))?, id, ns));
                        }
                    }
                }
                let (reply, tcp_id, tcp_ns) = tcp_out.expect("every twin took its turn");
                let (response, svc_id, submit_ns) = svc_out.expect("every twin took its turn");
                let (result, eng_id, execute_ns) = eng_out.expect("every twin took its turn");
                tracer.spans[svc_id as usize].parent = Some(tcp_id);
                tracer.spans[eng_id as usize].parent = Some(svc_id);
                if submit_ns > SLOW_REQUEST.as_nanos() as u64
                    || tcp_ns > SLOW_REQUEST.as_nanos() as u64
                {
                    failed += 1;
                }

                // Frames and statement text, timed directly.
                let (frame, _, enc_req) =
                    tracer.time("proto.encode_request", request, Some(tcp_id), || {
                        let mut frame = Vec::new();
                        write_frame(&mut frame, &wire_request.encode()).map(|()| frame)
                    });
                let frame = frame.map_err(|e| e.to_string())?;
                let (_, _, dec_req) =
                    tracer.time("proto.decode_request", request, Some(tcp_id), || {
                        read_frame(&mut Cursor::new(&frame)).map(|p| p.map(|p| Request::decode(&p)))
                    });
                let (frame, _, enc_resp) =
                    tracer.time("proto.encode_response", request, Some(tcp_id), || {
                        let mut frame = Vec::new();
                        write_frame(&mut frame, &response.encode()).map(|()| frame)
                    });
                let frame = frame.map_err(|e| e.to_string())?;
                let (_, _, dec_resp) =
                    tracer.time("proto.decode_response", request, Some(tcp_id), || {
                        read_frame(&mut Cursor::new(&frame))
                            .map(|p| p.map(|p| Response::decode(&p)))
                    });
                let (_, _, parse_ns) =
                    tracer.time("engine.sql.parse", request, Some(eng_id), || {
                        parse_statement(sql)
                    });
                // `submit` parses once to validate and the worker once to
                // dispatch, before `execute_sql` parses the text a third time.
                tracer.synthesise("engine.sql.parse", request, svc_id, 0, parse_ns);
                tracer.synthesise("engine.sql.parse", request, svc_id, parse_ns, parse_ns);
                let plan_ns = result.planning_ns as u64;
                let exec_ns = result.result.metrics.wall_time_ns as u64;
                tracer.synthesise("taster.plan", request, eng_id, parse_ns, plan_ns);
                tracer.synthesise("engine.exec", request, eng_id, parse_ns + plan_ns, exec_ns);
                let query = parse_query(sql).map_err(|e| format!("{e}: {sql}"))?;
                let (_, _, exact_plan_ns) = tracer.time("probe.exact_plan", request, None, || {
                    query.to_exact_plan(&reference)
                });
                exact_plan_us.push(exact_plan_ns as f64 / 1e3);

                let service_plan = match &response {
                    Response::Reply(r) => r.plan.as_str(),
                    Response::Reject { message, .. } => {
                        failed += 1;
                        message.as_str()
                    }
                };
                if reply.plan != service_plan || reply.plan != result.plan_description {
                    divergence += 1;
                    eprintln!(
                        "TWINS DIVERGED on {sql}:\n  tcp: {}\n  service: {service_plan}\n  engine: {}",
                        reply.plan, result.plan_description
                    );
                }
                if check.last() == Some(&reads.len()) {
                    check.pop();
                    let checked = check_reply(&baseline, sql, &reply)?;
                    verdict.record(&checked);
                    exact_ms.push(checked.baseline_secs * 1e3);
                    speedups.push(checked.baseline_secs / (execute_ns as f64 / 1e9));
                }
                reads.push(ReadRecord {
                    tcp_ns,
                    submit_ns,
                    execute_ns,
                    plan_ns,
                    exec_ns,
                    proto_encode_ns: enc_req + enc_resp,
                    proto_decode_ns: dec_req + dec_resp,
                    parse_ns,
                    reply_bytes: frame.len(),
                    metrics: result.result.metrics,
                    approximate: result.approximate,
                    reused: !result.reused_synopses.is_empty(),
                    built: !result.created_synopses.is_empty(),
                    template: q.template_id.clone(),
                });
            }
            Op::Write(WriteOp::Append(batch)) => {
                for table in &tables {
                    let (report, _, ns) =
                        tracer.time("storage.append", request, None, || table.append(batch));
                    report.map_err(|e| format!("append: {e}"))?;
                    append_us_per_krow.push(ns as f64 / 1e3 / (batch.num_rows() as f64 / 1e3));
                }
                reference_table
                    .append(batch)
                    .map_err(|e| format!("append: {e}"))?;
                appended_bytes += batch.size_bytes();
            }
            Op::Write(WriteOp::Mutation { sql, predicate }) => {
                // Serial, so the matching rows can be counted first.
                let count_sql = format!("SELECT COUNT(*) FROM lineitem WHERE {predicate}");
                let expected = baseline
                    .execute_sql(&count_sql)
                    .map_err(|e| format!("{e}: {count_sql}"))?
                    .result
                    .groups
                    .first()
                    .map_or(0, |g| g.aggregates[0].value as usize);
                let (r, tcp_id, _) =
                    tracer.time("tcp.request", request, None, || client.query(sql, false));
                let over_tcp = expect_reply(r, sql)?.rows;
                let (r, svc_id, _) = tracer.time("service.submit", request, Some(tcp_id), || {
                    svc.service.submit(wire_request(sql))
                });
                let over_service = expect_reply(Ok(r), sql)?.rows;
                let (r, _, ns) = tracer.time("taster.mutate", request, Some(svc_id), || {
                    mutate_engine(&eng.engine, sql)
                });
                delete_ms.push(ns as f64 / 1e6);
                if [
                    over_tcp,
                    over_service,
                    r?,
                    mutate_engine(&reference_engine, sql)?,
                ] != [expected; 4]
                {
                    failed += 1;
                    eprintln!("WRONG row count for {sql}: expected {expected}");
                }
                for stack in [&tcp, &svc, &eng] {
                    let before = lineitem(&stack.catalog)?.snapshot();
                    let (r, _, ns) = tracer.time("storage.compact", request, None, || {
                        stack.engine.compact_now()
                    });
                    r.map_err(|e| format!("compact: {e}"))?;
                    let (rewritten, _) =
                        rows_compacted(&before, &lineitem(&stack.catalog)?.snapshot());
                    if rewritten > 0 {
                        compact_ms.push(ns as f64 / 1e6);
                        if std::ptr::eq(stack, &eng) {
                            compactions += 1;
                            rows_rewritten += rewritten;
                        }
                    }
                }
            }
        }
    }

    // ---- twin C once more: untraced, then in the workload's real shape ---------
    drop(client);
    let after = after_pass(workload, seed, sizing, &mut tcp, &ops, &stream)?;
    failed += after.failed;
    attempted += after.attempted;
    let admission = tcp.service.admission_stats();
    let scans = tcp.engine.shared_scan_stats();

    // ---- per-layer metrics -----------------------------------------------------
    let sum = |f: fn(&ReadRecord) -> u64| reads.iter().map(f).sum::<u64>() as f64;
    let n = reads.len().max(1) as f64;
    // Shares of a request are medians of per-request ratios, not ratios of
    // sums: numerator and denominator come from different twins, and one
    // statement that ran twice as long on one of them (page faults under a
    // big join, at seed) would otherwise decide the sum over a short list.
    let share = |part: fn(&ReadRecord) -> u64| {
        let mut ratios: Vec<f64> = reads
            .iter()
            .map(|r| part(r) as f64 / r.tcp_ns.max(1) as f64)
            .collect();
        median(&mut ratios)
    };
    let base_rows = sum(|r| r.metrics.base_rows_scanned as u64);
    let synopsis_rows =
        sum(|r| (r.metrics.warehouse_rows_read + r.metrics.buffer_rows_read) as u64);
    // Rates are medians over the requests that read such rows, for the
    // same reason as the shares.
    let rate = |rows: fn(&ReadRecord) -> usize| {
        let mut rates: Vec<f64> = reads
            .iter()
            .filter(|r| rows(r) > 0)
            .map(|r| rows(r) as f64 / (r.exec_ns.max(1) as f64 / 1e9))
            .collect();
        median_or_zero(&mut rates)
    };
    let pruned = sum(|r| r.metrics.partitions_pruned as u64);
    let scanned = sum(|r| r.metrics.partitions_scanned as u64);
    let usage = eng.engine.store().usage();
    let final_table = lineitem(&eng.catalog)?;
    let mut tcp_ms: Vec<f64> = reads.iter().map(|r| r.tcp_ns as f64 / 1e6).collect();
    let diff = |a: u64, b: u64| a as f64 - b as f64;

    metrics.set("server.null_rtt_us", median(&mut null_rtt));
    let mut v: Vec<f64> = reads
        .iter()
        .map(|r| diff(r.tcp_ns, r.submit_ns) / 1e3)
        .collect();
    metrics.set("server.transport_self_us", median(&mut v));
    let mut v: Vec<f64> = reads
        .iter()
        .map(|r| diff(r.submit_ns, r.execute_ns) / 1e3)
        .collect();
    metrics.set("server.service_self_us", median(&mut v));
    metrics.set(
        "server.proto.encode_us",
        us(reads.iter().map(|r| r.proto_encode_ns)),
    );
    metrics.set(
        "server.proto.decode_us",
        us(reads.iter().map(|r| r.proto_decode_ns)),
    );
    metrics.set(
        "server.proto.reply_bytes",
        sum(|r| r.reply_bytes as u64) / n,
    );
    metrics.set("server.admission_rejected", admission.rejected as f64);
    metrics.set(
        "server.admission_peak_inflight",
        admission.peak_inflight as f64,
    );
    metrics.set("engine.sql.parse_us", us(reads.iter().map(|r| r.parse_ns)));
    metrics.set("engine.exact_plan_us", median(&mut exact_plan_us));
    metrics.set("taster.plan_us", us(reads.iter().map(|r| r.plan_ns)));
    let mut v: Vec<f64> = reads
        .iter()
        .map(|r| diff(r.execute_ns, r.plan_ns + r.exec_ns) / 1e3)
        .collect();
    metrics.set("taster.self_us", median(&mut v));
    metrics.set("taster.plan_share", share(|r| r.plan_ns));
    let approximate = reads.iter().filter(|r| r.approximate).count();
    metrics.set("taster.approx_ratio", approximate as f64 / n);
    metrics.set(
        "taster.reuse_ratio",
        reads.iter().filter(|r| r.reused).count() as f64 / n,
    );
    let builds = eng.engine.synopsis_builds() - builds_before;
    let refreshes = eng.engine.synopsis_refreshes() - refreshes_before;
    metrics.set("taster.synopsis_builds", builds as f64);
    metrics.set("taster.synopsis_refreshes", refreshes as f64);
    metrics.set(
        "taster.builds_coalesced",
        tcp.engine.builds_coalesced() as f64,
    );
    let mut v: Vec<f64> = reads
        .iter()
        .filter(|r| r.built)
        .map(|r| r.execute_ns as f64 / 1e6)
        .collect();
    metrics.set("taster.build_query_ms", median_or_zero(&mut v));
    metrics.set(
        "taster.store_bytes",
        (usage.buffer_bytes + usage.warehouse_bytes) as f64,
    );
    metrics.set(
        "taster.store_budget_ratio",
        (usage.buffer_bytes + usage.warehouse_bytes) as f64
            / (usage.buffer_quota + usage.warehouse_quota) as f64,
    );
    metrics.set("taster.missed_groups", verdict.missed_groups as f64);
    metrics.set("engine.exec_us", us(reads.iter().map(|r| r.exec_ns)));
    metrics.set("engine.exec_share", share(|r| r.exec_ns));
    metrics.set("engine.base_rows_scanned", base_rows / n);
    metrics.set("engine.rows_per_s", rate(|r| r.metrics.base_rows_scanned));
    metrics.set(
        "engine.partitions_pruned_ratio",
        pruned / (pruned + scanned).max(1.0),
    );
    let mut v: Vec<f64> = reads
        .iter()
        .filter(|r| matches!(r.template.as_str(), "x_point" | "x_range"))
        .map(|r| r.tcp_ns as f64 / 1e3)
        .collect();
    metrics.set("engine.index_probe_us", median_or_zero(&mut v));
    metrics.set(
        "engine.shared_scan_attach_ratio",
        scans.attached as f64 / (scans.passes + scans.attached).max(1) as f64,
    );
    metrics.set("engine.synopsis_rows_read", synopsis_rows / n);
    metrics.set(
        "engine.synopsis_rows_per_s",
        rate(|r| r.metrics.warehouse_rows_read + r.metrics.buffer_rows_read),
    );
    // The ingest metrics read 0 on the workloads that have no such operation.
    metrics.set(
        "storage.append_us_per_krow",
        median_or_zero(&mut append_us_per_krow),
    );
    metrics.set(
        "storage.wal_bytes_per_user_byte",
        eng.dir.as_deref().map_or(0.0, |dir| {
            (dir_bytes(dir) - disk_before) as f64 / appended_bytes.max(1) as f64
        }),
    );
    metrics.set(
        "storage.bytes_per_row",
        final_table.size_bytes() as f64 / final_table.num_rows().max(1) as f64,
    );
    metrics.set("taster.delete_ms", median_or_zero(&mut delete_ms));
    metrics.set("storage.compact_ms", median_or_zero(&mut compact_ms));
    metrics.set("storage.compactions", compactions as f64);
    metrics.set("storage.rows_rewritten", rows_rewritten as f64);
    metrics.set(
        "storage.dead_row_ratio",
        1.0 - final_table.live_rows() as f64 / final_table.num_rows().max(1) as f64,
    );
    metrics.set("loadgen.late_p95_ms", after.late_p95_ms);
    metrics.set("baselines.exact_ms", median(&mut exact_ms));
    metrics.set("baselines.speedup", median(&mut speedups));
    metrics.set(
        "trace.overhead_ratio",
        median(&mut tcp_ms) / after.read_p50_ms - 1.0,
    );
    metrics.set("trace.twin_divergence", divergence as f64);
    // A layer's self time is its span minus what its children cover, and a
    // child cannot cover more than the span. Children are timed on other
    // twins, so a single request's differences are mostly the noise between
    // two stacks (a `steady_reuse` request repeats to ± 0.3 ms, its
    // transport costs 0.12 ms); spans are therefore summed per kind of
    // statement before they are subtracted. Where the children of a kind
    // still outlast their parent, its self times add up to more than its
    // `tcp.request`: this is the share of the end-to-end time by which the
    // per-layer budget fails to add up.
    let add_up = |groups: &mut dyn Iterator<Item = [u64; 7]>| {
        let layers: u64 = groups
            .map(|[tcp, frames, submit, parse, execute, plan, exec]| {
                frames
                    + 3 * parse
                    + plan
                    + exec
                    + tcp.saturating_sub(frames + submit)
                    + submit.saturating_sub(2 * parse + execute)
                    + execute.saturating_sub(parse + plan + exec)
            })
            .sum();
        (layers as f64 / sum(|r| r.tcp_ns).max(1.0) - 1.0).abs()
    };
    let spans = |r: &ReadRecord| {
        [
            r.tcp_ns,
            r.proto_encode_ns + r.proto_decode_ns,
            r.submit_ns,
            r.parse_ns,
            r.execute_ns,
            r.plan_ns,
            r.exec_ns,
        ]
    };
    let mut kinds: BTreeMap<&str, [u64; 7]> = BTreeMap::new();
    for r in &reads {
        let total = kinds.entry(r.template.as_str()).or_default();
        for (t, span) in total.iter_mut().zip(spans(r)) {
            *t += span;
        }
    }
    let unattributed = add_up(&mut kinds.values().copied());
    notes.push((
        "trace.unattributed_per_request".into(),
        add_up(&mut reads.iter().map(spans)),
        "ratio",
    ));
    metrics.set("trace.unattributed_ratio", unattributed);

    // ---- what the run must show, or it fails --------------------------------------
    let mut require = |holds: bool, what: &str| {
        if !holds {
            failed += 1;
            eprintln!("SHAPE: {what}");
        }
    };
    require(divergence == 0, "the twins chose different plans");
    require(admission.rejected == 0, "admission rejected a request");
    let rows = sizing.lineitem_rows as f64;
    match workload {
        Workload::ExactScan => {
            require(
                approximate == 0 && builds == 0 && refreshes == 0,
                "exact_scan: a reply was approximate or a synopsis was built",
            );
            require(
                base_rows / n >= 20.0 * rows * REUSE_MAX_BASE_ROWS,
                "exact_scan: under 20 times the base rows of steady_reuse",
            );
        }
        Workload::Drift if sizing.enforce_shape => require(
            builds > 0 && refreshes > 0,
            "drift: no synopsis built or none refreshed",
        ),
        Workload::SteadyReuse if sizing.enforce_shape => {
            require(
                approximate == reads.len(),
                "steady_reuse: a reply was not approximate",
            );
            require(
                base_rows / n <= rows * REUSE_MAX_BASE_ROWS,
                "steady_reuse: reads base rows like a scan",
            );
            require(
                unattributed <= MAX_UNATTRIBUTED,
                "steady_reuse: the layers do not add up to the request",
            );
        }
        Workload::MutateMix if sizing.enforce_shape => {
            require(compactions >= 2, "mutate_mix: fewer than 2 compactions");
            require(
                after.kept_schedule,
                "mutate_mix: the ingest stream fell behind its schedule",
            );
        }
        _ => {}
    }
    failed += verdict.exact_wrong;
    notes.extend([
        ("traced.reads".into(), reads.len() as f64, "count"),
        ("traced.operations".into(), ops.len() as f64, "count"),
        ("tcp.request_p50_ms".into(), median(&mut tcp_ms), "ms"),
        ("untraced.request_p50_ms".into(), after.read_p50_ms, "ms"),
        ("verify.replies".into(), verdict.replies as f64, "count"),
        ("err_coverage".into(), verdict.coverage(), "ratio"),
    ]);

    // ---- `mutate_mix` restarts from its directory ---------------------------------
    let live = final_table.live_rows();
    drop(final_table);
    drop(tables);
    drop(baseline);
    let mut recover_ms = 0.0;
    if let (config, Some(dir)) = eng.shutdown() {
        let t = Instant::now();
        let recovered = TasterEngine::recover(config, &dir);
        recover_ms = t.elapsed().as_secs_f64() * 1e3;
        let recovered_live = recovered
            .map_err(|e| e.to_string())
            .and_then(|(engine, _)| lineitem(&engine.catalog_handle()))
            .map(|t| t.live_rows());
        let _ = std::fs::remove_dir_all(&dir);
        attempted += 1;
        if recovered_live.as_ref() != Ok(&live) {
            failed += 1;
            eprintln!("RECOVERY CHECK FAILED: {live} live rows before, {recovered_live:?} after");
        }
    }
    metrics.set("taster.recover_ms", recover_ms);

    tracer.write(
        &out_dir.join(format!("trace-{}.json", workload.name())),
        workload,
        seed,
    )?;
    Ok(Outcome {
        metrics,
        notes,
        attempted,
        failed,
    })
}
