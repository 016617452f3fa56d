//! Request generators: everything the program under test receives is made
//! here from the run's seed — SQL text and row batches, nothing else.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use taster_storage::RecordBatch;
use taster_workloads::tpch::{self, TpchScale};
use taster_workloads::{QueryInstance, Workload};

/// Templates whose synopses `steady_reuse` (and the reader of `mutate_mix`)
/// materialises in set-up and then reuses: the first Fig. 6 group plus `q1`,
/// the widest single-table aggregate.
pub const REUSE_TEMPLATES: [&str; 4] = ["q1", "q6", "q14", "q17"];

/// Length of the fixed statement rotation of `exact_scan`: two index probes
/// (under a millisecond), one dictionary-filtered scan, three MIN/MAX
/// group-bys and two MIN/MAX joins (the slowest). Sorted by latency that is
/// 25 % + 12.5 % + 37.5 % + 25 %, so the median falls inside the group-by
/// cluster and the 95th percentile inside the join cluster on every seed,
/// never on the edge between two kinds of statement.
pub const EXACT_CYCLE: usize = 8;

/// Seed of everything that must be the same on every `--seed`: the rows, the
/// warm-up, and the predicates of the requests whose replies are checked. An
/// estimate's error depends on the one random sample a run draws from the
/// rows: over ten seeds of generated rows `err_coverage` of `steady_reuse`
/// moved between 0.94 and 0.99 whatever the program did, with these fixed
/// it is the same number on every run of the same program.
pub const FIXED_SEED: u64 = 0x7a57e;

/// Rows per append of the `mutate_mix` ingest stream.
pub const APPEND_ROWS: usize = 2_000;
/// `lineitem` grows by this share of its initial size at every `drift`
/// epoch boundary.
pub const DRIFT_GROWTH: f64 = 0.10;
/// Laps over the four Fig. 6 template groups in `drift`.
pub const DRIFT_LAPS: usize = 2;

/// First and one-past-last `l_shipdate` the generator draws (uniform over
/// the integers between, see `tpch::lineitem_rows`).
const SHIPDATE_LO: i64 = 19_920_101;
const SHIPDATE_HI: i64 = 19_981_231;

/// `n` random-predicate instances of `templates`, taken in rotation from
/// `first`. `taster_workloads::epoch_sequence` draws the template at random
/// too; here only the predicates are random, so that every seed does the
/// same amount of each kind of work and a metric does not move with the mix.
fn rotation(
    workload: &Workload,
    templates: &[&str],
    first: usize,
    n: usize,
    rng: &mut SmallRng,
) -> Vec<QueryInstance> {
    (0..n)
        .map(|i| {
            let id = templates[(first + i) % templates.len()];
            let template = workload.template(id).expect("a TPC-H template id");
            QueryInstance {
                template_id: id.to_string(),
                sql: template.instantiate(rng),
            }
        })
        .collect()
}

/// `n` random-predicate instances of [`REUSE_TEMPLATES`] in rotation,
/// starting from template `first`.
pub fn reuse_requests(seed: u64, first: usize, n: usize) -> Vec<QueryInstance> {
    let mut rng = SmallRng::seed_from_u64(seed);
    rotation(&tpch::workload(), &REUSE_TEMPLATES, first, n, &mut rng)
}

/// Give the requests at `positions` predicates drawn from [`FIXED_SEED`]
/// (mixed with `stream`, so two lists do not carry the same probes): the
/// replies `err_coverage` is computed from answer the same questions on
/// every seed. Their templates stay what the rotation made them.
pub fn fix_probes(list: &mut [QueryInstance], positions: &[usize], stream: u64) {
    let workload = tpch::workload();
    let mut rng = SmallRng::seed_from_u64(FIXED_SEED ^ stream << 32);
    for &i in positions {
        let template = workload
            .template(&list[i].template_id)
            .expect("a TPC-H template id");
        list[i].sql = template.instantiate(&mut rng);
    }
}

/// `n` statements no synopsis can answer: MIN/MAX aggregates (the planner
/// only samples for COUNT/SUM/AVG) and plain row probes.
pub fn exact_requests(seed: u64, n: usize, scale: &TpchScale) -> Vec<QueryInstance> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let orders = (scale.lineitem_rows / 4).max(100) as i64;
    // One year of dates: a statement's cost should depend on its kind, not
    // on how selective this seed's predicates happen to be.
    let date = |rng: &mut SmallRng| rng.random_range(19_930_101..19_940_101i64);
    (0..n)
        .map(|i| {
            let (id, sql) = match i % EXACT_CYCLE {
                0 | 3 | 6 => (
                    "x_minmax",
                    format!(
                        "SELECT l_returnflag, l_linestatus, MIN(l_extendedprice), MAX(l_extendedprice), MIN(l_shipdate) \
                         FROM lineitem WHERE l_shipdate >= {} GROUP BY l_returnflag, l_linestatus",
                        date(&mut rng)
                    ),
                ),
                1 => (
                    "x_point",
                    format!(
                        "SELECT l_orderkey, l_quantity, l_extendedprice FROM lineitem WHERE l_orderkey = {}",
                        rng.random_range(0..orders)
                    ),
                ),
                2 => {
                    let mode = ["MAIL", "SHIP", "AIR", "TRUCK", "RAIL", "FOB", "REG AIR"]
                        [rng.random_range(0..7)];
                    (
                        "x_dict",
                        format!(
                            "SELECT l_linestatus, MIN(l_quantity), MAX(l_extendedprice) FROM lineitem \
                             WHERE l_shipmode = '{mode}' AND l_discount <= {} GROUP BY l_linestatus",
                            rng.random_range(2..9) as f64 / 100.0
                        ),
                    )
                }
                5 => {
                    let lo = rng.random_range(0..orders - 64);
                    (
                        "x_range",
                        format!(
                            "SELECT l_orderkey, l_quantity, l_extendedprice FROM lineitem \
                             WHERE l_orderkey >= {lo} AND l_orderkey < {}",
                            lo + 64
                        ),
                    )
                }
                _ => (
                    "x_join",
                    format!(
                        "SELECT o_orderpriority, MIN(l_extendedprice), MAX(l_extendedprice) FROM lineitem \
                         JOIN orders ON l_orderkey = o_orderkey \
                         WHERE o_orderdate >= {} GROUP BY o_orderpriority",
                        date(&mut rng)
                    ),
                ),
            };
            QueryInstance {
                template_id: id.to_string(),
                sql,
            }
        })
        .collect()
}

/// One epoch of `drift`: the batch appended to `lineitem` at its start (none
/// before the first) and the queries that follow.
pub struct Epoch {
    pub growth: Option<RecordBatch>,
    pub queries: Vec<QueryInstance>,
    /// Positions in `queries` of the fixed probes whose replies are checked.
    pub probes: Vec<usize>,
}

/// The Fig. 6 scenario: [`DRIFT_LAPS`] laps over the four template groups,
/// `per_epoch` queries each of which `probes_per_epoch` are fixed probes,
/// `lineitem` growing at every boundary.
pub fn drift_epochs(
    seed: u64,
    per_epoch: usize,
    probes_per_epoch: usize,
    scale: &TpchScale,
) -> Vec<Epoch> {
    let workload = tpch::workload();
    let groups = tpch::fig6_epochs();
    let growth_rows = (scale.lineitem_rows as f64 * DRIFT_GROWTH) as usize;
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..DRIFT_LAPS * groups.len())
        .map(|index| {
            let group = &groups[index % groups.len()];
            let mut queries = rotation(&workload, group, 0, per_epoch, &mut rng);
            let probes = sample_indices(per_epoch, probes_per_epoch, group.len());
            fix_probes(&mut queries, &probes, index as u64);
            Epoch {
                growth: (index > 0)
                    .then(|| tpch::lineitem_growth_batch(scale, growth_rows, index as u64)),
                queries,
                probes,
            }
        })
        .collect()
}

/// One slot of the `mutate_mix` ingest stream.
pub enum WriteOp {
    /// `Table::append` of this batch to `lineitem`.
    Append(RecordBatch),
    /// A wire `DELETE` or `UPDATE`, with the predicate it carries (so that
    /// the serial traced run can count the matching rows first).
    Mutation { sql: String, predicate: String },
}

/// The ingest stream mutates in one slot of every this many (one mutation a
/// second). The mutation takes the third slot of its five, so that a phase of
/// whole seconds ends on two appends and the stall behind its last mutation
/// is inside it.
pub const MUTATION_EVERY: usize = 5;
const MUTATION_SLOT: usize = 2;

/// Share of the `l_shipdate` range one mutation moves the retention window
/// by: 2 % of the rows, so with `compact_dead_fraction` = 0.1 the sealed
/// partitions cross the compaction threshold every five or six mutations.
const RETENTION_STEP: f64 = 0.02;

/// The ingest stream: an append every slot, every fifth slot instead a
/// mutation that advances a retention window over `l_shipdate` — two
/// `DELETE`s of everything older than the new edge, then an `UPDATE` that
/// rewrites the next slice (a delete plus a re-append at the tail). `seed`
/// makes the appended rows.
pub fn writer_ops(seed: u64, slots: usize, scale: &TpchScale) -> Vec<WriteOp> {
    let step = ((SHIPDATE_HI - SHIPDATE_LO) as f64 * RETENTION_STEP) as i64;
    let mut edge = SHIPDATE_LO;
    let mut mutation = 0;
    (0..slots)
        .map(|slot| {
            if slot % MUTATION_EVERY != MUTATION_SLOT {
                return WriteOp::Append(tpch::lineitem_growth_batch(
                    scale,
                    APPEND_ROWS,
                    seed.wrapping_add(slot as u64) | 1 << 40,
                ));
            }
            let next = edge + step;
            let op = if mutation % 3 == 2 {
                let predicate = format!("l_shipdate >= {edge} AND l_shipdate < {next}");
                WriteOp::Mutation {
                    sql: format!("UPDATE lineitem SET l_tax = 0.0 WHERE {predicate}"),
                    predicate,
                }
            } else {
                let predicate = format!("l_shipdate < {next}");
                WriteOp::Mutation {
                    sql: format!("DELETE FROM lineitem WHERE {predicate}"),
                    predicate,
                }
            };
            edge = next;
            mutation += 1;
            op
        })
        .collect()
}

/// `k` of `0..n`, evenly spaced — the replies whose answers are checked.
/// The stride is co-prime to `period`, the length of the template rotation,
/// so the sample steps through every template; which replies are checked
/// depends on no seed, so two runs check the same mix.
pub fn sample_indices(n: usize, k: usize, period: usize) -> Vec<usize> {
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let k = k.min(n);
    if k == 0 {
        return Vec::new();
    }
    let mut stride = n / k;
    while gcd(stride, period) != 1 {
        stride -= 1;
    }
    (0..k).map(|j| j * stride).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use taster_engine::{parse_statement, Statement};

    fn scale() -> TpchScale {
        crate::stack::tpch_scale(60_000)
    }

    #[test]
    fn same_seed_same_requests() {
        let s = scale();
        assert_eq!(reuse_requests(5, 0, 40), reuse_requests(5, 0, 40));
        assert_ne!(reuse_requests(5, 0, 40), reuse_requests(6, 0, 40));
        assert_eq!(reuse_requests(5, 1, 40)[0].template_id, REUSE_TEMPLATES[1]);
        assert_eq!(exact_requests(5, 16, &s), exact_requests(5, 16, &s));
        let (a, b) = (drift_epochs(5, 6, 2, &s), drift_epochs(5, 6, 2, &s));
        assert_eq!(a.len(), 4 * DRIFT_LAPS);
        assert!(a[0].growth.is_none() && a[1].growth.is_some());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.queries, y.queries);
            assert_eq!(x.growth, y.growth);
        }
        // Another seed asks other questions, except at the probes.
        for (x, y) in a.iter().zip(&drift_epochs(6, 6, 2, &s)) {
            assert_eq!(x.probes, y.probes);
            assert_ne!(x.queries, y.queries);
            for &i in &x.probes {
                assert_eq!(x.queries[i], y.queries[i]);
            }
        }
    }

    #[test]
    fn exact_statements_parse_and_are_not_approximable() {
        for q in exact_requests(1, 2 * EXACT_CYCLE, &scale()) {
            match parse_statement(&q.sql) {
                Ok(Statement::Select(s)) => assert!(!s.is_approximable(), "{}", q.sql),
                other => panic!("{} parsed as {other:?}", q.sql),
            }
        }
    }

    #[test]
    fn writer_stream_mixes_appends_and_parsable_mutations() {
        let ops = writer_ops(1, 6 * MUTATION_EVERY, &scale());
        assert!(matches!(ops[MUTATION_SLOT], WriteOp::Mutation { .. }));
        assert!(matches!(ops.last(), Some(WriteOp::Append(_))));
        let mutations: Vec<&str> = ops
            .iter()
            .filter_map(|op| match op {
                WriteOp::Mutation { sql, .. } => Some(sql.as_str()),
                WriteOp::Append(_) => None,
            })
            .collect();
        assert_eq!(mutations.len(), 6);
        assert!(mutations[0].starts_with("DELETE") && mutations[2].starts_with("UPDATE"));
        for sql in mutations {
            assert!(
                !matches!(parse_statement(sql), Ok(Statement::Select(_)) | Err(_)),
                "{sql}"
            );
        }
    }

    #[test]
    fn sample_indices_are_distinct_in_range_and_cover_the_rotation() {
        for (n, k, period) in [(1000, 50, 4), (60, 4, 3), (60, 4, 4), (3, 50, 4), (8, 8, 8)] {
            let picked = sample_indices(n, k, period);
            assert_eq!(picked.len(), k.min(n));
            assert!(picked.windows(2).all(|w| w[0] < w[1]) && picked.iter().all(|i| *i < n));
            let templates: std::collections::HashSet<_> =
                picked.iter().map(|i| i % period).collect();
            assert_eq!(
                templates.len(),
                period.min(picked.len()),
                "{n} {k} {period}"
            );
        }
    }
}
