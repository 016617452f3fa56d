//! Answer verification against an untimed `BaselineEngine` (exact
//! execution, no synopses) over the same rows.

use std::collections::HashMap;

use taster_baselines::BaselineEngine;
use taster_engine::parse_query;
use taster_server::QueryReply;

use crate::stack::nproc;

/// Tally of checked replies.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verdict {
    /// Replies compared against the baseline.
    pub replies: usize,
    /// Approximate `(query, group, aggregate)` estimates compared.
    pub estimates: usize,
    /// ... of which within the query's promised relative error.
    pub within: usize,
    /// Groups of an exact answer that an approximate reply did not contain.
    pub missed_groups: usize,
    /// Exact replies compared, and how many did not match the baseline.
    pub exact_checked: usize,
    pub exact_wrong: usize,
    /// Wall time of the baseline executions, in seconds.
    pub baseline_secs: f64,
    /// Sum, and number, of the per-reply shares `coverage` averages.
    share_sum: f64,
    shares: usize,
}

/// What checking one reply found.
#[derive(Debug, Clone, Copy)]
pub struct Check {
    approximate: bool,
    estimates: usize,
    within: usize,
    missed_groups: usize,
    /// An exact reply that is not the baseline's answer bit for bit.
    wrong: bool,
    /// Wall time of the baseline execution, in seconds.
    pub baseline_secs: f64,
}

impl Verdict {
    /// Mean over the checked replies of the share of a reply's estimates
    /// inside the promised error: ε for an approximate reply, nothing for an
    /// exact one (so a workload with only exact replies reads 1 while they
    /// are right). Every reply weighs the same: weighing every estimate the
    /// same lets the templates with the most groups decide the number. NaN
    /// when nothing was checked.
    pub fn coverage(&self) -> f64 {
        self.share_sum / self.shares as f64
    }

    pub fn record(&mut self, check: &Check) {
        self.replies += 1;
        self.baseline_secs += check.baseline_secs;
        if !check.approximate {
            self.exact_checked += 1;
            self.exact_wrong += usize::from(check.wrong);
            self.share_sum += f64::from(u8::from(!check.wrong));
            self.shares += 1;
            return;
        }
        self.estimates += check.estimates;
        self.within += check.within;
        self.missed_groups += check.missed_groups;
        // A predicate no live row satisfies leaves nothing to be right about.
        if check.estimates > 0 {
            self.share_sum += check.within as f64 / check.estimates as f64;
            self.shares += 1;
        }
    }
}

/// Execute `sql` exactly and compare `reply` with the answer. An exact reply
/// must carry the baseline's values bit for bit (both run the same plan over
/// the same partitions) and its row count — the wire carries no rows, so that
/// is all of a row probe there is to compare. An approximate reply is
/// measured: `|value − truth| ≤ ε · |truth|` per estimate.
pub fn check_reply(
    baseline: &BaselineEngine,
    sql: &str,
    reply: &QueryReply,
) -> Result<Check, String> {
    let query = parse_query(sql).map_err(|e| format!("parse {sql}: {e}"))?;
    let exact = baseline
        .execute_sql(sql)
        .map_err(|e| format!("baseline {sql}: {e}"))?
        .result;
    let mut check = Check {
        approximate: reply.approximate,
        estimates: 0,
        within: 0,
        missed_groups: 0,
        wrong: false,
        baseline_secs: exact.metrics.wall_time_ns as f64 / 1e9,
    };
    let got: HashMap<&[String], &[(f64, f64)]> = reply
        .groups
        .iter()
        .map(|g| (g.key.as_slice(), g.aggregates.as_slice()))
        .collect();
    if !reply.approximate {
        let same = reply.rows == exact.rows.num_rows()
            && reply.groups.len() == exact.groups.len()
            && exact.groups.iter().all(|g| {
                let key: Vec<String> = g.key.iter().map(|v| v.to_string()).collect();
                got.get(key.as_slice()).is_some_and(|aggs| {
                    aggs.len() == g.aggregates.len()
                        && aggs
                            .iter()
                            .zip(&g.aggregates)
                            .all(|((value, _), truth)| value.to_bits() == truth.value.to_bits())
                })
            });
        if !same {
            check.wrong = true;
            eprintln!("WRONG exact answer for: {sql}");
        }
        return Ok(check);
    }
    let epsilon = query.accuracy().relative_error;
    for g in &exact.groups {
        let key: Vec<String> = g.key.iter().map(|v| v.to_string()).collect();
        check.estimates += g.aggregates.len();
        match got.get(key.as_slice()) {
            None => check.missed_groups += 1,
            Some(aggs) => {
                check.within += aggs
                    .iter()
                    .zip(&g.aggregates)
                    .filter(|((value, _), truth)| {
                        (value - truth.value).abs() <= epsilon * truth.value.abs()
                    })
                    .count();
            }
        }
    }
    Ok(check)
}

/// [`check_reply`] for each of `replies` against one state of the rows, on
/// every core, recorded in the order given.
pub fn check_replies(
    baseline: &BaselineEngine,
    replies: &[(&str, &QueryReply)],
    verdict: &mut Verdict,
) -> Result<(), String> {
    let threads = nproc().min(replies.len()).max(1);
    let checks: Vec<Vec<Result<Check, String>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    replies
                        .iter()
                        .skip(t)
                        .step_by(threads)
                        .map(|(sql, reply)| check_reply(baseline, sql, reply))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checker thread panicked"))
            .collect()
    });
    for i in 0..replies.len() {
        verdict.record(
            checks[i % threads][i / threads]
                .as_ref()
                .map_err(String::clone)?,
        );
    }
    Ok(())
}
