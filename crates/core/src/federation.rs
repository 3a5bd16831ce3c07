//! Federated queries across distributed warehouses.
//!
//! The paper's query language serves "the querying of one or more
//! distributed or local warehouses managed within the gRNA" (§3). A
//! [`Federation`] holds several [`Xomatiq`] warehouses (in a real gRNA
//! deployment these would be remote nodes; here they are in-process
//! instances, which exercises the same split-translate-combine path).
//!
//! Execution strategy for a query whose FOR bindings span warehouses:
//!
//! 1. the WHERE tree is split into top-level conjuncts;
//! 2. each warehouse gets a sub-query containing its bindings, the
//!    conjuncts touching only its variables, the RETURN items rooted at
//!    its variables, and — as hidden extra columns — the path expressions
//!    its variables contribute to cross-warehouse comparisons;
//! 3. sub-queries run on their warehouses through the ordinary XQ2SQL
//!    path;
//! 4. the partial results are combined by one relstore statement: each
//!    member's rows are loaded, as typed values, into a table of a
//!    per-query in-memory [`Database`], and a single `SELECT DISTINCT`
//!    joins them on the cross-warehouse comparisons, projects the user's
//!    RETURN order and sorts by the first column, as XQ2SQL does for one
//!    warehouse. The engine plans that statement like any other, and
//!    [`QueryOutcome::sql`] carries it.
//!
//! Cross-warehouse disjunctions (an `OR` mixing variables of different
//! warehouses) are rejected as unsupported, mirroring the conjunctive
//! split; everything the paper's figures need is conjunctive.

use std::collections::HashMap;
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

use xomatiq_obs::{Counter, Histogram};

use xomatiq_relstore::sql::ast::{Expr, Statement};
use xomatiq_relstore::{DataType, Database};
use xomatiq_xquery::ast::{
    CompOp, Comparison, Condition, FlwrQuery, Operand, PathExpr, ReturnItem,
};
use xomatiq_xquery::{parse_query, QueryError};

use crate::warehouse::{QueryOutcome, Xomatiq, XomatiqError};

/// Cached federation-metric handles (`core.federation.*`), resolved once.
struct FedMetrics {
    /// `core.federation.queries` — federated queries attempted.
    queries: Counter,
    /// `core.federation.degraded_queries` — queries that lost at least one
    /// member but still produced a (partial) answer path.
    degraded_queries: Counter,
    /// `core.federation.member_failures` — member sub-queries that failed
    /// (execution error, injected fault, missed deadline).
    member_failures: Counter,
    /// `core.federation.member_wait` — wall-time spent waiting on each
    /// member's answer, successful or not.
    member_wait_ns: Histogram,
}

fn fed_metrics() -> &'static FedMetrics {
    static CELL: OnceLock<FedMetrics> = OnceLock::new();
    CELL.get_or_init(|| {
        let reg = xomatiq_obs::global();
        FedMetrics {
            queries: reg.counter("core.federation.queries"),
            degraded_queries: reg.counter("core.federation.degraded_queries"),
            member_failures: reg.counter("core.federation.member_failures"),
            member_wait_ns: reg.histogram("core.federation.member_wait"),
        }
    })
}

/// An injected fault for one member, returned by a [`FaultHook`]. Tests
/// use this to simulate a member dying mid-query or hanging past its
/// deadline without needing a real remote node to kill.
#[derive(Debug, Clone)]
pub enum MemberFault {
    /// The member fails immediately with this message.
    Fail(String),
    /// The member stalls for this long before answering (exceeding the
    /// federation deadline makes it count as failed).
    Hang(Duration),
}

/// Decides, per member name, whether to inject a [`MemberFault`] for the
/// current query. Runs on the member's worker thread.
pub type FaultHook = Arc<dyn Fn(&str) -> Option<MemberFault> + Send + Sync>;

/// One member that did not contribute to a federated result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberFailure {
    /// The federation name of the member.
    pub member: String,
    /// Why it failed (execution error, injected fault, or deadline).
    pub reason: String,
}

/// Which members failed during a federated query. Empty on a clean run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegradedReport {
    /// The members whose sub-queries did not complete.
    pub failed: Vec<MemberFailure>,
}

impl DegradedReport {
    /// Whether any member failed (the result is partial).
    pub fn is_degraded(&self) -> bool {
        !self.failed.is_empty()
    }
}

/// A federated query result together with its degradation report.
#[derive(Debug, Clone)]
pub struct FederatedOutcome {
    /// The (possibly partial) combined result.
    pub outcome: QueryOutcome,
    /// Which members failed; empty when every member answered.
    pub degraded: DegradedReport,
}

/// A set of named warehouses queried as one system.
#[derive(Default)]
pub struct Federation {
    members: Vec<(String, Arc<Xomatiq>)>,
    member_deadline: Option<Duration>,
    strict: bool,
    fault_hook: Option<FaultHook>,
}

impl Federation {
    /// Creates an empty federation.
    pub fn new() -> Self {
        Federation::default()
    }

    /// Adds a warehouse under `name`.
    pub fn add_warehouse(&mut self, name: &str, warehouse: Arc<Xomatiq>) {
        self.members.push((name.to_string(), warehouse));
    }

    /// Member warehouse names.
    pub fn members(&self) -> Vec<&str> {
        self.members.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Sets the per-member execution deadline. A member that has not
    /// answered its sub-query within the deadline counts as failed; its
    /// worker is abandoned (never joined), so a hung member cannot stall
    /// the federation. `None` (the default) waits indefinitely.
    pub fn set_member_deadline(&mut self, deadline: Option<Duration>) {
        self.member_deadline = deadline;
    }

    /// Opts into strict all-or-nothing semantics: any member failure fails
    /// the whole query instead of returning a degraded partial result.
    pub fn set_strict(&mut self, strict: bool) {
        self.strict = strict;
    }

    /// Installs (or clears) the fault-injection hook consulted before each
    /// member sub-query. Production federations leave this `None`.
    pub fn set_fault_hook(&mut self, hook: Option<FaultHook>) {
        self.fault_hook = hook;
    }

    /// The member warehouse holding `collection`, if any.
    pub fn locate(&self, collection: &str) -> Option<&Arc<Xomatiq>> {
        self.members
            .iter()
            .map(|(_, w)| w)
            .find(|w| w.collections().iter().any(|c| c == collection))
    }

    /// Parses and runs a FLWR query that may span member warehouses.
    pub fn query(&self, text: &str) -> Result<QueryOutcome, XomatiqError> {
        self.query_with_report(text).map(|f| f.outcome)
    }

    /// Parses and runs a FLWR query, also reporting which members (if any)
    /// failed to contribute.
    pub fn query_with_report(&self, text: &str) -> Result<FederatedOutcome, XomatiqError> {
        let parsed = parse_query(text)?;
        self.run_query_with_report(&parsed)
    }

    /// Starts `sub` on member `member`'s own worker thread and returns the
    /// channel its result will arrive on. The worker is detached: if it
    /// outlives the deadline it finishes (or hangs) in the background
    /// without holding the federation hostage.
    fn spawn_member(
        &self,
        member: usize,
        sub: FlwrQuery,
    ) -> mpsc::Receiver<Result<QueryOutcome, XomatiqError>> {
        let (tx, rx) = mpsc::channel();
        let name = self.members[member].0.clone();
        let warehouse = Arc::clone(&self.members[member].1);
        let hook = self.fault_hook.clone();
        std::thread::spawn(move || {
            let result = (|| {
                if let Some(hook) = &hook {
                    match hook(&name) {
                        Some(MemberFault::Fail(msg)) => {
                            return Err(XomatiqError::Federation(format!(
                                "member {name:?} died: {msg}"
                            )))
                        }
                        Some(MemberFault::Hang(d)) => std::thread::sleep(d),
                        None => {}
                    }
                }
                warehouse.run_query(&sub)
            })();
            // A receiver that timed out and went away is fine.
            let _ = tx.send(result);
        });
        rx
    }

    /// Waits for one member's answer, applying the federation deadline.
    fn await_member(
        &self,
        rx: &mpsc::Receiver<Result<QueryOutcome, XomatiqError>>,
    ) -> Result<QueryOutcome, String> {
        let m = fed_metrics();
        let wait_start = Instant::now();
        let answer = match self.member_deadline {
            Some(deadline) => rx.recv_timeout(deadline).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => {
                    format!("deadline of {deadline:?} exceeded")
                }
                mpsc::RecvTimeoutError::Disconnected => "member worker vanished".to_string(),
            }),
            None => rx.recv().map_err(|_| "member worker vanished".to_string()),
        };
        let elapsed = u64::try_from(wait_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        m.member_wait_ns.record(elapsed);
        let result = match answer {
            Ok(a) => a.map_err(|e| e.to_string()),
            Err(e) => Err(e),
        };
        if result.is_err() {
            m.member_failures.inc();
        }
        result
    }

    /// Runs a parsed query across the federation.
    pub fn run_query(&self, query: &FlwrQuery) -> Result<QueryOutcome, XomatiqError> {
        self.run_query_with_report(query).map(|f| f.outcome)
    }

    /// Runs a parsed query across the federation, reporting degradation.
    ///
    /// By default a member that fails (execution error, injected fault, or
    /// missed deadline) is dropped from the result: surviving members'
    /// rows are combined, the failed member's RETURN columns come back as
    /// NULL, cross-warehouse conditions involving it are skipped, and the
    /// [`DegradedReport`] names it. With [`Federation::set_strict`] any
    /// member failure fails the whole query. A query whose *every*
    /// contributing member failed always errors — there is nothing left to
    /// return.
    pub fn run_query_with_report(
        &self,
        query: &FlwrQuery,
    ) -> Result<FederatedOutcome, XomatiqError> {
        fed_metrics().queries.inc();
        // Assign each binding variable to the member that holds its
        // collection.
        let mut var_home: HashMap<String, usize> = HashMap::new();
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new(); // (member idx, binding idxs)
        for (bi, binding) in query.bindings.iter().enumerate() {
            let member = self
                .members
                .iter()
                .position(|(_, w)| w.collections().iter().any(|c| c == &binding.collection))
                .ok_or_else(|| {
                    XomatiqError::Query(QueryError::UnknownCollection(binding.collection.clone()))
                })?;
            var_home.insert(binding.var.clone(), member);
            match groups.iter_mut().find(|(m, _)| *m == member) {
                Some((_, list)) => list.push(bi),
                None => groups.push((member, vec![bi])),
            }
        }
        // LET variables inherit the home of their base variable chain.
        let mut let_home = var_home.clone();
        for l in &query.lets {
            let home = let_home.get(&l.target.var).copied().ok_or_else(|| {
                XomatiqError::Query(QueryError::UnboundVariable(l.target.var.clone()))
            })?;
            let_home.insert(l.var.clone(), home);
        }

        // Single warehouse: delegate wholesale (still under the deadline
        // and fault hook — a lone member failing has no survivors to
        // degrade to, so it is always an error).
        if groups.len() <= 1 {
            let (member, _) = groups.first().ok_or_else(|| {
                XomatiqError::Query(QueryError::Parse("query has no bindings".into()))
            })?;
            let rx = self.spawn_member(*member, query.clone());
            let outcome = self.await_member(&rx).map_err(|reason| {
                XomatiqError::Federation(format!(
                    "member {:?} failed: {reason}",
                    self.members[*member].0
                ))
            })?;
            return Ok(FederatedOutcome {
                outcome,
                degraded: DegradedReport::default(),
            });
        }

        // Split the WHERE into conjuncts and classify by home set.
        let mut local: Vec<Vec<Condition>> = vec![Vec::new(); groups.len()];
        let mut cross: Vec<(PathExpr, CompOp, PathExpr)> = Vec::new();
        if let Some(cond) = &query.where_clause {
            for conjunct in split_and(cond) {
                let vars = condition_vars(&conjunct);
                let homes: std::collections::BTreeSet<usize> = vars
                    .iter()
                    .map(|v| {
                        let_home.get(v).copied().ok_or_else(|| {
                            XomatiqError::Query(QueryError::UnboundVariable(v.clone()))
                        })
                    })
                    .collect::<Result<_, _>>()?;
                if homes.len() <= 1 {
                    let home = homes.into_iter().next().unwrap_or(groups[0].0);
                    let slot = groups.iter().position(|(m, _)| *m == home).ok_or_else(|| {
                        XomatiqError::Query(QueryError::Parse(
                            "condition references no bound warehouse".into(),
                        ))
                    })?;
                    local[slot].push(conjunct);
                } else {
                    // Cross-warehouse conjuncts must be plain comparisons.
                    match conjunct {
                        Condition::Compare(Comparison {
                            left,
                            op,
                            right: Operand::Path(right),
                        }) => cross.push((left, op, right)),
                        _ => {
                            return Err(XomatiqError::Query(QueryError::Unsupported(
                                "only comparisons between path expressions may span \
                                 warehouses"
                                    .into(),
                            )))
                        }
                    }
                }
            }
        }

        // Build per-member sub-queries. Every RETURN item is one column of
        // its member's result; every path of a cross-warehouse comparison
        // is a hidden key column of the member that owns it.
        let slot_of = |var: &str| {
            let member = let_home.get(var)?;
            groups.iter().position(|(m, _)| m == member)
        };
        let item_slots: Vec<usize> = query
            .return_items
            .iter()
            .map(|item| {
                slot_of(&item.path.var).ok_or_else(|| {
                    XomatiqError::Query(QueryError::UnboundVariable(item.path.var.clone()))
                })
            })
            .collect::<Result<_, _>>()?;
        let mut item_cols = vec![0; item_slots.len()]; // RETURN position → column in its member's result
        let mut key_cols: Vec<HashMap<String, usize>> = Vec::new(); // slot → path string → column
        let mut subs: Vec<FlwrQuery> = Vec::new();
        for (slot, (member, binding_idxs)) in groups.iter().enumerate() {
            let bindings: Vec<_> = binding_idxs
                .iter()
                .map(|i| query.bindings[*i].clone())
                .collect();
            let lets: Vec<_> = query
                .lets
                .iter()
                .filter(|l| let_home.get(&l.var) == Some(member))
                .cloned()
                .collect();
            let mut items: Vec<ReturnItem> = Vec::new();
            for (pos, item) in query.return_items.iter().enumerate() {
                if item_slots[pos] == slot {
                    item_cols[pos] = items.len();
                    items.push(item.clone());
                }
            }
            let mut keys = HashMap::new();
            for side in cross.iter().flat_map(|(left, _, right)| [left, right]) {
                if slot_of(&side.var) == Some(slot) {
                    keys.entry(side.to_string()).or_insert_with(|| {
                        items.push(ReturnItem {
                            alias: Some(format!("__fed_key_{}", items.len())),
                            path: side.clone(),
                        });
                        items.len() - 1
                    });
                }
            }
            if items.is_empty() {
                // A warehouse contributing nothing visible still needs one
                // column so its row count (existence) participates.
                items.push(ReturnItem {
                    alias: Some("__fed_probe".into()),
                    path: PathExpr::bare(&bindings[0].var),
                });
            }
            let where_clause = and_all(local[slot].clone());
            subs.push(FlwrQuery {
                bindings,
                lets,
                where_clause,
                return_items: items,
                wrapper: None,
            });
            key_cols.push(keys);
        }

        // Launch every member's sub-query on its own worker, then gather
        // under the per-member deadline. A failed member yields `None`.
        let receivers: Vec<_> = groups
            .iter()
            .zip(subs)
            .map(|((member, _), sub)| self.spawn_member(*member, sub))
            .collect();
        let mut sub_outcomes: Vec<Option<QueryOutcome>> = Vec::new();
        let mut degraded = DegradedReport::default();
        for (slot, rx) in receivers.iter().enumerate() {
            match self.await_member(rx) {
                Ok(outcome) => sub_outcomes.push(Some(outcome)),
                Err(reason) => {
                    degraded.failed.push(MemberFailure {
                        member: self.members[groups[slot].0].0.clone(),
                        reason,
                    });
                    sub_outcomes.push(None);
                }
            }
        }
        if degraded.is_degraded() {
            fed_metrics().degraded_queries.inc();
            if self.strict {
                let detail: Vec<String> = degraded
                    .failed
                    .iter()
                    .map(|f| format!("{} ({})", f.member, f.reason))
                    .collect();
                return Err(XomatiqError::Federation(format!(
                    "strict mode: member failure(s): {}",
                    detail.join("; ")
                )));
            }
            if sub_outcomes.iter().all(Option::is_none) {
                return Err(XomatiqError::Federation(
                    "every federation member failed".into(),
                ));
            }
        }

        // Combine with one relstore statement. Each surviving member's
        // rows become table `m{slot}` of a per-query in-memory database,
        // loaded as typed values (XQ2SQL projects only text values, so
        // every column is TEXT). The statement joins on the
        // cross-warehouse comparisons, de-duplicates, and orders by the
        // first column, as XQ2SQL does for one warehouse. A failed
        // member's table is left out: its RETURN columns project NULL,
        // the comparisons touching it are skipped (the surviving side
        // comes back unfiltered), and the order key is the first
        // surviving column.
        let alive: Vec<bool> = sub_outcomes.iter().map(Option::is_some).collect();
        let db = Database::in_memory();
        let exec = |stmt: Statement| {
            db.execute_statement(stmt)
                .map_err(|e| XomatiqError::Execution(e.to_string()))
        };
        let mut tables = Vec::new();
        for (slot, outcome) in sub_outcomes.into_iter().enumerate() {
            let Some(outcome) = outcome else { continue };
            let table = format!("m{slot}");
            exec(Statement::CreateTable {
                name: table.clone(),
                columns: (0..outcome.columns.len())
                    .map(|k| (format!("c{k}"), DataType::Text))
                    .collect(),
            })?;
            if !outcome.rows.is_empty() {
                exec(Statement::Insert {
                    table: table.clone(),
                    rows: outcome
                        .rows
                        .into_iter()
                        .map(|row| row.into_iter().map(Expr::Literal).collect())
                        .collect(),
                })?;
            }
            tables.push(table);
        }
        let column = |slot: usize, col: usize| alive[slot].then(|| format!("m{slot}.c{col}"));
        let key = |side: &PathExpr| {
            let slot = slot_of(&side.var)?;
            column(slot, key_cols[slot][&side.to_string()])
        };
        let conjuncts: Vec<String> = cross
            .iter()
            .filter_map(|(left, op, right)| {
                Some(format!("{} {} {}", key(left)?, op.sql(), key(right)?))
            })
            .collect();
        let select: Vec<String> = item_slots
            .iter()
            .zip(&item_cols)
            .enumerate()
            .map(|(i, (&slot, &col))| {
                let value = column(slot, col).unwrap_or_else(|| "NULL".into());
                format!("{value} AS o{i}")
            })
            .collect();
        let mut sql = format!(
            "SELECT DISTINCT {} FROM {}",
            select.join(", "),
            tables.join(", ")
        );
        if !conjuncts.is_empty() {
            sql.push_str(&format!(" WHERE {}", conjuncts.join(" AND ")));
        }
        let order = item_slots.iter().position(|&s| alive[s]).unwrap_or(0);
        sql.push_str(&format!(" ORDER BY o{order}"));
        let rows = db
            .query(&sql)
            .run()
            .map_err(|e| XomatiqError::Execution(format!("{e} (SQL: {sql})")))?
            .rows
            .into_rows();
        let columns = query
            .return_items
            .iter()
            .map(|item| item.output_name())
            .collect();
        Ok(FederatedOutcome {
            outcome: QueryOutcome { columns, rows, sql },
            degraded,
        })
    }
}

/// Splits a condition tree into top-level conjuncts.
fn split_and(cond: &Condition) -> Vec<Condition> {
    match cond {
        Condition::And(a, b) => {
            let mut out = split_and(a);
            out.extend(split_and(b));
            out
        }
        other => vec![other.clone()],
    }
}

fn and_all(mut conds: Vec<Condition>) -> Option<Condition> {
    let mut acc = conds.pop()?;
    while let Some(c) = conds.pop() {
        acc = Condition::And(Box::new(c), Box::new(acc));
    }
    Some(acc)
}

/// All variables referenced by a condition.
fn condition_vars(cond: &Condition) -> Vec<String> {
    fn path_vars(p: &PathExpr, out: &mut Vec<String>) {
        if !out.contains(&p.var) {
            out.push(p.var.clone());
        }
    }
    fn walk(cond: &Condition, out: &mut Vec<String>) {
        match cond {
            Condition::And(a, b) | Condition::Or(a, b) => {
                walk(a, out);
                walk(b, out);
            }
            Condition::Not(c) => walk(c, out),
            Condition::Compare(Comparison { left, right, .. }) => {
                path_vars(left, out);
                if let Operand::Path(p) = right {
                    path_vars(p, out);
                }
            }
            Condition::Contains { target, .. } | Condition::Matches { target, .. } => {
                path_vars(target, out);
            }
            Condition::Order { left, right, .. } => {
                path_vars(left, out);
                path_vars(right, out);
            }
        }
    }
    let mut out = Vec::new();
    walk(cond, &mut out);
    out
}
