//! An interactive XomatiQ shell — the CLI equivalent of the paper's GUI.
//!
//! ```text
//! cargo run --release --bin xomatiq-shell [warehouse.wal]
//! cargo run --release --bin xomatiq-shell -- --connect HOST:PORT
//! ```
//!
//! With a path argument the warehouse is durable (write-ahead log +
//! recovery); without one it is in-memory. With `--connect` the shell is
//! a thin client of a running `xomatiq-server` instead of embedding the
//! engine: SQL lines run over the wire protocol, sharing the server's
//! plan cache and MVCC snapshots with every other session. Commands:
//!
//! ```text
//! gen <n>                        generate+load demo corpora at n entries each
//! load <collection> <kind> <file>  load a flat file (kind: enzyme|embl|swissprot)
//! update <collection> <file>       integrate a fresh snapshot
//! collections | stats              what is loaded
//! dtd <collection>                 show a collection's DTD (the GUI left panel)
//! doc <collection> <entry-key>     reconstruct + print one document
//! explain <flwr-query>             show generated SQL + plan
//! .sql <sql>                       run raw SQL through the Query builder
//! .explain <sql>                   show a SQL statement's plan tree
//! .explain analyze <sql>           run the SQL, print per-operator profile
//! .stats [--json]                  dump the process metrics registry
//! .top [n]                         slowest recent queries (sys_queries)
//! .views                           materialized views + refresh telemetry (sys_views)
//! xml                              toggle XML result view (default: table)
//! FOR ...                          any FLWR query, run immediately
//! help | quit
//! ```

use std::io::{BufRead, Write};

use xomatiq_core::render::{render_result_set, render_table, render_tree};
use xomatiq_core::tagger::{tag_result_set, tag_results};
use xomatiq_core::{SourceKind, Xomatiq};

fn main() {
    if let Some(flag) = std::env::args().nth(1) {
        if flag == "--connect" {
            let Some(addr) = std::env::args().nth(2) else {
                eprintln!("usage: xomatiq-shell --connect HOST:PORT");
                std::process::exit(2);
            };
            remote_repl(&addr);
            return;
        }
    }
    let xq = match std::env::args().nth(1) {
        Some(path) => {
            let path = std::path::PathBuf::from(path);
            println!("opening durable warehouse at {}", path.display());
            Xomatiq::open(&path).expect("open warehouse")
        }
        None => {
            println!("in-memory warehouse (pass a path for durability)");
            Xomatiq::in_memory()
        }
    };
    let mut xml_view = false;
    let stdin = std::io::stdin();
    let interactive = atty_stdin();
    let mut buffer = String::new();

    loop {
        if interactive {
            if buffer.is_empty() {
                print!("xomatiq> ");
            } else {
                print!("    ...> ");
            }
            std::io::stdout().flush().ok();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        let trimmed = line.trim();
        // Multi-line FLWR entry: accumulate until an empty line or ';'.
        if !buffer.is_empty() {
            if trimmed.is_empty() || trimmed == ";" {
                let query = std::mem::take(&mut buffer);
                run_query(&xq, &query, xml_view);
            } else {
                buffer.push(' ');
                buffer.push_str(trimmed.trim_end_matches(';'));
                if trimmed.ends_with(';') {
                    let query = std::mem::take(&mut buffer);
                    run_query(&xq, &query, xml_view);
                }
            }
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        match parts.next() {
            None => continue,
            Some(cmd) if cmd.eq_ignore_ascii_case("quit") || cmd.eq_ignore_ascii_case("exit") => {
                break;
            }
            Some(cmd) if cmd.eq_ignore_ascii_case("help") => {
                println!("{}", HELP.trim());
            }
            Some(cmd) if cmd.eq_ignore_ascii_case("xml") => {
                xml_view = !xml_view;
                println!("result view: {}", if xml_view { "XML" } else { "table" });
            }
            Some(cmd) if cmd.eq_ignore_ascii_case("gen") => {
                let n: usize = parts.next().and_then(|s| s.parse().ok()).unwrap_or(500);
                generate_demo(&xq, n);
            }
            Some(cmd) if cmd.eq_ignore_ascii_case("load") => {
                let (Some(collection), Some(kind), Some(file)) =
                    (parts.next(), parts.next(), parts.next())
                else {
                    println!("usage: load <collection> <enzyme|embl|swissprot> <file>");
                    continue;
                };
                let Some(kind) = SourceKind::from_name(&kind.to_ascii_lowercase()) else {
                    println!("unknown source kind {kind:?}");
                    continue;
                };
                match std::fs::read_to_string(file) {
                    Ok(flat) => match xq.load_source(collection, kind, &flat) {
                        Ok(stats) => println!(
                            "loaded {} documents ({} element rows)",
                            stats.documents, stats.elements
                        ),
                        Err(e) => println!("load failed: {e}"),
                    },
                    Err(e) => println!("cannot read {file}: {e}"),
                }
            }
            Some(cmd) if cmd.eq_ignore_ascii_case("update") => {
                let (Some(collection), Some(file)) = (parts.next(), parts.next()) else {
                    println!("usage: update <collection> <file>");
                    continue;
                };
                match std::fs::read_to_string(file) {
                    Ok(flat) => match xq.update_source(collection, &flat) {
                        Ok(events) => {
                            println!("{} change(s) integrated", events.len());
                            for e in events {
                                println!("  {:?} {}", e.kind, e.entry_key);
                            }
                        }
                        Err(e) => println!("update failed: {e}"),
                    },
                    Err(e) => println!("cannot read {file}: {e}"),
                }
            }
            Some(cmd) if cmd.eq_ignore_ascii_case("collections") => {
                for c in xq.collections() {
                    println!("{c}");
                }
            }
            Some(cmd) if cmd.eq_ignore_ascii_case("stats") => match xq.statistics() {
                Ok(stats) => {
                    for (name, docs, nodes) in stats {
                        println!("{name}: {docs} documents, {nodes} node rows");
                    }
                }
                Err(e) => println!("{e}"),
            },
            Some(cmd) if cmd.eq_ignore_ascii_case("dtd") => {
                let Some(collection) = parts.next() else {
                    println!("usage: dtd <collection>");
                    continue;
                };
                match xq.dtd(collection) {
                    Ok(dtd) => print!("{dtd}"),
                    Err(e) => println!("{e}"),
                }
            }
            Some(cmd) if cmd.eq_ignore_ascii_case("doc") => {
                let (Some(collection), Some(key)) = (parts.next(), parts.next()) else {
                    println!("usage: doc <collection> <entry-key>");
                    continue;
                };
                match xq.reconstruct(collection, key) {
                    Ok(doc) => print!("{}", render_tree(&doc)),
                    Err(e) => println!("{e}"),
                }
            }
            Some(cmd) if cmd.eq_ignore_ascii_case("explain") => {
                let rest = trimmed[cmd.len()..].trim();
                if rest.is_empty() {
                    println!("usage: explain FOR ... RETURN ...");
                    continue;
                }
                match xq.explain_query(rest) {
                    Ok(text) => println!("{text}"),
                    Err(e) => println!("{e}"),
                }
            }
            Some(cmd) if cmd.eq_ignore_ascii_case(".sql") => {
                let rest = trimmed[cmd.len()..].trim();
                if rest.is_empty() {
                    println!("usage: .sql <statement>");
                    continue;
                }
                run_sql(&xq, rest, xml_view);
            }
            Some(cmd) if cmd.eq_ignore_ascii_case(".stats") => {
                let snap = xomatiq_obs::global().snapshot();
                if parts
                    .next()
                    .is_some_and(|w| w.eq_ignore_ascii_case("--json"))
                {
                    print!("{}", snap.render_json());
                } else {
                    print!("{}", snap.render_text());
                }
            }
            Some(cmd) if cmd.eq_ignore_ascii_case(".top") => {
                let n: usize = parts.next().and_then(|s| s.parse().ok()).unwrap_or(10);
                match xq.db().query(&top_sql(n)).run() {
                    Ok(out) => print!("{}", render_result_set(&out.rows)),
                    Err(e) => println!("{e}"),
                }
            }
            Some(cmd) if cmd.eq_ignore_ascii_case(".views") => {
                match xq.db().query(VIEWS_SQL).run() {
                    Ok(out) => print!("{}", render_result_set(&out.rows)),
                    Err(e) => println!("{e}"),
                }
            }
            Some(cmd) if cmd.eq_ignore_ascii_case(".explain") => {
                let rest = trimmed[cmd.len()..].trim();
                if rest.is_empty() {
                    println!("usage: .explain [analyze] SELECT ...");
                    continue;
                }
                let analyze = rest
                    .split_whitespace()
                    .next()
                    .is_some_and(|w| w.eq_ignore_ascii_case("analyze"));
                let result = if analyze {
                    xq.db()
                        .query(rest["analyze".len()..].trim())
                        .with_profile()
                        .run()
                        .map(|out| out.render_analysis().expect("a profiled run has a profile"))
                } else {
                    xq.db().query(rest).explain().map(|tree| tree.render())
                };
                match result {
                    Ok(text) => print!("{text}"),
                    Err(e) => println!("{e}"),
                }
            }
            Some(cmd) if cmd.eq_ignore_ascii_case(".analyze") => {
                let rest = trimmed[cmd.len()..].trim();
                let sql = if rest.is_empty() {
                    "ANALYZE".to_string()
                } else {
                    format!("ANALYZE TABLE {rest}")
                };
                match xq.db().query(&sql).run() {
                    Ok(out) => {
                        println!("analyzed {} table(s)", out.rows.affected());
                        let stats_sql = if rest.is_empty() {
                            "SELECT * FROM sys_table_stats ORDER BY table_name, column_name"
                                .to_string()
                        } else {
                            // sys_table_stats reports the catalog's
                            // lowercased table keys.
                            let name = rest.to_ascii_lowercase().replace('\'', "''");
                            format!(
                                "SELECT * FROM sys_table_stats WHERE table_name = '{name}' \
                                 ORDER BY column_name"
                            )
                        };
                        match xq.db().query(&stats_sql).run() {
                            Ok(stats) => print!("{}", render_result_set(&stats.rows)),
                            Err(e) => println!("{e}"),
                        }
                    }
                    Err(e) => println!("{e}"),
                }
            }
            Some(cmd) if cmd.eq_ignore_ascii_case("FOR") => {
                // Start of a (possibly multi-line) query.
                buffer = trimmed.trim_end_matches(';').to_string();
                if trimmed.ends_with(';') {
                    let query = std::mem::take(&mut buffer);
                    run_query(&xq, &query, xml_view);
                }
            }
            Some(other) => {
                println!("unknown command {other:?} — try `help`");
            }
        }
    }
}

/// A thin REPL over the wire protocol: every plain line is SQL run on
/// the server; dot-commands mirror the embedded shell where they make
/// sense remotely (`.explain`, `.stats` via the `METRICS` frame) plus
/// `ping`.
fn remote_repl(addr: &str) {
    use xomatiq_server::{Client, ClientError};

    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(ClientError::Busy) => {
            eprintln!("server at {addr} is at its connection limit, try again later");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("connected to xomatiq-server at {addr}");
    let stdin = std::io::stdin();
    let interactive = atty_stdin();
    loop {
        if interactive {
            print!("xomatiq({addr})> ");
            std::io::stdout().flush().ok();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        let trimmed = line.trim();
        let mut parts = trimmed.split_whitespace();
        match parts.next() {
            None => continue,
            Some(cmd) if cmd.eq_ignore_ascii_case("quit") || cmd.eq_ignore_ascii_case("exit") => {
                break;
            }
            Some(cmd) if cmd.eq_ignore_ascii_case("help") => {
                println!("{}", REMOTE_HELP.trim());
            }
            Some(cmd) if cmd.eq_ignore_ascii_case("ping") => match client.ping() {
                Ok(()) => println!("pong"),
                Err(e) => println!("{e}"),
            },
            Some(cmd) if cmd.eq_ignore_ascii_case(".stats") => {
                let json = parts
                    .next()
                    .is_some_and(|w| w.eq_ignore_ascii_case("--json"));
                let result = if json {
                    client.metrics_json()
                } else {
                    client.metrics()
                };
                match result {
                    Ok(text) => print!("{text}"),
                    Err(e) => println!("{e}"),
                }
            }
            Some(cmd) if cmd.eq_ignore_ascii_case(".top") => {
                let n: usize = parts.next().and_then(|s| s.parse().ok()).unwrap_or(10);
                match client.query(&top_sql(n), vec![]) {
                    Ok(xomatiq_server::QueryReply::Rows { columns, rows }) => {
                        let rs = xomatiq_relstore::ResultSet::from_parts(columns, rows);
                        print!("{}", render_result_set(&rs));
                    }
                    Ok(xomatiq_server::QueryReply::Affected(_)) => {}
                    Err(e) => println!("{e}"),
                }
            }
            Some(cmd) if cmd.eq_ignore_ascii_case(".views") => {
                match client.query(VIEWS_SQL, vec![]) {
                    Ok(xomatiq_server::QueryReply::Rows { columns, rows }) => {
                        let rs = xomatiq_relstore::ResultSet::from_parts(columns, rows);
                        print!("{}", render_result_set(&rs));
                    }
                    Ok(xomatiq_server::QueryReply::Affected(_)) => {}
                    Err(e) => println!("{e}"),
                }
            }
            Some(cmd) if cmd.eq_ignore_ascii_case(".explain") => {
                let rest = trimmed[cmd.len()..].trim();
                if rest.is_empty() {
                    println!("usage: .explain [analyze] SELECT ...");
                    continue;
                }
                let analyze = rest
                    .split_whitespace()
                    .next()
                    .is_some_and(|w| w.eq_ignore_ascii_case("analyze"));
                let sql = if analyze {
                    rest["analyze".len()..].trim()
                } else {
                    rest
                };
                match client.explain(sql, analyze) {
                    Ok(text) => print!("{text}"),
                    Err(e) => println!("{e}"),
                }
            }
            Some(_) => {
                let sql = trimmed.trim_start_matches(".sql").trim();
                if sql.is_empty() {
                    continue;
                }
                let start = std::time::Instant::now();
                match client.query(sql, vec![]) {
                    Ok(xomatiq_server::QueryReply::Rows { columns, rows }) => {
                        let rs = xomatiq_relstore::ResultSet::from_parts(columns, rows);
                        print!("{}", render_result_set(&rs));
                        println!("({:.2?})", start.elapsed());
                    }
                    Ok(xomatiq_server::QueryReply::Affected(n)) => {
                        println!("{n} row(s) affected ({:.2?})", start.elapsed());
                    }
                    Err(e) => println!("{e}"),
                }
            }
        }
    }
    let _ = client.goodbye();
}

/// The `.views` command is plain SQL over the `sys_views` virtual table —
/// like `.top`, that is exactly why it works identically against an
/// embedded warehouse and over `--connect`.
const VIEWS_SQL: &str = "SELECT view_name, refresh_policy, last_refresh_csn, \
     pending_delta_rows, delta_log_overflow, incremental_refreshes, \
     fallback_refreshes, definition \
     FROM sys_views ORDER BY view_name";

/// The `.top [n]` command is plain SQL over the `sys_queries` virtual
/// table, which is exactly why it works identically against an embedded
/// warehouse and over `--connect`.
fn top_sql(n: usize) -> String {
    format!(
        "SELECT query_id, trace_id, latency_ns, rows, cache_hit, slow, sql          FROM sys_queries ORDER BY latency_ns DESC LIMIT {n}"
    )
}

fn run_query(xq: &Xomatiq, query: &str, xml_view: bool) {
    let start = std::time::Instant::now();
    match xq.query(query) {
        Ok(outcome) => {
            if xml_view {
                match tag_results(&outcome) {
                    Ok(doc) => println!("{}", xomatiq_xml::to_string_pretty(&doc)),
                    Err(e) => println!("tagging failed: {e}"),
                }
            } else {
                println!("{}", render_table(&outcome));
            }
            println!("({:.2?})", start.elapsed());
        }
        Err(e) => println!("query failed: {e}"),
    }
}

/// Runs a raw SQL statement through the relstore `Query` builder. SELECTs
/// request exec stats; DDL/DML run plain and report affected rows.
fn run_sql(xq: &Xomatiq, sql: &str, xml_view: bool) {
    let is_select = sql
        .split_whitespace()
        .next()
        .is_some_and(|w| w.eq_ignore_ascii_case("select"));
    let start = std::time::Instant::now();
    let mut query = xq.db().query(sql);
    if is_select {
        query = query.with_stats();
    }
    match query.run() {
        Ok(out) => {
            if xml_view {
                match tag_result_set(&out.rows) {
                    Ok(doc) => println!("{}", xomatiq_xml::to_string_pretty(&doc)),
                    Err(e) => println!("tagging failed: {e}"),
                }
            } else {
                print!("{}", render_result_set(&out.rows));
            }
            match out.stats {
                Some(stats) => println!(
                    "({:.2?}; {} scanned, {} emitted, {} index probes)",
                    start.elapsed(),
                    stats.rows_scanned,
                    stats.rows_emitted,
                    stats.index_probes
                ),
                None => println!("({:.2?})", start.elapsed()),
            }
        }
        Err(e) => println!("sql failed: {e}"),
    }
}

fn generate_demo(xq: &Xomatiq, n: usize) {
    use xomatiq_bioflat::{Corpus, CorpusSpec};
    println!("generating {n}-entry demo corpora...");
    let corpus = Corpus::generate(&CorpusSpec::sized(n));
    for (name, kind, flat) in [
        (
            "hlx_enzyme.DEFAULT",
            SourceKind::Enzyme,
            corpus.enzyme_flat(),
        ),
        ("hlx_embl.inv", SourceKind::Embl, corpus.embl_flat()),
        (
            "hlx_sprot.all",
            SourceKind::SwissProt,
            corpus.swissprot_flat(),
        ),
    ] {
        match xq.load_source(name, kind, &flat) {
            Ok(stats) => println!("  {name}: {} documents", stats.documents),
            Err(e) => println!("  {name}: {e}"),
        }
    }
}

/// Rough interactivity check without a libc dependency: honor the common
/// convention that piped input sets no TERM-related expectations.
fn atty_stdin() -> bool {
    // When stdin is a pipe, reading from it without prompts is the useful
    // behaviour (scripted tests). A simple heuristic: the PS1-less
    // environments used in tests set `XOMATIQ_BATCH`.
    std::env::var_os("XOMATIQ_BATCH").is_none()
}

const HELP: &str = r#"
gen <n>                           generate+load demo corpora at n entries each
load <collection> <kind> <file>   load a flat file (kind: enzyme|embl|swissprot)
update <collection> <file>        integrate a fresh snapshot of a source
collections | stats               list what is loaded
dtd <collection>                  show a collection's DTD
doc <collection> <entry-key>      reconstruct and print one document
explain FOR ... RETURN ...        show generated SQL and plan
.sql <statement>                  run raw SQL through the Query builder
.explain SELECT ...               show a SQL statement's plan tree
.explain analyze SELECT ...       run the SQL and print the per-operator profile
.analyze [table]                  collect optimizer statistics, then show sys_table_stats
.stats [--json]                   dump the process metrics registry
.top [n]                          slowest recent queries from sys_queries
.views                            materialized views and refresh telemetry (sys_views)
xml                               toggle XML result view
FOR ... RETURN ... ;              run a FLWR query (end with ';' or blank line)
quit
"#;

const REMOTE_HELP: &str = r#"
<sql statement>                   run SQL on the server (also: .sql <statement>)
.explain [analyze] SELECT ...     server-side plan tree / per-operator profile
.stats [--json]                   the server's metrics snapshot (text or JSON)
.top [n]                          the server's slowest recent queries (sys_queries)
.views                            the server's materialized views (sys_views)
ping                              liveness probe
quit                              graceful goodbye
"#;
