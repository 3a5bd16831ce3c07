//! The SQL subset.
//!
//! The XQ2SQL translator (paper §3.2) rewrites every XomatiQ query into SQL
//! over the generic shredding schema; this module defines the language it
//! emits. It is a classic SQL core — `SELECT` with joins, predicates,
//! ordering, `DISTINCT`, `LIMIT` and aggregates, plus DML and DDL — and one
//! domain extension mirroring the paper's keyword feature: a
//! `CONTAINS(column, 'keyword')` predicate served by the inverted index.

pub mod ast;
pub mod lexer;
pub mod parser;
