//! The XQ2SQL-Transformer (paper §3.2): FLWR → SQL over the generic
//! shredding schema.
//!
//! Translation is join-graph based. Every `FOR` binding becomes a node
//! table instance pinned to its (expanded) binding path; every distinct
//! path expression becomes a further instance joined to its binding by
//! `doc_id` (plus, under Interval shredding, the structural containment
//! predicate `start > base.start AND start < base.stop`); attribute
//! predicates and attribute accesses join the attribute table on the
//! owner id. The WHERE tree then compiles to a boolean expression over
//! instance columns — string comparisons against `val`, numeric
//! comparisons against the `num_val` shadow column, and `contains` against
//! the keyword-indexed `val`.
//!
//! The generated statement is always `SELECT DISTINCT`: the instance join
//! graph can produce one row per *witness* of a path expression, and
//! XQuery's existential semantics ask for each binding combination once.
//!
//! Known deviation (documented in DESIGN.md): predicates attached to
//! *optional* sub-elements use inner joins, so a disjunction over an
//! element that is absent from a document cannot select that document.
//! The paper's published queries (Figures 8, 9, 11) are unaffected.

use std::collections::HashMap;
use std::rc::Rc;

use xomatiq_datahounds::ShreddingStrategy;
use xomatiq_xml::LabelPath;

use crate::ast::{Comparison, Condition, FlwrQuery, Literal, Operand, PathExpr};
use crate::catalog::{CatalogProvider, CollectionCatalog};
use crate::error::{QueryError, QueryResult};

/// The output of translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranslatedQuery {
    /// The SQL text to run on the relational engine.
    pub sql: String,
    /// Output column names, in select-list order.
    pub columns: Vec<String>,
}

/// Translates a parsed query against the warehouse catalog.
pub fn translate(
    query: &FlwrQuery,
    provider: &dyn CatalogProvider,
) -> QueryResult<TranslatedQuery> {
    let _span = xomatiq_obs::span!("xquery.xq2sql.translate");
    let result = (|| {
        let inlined = inline_lets(query)?;
        let mut t = Translator::new(provider);
        t.run(&inlined)
    })();
    if result.is_err() {
        // A bad query is a counter tick, never a panic.
        xomatiq_obs::global().counter("xquery.xq2sql.errors").inc();
    }
    result
}

/// Rewrites LET variables away: every use of a LET variable becomes the
/// LET target extended with the use site's own steps/predicates. LETs may
/// reference earlier LETs; the final base of every chain must be a FOR
/// variable.
fn inline_lets(query: &FlwrQuery) -> QueryResult<FlwrQuery> {
    if query.lets.is_empty() {
        return Ok(query.clone());
    }
    let mut map: HashMap<String, PathExpr> = HashMap::new();
    for l in &query.lets {
        let target = substitute_path(&l.target, &map)?;
        if !query.bindings.iter().any(|b| b.var == target.var) {
            return Err(QueryError::UnboundVariable(target.var.clone()));
        }
        map.insert(l.var.clone(), target);
    }
    let where_clause = match &query.where_clause {
        Some(c) => Some(substitute_condition(c, &map)?),
        None => None,
    };
    let return_items = query
        .return_items
        .iter()
        .map(|item| {
            Ok(crate::ast::ReturnItem {
                alias: item.alias.clone(),
                path: substitute_path(&item.path, &map)?,
            })
        })
        .collect::<QueryResult<_>>()?;
    Ok(FlwrQuery {
        bindings: query.bindings.clone(),
        lets: Vec::new(),
        where_clause,
        return_items,
        wrapper: query.wrapper.clone(),
    })
}

fn substitute_path(pe: &PathExpr, map: &HashMap<String, PathExpr>) -> QueryResult<PathExpr> {
    let Some(base) = map.get(&pe.var) else {
        return Ok(pe.clone());
    };
    if base.attribute.is_some() && (pe.steps.is_some() || pe.attribute.is_some()) {
        return Err(QueryError::Unsupported(
            "cannot navigate below an attribute-valued LET variable".into(),
        ));
    }
    let steps = match (&base.steps, &pe.steps) {
        (Some(b), Some(u)) => Some(b.join(u)),
        (Some(b), None) => Some(b.clone()),
        (None, Some(u)) => Some(u.clone()),
        (None, None) => None,
    };
    let pick = |a: &Option<String>, b: &Option<String>, what: &str| match (a, b) {
        (Some(_), Some(_)) => Err(QueryError::Unsupported(format!(
            "both the LET target and its use carry {what}"
        ))),
        (Some(v), None) | (None, Some(v)) => Ok(Some(v.clone())),
        (None, None) => Ok(None),
    };
    let predicate = match (&base.predicate, &pe.predicate) {
        (Some(_), Some(_)) => {
            return Err(QueryError::Unsupported(
                "both the LET target and its use carry an attribute predicate".into(),
            ))
        }
        (Some(p), None) | (None, Some(p)) => Some(p.clone()),
        (None, None) => None,
    };
    let position = match (base.position, pe.position) {
        (Some(_), Some(_)) => {
            return Err(QueryError::Unsupported(
                "both the LET target and its use carry a positional predicate".into(),
            ))
        }
        (p, q) => p.or(q),
    };
    Ok(PathExpr {
        var: base.var.clone(),
        steps,
        predicate,
        attribute: pick(&base.attribute, &pe.attribute, "an attribute access")?,
        position,
    })
}

fn substitute_condition(
    cond: &Condition,
    map: &HashMap<String, PathExpr>,
) -> QueryResult<Condition> {
    Ok(match cond {
        Condition::And(a, b) => Condition::And(
            Box::new(substitute_condition(a, map)?),
            Box::new(substitute_condition(b, map)?),
        ),
        Condition::Or(a, b) => Condition::Or(
            Box::new(substitute_condition(a, map)?),
            Box::new(substitute_condition(b, map)?),
        ),
        Condition::Not(c) => Condition::Not(Box::new(substitute_condition(c, map)?)),
        Condition::Compare(c) => Condition::Compare(Comparison {
            left: substitute_path(&c.left, map)?,
            op: c.op,
            right: match &c.right {
                Operand::Path(p) => Operand::Path(substitute_path(p, map)?),
                lit @ Operand::Literal(_) => lit.clone(),
            },
        }),
        Condition::Contains {
            target,
            keyword,
            any,
        } => Condition::Contains {
            target: substitute_path(target, map)?,
            keyword: keyword.clone(),
            any: *any,
        },
        Condition::Matches { target, pattern } => Condition::Matches {
            target: substitute_path(target, map)?,
            pattern: pattern.clone(),
        },
        Condition::Order {
            left,
            right,
            before,
        } => Condition::Order {
            left: substitute_path(left, map)?,
            right: substitute_path(right, map)?,
            before: *before,
        },
    })
}

fn quote(s: &str) -> String {
    s.replace('\'', "''")
}

/// A resolved reference to a queryable value.
struct ValueRef {
    /// SQL expression for the textual value.
    text: String,
    /// SQL expression for the numeric shadow value, when one exists.
    num: Option<String>,
}

struct BindingInfo {
    /// Shared by every path step the binding takes.
    catalog: Rc<CollectionCatalog>,
    /// SQL alias of the binding's node-table instance.
    alias: String,
    /// The binding's rooted path pattern (relative steps join onto it).
    path: LabelPath,
}

struct Translator<'a> {
    provider: &'a dyn CatalogProvider,
    bindings: HashMap<String, BindingInfo>,
    /// FROM-clause entries: `table alias`.
    from: Vec<String>,
    /// Always-true linking conjuncts (instance definitions).
    links: Vec<String>,
    /// Instance cache: dedup key → value reference alias info.
    instances: HashMap<String, String>,
    next_node: usize,
    next_attr: usize,
}

impl<'a> Translator<'a> {
    fn new(provider: &'a dyn CatalogProvider) -> Self {
        Translator {
            provider,
            bindings: HashMap::new(),
            from: Vec::new(),
            links: Vec::new(),
            instances: HashMap::new(),
            next_node: 0,
            next_attr: 0,
        }
    }

    fn node_alias(&mut self) -> String {
        let a = format!("n{}", self.next_node);
        self.next_node += 1;
        a
    }

    fn attr_alias(&mut self) -> String {
        let a = format!("a{}", self.next_attr);
        self.next_attr += 1;
        a
    }

    fn run(&mut self, query: &FlwrQuery) -> QueryResult<TranslatedQuery> {
        // 1. Bind FOR variables to base instances.
        for binding in &query.bindings {
            let catalog = Rc::new(self.provider.collection(&binding.collection)?);
            let matched = expand(&catalog, &binding.path);
            if matched.is_empty() {
                return Err(QueryError::EmptyPath {
                    collection: binding.collection.clone(),
                    pattern: binding.path.to_string(),
                });
            }
            let alias = self.node_alias();
            self.from.push(format!("{}_nodes {alias}", catalog.prefix));
            self.links.push(path_condition(&alias, &matched));
            self.bindings.insert(
                binding.var.clone(),
                BindingInfo {
                    catalog,
                    alias,
                    path: binding.path.clone(),
                },
            );
        }

        // 2. WHERE tree → boolean SQL.
        let where_sql = match &query.where_clause {
            Some(cond) => Some(self.condition_sql(cond)?),
            None => None,
        };

        // 3. RETURN items → select list.
        let mut select = Vec::new();
        let mut columns = Vec::new();
        let mut used_names: HashMap<String, usize> = HashMap::new();
        for item in &query.return_items {
            let vr = self.resolve(&item.path)?;
            let base = sanitize_column(&item.output_name());
            // Deduplicate output names via the entry's own counter; no
            // second lookup that could miss and panic.
            let n = used_names.entry(base.clone()).or_insert(0);
            let name = if *n > 0 {
                format!("{base}_{n}")
            } else {
                base.clone()
            };
            *n += 1;
            select.push(format!("{} AS {name}", vr.text));
            columns.push(name);
        }
        if select.is_empty() {
            return Err(QueryError::Unsupported("RETURN clause is empty".into()));
        }

        // 4. Assemble.
        let mut sql = format!(
            "SELECT DISTINCT {} FROM {}",
            select.join(", "),
            self.from.join(", ")
        );
        let mut conjuncts = self.links.clone();
        if let Some(w) = where_sql {
            conjuncts.push(format!("({w})"));
        }
        if !conjuncts.is_empty() {
            sql.push_str(" WHERE ");
            sql.push_str(&conjuncts.join(" AND "));
        }
        // Deterministic output order: by the first returned column.
        sql.push_str(&format!(" ORDER BY {}", columns[0]));
        Ok(TranslatedQuery { sql, columns })
    }

    fn binding(&self, var: &str) -> QueryResult<&BindingInfo> {
        self.bindings
            .get(var)
            .ok_or_else(|| QueryError::UnboundVariable(var.to_string()))
    }

    /// The node-table instance holding a path expression's target element
    /// (cached by expression shape). Positional predicates pin the stored
    /// ordinal — order as a data value at work (§2.2).
    fn elem_instance(&mut self, pe: &PathExpr) -> QueryResult<String> {
        let base = {
            let b = self.binding(&pe.var)?;
            (b.alias.clone(), Rc::clone(&b.catalog))
        };
        let (base_alias, catalog) = base;
        let elem_alias = if let Some(steps) = &pe.steps {
            let key = format!("{}|{}|pos{:?}", pe.var, steps, pe.position);
            if let Some(existing) = self.instances.get(&key) {
                existing.clone()
            } else {
                // Expand binding-path ⨝ steps against the path catalog.
                let full = self.binding(&pe.var)?.path.join(steps);
                let matched = expand(&catalog, &full);
                if matched.is_empty() {
                    return Err(QueryError::EmptyPath {
                        collection: catalog.name.clone(),
                        pattern: full.to_string(),
                    });
                }
                let alias = self.node_alias();
                self.from.push(format!("{}_nodes {alias}", catalog.prefix));
                self.links
                    .push(format!("{alias}.doc_id = {base_alias}.doc_id"));
                self.links.push(path_condition(&alias, &matched));
                if catalog.strategy == ShreddingStrategy::Interval {
                    // Structural containment: the target must lie inside
                    // the binding element's region.
                    self.links
                        .push(format!("{alias}.start > {base_alias}.start"));
                    self.links
                        .push(format!("{alias}.start < {base_alias}.stop"));
                }
                if let Some(n) = pe.position {
                    self.links.push(format!("{alias}.ord = {}", n - 1));
                }
                self.instances.insert(key, alias.clone());
                alias
            }
        } else {
            base_alias.clone()
        };
        Ok(elem_alias)
    }

    /// Resolves a path expression to a value reference, materializing node
    /// and attribute instances (cached by expression shape) as needed.
    fn resolve(&mut self, pe: &PathExpr) -> QueryResult<ValueRef> {
        let catalog = Rc::clone(&self.binding(&pe.var)?.catalog);
        let elem_alias = self.elem_instance(pe)?;

        // Attribute predicate: join the attrs table on the owner.
        if let Some(pred) = &pe.predicate {
            let key = format!("{}|{}|[{}={}]", pe.var, elem_alias, pred.name, pred.value);
            if !self.instances.contains_key(&key) {
                let alias = self.attr_alias();
                self.from.push(format!("{}_attrs {alias}", catalog.prefix));
                self.links
                    .push(format!("{alias}.doc_id = {elem_alias}.doc_id"));
                self.links
                    .push(format!("{alias}.owner = {elem_alias}.node_id"));
                self.links
                    .push(format!("{alias}.aname = '{}'", quote(&pred.name)));
                self.links
                    .push(format!("{alias}.aval = '{}'", quote(&pred.value)));
                self.instances.insert(key, alias);
            }
        }

        // Terminal attribute access: value comes from the attrs table.
        if let Some(attr) = &pe.attribute {
            let key = format!("{}|{}|@{}", pe.var, elem_alias, attr);
            let alias = if let Some(existing) = self.instances.get(&key) {
                existing.clone()
            } else {
                let alias = self.attr_alias();
                self.from.push(format!("{}_attrs {alias}", catalog.prefix));
                self.links
                    .push(format!("{alias}.doc_id = {elem_alias}.doc_id"));
                self.links
                    .push(format!("{alias}.owner = {elem_alias}.node_id"));
                self.links
                    .push(format!("{alias}.aname = '{}'", quote(attr)));
                self.instances.insert(key, alias.clone());
                alias
            };
            return Ok(ValueRef {
                text: format!("{alias}.aval"),
                num: Some(format!("{alias}.num_val")),
            });
        }

        Ok(ValueRef {
            text: format!("{elem_alias}.val"),
            num: Some(format!("{elem_alias}.num_val")),
        })
    }

    fn condition_sql(&mut self, cond: &Condition) -> QueryResult<String> {
        match cond {
            Condition::And(a, b) => Ok(format!(
                "({} AND {})",
                self.condition_sql(a)?,
                self.condition_sql(b)?
            )),
            Condition::Or(a, b) => Ok(format!(
                "({} OR {})",
                self.condition_sql(a)?,
                self.condition_sql(b)?
            )),
            Condition::Not(c) => Ok(format!("NOT ({})", self.condition_sql(c)?)),
            Condition::Compare(c) => self.comparison_sql(c),
            Condition::Matches { target, pattern } => {
                let vr = self.resolve(target)?;
                Ok(format!("MATCHES({}, '{}')", vr.text, quote(pattern)))
            }
            Condition::Order {
                left,
                right,
                before,
            } => {
                if left.var != right.var {
                    return Err(QueryError::Unsupported(
                        "BEFORE/AFTER compares positions within one bound document;                          both sides must use the same variable"
                            .into(),
                    ));
                }
                if left.attribute.is_some() || right.attribute.is_some() {
                    return Err(QueryError::Unsupported(
                        "BEFORE/AFTER applies to elements, not attributes".into(),
                    ));
                }
                // node_id is assigned in document order by both shredding
                // strategies (Interval stores the pre-order start there).
                let l = self.elem_instance(left)?;
                let r = self.elem_instance(right)?;
                let op = if *before { "<" } else { ">" };
                Ok(format!("{l}.node_id {op} {r}.node_id"))
            }
            Condition::Contains {
                target,
                keyword,
                any,
            } => {
                if *any || (target.steps.is_none() && target.attribute.is_none()) {
                    // Whole-document search: a fresh node instance scoped
                    // only by doc_id, matched by the keyword index.
                    let base_alias = self.binding(&target.var)?.alias.clone();
                    let catalog = Rc::clone(&self.binding(&target.var)?.catalog);
                    let key = format!("{}|contains-any|{}", target.var, keyword);
                    let alias = if let Some(existing) = self.instances.get(&key) {
                        existing.clone()
                    } else {
                        let alias = self.node_alias();
                        self.from.push(format!("{}_nodes {alias}", catalog.prefix));
                        self.links
                            .push(format!("{alias}.doc_id = {base_alias}.doc_id"));
                        self.instances.insert(key, alias.clone());
                        alias
                    };
                    Ok(format!("CONTAINS({alias}.val, '{}')", quote(keyword)))
                } else if target.attribute.is_some() {
                    // Keyword search over an attribute value.
                    let vr = self.resolve(target)?;
                    Ok(format!("CONTAINS({}, '{}')", vr.text, quote(keyword)))
                } else {
                    // Sub-tree search (§3.1): the keyword may occur in the
                    // targeted element OR anywhere beneath it, so the
                    // witness instance's path set covers the whole
                    // sub-tree, not just the target's own text.
                    let base_alias = self.binding(&target.var)?.alias.clone();
                    let catalog = Rc::clone(&self.binding(&target.var)?.catalog);
                    let full = match &target.steps {
                        Some(steps) => self.binding(&target.var)?.path.join(steps),
                        None => self.binding(&target.var)?.path.clone(),
                    };
                    let mut matched = expand(&catalog, &full);
                    let below = full.join(&LabelPath::parse("//*").map_err(|e| {
                        QueryError::Internal(format!("subtree pattern failed to parse: {e}"))
                    })?);
                    matched.extend(expand(&catalog, &below));
                    matched.sort();
                    matched.dedup();
                    if matched.is_empty() {
                        return Err(QueryError::EmptyPath {
                            collection: catalog.name.clone(),
                            pattern: full.to_string(),
                        });
                    }
                    let key = format!("{}|{}|subtree", target.var, full);
                    let alias = if let Some(existing) = self.instances.get(&key) {
                        existing.clone()
                    } else {
                        let alias = self.node_alias();
                        self.from.push(format!("{}_nodes {alias}", catalog.prefix));
                        self.links
                            .push(format!("{alias}.doc_id = {base_alias}.doc_id"));
                        self.links.push(path_condition(&alias, &matched));
                        if catalog.strategy == ShreddingStrategy::Interval {
                            self.links
                                .push(format!("{alias}.start > {base_alias}.start"));
                            self.links
                                .push(format!("{alias}.start < {base_alias}.stop"));
                        }
                        self.instances.insert(key, alias.clone());
                        alias
                    };
                    Ok(format!("CONTAINS({alias}.val, '{}')", quote(keyword)))
                }
            }
        }
    }

    fn comparison_sql(&mut self, c: &Comparison) -> QueryResult<String> {
        let left = self.resolve(&c.left)?;
        match &c.right {
            Operand::Path(p) => {
                let right = self.resolve(p)?;
                Ok(format!("{} {} {}", left.text, c.op.sql(), right.text))
            }
            Operand::Literal(Literal::Text(s)) => {
                Ok(format!("{} {} '{}'", left.text, c.op.sql(), quote(s)))
            }
            Operand::Literal(Literal::Int(i)) => {
                let num = left.num.ok_or_else(|| {
                    QueryError::Unsupported("numeric comparison on a non-value path".into())
                })?;
                Ok(format!("{num} {} {i}", c.op.sql()))
            }
            Operand::Literal(Literal::Float(f)) => {
                let num = left.num.ok_or_else(|| {
                    QueryError::Unsupported("numeric comparison on a non-value path".into())
                })?;
                Ok(format!("{num} {} {f}", c.op.sql()))
            }
        }
    }
}

/// Expands a rooted pattern against a catalog's element paths.
fn expand(catalog: &CollectionCatalog, pattern: &LabelPath) -> Vec<String> {
    catalog
        .element_paths
        .iter()
        .filter(|p| pattern.matches_path(p))
        .cloned()
        .collect()
}

/// `alias.path = 'p'` or an OR over multiple matched paths.
fn path_condition(alias: &str, paths: &[String]) -> String {
    if paths.len() == 1 {
        format!("{alias}.path = '{}'", quote(&paths[0]))
    } else {
        let parts: Vec<String> = paths
            .iter()
            .map(|p| format!("{alias}.path = '{}'", quote(p)))
            .collect();
        format!("({})", parts.join(" OR "))
    }
}

fn sanitize_column(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() || out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, 'c');
    }
    out
}
