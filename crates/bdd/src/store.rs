//! A DDDMP-style **persistent store** for ROBDDs: deterministic text export
//! of a set of named roots and their shared node graph, and an importer that
//! rebuilds the functions in another (typically fresh) manager.
//!
//! The format is line-oriented and designed for content addressing: exporting
//! the same functions from managers with different node-table histories
//! (slot reuse after collections, other functions alive alongside) produces
//! byte-identical text, so a hash of the export is a stable fingerprint of
//! the *functions*, not of the manager they happened to live in.
//!
//! ```text
//! .pvdd 2                     header: format name + version
//! .vars 3                     variables the functions range over
//! .nnodes 2                   internal (non-terminal) node records
//! 0 1 F T                     id  var  lo  hi      (children: T, F, id or !id)
//! 1 0 F 0
//! .root and2 !1               named root: T, F, id or !id
//! .end
//! ```
//!
//! Version 2 encodes **complemented edges**: a node record stores one entry
//! per *regular* node of the shared DAG, a reference prefixed with `!` means
//! the complement of that node's function, and the canonical regular-then
//! form guarantees a `hi` field is never complemented (and never `F`). Roots
//! may carry the complement attribute. Version-1 stores (no complement bits)
//! are **rejected** by [`import`]; producers that cache `.pvdd` artifacts key
//! them by engine epoch, so pre-complement artifacts surface as cache misses,
//! never as misread garbage.
//!
//! Node records are written children-first (a child id is always smaller than
//! its parent's id), variables are their indices ([`Var::index`]), and ids
//! are assigned in depth-first postorder from the roots in the order given,
//! so the text is a canonical function of `(roots, functions)`.
//!
//! Round trip:
//!
//! ```
//! use pv_bdd::{store, BddManager};
//!
//! let mut m = BddManager::new();
//! let vars = m.new_vars(3);
//! let (a, b) = (m.var(vars[0]), m.var(vars[1]));
//! let f = m.and(a, b);
//! let text = store::export(&m, &[("and2".to_owned(), f)]);
//!
//! // A fresh manager rebuilds the same function over the same variable
//! // indices (import allocates the store's variables itself).
//! let mut fresh = BddManager::new();
//! let roots = store::import(&mut fresh, &text).expect("well-formed store");
//! assert_eq!(fresh.var_count(), 3);
//! let (a, b) = (fresh.var(pv_bdd::Var::from_index(0)), fresh.var(pv_bdd::Var::from_index(1)));
//! let expect = fresh.and(a, b);
//! assert_eq!(roots, vec![("and2".to_owned(), expect)]);
//! ```

use std::collections::HashMap;
use std::fmt;

use crate::manager::BddManager;
use crate::node::{Bdd, Var};

/// Format version written by [`export`] and accepted by [`import`].
///
/// Version 2 (complemented edges) is the only version this reader speaks:
/// version-1 stores predate the attributed-edge engine and are rejected
/// rather than reinterpreted.
pub const FORMAT_VERSION: u32 = 2;

/// Errors produced by [`import`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StoreError {
    /// 1-based line number of the offending line (0 for end-of-input errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BDD store, line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for StoreError {}

/// Exports `roots` — `(name, function)` pairs sharing `manager` — as the
/// deterministic text format described in the [module docs](self).
///
/// The emitted variable count is the manager's full variable count, so an
/// import allocates the same variable space even when the roots' support is
/// smaller (function identity across a design's other artifacts depends on
/// shared variable indices, not on support).
///
/// # Panics
/// Panics if a root name is empty or contains whitespace — names are stored
/// on a space-separated line.
pub fn export(manager: &BddManager, roots: &[(String, Bdd)]) -> String {
    for (name, _) in roots {
        assert!(
            !name.is_empty() && !name.chars().any(char::is_whitespace),
            "root name `{name}` must be non-empty and whitespace-free"
        );
    }
    // Assign ids in depth-first postorder (lo before hi, children before
    // parents) over the union of the root graphs. Only **regular** nodes are
    // recorded — a function and its complement share one record, and edges
    // carry the complement attribute in their rendered reference — so the
    // traversal order, and therefore the whole file, is a pure function of
    // the root list.
    let mut ids: HashMap<Bdd, usize> = HashMap::new();
    let mut records: Vec<(usize, Bdd, Bdd)> = Vec::new(); // (var, lo, hi) per id
    for &(_, root) in roots {
        let root = root.regular();
        if root.is_const() || ids.contains_key(&root) {
            continue;
        }
        // Iterative postorder: (regular node, children_visited).
        let mut stack: Vec<(Bdd, bool)> = vec![(root, false)];
        while let Some((node, expanded)) = stack.pop() {
            if node.is_const() || ids.contains_key(&node) {
                continue;
            }
            // `node` is regular, so low/high are the stored children: `lo`
            // possibly complemented, `hi` always regular (canonical form).
            let var = manager
                .top_var(node)
                .expect("non-terminal node has a top variable");
            let (lo, hi) = (manager.low(node), manager.high(node));
            if expanded {
                let id = records.len();
                ids.insert(node, id);
                records.push((var.index(), lo, hi));
            } else {
                stack.push((node, true));
                // Pushed hi first so lo is visited (and numbered) first.
                stack.push((hi, false));
                stack.push((lo.regular(), false));
            }
        }
    }
    let render = |f: Bdd| -> String {
        match f {
            Bdd::FALSE => "F".to_owned(),
            Bdd::TRUE => "T".to_owned(),
            other if other.is_compl() => format!("!{}", ids[&other.regular()]),
            other => ids[&other].to_string(),
        }
    };
    let mut out = String::new();
    out.push_str(&format!(".pvdd {FORMAT_VERSION}\n"));
    out.push_str(&format!(".vars {}\n", manager.var_count()));
    out.push_str(&format!(".nnodes {}\n", records.len()));
    for (id, (var, lo, hi)) in records.iter().enumerate() {
        out.push_str(&format!("{id} {var} {} {}\n", render(*lo), render(*hi)));
    }
    for (name, root) in roots {
        out.push_str(&format!(".root {name} {}\n", render(*root)));
    }
    out.push_str(".end\n");
    out
}

/// Imports a store written by [`export`] into `manager`, returning the named
/// roots in file order.
///
/// Variables are identified by their stable indices: the manager's variable
/// count is grown (with [`BddManager::new_var`]) until it covers the file's
/// `.vars` count, and every node's variable must lie below that count. An
/// import into a **fresh** manager therefore reconstructs functions that are
/// semantically identical to the exported ones; importing into a manager that
/// already holds the same variable space unifies the rebuilt nodes with the
/// existing ones through hash-consing.
///
/// # Errors
/// Returns [`StoreError`] on malformed headers, out-of-range node or variable
/// references, duplicate or missing sections, or a truncated file.
pub fn import(manager: &mut BddManager, text: &str) -> Result<Vec<(String, Bdd)>, StoreError> {
    let fail = |line: usize, message: String| StoreError { line, message };
    let mut lines = text.lines().enumerate();
    let (header_line, header) = lines
        .next()
        .ok_or_else(|| fail(0, "empty store".to_owned()))?;
    let version = header
        .strip_prefix(".pvdd ")
        .and_then(|v| v.trim().parse::<u32>().ok())
        .ok_or_else(|| {
            fail(
                header_line + 1,
                format!("expected `.pvdd <version>`, found `{header}`"),
            )
        })?;
    if version != FORMAT_VERSION {
        return Err(fail(
            header_line + 1,
            format!("unsupported store version {version} (this reader speaks {FORMAT_VERSION})"),
        ));
    }
    let mut expect_field = |prefix: &str| -> Result<usize, StoreError> {
        let (n, line) = lines
            .next()
            .ok_or_else(|| fail(0, format!("missing `{prefix}` line")))?;
        line.strip_prefix(prefix)
            .and_then(|v| v.trim().parse::<usize>().ok())
            .ok_or_else(|| {
                fail(
                    n + 1,
                    format!("expected `{prefix} <count>`, found `{line}`"),
                )
            })
    };
    let vars = expect_field(".vars ")?;
    let nnodes = expect_field(".nnodes ")?;
    while manager.var_count() < vars {
        manager.new_var();
    }

    let mut built: Vec<Bdd> = Vec::with_capacity(nnodes);
    let parse_ref = |token: &str, line: usize, built: &[Bdd]| -> Result<Bdd, StoreError> {
        match token {
            "T" => Ok(Bdd::TRUE),
            "F" => Ok(Bdd::FALSE),
            reference => {
                let (compl, id) = match reference.strip_prefix('!') {
                    Some(rest) => (true, rest),
                    None => (false, reference),
                };
                let id: usize = id
                    .parse()
                    .map_err(|_| fail(line, format!("bad node reference `{token}`")))?;
                let node = built.get(id).copied().ok_or_else(|| {
                    fail(line, format!("node reference {id} is not yet defined (records must be children-first)"))
                })?;
                Ok(if compl { node.negate() } else { node })
            }
        }
    };
    for expected_id in 0..nnodes {
        let (n, line) = lines.next().ok_or_else(|| {
            fail(
                0,
                format!("store truncated: expected {nnodes} node records"),
            )
        })?;
        let mut fields = line.split_whitespace();
        let id: usize = fields
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| fail(n + 1, format!("expected a node record, found `{line}`")))?;
        if id != expected_id {
            return Err(fail(
                n + 1,
                format!("node records must be dense and in order: expected id {expected_id}, found {id}"),
            ));
        }
        let var: usize = fields
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| fail(n + 1, format!("node {id} lacks a variable field")))?;
        if var >= vars {
            return Err(fail(
                n + 1,
                format!("node {id} decides variable {var}, but the store declares only {vars} variables"),
            ));
        }
        let lo_tok = fields
            .next()
            .ok_or_else(|| fail(n + 1, format!("node {id} lacks a lo child")))?;
        let hi_tok = fields
            .next()
            .ok_or_else(|| fail(n + 1, format!("node {id} lacks a hi child")))?;
        if fields.next().is_some() {
            return Err(fail(n + 1, format!("trailing fields on node record {id}")));
        }
        let lo = parse_ref(lo_tok, n + 1, &built)?;
        let hi = parse_ref(hi_tok, n + 1, &built)?;
        let v = manager.var(Var::from_index(var));
        built.push(manager.ite(v, hi, lo));
    }

    let mut roots: Vec<(String, Bdd)> = Vec::new();
    let mut ended = false;
    for (n, line) in lines {
        if line == ".end" {
            ended = true;
            break;
        }
        let rest = line.strip_prefix(".root ").ok_or_else(|| {
            fail(
                n + 1,
                format!("expected `.root <name> <ref>` or `.end`, found `{line}`"),
            )
        })?;
        let mut fields = rest.split_whitespace();
        let name = fields
            .next()
            .ok_or_else(|| fail(n + 1, "`.root` line lacks a name".to_owned()))?;
        let reference = fields
            .next()
            .ok_or_else(|| fail(n + 1, format!("root `{name}` lacks a node reference")))?;
        if fields.next().is_some() {
            return Err(fail(n + 1, format!("trailing fields on root `{name}`")));
        }
        roots.push((name.to_owned(), parse_ref(reference, n + 1, &built)?));
    }
    if !ended {
        return Err(fail(0, "store truncated: missing `.end`".to_owned()));
    }
    Ok(roots)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_empty_root_lists_round_trip() {
        let m = BddManager::new();
        let text = export(
            &m,
            &[("t".to_owned(), Bdd::TRUE), ("f".to_owned(), Bdd::FALSE)],
        );
        let mut fresh = BddManager::new();
        let roots = import(&mut fresh, &text).expect("round trip");
        assert_eq!(
            roots,
            vec![("t".to_owned(), Bdd::TRUE), ("f".to_owned(), Bdd::FALSE)]
        );
        let empty = export(&m, &[]);
        assert!(import(&mut fresh, &empty).expect("empty store").is_empty());
    }

    #[test]
    fn export_is_deterministic_and_children_first() {
        let mut m = BddManager::new();
        let vars = m.new_vars(4);
        let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
        let f = m.and_many(&lits);
        let g = m.or_many(&lits);
        let roots = vec![("all".to_owned(), f), ("any".to_owned(), g)];
        let a = export(&m, &roots);
        let b = export(&m, &roots);
        assert_eq!(a, b);
        // Children-first: every id referenced by a record is smaller than the
        // record's own id.
        for line in a.lines().filter(|l| !l.starts_with('.')) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let id: usize = fields[0].parse().unwrap();
            for child in &fields[2..] {
                if let Ok(c) = child.parse::<usize>() {
                    assert!(c < id, "child {c} of node {id} must be defined first");
                }
            }
        }
    }

    #[test]
    fn shared_subgraphs_are_stored_once() {
        let mut m = BddManager::new();
        let vars = m.new_vars(3);
        let (a, b, c) = (m.var(vars[0]), m.var(vars[1]), m.var(vars[2]));
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        let g = m.xor(ab, c);
        let text = export(&m, &[("f".to_owned(), f), ("g".to_owned(), g)]);
        let node_lines = text.lines().filter(|l| !l.starts_with('.')).count();
        let separate = m.node_count(f) - 2 + m.node_count(g) - 2; // minus terminals
        assert!(
            node_lines < separate,
            "shared `a AND b` subgraph must not be duplicated ({node_lines} records vs {separate} separate nodes)"
        );
    }

    #[test]
    fn import_rejects_malformed_stores() {
        let mut m = BddManager::new();
        for (text, what) in [
            ("", "empty"),
            (".pvdd 3\n.vars 0\n.nnodes 0\n.end\n", "future version"),
            (
                ".pvdd 1\n.vars 0\n.nnodes 0\n.end\n",
                "pre-complement version 1",
            ),
            (".pvdd 2\n.vars 0\n", "truncated header"),
            (".pvdd 2\n.vars 1\n.nnodes 1\n0 5 F T\n.end\n", "var range"),
            (
                ".pvdd 2\n.vars 2\n.nnodes 1\n0 0 F 3\n.end\n",
                "forward ref",
            ),
            (
                ".pvdd 2\n.vars 2\n.nnodes 1\n0 0 F !3\n.end\n",
                "complemented forward ref",
            ),
            (
                ".pvdd 2\n.vars 2\n.nnodes 1\n0 0 !T T\n.end\n",
                "complement on a constant token",
            ),
            (
                ".pvdd 2\n.vars 2\n.nnodes 2\n1 0 F T\n0 0 F T\n.end\n",
                "order",
            ),
            (".pvdd 2\n.vars 0\n.nnodes 0\n.root x T\n", "missing .end"),
            (".pvdd 2\n.vars 0\n.nnodes 0\n.root x\n.end\n", "bad root"),
        ] {
            assert!(import(&mut m, text).is_err(), "must reject {what}");
        }
    }

    #[test]
    fn complement_pairs_share_records_and_round_trip() {
        let mut m = BddManager::new();
        let vars = m.new_vars(2);
        let (a, b) = (m.var(vars[0]), m.var(vars[1]));
        let f = m.and(a, b);
        let nf = m.not(f);
        let text = export(&m, &[("f".to_owned(), f), ("nf".to_owned(), nf)]);
        // The pair shares one record set; the complemented root is a `!` ref.
        assert!(
            text.contains(".root nf !"),
            "complement root must use a ! reference:\n{text}"
        );
        let mut fresh = BddManager::new();
        let roots = import(&mut fresh, &text).expect("round trip");
        assert_eq!(roots.len(), 2);
        let rebuilt_nf = fresh.not(roots[0].1);
        assert_eq!(roots[1].1, rebuilt_nf, "f and nf must stay complements");
    }

    #[test]
    fn import_unifies_with_existing_nodes_via_hash_consing() {
        let mut m = BddManager::new();
        let vars = m.new_vars(2);
        let (a, b) = (m.var(vars[0]), m.var(vars[1]));
        let f = m.and(a, b);
        let text = export(&m, &[("f".to_owned(), f)]);
        // Importing back into the same manager yields the same handle.
        let roots = import(&mut m, &text).expect("round trip");
        assert_eq!(roots, vec![("f".to_owned(), f)]);
    }
}
