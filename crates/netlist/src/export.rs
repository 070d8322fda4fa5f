//! Deterministic text **export** of a finished [`Netlist`].
//!
//! The export is a pure function of the netlist: same design, same bytes.
//! That makes the text the design component of the verification service's
//! cache keys: any gate, port or pipeline-hint change changes the bytes.
//!
//! ```text
//! .pvnet 1                      header: format name + version
//! .name counter
//! .inputs 1
//! enable 1
//! .nodes 7                      one gate/source per line, id = line order
//! C0                            constant 0      (C1 = constant 1)
//! I 0 0                         input  <port> <bit>
//! R 0                           output of register bit 0
//! N 2                           NOT    <net>
//! A 1 2                         AND    <net> <net>   (O = OR, X = XOR)
//! ...
//! .regs 2
//! count 0 0 5                   <name> <bit> <init> <next-net>
//! .outputs 1
//! count 2 6                     <name> <width> <nets...>
//! .hints
//! stall_port -
//! ...
//! .end
//! ```
//!
//! Gate operands always reference earlier node lines (the builder only ever
//! wires existing nets), register next-state nets may reference any node, and
//! the pipeline hints are exported in full — a seeded bug that changes only a
//! hint (say, an inverted stall gate) therefore changes the export too.
//!
//! Same design, same bytes:
//!
//! ```
//! use pv_netlist::{export, NetlistBuilder};
//!
//! let counter = |init| {
//!     let mut n = NetlistBuilder::new("counter");
//!     let enable = n.input("enable", 1);
//!     let count = n.register("count", 2, init);
//!     let one = n.wconst(1, 2);
//!     let next = n.wadd(&count.value(), &one);
//!     let next = n.wmux(enable.bit(0), &next, &count.value());
//!     n.set_next(&count, &next);
//!     n.expose("count", &count.value());
//!     n.finish()
//! };
//!
//! let text = export::export(&counter(0)?);
//! assert!(text.starts_with(".pvnet 1\n.name counter\n"));
//! // Building the design again gives the same text ...
//! assert_eq!(export::export(&counter(0)?), text);
//! // ... and a different reset value gives a different one.
//! assert_ne!(export::export(&counter(1)?), text);
//! # Ok::<(), pv_netlist::BuildError>(())
//! ```

use crate::net::{NetNode, Netlist};

/// Format version written by [`export`] in the `.pvnet` header.
pub const FORMAT_VERSION: u32 = 1;

/// 64-bit FNV-1a hash — the workspace's content-hash primitive.
///
/// Small, dependency-free and stable across platforms and releases; used
/// (in `pipeverify-core`) for cache keys.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn check_token(name: &str, what: &str) {
    assert!(
        !name.is_empty() && !name.chars().any(char::is_whitespace),
        "{what} `{name}` must be non-empty and whitespace-free to be exported"
    );
}

/// Exports `netlist` as the deterministic text format described in the
/// [module docs](self).
///
/// # Panics
/// Panics if the design name or any port/register name is empty or contains
/// whitespace — the format is line- and space-delimited. Every name the
/// workspace's builders produce satisfies this.
pub fn export(netlist: &Netlist) -> String {
    check_token(&netlist.name, "design name");
    let mut out = String::new();
    out.push_str(&format!(".pvnet {FORMAT_VERSION}\n"));
    out.push_str(&format!(".name {}\n", netlist.name));
    out.push_str(&format!(".inputs {}\n", netlist.inputs.len()));
    for p in &netlist.inputs {
        check_token(&p.name, "input port");
        out.push_str(&format!("{} {}\n", p.name, p.width));
    }
    out.push_str(&format!(".nodes {}\n", netlist.nodes.len()));
    for node in &netlist.nodes {
        match node {
            NetNode::Const(false) => out.push_str("C0\n"),
            NetNode::Const(true) => out.push_str("C1\n"),
            NetNode::Input { port, bit } => out.push_str(&format!("I {port} {bit}\n")),
            NetNode::Reg(r) => out.push_str(&format!("R {r}\n")),
            NetNode::Not(a) => out.push_str(&format!("N {}\n", a.raw())),
            NetNode::And(a, b) => out.push_str(&format!("A {} {}\n", a.raw(), b.raw())),
            NetNode::Or(a, b) => out.push_str(&format!("O {} {}\n", a.raw(), b.raw())),
            NetNode::Xor(a, b) => out.push_str(&format!("X {} {}\n", a.raw(), b.raw())),
        }
    }
    out.push_str(&format!(".regs {}\n", netlist.regs.len()));
    for r in &netlist.regs {
        check_token(&r.name, "register");
        let next = r
            .next
            .expect("finished netlists have every next-state wired");
        out.push_str(&format!(
            "{} {} {} {}\n",
            r.name,
            r.bit,
            u8::from(r.init),
            next.raw()
        ));
    }
    out.push_str(&format!(".outputs {}\n", netlist.outputs.len()));
    for (name, nets) in &netlist.outputs {
        check_token(name, "output port");
        out.push_str(&format!("{} {}", name, nets.len()));
        for n in nets {
            out.push_str(&format!(" {}", n.raw()));
        }
        out.push('\n');
    }
    let h = &netlist.hints;
    let opt_name = |o: &Option<String>| o.clone().unwrap_or_else(|| "-".to_owned());
    let opt_num = |o: Option<u64>| o.map_or_else(|| "-".to_owned(), |v| v.to_string());
    out.push_str(".hints\n");
    out.push_str(&format!("stall_port {}\n", opt_name(&h.stall_port)));
    out.push_str(&format!("stage_valids {}", h.stage_valids.len()));
    for s in &h.stage_valids {
        check_token(s, "stage-valid register");
        out.push_str(&format!(" {s}"));
    }
    out.push('\n');
    out.push_str(&format!("forward_paths {}\n", h.forward_paths));
    out.push_str(&format!("built_forward_paths {}\n", h.built_forward_paths));
    out.push_str(&format!("stall_gates {}\n", h.stall_gates));
    out.push_str(&format!("stall_inverted {}\n", u8::from(h.stall_inverted)));
    out.push_str(&format!("annul_gates {}\n", h.annul_gates));
    out.push_str(&format!(
        "delay_slots {}\n",
        opt_num(h.delay_slots.map(|v| v as u64))
    ));
    out.push_str(&format!(
        "branch_base_offset {}\n",
        opt_num(h.branch_base_offset)
    ));
    out.push_str(".end\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetId;
    use crate::NetlistBuilder;

    fn counter() -> Netlist {
        let mut n = NetlistBuilder::new("counter");
        let enable = n.input("enable", 1);
        let count = n.register("count", 2, 0);
        let one = n.wconst(1, 2);
        let next = n.wadd(&count.value(), &one);
        let next = n.wmux(enable.bit(0), &next, &count.value());
        n.set_next(&count, &next);
        n.expose("count", &count.value());
        n.finish().expect("valid netlist")
    }

    #[test]
    fn export_is_deterministic() {
        assert_eq!(export(&counter()), export(&counter()));
    }

    /// The export is a cache key's design part, so it must tell apart any
    /// two netlists that differ in one field: each mutation below changes a
    /// single field of the counter and must change the text.
    #[test]
    fn every_netlist_field_changes_the_export() {
        fn first_and(nl: &mut Netlist) -> &mut NetNode {
            nl.nodes
                .iter_mut()
                .find(|n| matches!(n, NetNode::And(..)))
                .expect("the counter has an AND gate")
        }
        type Mutation = (&'static str, fn(&mut Netlist));
        let mutations: &[Mutation] = &[
            ("design name", |nl| nl.name.push('2')),
            ("node kind", |nl| {
                if let NetNode::And(a, b) = *first_and(nl) {
                    *first_and(nl) = NetNode::Or(a, b);
                }
            }),
            ("node operand", |nl| {
                if let NetNode::And(a, _) = *first_and(nl) {
                    *first_and(nl) = NetNode::And(a, a);
                }
            }),
            ("register init", |nl| nl.regs[0].init = !nl.regs[0].init),
            ("register next", |nl| nl.regs[0].next = Some(NetId(0))),
            ("input width", |nl| nl.inputs[0].width += 1),
            ("output nets", |nl| nl.outputs[0].1[0] = NetId(0)),
            ("stall_port", |nl| {
                nl.hints.stall_port = Some("stall".into())
            }),
            ("stage_valids", |nl| nl.hints.stage_valids.push("v".into())),
            ("forward_paths", |nl| nl.hints.forward_paths += 1),
            ("built_forward_paths", |nl| {
                nl.hints.built_forward_paths += 1
            }),
            ("stall_gates", |nl| nl.hints.stall_gates += 1),
            ("stall_inverted", |nl| nl.hints.stall_inverted ^= true),
            ("annul_gates", |nl| nl.hints.annul_gates += 1),
            ("delay_slots", |nl| nl.hints.delay_slots = Some(1)),
            ("branch_base_offset", |nl| {
                nl.hints.branch_base_offset = Some(1)
            }),
        ];
        let text = export(&counter());
        for (field, mutate) in mutations {
            let mut nl = counter();
            mutate(&mut nl);
            assert_ne!(
                export(&nl),
                text,
                "changing the {field} must change the export"
            );
        }
    }
}
