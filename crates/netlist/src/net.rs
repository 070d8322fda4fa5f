//! Core netlist data structures.

use std::fmt;

/// Handle to a single-bit net (the output of a gate, a constant, a primary
/// input bit or a register output) inside one [`Netlist`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// Raw index of the net inside its netlist (for diagnostics only).
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// A single gate or source in the netlist DAG.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum NetNode {
    /// Constant 0 or 1.
    Const(bool),
    /// Bit `bit` of primary input port `port`.
    Input { port: u32, bit: u32 },
    /// Output of register `reg`.
    Reg(u32),
    /// Inverter.
    Not(NetId),
    /// 2-input AND.
    And(NetId, NetId),
    /// 2-input OR.
    Or(NetId, NetId),
    /// 2-input XOR.
    Xor(NetId, NetId),
}

/// One edge-triggered register bit.
#[derive(Clone, Debug)]
pub(crate) struct RegInfo {
    /// Name of the word-level register this bit belongs to.
    pub(crate) name: String,
    /// Bit index inside the word-level register.
    pub(crate) bit: usize,
    /// Reset value.
    pub(crate) init: bool,
    /// Net driving the next-state value (must be set before `finish`).
    pub(crate) next: Option<NetId>,
}

/// Name and width of a primary input or observed output port.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PortInfo {
    /// Port name.
    pub name: String,
    /// Width in bits.
    pub width: usize,
}

/// Structural pipeline metadata recorded by the builder's stall/bubble
/// primitives while a pipelined design is constructed.
///
/// The hints are what lets a *term-level* verification flow (Burch–Dill
/// flushing, `pv-flush`) be derived from the same netlist the bit-level
/// β-relation flow simulates: the stall port is the bubble-injection input
/// flushing drives, the stage-valid registers give the pipeline depth (and
/// therefore the flush bound), and the forwarding-path count says whether the
/// design's operand reads bypass from in-flight results. They are recorded at
/// the point the corresponding gates are built
/// ([`crate::NetlistBuilder::stall_input`],
/// [`crate::NetlistBuilder::mark_stage_valid`],
/// [`crate::NetlistBuilder::note_forward_paths`]), so a design bug that
/// removes the bypass network also removes it from the hints.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PipelineHints {
    /// Name of the 1-bit stall/bubble-injection input, if the design has one.
    /// Asserting it must insert a pipeline bubble instead of accepting the
    /// fetched instruction, while instructions already in flight drain
    /// normally.
    pub stall_port: Option<String>,
    /// Names of the per-stage valid-bit registers, in pipeline order (fetch
    /// side first). The number of in-flight instructions — and hence the
    /// flush bound — is the length of this list.
    pub stage_valids: Vec<String>,
    /// Number of operand-bypass (forwarding) paths feeding the register-read
    /// stage. `0` on a design whose reads go straight to the register file.
    pub forward_paths: usize,
    /// Number of bypass sources actually wired through
    /// [`crate::NetlistBuilder::bypassed_read`] (the largest source list any
    /// read used). Lets a derivation cross-check the *noted* forwarding count
    /// against the network that was really built.
    pub built_forward_paths: usize,
    /// Number of fetch-accept gates wired to the stall input with
    /// [`crate::NetlistBuilder::stall_gate`] (or its inverted variant). A
    /// design that declares a stall port but never gates anything with it
    /// cannot actually be flushed.
    pub stall_gates: usize,
    /// `true` if a stall gate was built with *inverted* polarity
    /// ([`crate::NetlistBuilder::stall_gate_inverted`]) — a seeded
    /// wrong-stall-condition bug.
    pub stall_inverted: bool,
    /// Number of annulment gates on the fetch-accept path
    /// ([`crate::NetlistBuilder::annul_gate`]).
    pub annul_gates: usize,
    /// Branch delay-slot count noted by a generator for designs with control
    /// transfers ([`crate::NetlistBuilder::note_delay_slots`]); `None` when
    /// the design recorded no control-transfer semantics.
    pub delay_slots: Option<usize>,
    /// Offset added to a branch's own address to form the branch-target base
    /// ([`crate::NetlistBuilder::note_branch_base_offset`]): `1` is the
    /// architectural `pc + 1` base, `0` is the classic off-by-one bug. `None`
    /// when the design recorded no control-transfer semantics.
    pub branch_base_offset: Option<u64>,
}

/// Errors produced when finalising a [`crate::NetlistBuilder`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BuildError {
    /// A register's next-state net was never assigned with
    /// [`crate::NetlistBuilder::set_next`].
    UnassignedRegister {
        /// Name of the offending word-level register.
        name: String,
    },
    /// Two ports (inputs or outputs) share a name.
    DuplicatePort {
        /// The duplicated name.
        name: String,
    },
    /// A register next-state was assigned more than once.
    DoubleAssignedRegister {
        /// Name of the offending word-level register.
        name: String,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnassignedRegister { name } => {
                write!(f, "register `{name}` has no next-state assignment")
            }
            BuildError::DuplicatePort { name } => write!(f, "duplicate port name `{name}`"),
            BuildError::DoubleAssignedRegister { name } => {
                write!(f, "register `{name}` was assigned a next state twice")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// A finished, immutable synchronous netlist.
///
/// Produced by [`crate::NetlistBuilder::finish`]; consumed by
/// [`crate::ConcreteSim`] and [`crate::SymbolicSim`]. See the
/// [crate-level documentation](crate) for an example.
#[derive(Clone, Debug)]
pub struct Netlist {
    pub(crate) name: String,
    pub(crate) nodes: Vec<NetNode>,
    pub(crate) regs: Vec<RegInfo>,
    pub(crate) inputs: Vec<PortInfo>,
    pub(crate) outputs: Vec<(String, Vec<NetId>)>,
    pub(crate) hints: PipelineHints,
}

// A finished netlist is shared by reference across the parallel verifier's
// worker threads (every plan check reads the same two netlists); this
// assertion keeps that a compile-time guarantee.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Netlist>();
    assert_send_sync::<PortInfo>();
    assert_send_sync::<PipelineHints>();
};

impl Netlist {
    /// Human-readable design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The primary input ports in declaration order.
    pub fn inputs(&self) -> &[PortInfo] {
        &self.inputs
    }

    /// Observed (exposed) output ports in declaration order.
    pub fn outputs(&self) -> Vec<PortInfo> {
        self.outputs
            .iter()
            .map(|(name, nets)| PortInfo {
                name: name.clone(),
                width: nets.len(),
            })
            .collect()
    }

    /// Width of the named input port, if it exists.
    pub fn input_width(&self, name: &str) -> Option<usize> {
        self.inputs.iter().find(|p| p.name == name).map(|p| p.width)
    }

    /// Width of the named output port, if it exists.
    pub fn output_width(&self, name: &str) -> Option<usize> {
        self.outputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, nets)| nets.len())
    }

    /// The pipeline metadata recorded while this design was built (empty for
    /// designs built without the stall/stage primitives).
    pub fn pipeline_hints(&self) -> &PipelineHints {
        &self.hints
    }

    /// Number of register bits (the state-variable count that drives BDD cost).
    pub fn register_bits(&self) -> usize {
        self.regs.len()
    }

    /// Number of gate/source nodes in the netlist DAG.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn input_port_index(&self, name: &str) -> Option<usize> {
        self.inputs.iter().position(|p| p.name == name)
    }
}
