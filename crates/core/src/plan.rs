//! Simulation plans and the cycle-by-cycle schedules derived from them.
//!
//! A [`SimulationPlan`] is the machine-readable version of the *simulation
//! information file* of Section 6.2: a reset prefix followed by one line per
//! instruction slot saying which instruction class is applied in that slot
//! (`0` = any instruction except a control transfer, `1` = a control-transfer
//! instruction, `i` = an interrupt arrives at this slot). From a plan and the
//! machine properties (`k`, `d`), [`SimulationSchedule`] computes
//!
//! * what to drive on the instruction input in every cycle of each machine
//!   (which [`drive`] turns into the value of every input port),
//! * the output filtering functions (the `1 0 0 0 1 …` strings the thesis
//!   prints), and
//! * the pairs of cycles at which the two machines' observed variables must
//!   agree.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

use pv_netlist::{ConcreteSim, Netlist};
use pv_strfn::FilterSchedule;

use crate::spec::MachineSpec;

/// One line of the simulation information file: what happens in one slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Slot {
    /// A reset cycle (`r`).
    Reset,
    /// An instruction slot restricted to non-control-transfer instructions
    /// (`0`).
    Normal,
    /// An instruction slot restricted to control-transfer instructions (`1`).
    ControlTransfer,
    /// An interrupt arrives at this slot; the slot executes a trap instead of
    /// the fetched instruction (`i`, dynamic β-relation of Section 5.5).
    Interrupt,
}

impl Slot {
    /// `true` if this slot creates delay slots in the pipelined machine.
    pub fn creates_delay_slots(self) -> bool {
        matches!(self, Slot::ControlTransfer | Slot::Interrupt)
    }

    /// `true` if this slot is an instruction slot (not a reset cycle).
    pub fn is_instruction(self) -> bool {
        !matches!(self, Slot::Reset)
    }
}

/// Errors from parsing a simulation information file.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParsePlanError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// The unrecognised token.
    pub token: String,
}

impl fmt::Display for ParsePlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}: unrecognised simulation token `{}`",
            self.line, self.token
        )
    }
}

impl std::error::Error for ParsePlanError {}

/// A sequence of slots: the simulation information provided by the user.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SimulationPlan {
    slots: Vec<Slot>,
}

impl SimulationPlan {
    /// Builds a plan from explicit slots.
    pub fn new(slots: Vec<Slot>) -> Self {
        SimulationPlan { slots }
    }

    /// One reset cycle followed by `n` non-control-transfer slots.
    pub fn all_normal(n: usize) -> Self {
        let mut slots = vec![Slot::Reset];
        slots.extend(std::iter::repeat_n(Slot::Normal, n));
        SimulationPlan { slots }
    }

    /// One reset cycle followed by `n` slots where slot `position` (0-based)
    /// is a control-transfer slot and the others are normal.
    ///
    /// # Panics
    /// Panics if `position >= n`.
    pub fn with_control_at(n: usize, position: usize) -> Self {
        assert!(position < n, "control-transfer position out of range");
        let mut slots = vec![Slot::Reset];
        slots.extend((0..n).map(|i| {
            if i == position {
                Slot::ControlTransfer
            } else {
                Slot::Normal
            }
        }));
        SimulationPlan { slots }
    }

    /// One reset cycle followed by `n` slots with an interrupt arriving at
    /// slot `position` (0-based).
    ///
    /// # Panics
    /// Panics if `position >= n`.
    pub fn with_interrupt_at(n: usize, position: usize) -> Self {
        assert!(position < n, "interrupt position out of range");
        let mut slots = vec![Slot::Reset];
        slots.extend((0..n).map(|i| {
            if i == position {
                Slot::Interrupt
            } else {
                Slot::Normal
            }
        }));
        SimulationPlan { slots }
    }

    /// The VSM simulation information file printed in Section 6.2:
    /// `r 0 0 1 0`.
    pub fn paper_vsm() -> Self {
        SimulationPlan::new(vec![
            Slot::Reset,
            Slot::Normal,
            Slot::Normal,
            Slot::ControlTransfer,
            Slot::Normal,
        ])
    }

    /// The Alpha0 simulation information file printed in Section 6.3:
    /// `r 0 0 1 0 0`.
    pub fn paper_alpha0() -> Self {
        SimulationPlan::new(vec![
            Slot::Reset,
            Slot::Normal,
            Slot::Normal,
            Slot::ControlTransfer,
            Slot::Normal,
            Slot::Normal,
        ])
    }

    /// The slots in order.
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Number of reset cycles at the front of the plan.
    pub fn reset_cycles(&self) -> usize {
        self.slots.iter().take_while(|s| **s == Slot::Reset).count()
    }

    /// The instruction slots (everything except the leading reset cycles).
    pub fn instruction_slots(&self) -> Vec<Slot> {
        self.slots
            .iter()
            .copied()
            .filter(|s| s.is_instruction())
            .collect()
    }

    /// Number of instruction slots.
    pub fn instruction_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_instruction()).count()
    }

    /// Number of slots that create delay slots in the pipelined machine.
    pub fn control_transfer_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.creates_delay_slots())
            .count()
    }
}

impl fmt::Display for SimulationPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# Simulation information")?;
        for s in &self.slots {
            match s {
                Slot::Reset => writeln!(f, "r")?,
                Slot::Normal => writeln!(f, "0")?,
                Slot::ControlTransfer => writeln!(f, "1")?,
                Slot::Interrupt => writeln!(f, "i")?,
            }
        }
        Ok(())
    }
}

impl FromStr for SimulationPlan {
    type Err = ParsePlanError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut slots = Vec::new();
        for (idx, raw) in s.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let slot = match line {
                "r" | "R" => Slot::Reset,
                "0" => Slot::Normal,
                "1" => Slot::ControlTransfer,
                "i" | "I" => Slot::Interrupt,
                other => {
                    return Err(ParsePlanError {
                        line: idx + 1,
                        token: other.to_owned(),
                    })
                }
            };
            slots.push(slot);
        }
        Ok(SimulationPlan { slots })
    }
}

/// What the verifier drives on the instruction input in one cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CycleInput {
    /// Assert the reset input; the instruction input is irrelevant.
    Reset,
    /// Apply instruction slot `index` (0-based among instruction slots).
    Slot(usize),
    /// The instruction input is irrelevant this cycle (a don't-care: either a
    /// delay slot being annulled or a cycle in which the serial machine
    /// ignores its input).
    DontCare,
}

/// The fully-expanded, cycle-accurate schedule for one machine pair.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SimulationSchedule {
    /// Per-cycle inputs of the pipelined implementation.
    pub pipelined_inputs: Vec<CycleInput>,
    /// Per-cycle inputs of the unpipelined specification.
    pub unpipelined_inputs: Vec<CycleInput>,
    /// Cycles (pipelined machine) at which the interrupt input is asserted.
    pub pipelined_irq_cycles: Vec<usize>,
    /// Cycles (unpipelined machine) at which the interrupt input is asserted.
    pub unpipelined_irq_cycles: Vec<usize>,
    /// For each instruction slot, `(slot index, pipelined sample cycle,
    /// unpipelined sample cycle)`: the cycles at which the observed variables
    /// reflect the architectural state after that slot has completed.
    pub samples: Vec<(usize, usize, usize)>,
    /// The output filtering function of the pipelined machine (Figure 6 /
    /// the dynamic β modifications of Sections 5.3 and 5.5).
    pub pipelined_filter: FilterSchedule,
    /// The output filtering function of the unpipelined machine (Figure 5).
    pub unpipelined_filter: FilterSchedule,
    /// The instruction class of every slot.
    pub slot_classes: Vec<Slot>,
}

impl SimulationSchedule {
    /// Expands `plan` for a machine pair with the properties in `spec`.
    pub fn expand(spec: &MachineSpec, plan: &SimulationPlan) -> Self {
        let k = spec.k;
        let d = spec.delay_slots;
        let resets = plan.reset_cycles();
        let slots = plan.instruction_slots();
        let n = slots.len();

        // ----------------------------------------------------- unpipelined --
        // Slot j (0-based) is fed in cycle r + k*j and its result is visible
        // in cycle r + k*(j+1); the cycles in between are don't-cares.
        let mut unpipelined_inputs = vec![CycleInput::Reset; resets];
        let mut unpipelined_irq_cycles = Vec::new();
        for (j, slot) in slots.iter().enumerate() {
            if *slot == Slot::Interrupt {
                unpipelined_irq_cycles.push(resets + k * j);
            }
            unpipelined_inputs.push(CycleInput::Slot(j));
            unpipelined_inputs.extend(std::iter::repeat_n(CycleInput::DontCare, k - 1));
        }
        // One more cycle so the state after the last slot is observable.
        unpipelined_inputs.push(CycleInput::DontCare);
        let unpipelined_sample = |j: usize| resets + k * (j + 1);

        // ------------------------------------------------------- pipelined --
        // Slot j is fed as soon as the previous slot (plus its delay slots)
        // has been fed; its result is visible k cycles later.
        let mut pipelined_inputs = vec![CycleInput::Reset; resets];
        let mut pipelined_irq_cycles = Vec::new();
        let mut fed_cycle = Vec::with_capacity(n);
        for (j, slot) in slots.iter().enumerate() {
            if *slot == Slot::Interrupt {
                pipelined_irq_cycles.push(pipelined_inputs.len());
            }
            fed_cycle.push(pipelined_inputs.len());
            pipelined_inputs.push(CycleInput::Slot(j));
            if slot.creates_delay_slots() {
                pipelined_inputs.extend(std::iter::repeat_n(CycleInput::DontCare, d));
            }
        }
        // Drain the pipeline so the last slot's retirement is observable.
        pipelined_inputs.extend(std::iter::repeat_n(CycleInput::DontCare, k));
        let offset = spec.sample_offset;
        let shift = |cycle: usize| {
            let shifted = cycle as isize + offset;
            assert!(
                shifted >= 0,
                "sample offset moves a sampling point before cycle 0"
            );
            shifted as usize
        };
        let samples: Vec<(usize, usize, usize)> = (0..n)
            .map(|j| (j, shift(fed_cycle[j] + k), shift(unpipelined_sample(j))))
            .collect();

        // ------------------------------------------------ filter schedules --
        let mut pipelined_filter = FilterSchedule::zeros(pipelined_inputs.len());
        let mut unpipelined_filter = FilterSchedule::zeros(unpipelined_inputs.len());
        for &(_, pc, uc) in &samples {
            pipelined_filter.mark(pc);
            unpipelined_filter.mark(uc);
        }

        SimulationSchedule {
            pipelined_inputs,
            unpipelined_inputs,
            pipelined_irq_cycles,
            unpipelined_irq_cycles,
            samples,
            pipelined_filter,
            unpipelined_filter,
            slot_classes: slots,
        }
    }

    /// Number of simulated cycles of the pipelined machine.
    pub fn pipelined_cycles(&self) -> usize {
        self.pipelined_inputs.len()
    }

    /// Number of simulated cycles of the unpipelined machine.
    pub fn unpipelined_cycles(&self) -> usize {
        self.unpipelined_inputs.len()
    }
}

/// What one input port of a machine receives in one cycle (see [`drive`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum PortValue {
    /// The word of instruction slot `j`.
    Slot(usize),
    /// An instruction word the β-relation does not prescribe, picked by the
    /// caller: an annulled delay slot's free variables or witness, else 0.
    DontCare,
    /// The constant `value`, `width` bits wide.
    Const(u64, usize),
}

/// The drive rule, shared by the symbolic run, the replay rows and the
/// random-simulation baseline: for every cycle of one machine's `inputs`, the
/// `(port, value)` row of its input ports, in the order instruction, reset,
/// irq, stall.
///
/// The instruction word follows the [`CycleInput`] (0 on reset cycles), and
/// reset is asserted on reset cycles. Irq is asserted on `irq_cycles` when
/// `netlist` has that port. A declared stall port is held at 0: the
/// β-relation compares the un-stalled behaviour, and the flushing flow is the
/// one that drives it (see [`MachineSpec::stall_port`]).
pub(crate) fn drive<'a>(
    spec: &'a MachineSpec,
    netlist: &Netlist,
    inputs: &'a [CycleInput],
    irq_cycles: &'a [usize],
) -> impl Iterator<Item = Vec<(&'a str, PortValue)>> + 'a {
    let declared = |port: &'a Option<String>| {
        port.as_deref()
            .filter(|name| netlist.input_width(name).is_some())
    };
    let (irq, stall) = (declared(&spec.irq_port), declared(&spec.stall_port));
    let bit = |on: bool| PortValue::Const(u64::from(on), 1);
    inputs.iter().enumerate().map(move |(cycle, &input)| {
        let instr = match input {
            CycleInput::Reset => PortValue::Const(0, spec.instr_width),
            CycleInput::Slot(j) => PortValue::Slot(j),
            CycleInput::DontCare => PortValue::DontCare,
        };
        let mut row = vec![
            (spec.instr_port.as_str(), instr),
            (spec.reset_port.as_str(), bit(input == CycleInput::Reset)),
        ];
        row.extend(irq.map(|port| (port, bit(irq_cycles.contains(&cycle)))));
        row.extend(stall.map(|port| (port, bit(false))));
        row
    })
}

/// One machine's concrete input rows under [`drive`]: slot `j` carries
/// `slot_words[j]`, and a don't-care word in cycle `c` is `dont_care(c)`.
pub(crate) fn concrete_rows(
    spec: &MachineSpec,
    netlist: &Netlist,
    inputs: &[CycleInput],
    irq_cycles: &[usize],
    slot_words: &[u64],
    dont_care: impl Fn(usize) -> u64,
) -> Vec<Vec<(String, u64)>> {
    drive(spec, netlist, inputs, irq_cycles)
        .enumerate()
        .map(|(cycle, row)| {
            row.into_iter()
                .map(|(port, value)| {
                    let value = match value {
                        PortValue::Slot(j) => slot_words[j],
                        PortValue::DontCare => dont_care(cycle),
                        PortValue::Const(value, _) => value,
                    };
                    (port.to_owned(), value)
                })
                .collect()
        })
        .collect()
}

/// Steps `netlist` from reset through `rows` on [`ConcreteSim`] and returns
/// the outputs of every cycle.
pub(crate) fn run_concrete(
    netlist: &Netlist,
    rows: &[Vec<(String, u64)>],
) -> Vec<HashMap<String, u64>> {
    let mut sim = ConcreteSim::new(netlist);
    rows.iter()
        .map(|row| {
            let inputs: Vec<(&str, u64)> = row.iter().map(|(n, v)| (n.as_str(), *v)).collect();
            sim.step(&inputs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MachineSpec;

    #[test]
    fn parse_and_display_round_trip() {
        let text = "# Simulation Information File for VSM.\nr #Simulate a reset cycle\n0\n0\n1 #control transfer\n0\n";
        let plan: SimulationPlan = text.parse().expect("parse");
        assert_eq!(plan, SimulationPlan::paper_vsm());
        let printed = plan.to_string();
        let reparsed: SimulationPlan = printed.parse().expect("reparse");
        assert_eq!(reparsed, plan);
        assert!(matches!(
            "x\n".parse::<SimulationPlan>(),
            Err(ParsePlanError { line: 1, .. })
        ));
    }

    #[test]
    fn plan_statistics() {
        let plan = SimulationPlan::paper_vsm();
        assert_eq!(plan.reset_cycles(), 1);
        assert_eq!(plan.instruction_count(), 4);
        assert_eq!(plan.control_transfer_count(), 1);
        let interrupted = SimulationPlan::with_interrupt_at(4, 2);
        assert_eq!(interrupted.control_transfer_count(), 1);
        assert_eq!(SimulationPlan::all_normal(3).instruction_count(), 3);
        assert_eq!(
            SimulationPlan::with_control_at(4, 0).slots()[1],
            Slot::ControlTransfer
        );
    }

    #[test]
    fn schedule_cycle_counts_match_the_thesis() {
        // VSM, paper plan: unpipelined simulated for k^2 + r (+1 observation)
        // cycles, pipelined for 2k-1 + r + c*d (+1) cycles.
        let spec = MachineSpec::vsm();
        let plan = SimulationPlan::paper_vsm();
        let s = SimulationSchedule::expand(&spec, &plan);
        assert_eq!(s.unpipelined_cycles(), 16 + 1 + 1);
        assert_eq!(s.pipelined_cycles(), (2 * 4 - 1) + 1 + 1 + 1);
        assert_eq!(s.samples.len(), 4);
        // Samples are strictly increasing in both machines.
        for w in s.samples.windows(2) {
            assert!(w[1].1 > w[0].1 && w[1].2 > w[0].2);
        }
        // Every sample cycle is within the simulated range.
        for &(_, pc, uc) in &s.samples {
            assert!(pc < s.pipelined_cycles());
            assert!(uc < s.unpipelined_cycles());
        }
    }

    #[test]
    fn unpipelined_schedule_feeds_every_kth_cycle() {
        let spec = MachineSpec::vsm();
        let s = SimulationSchedule::expand(&spec, &SimulationPlan::all_normal(3));
        let feeds: Vec<usize> = s
            .unpipelined_inputs
            .iter()
            .enumerate()
            .filter_map(|(c, i)| matches!(i, CycleInput::Slot(_)).then_some(c))
            .collect();
        assert_eq!(feeds, vec![1, 5, 9]);
        let pipelined_feeds: Vec<usize> = s
            .pipelined_inputs
            .iter()
            .enumerate()
            .filter_map(|(c, i)| matches!(i, CycleInput::Slot(_)).then_some(c))
            .collect();
        assert_eq!(pipelined_feeds, vec![1, 2, 3]);
    }

    #[test]
    fn control_transfer_inserts_delay_slot_dont_cares() {
        let spec = MachineSpec::vsm();
        let s = SimulationSchedule::expand(&spec, &SimulationPlan::with_control_at(4, 1));
        // Slot 1 is the control transfer: slot 2 must be fed one cycle later
        // than it would be without the delay slot.
        let feeds: Vec<usize> = s
            .pipelined_inputs
            .iter()
            .enumerate()
            .filter_map(|(c, i)| matches!(i, CycleInput::Slot(_)).then_some(c))
            .collect();
        assert_eq!(feeds, vec![1, 2, 4, 5]);
        assert_eq!(s.pipelined_inputs[3], CycleInput::DontCare);
        // The filter strings have the same number of relevant points.
        assert_eq!(
            s.pipelined_filter.relevant_count(),
            s.unpipelined_filter.relevant_count()
        );
    }

    #[test]
    fn interrupt_slots_set_irq_cycles() {
        let spec = MachineSpec::vsm_with_interrupts().with_stall_port("stall");
        let s = SimulationSchedule::expand(&spec, &SimulationPlan::with_interrupt_at(3, 1));
        assert_eq!(s.pipelined_irq_cycles, vec![2]);
        assert_eq!(s.unpipelined_irq_cycles, vec![1 + 4]);
        // The interrupt slot behaves like a control transfer in the pipeline.
        assert_eq!(s.pipelined_inputs[3], CycleInput::DontCare);
        // The drive asserts irq in that cycle, in port order, and skips a
        // port the netlist lacks.
        let mut b = pv_netlist::NetlistBuilder::new("ports");
        for (name, width) in [("instr", 13), ("reset", 1), ("irq", 1)] {
            let word = b.input(name, width);
            b.expose(name, &word);
        }
        let netlist = b.finish().expect("valid netlist");
        let rows: Vec<_> = drive(
            &spec,
            &netlist,
            &s.pipelined_inputs,
            &s.pipelined_irq_cycles,
        )
        .collect();
        let bit = |on| PortValue::Const(u64::from(on), 1);
        let row =
            |instr, reset, irq| vec![("instr", instr), ("reset", bit(reset)), ("irq", bit(irq))];
        assert_eq!(rows[0], row(PortValue::Const(0, 13), true, false));
        assert_eq!(rows[2], row(PortValue::Slot(1), false, true));
        assert_eq!(rows[3], row(PortValue::DontCare, false, false));
    }
}
