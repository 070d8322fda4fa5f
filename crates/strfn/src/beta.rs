//! The "don't-care times" β-relation (Definition 2.3.2) and the α-relation.

use crate::func::StringFn;
use crate::string::relevant_u64;

/// Evidence that a β-relation check failed on a particular input string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BetaWitness {
    /// The input string on which the relation fails.
    pub input: Vec<u64>,
    /// The relevant outputs of the implementation (left-hand side of the
    /// defining identity).
    pub implementation_outputs: Vec<u64>,
    /// The outputs of the specification on the relevant inputs (right-hand
    /// side of the defining identity).
    pub specification_outputs: Vec<u64>,
}

/// Checks the β-relation `F β_{H,n} G` of Definition 2.3.2 on one input
/// string `x`:
///
/// ```text
/// Relevant(F(x), Rⁿ(H(x)))  =  G(Relevant(x[..|x|-n], H(x[..|x|-n])))
/// ```
///
/// where `F` is the implementation, `G` the specification, `H` the filter
/// function selecting relevant time points, and `n` the delay of the
/// implementation's output stream. The filter delayed over `n` cycles is
/// realised by `n` registers initialised to 0, and the last `n` characters of
/// the input are dropped on the right-hand side, exactly as in the thesis.
///
/// Returns `None` if the identity holds on `x` (strings shorter than `n`
/// satisfy the relation vacuously), or a [`BetaWitness`] otherwise.
pub fn beta_holds(
    implementation: &dyn StringFn,
    specification: &dyn StringFn,
    filter: &dyn StringFn,
    delay: usize,
    x: &[u64],
) -> Option<BetaWitness> {
    if x.len() < delay {
        return None;
    }
    // Left-hand side: Relevant(F(x), Rot^n ∘ H(x)).
    let fx = implementation.apply(x);
    let hx = filter.apply(x);
    let mut rotated = vec![0u64; delay.min(hx.len())];
    rotated.extend_from_slice(&hx[..hx.len() - delay.min(hx.len())]);
    let lhs = relevant_u64(&fx, &rotated);
    // Right-hand side: G(Relevant(x[..|x|-n], H(x[..|x|-n]))).
    let truncated = &x[..x.len() - delay];
    let h_trunc = filter.apply(truncated);
    let relevant_inputs = relevant_u64(truncated, &h_trunc);
    let rhs = specification.apply(&relevant_inputs);
    if lhs == rhs {
        None
    } else {
        Some(BetaWitness {
            input: x.to_vec(),
            implementation_outputs: lhs,
            specification_outputs: rhs,
        })
    }
}

/// Checks the β-relation over a family of input strings, returning the first
/// witness of failure, if any.
pub fn beta_holds_all<'a, I>(
    implementation: &dyn StringFn,
    specification: &dyn StringFn,
    filter: &dyn StringFn,
    delay: usize,
    inputs: I,
) -> Option<BetaWitness>
where
    I: IntoIterator<Item = &'a [u64]>,
{
    inputs
        .into_iter()
        .find_map(|x| beta_holds(implementation, specification, filter, delay, x))
}

/// Checks the α-relation `F α_{|z|} G` of Bronstein (1989) over a family of
/// input strings: there must exist a junk prefix `z` of length `delay`,
/// independent of the input, such that `F(x · 0ⁿ) = z · G(x)` for every `x`
/// in the family (we probe with the padding `z' = 0ⁿ`, which is sufficient
/// for machines whose behaviour does not depend on inputs beyond the ones
/// being flushed).
///
/// Returns `true` if a consistent junk prefix exists and every suffix matches
/// the specification.
pub fn alpha_holds<'a, I>(
    implementation: &dyn StringFn,
    specification: &dyn StringFn,
    delay: usize,
    inputs: I,
) -> bool
where
    I: IntoIterator<Item = &'a [u64]>,
{
    let mut junk: Option<Vec<u64>> = None;
    for x in inputs {
        let mut padded = x.to_vec();
        padded.extend(std::iter::repeat_n(0u64, delay));
        let fx = implementation.apply(&padded);
        let gx = specification.apply(x);
        if fx.len() != delay + gx.len() || fx[delay..] != gx[..] {
            return false;
        }
        let prefix = fx[..delay].to_vec();
        match &junk {
            None => junk = Some(prefix),
            Some(z) if *z != prefix => return false,
            _ => {}
        }
    }
    true
}

/// Worked examples from the thesis, reusable by tests and documentation.
pub mod examples {
    use crate::func::{CharFn, MealyFn, RegisterFn};

    /// Figure 1: the filter `H` is a modulo-2 counter marking every second
    /// time point relevant.
    pub fn modulo2_filter() -> CharFn {
        CharFn::from_sequence_fn(|t| u64::from(t % 2 == 1))
    }

    /// Figure 1: an "implementation" that simply delays the input stream by
    /// one cycle (β-related to the identity specification with `n = 1`).
    pub fn delayed_identity() -> RegisterFn {
        RegisterFn::new(0)
    }

    /// Figure 2: a specification that computes `y = a·x + b` per relevant
    /// input, where the character packs `x` in bits 0..8, `a` in 8..16 and
    /// `b` in 16..24; the output is truncated to 8 bits.
    pub fn mac_specification() -> CharFn {
        CharFn::new(|u| {
            let x = u & 0xFF;
            let a = (u >> 8) & 0xFF;
            let b = (u >> 16) & 0xFF;
            (a * x + b) & 0xFF
        })
    }

    /// Figure 2: a serial implementation of [`mac_specification`] that
    /// sequences through six internal states, consuming its input in state 0
    /// and producing the result only in state 5; the other time points are
    /// don't-cares.
    pub fn serial_mac_implementation() -> MealyFn {
        // State vector: [phase, latched_input, result]
        MealyFn::with_state(vec![0, 0, 0], |state, input| {
            let phase = state[0];
            if phase == 0 {
                state[1] = input;
            }
            if phase == 4 {
                let u = state[1];
                let x = u & 0xFF;
                let a = (u >> 8) & 0xFF;
                let b = (u >> 16) & 0xFF;
                state[2] = (a * x + b) & 0xFF;
            }
            state[0] = (phase + 1) % 6;
            // Output is only meaningful when phase == 5.
            if phase == 5 {
                state[2]
            } else {
                0xDEAD
            }
        })
    }

    /// Figure 2: the filter marking the implementation's relevant input
    /// cycles (every sixth cycle, offset 0).
    pub fn serial_input_filter() -> CharFn {
        CharFn::from_sequence_fn(|t| u64::from(t % 6 == 0))
    }
}

#[cfg(test)]
mod tests {
    use super::examples::*;
    use super::*;
    use crate::func::{CharFn, MealyFn};

    #[test]
    fn figure1_delay_is_beta_related_to_identity() {
        let spec = CharFn::new(|u| u);
        let imp = delayed_identity();
        let h = modulo2_filter();
        for len in 1..12usize {
            let x: Vec<u64> = (1..=len as u64).collect();
            assert_eq!(beta_holds(&imp, &spec, &h, 1, &x), None, "length {len}");
        }
    }

    #[test]
    fn broken_implementation_yields_witness() {
        let spec = CharFn::new(|u| u);
        // This "implementation" doubles instead of delaying.
        let imp = CharFn::new(|u| u * 2);
        let h = modulo2_filter();
        let x: Vec<u64> = (1..=8).collect();
        let w = beta_holds(&imp, &spec, &h, 1, &x).expect("relation must fail");
        assert_eq!(w.input, x);
        assert_ne!(w.implementation_outputs, w.specification_outputs);
    }

    #[test]
    fn figure2_serial_implementation_is_beta_related() {
        // The serial machine consumes an input every 6 cycles and produces the
        // corresponding result 5 cycles later; H marks those input cycles and
        // the rotated filter marks the output cycles (delay n = 5).
        let spec = mac_specification();
        let imp = serial_mac_implementation();
        let h = serial_input_filter();
        for instructions in 1..4usize {
            let len = instructions * 6;
            let x: Vec<u64> = (0..len as u64).map(|t| 0x2_0300 + t).collect();
            assert_eq!(
                beta_holds(&imp, &spec, &h, 5, &x),
                None,
                "{instructions} ops"
            );
        }
    }

    #[test]
    fn vacuous_for_short_strings() {
        let spec = CharFn::new(|u| u);
        let imp = CharFn::new(|u| u + 1);
        let h = modulo2_filter();
        assert_eq!(beta_holds(&imp, &spec, &h, 4, &[1, 2]), None);
    }

    #[test]
    fn beta_holds_all_finds_first_failure() {
        let spec = CharFn::new(|u| u);
        let imp = delayed_identity();
        let h = modulo2_filter();
        let good: Vec<u64> = vec![1, 2, 3, 4];
        let strings: Vec<&[u64]> = vec![&good];
        assert!(beta_holds_all(&imp, &spec, &h, 1, strings).is_none());
    }

    #[test]
    fn alpha_relation_for_pure_delay() {
        // A 2-place delay is alpha-related (delay 2) to the identity.
        let spec = CharFn::new(|u| u);
        let imp = MealyFn::with_state(vec![0, 0], |state, input| {
            let out = state[0];
            state[0] = state[1];
            state[1] = input;
            out
        });
        let xs: Vec<Vec<u64>> = vec![vec![5, 6, 7], vec![1, 2, 3, 4], vec![9]];
        assert!(alpha_holds(&imp, &spec, 2, xs.iter().map(Vec::as_slice)));
        // Wrong delay fails.
        assert!(!alpha_holds(&imp, &spec, 1, xs.iter().map(Vec::as_slice)));
    }
}
