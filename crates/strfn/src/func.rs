//! String functions realised by synchronous machines.
//!
//! A *string function* maps input strings to output strings of the same
//! length, prefix-preservingly (Bronstein 1989, Section 2.2 of the thesis).
//! Synchronous systems built from combinational blocks and registers realise
//! exactly such functions; the building blocks provided here are
//!
//! * [`CharFn`] — the string extension of a character function,
//! * [`RegisterFn`] — the register function `R_a` (a one-place delay),
//! * [`MealyFn`] — an arbitrary finite-state Mealy machine given by a step
//!   closure, and
//! * [`ComposeFn`] — functional composition.
//!
//! Symbols are packed bit-vectors (`u64`).

/// A length- and prefix-preserving function from input strings to output
/// strings, the formal model of a synchronous machine's behaviour.
pub trait StringFn {
    /// Applies the function to an input string, producing an output string of
    /// the same length.
    fn apply(&self, input: &[u64]) -> Vec<u64>;

    /// Convenience: the output character at the last position of `input`.
    fn last_output(&self, input: &[u64]) -> Option<u64> {
        self.apply(input).last().copied()
    }
}

/// The string extension of a character function: each output character is a
/// function of the input character at the same position (and, optionally, of
/// the position itself, which is how clocked filter functions such as the
/// modulo-2 counter of Figure 1 are expressed).
pub struct CharFn {
    f: Box<dyn Fn(usize, u64) -> u64>,
}

impl CharFn {
    /// Lifts a character function to strings.
    pub fn new<F: Fn(u64) -> u64 + 'static>(f: F) -> Self {
        CharFn {
            f: Box::new(move |_, u| f(u)),
        }
    }

    /// A string function whose output depends only on the position in the
    /// string (a clock pattern); used for filter functions like `H`.
    pub fn from_sequence_fn<F: Fn(usize) -> u64 + 'static>(f: F) -> Self {
        CharFn {
            f: Box::new(move |t, _| f(t)),
        }
    }
}

impl StringFn for CharFn {
    fn apply(&self, input: &[u64]) -> Vec<u64> {
        input
            .iter()
            .enumerate()
            .map(|(t, &u)| (self.f)(t, u))
            .collect()
    }
}

impl std::fmt::Debug for CharFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CharFn").finish_non_exhaustive()
    }
}

/// The register function `R_a`: inserts the initial character `a` at the left
/// of the string and cuts off the rightmost character — a one-place delay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegisterFn {
    init: u64,
}

impl RegisterFn {
    /// A register initialised to `init`.
    pub fn new(init: u64) -> Self {
        RegisterFn { init }
    }

    /// `n` registers in series (a delay of `n` places), as a [`ComposeFn`]
    /// chain collapsed into one closure-backed machine.
    pub fn chain(init: u64, n: usize) -> MealyFn {
        MealyFn::with_state(vec![init; n], move |state: &mut Vec<u64>, input| {
            if state.is_empty() {
                return input;
            }
            let out = state[0];
            state.rotate_left(1);
            let len = state.len();
            state[len - 1] = input;
            out
        })
    }
}

impl StringFn for RegisterFn {
    fn apply(&self, input: &[u64]) -> Vec<u64> {
        if input.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(input.len());
        out.push(self.init);
        out.extend_from_slice(&input[..input.len() - 1]);
        out
    }
}

/// A finite-state Mealy machine given by a step closure; realises the string
/// function obtained by running the machine from its initial state.
pub struct MealyFn {
    init: Vec<u64>,
    #[allow(clippy::type_complexity)]
    step: Box<dyn Fn(&mut Vec<u64>, u64) -> u64>,
}

impl MealyFn {
    /// A machine with a single `u64` state word. The step closure receives the
    /// current state and the input character and returns
    /// `(output, next_state)`.
    pub fn new<F: Fn(u64, u64) -> (u64, u64) + 'static>(init: u64, step: F) -> Self {
        MealyFn {
            init: vec![init],
            step: Box::new(move |state: &mut Vec<u64>, input| {
                let (out, next) = step(state[0], input);
                state[0] = next;
                out
            }),
        }
    }

    /// A machine with an arbitrary vector-valued state, mutated in place by
    /// the step closure, which returns the output character.
    pub fn with_state<F: Fn(&mut Vec<u64>, u64) -> u64 + 'static>(init: Vec<u64>, step: F) -> Self {
        MealyFn {
            init,
            step: Box::new(step),
        }
    }
}

impl StringFn for MealyFn {
    fn apply(&self, input: &[u64]) -> Vec<u64> {
        let mut state = self.init.clone();
        input.iter().map(|&u| (self.step)(&mut state, u)).collect()
    }
}

impl std::fmt::Debug for MealyFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MealyFn")
            .field("init", &self.init)
            .finish_non_exhaustive()
    }
}

/// Functional composition of two string functions: `(outer ∘ inner)(x) =
/// outer(inner(x))`.
pub struct ComposeFn<F, G> {
    outer: F,
    inner: G,
}

impl<F: StringFn, G: StringFn> ComposeFn<F, G> {
    /// Composes `outer` after `inner`.
    pub fn new(outer: F, inner: G) -> Self {
        ComposeFn { outer, inner }
    }
}

impl<F: StringFn, G: StringFn> StringFn for ComposeFn<F, G> {
    fn apply(&self, input: &[u64]) -> Vec<u64> {
        self.outer.apply(&self.inner.apply(input))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn char_fn_lifts_pointwise() {
        let f = CharFn::new(|u| u * 2);
        assert_eq!(f.apply(&[1, 2, 3]), vec![2, 4, 6]);
        assert_eq!(f.apply(&[]), Vec::<u64>::new());
        let clock = CharFn::from_sequence_fn(|t| (t % 3 == 0) as u64);
        assert_eq!(clock.apply(&[9, 9, 9, 9]), vec![1, 0, 0, 1]);
    }

    #[test]
    fn register_fn_delays_by_one() {
        let r = RegisterFn::new(7);
        assert_eq!(r.apply(&[1, 2, 3]), vec![7, 1, 2]);
        assert_eq!(r.apply(&[]), Vec::<u64>::new());
        let r3 = RegisterFn::chain(0, 3);
        assert_eq!(r3.apply(&[1, 2, 3, 4, 5]), vec![0, 0, 0, 1, 2]);
        let r0 = RegisterFn::chain(0, 0);
        assert_eq!(r0.apply(&[1, 2]), vec![1, 2]);
    }

    #[test]
    fn mealy_fn_accumulates() {
        let acc = MealyFn::new(0, |s, u| (s + u, s + u));
        assert_eq!(acc.apply(&[1, 2, 3]), vec![1, 3, 6]);
    }

    #[test]
    fn string_functions_are_length_and_prefix_preserving() {
        let machines: Vec<Box<dyn StringFn>> = vec![
            Box::new(CharFn::new(|u| u ^ 1)),
            Box::new(RegisterFn::new(0)),
            Box::new(MealyFn::new(0, |s, u| (s ^ u, u))),
            Box::new(ComposeFn::new(RegisterFn::new(0), CharFn::new(|u| u + 1))),
        ];
        let x = [3u64, 1, 4, 1, 5, 9, 2, 6];
        for m in &machines {
            let full = m.apply(&x);
            assert_eq!(full.len(), x.len());
            for cut in 0..x.len() {
                let part = m.apply(&x[..cut]);
                assert_eq!(part, full[..cut].to_vec(), "prefix preservation at {cut}");
            }
        }
    }

    #[test]
    fn compose_applies_inner_first() {
        let double = CharFn::new(|u| u * 2);
        let delay = RegisterFn::new(0);
        let c = ComposeFn::new(double, delay);
        assert_eq!(c.apply(&[1, 2, 3]), vec![0, 2, 4]);
    }
}
