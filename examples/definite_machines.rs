//! Definite-machine theory (Chapter 4) and the β-relation (Chapter 2) on
//! small, self-contained machines:
//!
//! * the canonical realization of a k-definite machine (Figure 4),
//! * measuring the order of definiteness of an explicit Mealy machine,
//! * Theorem 4.3.1.1 (πᵏ sequences of length k suffice for equivalence), and
//! * the Figure 1 / Figure 2 β-relation examples.
//!
//! Run with `cargo run --release --example definite_machines`.

use pipeverify::strfn::beta::examples;
use pipeverify::strfn::definite::verify_definite_equivalence;
use pipeverify::strfn::{beta_holds, CharFn, DefiniteMachine, ExplicitMealy, StringFn};

fn main() {
    // --- Canonical realization (Figure 4) --------------------------------
    // A 3-definite machine: the output is the majority of the last 3 inputs.
    let majority = DefiniteMachine::new(3, 0, |w| {
        u64::from(w.iter().filter(|&&b| b != 0).count() >= 2)
    });
    let input = [1u64, 1, 0, 0, 1, 0, 1, 1];
    println!(
        "majority-of-last-3 on {input:?} -> {:?}",
        majority.apply(&input)
    );

    // --- Order of definiteness --------------------------------------------
    // A machine whose state is its last input is 1-definite; a free-running
    // toggle is not definite at all.
    let shift = ExplicitMealy::new(
        vec![vec![0, 1], vec![0, 1]],
        vec![vec![0, 1], vec![1, 0]],
        0,
    );
    let toggle = ExplicitMealy::new(
        vec![vec![1, 1], vec![0, 0]],
        vec![vec![0, 0], vec![1, 1]],
        0,
    );
    let (shift_order, toggle_order) = (shift.definiteness_order(8), toggle.definiteness_order(8));
    println!("order of definiteness of the shift machine : {shift_order:?}");
    println!("order of definiteness of the toggle machine: {toggle_order:?}");
    assert_eq!((shift_order, toggle_order), (Some(1), None));

    // --- Theorem 4.3.1.1 ----------------------------------------------------
    // Two 2-definite machines are equivalent iff they agree on all 2² = 4
    // input sequences of length 2; a seeded difference is found immediately.
    let xor_window = DefiniteMachine::new(2, 0, |w| w[0] ^ w[1]);
    let xor_mealy = ExplicitMealy::new(
        vec![vec![0, 1], vec![0, 1]],
        vec![vec![0, 1], vec![1, 0]],
        0,
    );
    let agree = verify_definite_equivalence(&xor_window, &xor_mealy, 2, 2);
    println!("xor-of-last-two vs. Mealy realisation: {agree:?}");
    assert_eq!(agree, None);
    let broken = DefiniteMachine::new(2, 0, |w| if w == [1, 1] { 1 } else { w[0] ^ w[1] });
    let differ = verify_definite_equivalence(&xor_window, &broken, 2, 2);
    println!("xor-of-last-two vs. broken copy      : {differ:?}");
    assert_eq!(differ, Some(vec![1, 1]));

    // --- The β-relation (Figures 1 and 2) ----------------------------------
    let spec = CharFn::new(|u| u);
    let imp = examples::delayed_identity();
    let h = examples::modulo2_filter();
    let x: Vec<u64> = (1..=10).collect();
    assert!(beta_holds(&imp, &spec, &h, 1, &x).is_none());
    println!("Figure 1 (one-cycle delay vs identity, n = 1): β-relation holds");

    let mac_spec = examples::mac_specification();
    let serial = examples::serial_mac_implementation();
    let h6 = examples::serial_input_filter();
    let x2: Vec<u64> = (0..18).map(|t| 0x2_0300 + t).collect();
    assert!(beta_holds(&serial, &mac_spec, &h6, 5, &x2).is_none());
    println!("Figure 2 (serial 6-state implementation, n = 5): β-relation holds");
}
