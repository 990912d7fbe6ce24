//! Scalar ternary gate evaluation (the good/faulty halves of PODEM's
//! five-valued algebra).

use lbist_netlist::GateKind;
use lbist_sim::Logic;

/// Evaluates one gate over scalar ternary fanin values.
///
/// PODEM tracks a `(good, faulty)` [`Logic`] pair per node; both halves
/// evaluate with this function (the faulty half with the fault site's
/// override applied by the caller). `D` is then `(One, Zero)` and `D̄`
/// `(Zero, One)`.
///
/// # Panics
///
/// Panics if called for a frame-source kind.
///
/// # Example
///
/// ```
/// use lbist_netlist::GateKind;
/// use lbist_sim::Logic;
/// use lbist_atpg::eval_logic;
/// assert_eq!(eval_logic(GateKind::And, &[Logic::One, Logic::X]), Logic::X);
/// assert_eq!(eval_logic(GateKind::And, &[Logic::Zero, Logic::X]), Logic::Zero);
/// ```
pub fn eval_logic(kind: GateKind, fanins: &[Logic]) -> Logic {
    eval_with(kind, fanins.len(), |pin| fanins[pin])
}

/// [`eval_logic`] over `n` fanin values read through `value(pin)`, so
/// PODEM evaluates straight from its value arrays without gathering the
/// fanins first.
#[inline]
pub(crate) fn eval_with(kind: GateKind, n: usize, value: impl Fn(usize) -> Logic) -> Logic {
    // AND/OR family: `dominant` as soon as one input carries it, else X
    // if any input is unknown, else the other value.
    let dominated = |dominant: Logic| {
        let mut out = !dominant;
        for pin in 0..n {
            match value(pin) {
                v if v == dominant => return dominant,
                Logic::X => out = Logic::X,
                _ => {}
            }
        }
        out
    };
    // XOR family: X as soon as one input is unknown, else the parity.
    let parity = || {
        let mut odd = false;
        for pin in 0..n {
            match value(pin).to_bool() {
                Some(b) => odd ^= b,
                None => return Logic::X,
            }
        }
        Logic::from_bool(odd)
    };
    match kind {
        GateKind::Buf | GateKind::Output => value(0),
        GateKind::Not => !value(0),
        GateKind::And => dominated(Logic::Zero),
        GateKind::Nand => !dominated(Logic::Zero),
        GateKind::Or => dominated(Logic::One),
        GateKind::Nor => !dominated(Logic::One),
        GateKind::Xor => parity(),
        GateKind::Xnor => !parity(),
        GateKind::Mux2 => match value(0) {
            Logic::Zero => value(1),
            Logic::One => value(2),
            Logic::X => {
                let (a, b) = (value(1), value(2));
                if a == b && !a.is_x() {
                    a
                } else {
                    Logic::X
                }
            }
        },
        GateKind::Const0 => Logic::Zero,
        GateKind::Const1 => Logic::One,
        GateKind::Input | GateKind::Dff | GateKind::XSource => {
            unreachable!("frame sources are never evaluated")
        }
    }
}

/// The value that forces an AND/OR-family gate's output regardless of its
/// other inputs, if the kind has one.
pub(crate) fn controlling_value(kind: GateKind) -> Option<bool> {
    match kind {
        GateKind::And | GateKind::Nand => Some(false),
        GateKind::Or | GateKind::Nor => Some(true),
        _ => None,
    }
}

/// Whether the gate inverts (output parity relative to its inputs).
pub(crate) fn inverts(kind: GateKind) -> bool {
    matches!(kind, GateKind::Not | GateKind::Nand | GateKind::Nor | GateKind::Xnor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_bitparallel_semantics_on_definite_values() {
        // Cross-check against the 64-wide evaluator for all 2-input
        // definite combinations.
        use lbist_sim::eval_gate;
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            for a in [false, true] {
                for b in [false, true] {
                    let scalar = eval_logic(kind, &[Logic::from_bool(a), Logic::from_bool(b)]);
                    let wide =
                        eval_gate(kind, &[if a { !0u64 } else { 0 }, if b { !0u64 } else { 0 }]);
                    assert_eq!(scalar.to_bool(), Some(wide & 1 == 1), "{kind} {a} {b}");
                }
            }
        }
    }

    /// The early-exit folds agree with the plain ternary folds of the
    /// `Logic` operators on every input combination up to three pins.
    #[test]
    fn early_exit_folds_match_the_logic_operators() {
        let all = [Logic::Zero, Logic::One, Logic::X];
        for n in 1..=3u32 {
            for code in 0..3usize.pow(n) {
                let ins: Vec<Logic> = (0..n).map(|k| all[code / 3usize.pow(k) % 3]).collect();
                let and = ins.iter().fold(Logic::One, |acc, &v| acc & v);
                let or = ins.iter().fold(Logic::Zero, |acc, &v| acc | v);
                let xor = ins.iter().fold(Logic::Zero, |acc, &v| acc ^ v);
                assert_eq!(eval_logic(GateKind::And, &ins), and, "{ins:?}");
                assert_eq!(eval_logic(GateKind::Nand, &ins), !and, "{ins:?}");
                assert_eq!(eval_logic(GateKind::Or, &ins), or, "{ins:?}");
                assert_eq!(eval_logic(GateKind::Nor, &ins), !or, "{ins:?}");
                assert_eq!(eval_logic(GateKind::Xor, &ins), xor, "{ins:?}");
                assert_eq!(eval_logic(GateKind::Xnor, &ins), !xor, "{ins:?}");
            }
        }
    }

    #[test]
    fn mux_select_x_agreement() {
        assert_eq!(eval_logic(GateKind::Mux2, &[Logic::X, Logic::One, Logic::One]), Logic::One);
        assert_eq!(eval_logic(GateKind::Mux2, &[Logic::X, Logic::One, Logic::Zero]), Logic::X);
    }

    #[test]
    fn controlling_values() {
        assert_eq!(controlling_value(GateKind::And), Some(false));
        assert_eq!(controlling_value(GateKind::Nor), Some(true));
        assert_eq!(controlling_value(GateKind::Xor), None);
    }

    #[test]
    fn inversion_parity() {
        assert!(inverts(GateKind::Nand));
        assert!(!inverts(GateKind::And));
        assert!(inverts(GateKind::Xnor));
    }
}
