//! Scalar ternary logic values.

use std::fmt;

/// A single ternary logic value.
///
/// # Example
///
/// ```
/// use lbist_sim::Logic;
/// assert_eq!(Logic::Zero & Logic::X, Logic::Zero); // 0 dominates AND
/// assert_eq!(Logic::One & Logic::X, Logic::X);
/// assert_eq!(!Logic::X, Logic::X);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Logic {
    /// Definite logic 0.
    #[default]
    Zero,
    /// Definite logic 1.
    One,
    /// Unknown.
    X,
}

impl Logic {
    /// Builds a definite value from a `bool`.
    #[inline]
    pub fn from_bool(b: bool) -> Self {
        if b {
            Logic::One
        } else {
            Logic::Zero
        }
    }

    /// Returns the definite value, or `None` for `X`.
    #[inline]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Logic::Zero => Some(false),
            Logic::One => Some(true),
            Logic::X => None,
        }
    }

    /// Returns `true` if the value is unknown.
    #[inline]
    pub fn is_x(self) -> bool {
        matches!(self, Logic::X)
    }
}

impl std::ops::Not for Logic {
    type Output = Logic;
    fn not(self) -> Logic {
        match self {
            Logic::Zero => Logic::One,
            Logic::One => Logic::Zero,
            Logic::X => Logic::X,
        }
    }
}

impl std::ops::BitAnd for Logic {
    type Output = Logic;
    fn bitand(self, rhs: Logic) -> Logic {
        match (self, rhs) {
            (Logic::Zero, _) | (_, Logic::Zero) => Logic::Zero,
            (Logic::One, Logic::One) => Logic::One,
            _ => Logic::X,
        }
    }
}

impl std::ops::BitOr for Logic {
    type Output = Logic;
    fn bitor(self, rhs: Logic) -> Logic {
        match (self, rhs) {
            (Logic::One, _) | (_, Logic::One) => Logic::One,
            (Logic::Zero, Logic::Zero) => Logic::Zero,
            _ => Logic::X,
        }
    }
}

impl std::ops::BitXor for Logic {
    type Output = Logic;
    fn bitxor(self, rhs: Logic) -> Logic {
        match (self.to_bool(), rhs.to_bool()) {
            (Some(a), Some(b)) => Logic::from_bool(a ^ b),
            _ => Logic::X,
        }
    }
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Logic::Zero => "0",
            Logic::One => "1",
            Logic::X => "X",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ternary_and_truth_table() {
        use Logic::*;
        assert_eq!(Zero & Zero, Zero);
        assert_eq!(Zero & One, Zero);
        assert_eq!(One & One, One);
        assert_eq!(X & Zero, Zero);
        assert_eq!(X & One, X);
        assert_eq!(X & X, X);
    }

    #[test]
    fn ternary_or_truth_table() {
        use Logic::*;
        assert_eq!(Zero | Zero, Zero);
        assert_eq!(Zero | One, One);
        assert_eq!(One | One, One);
        assert_eq!(X | One, One);
        assert_eq!(X | Zero, X);
        assert_eq!(X | X, X);
    }

    #[test]
    fn ternary_xor_truth_table() {
        use Logic::*;
        assert_eq!(Zero ^ One, One);
        assert_eq!(One ^ One, Zero);
        assert_eq!(X ^ Zero, X);
        assert_eq!(X ^ One, X);
        assert_eq!(X ^ X, X);
    }

    #[test]
    fn not_involution_on_definite() {
        for v in [Logic::Zero, Logic::One] {
            assert_eq!(!!v, v);
        }
        assert_eq!(!Logic::X, Logic::X);
    }
}
