//! Core identifier and width types shared across the IR.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw index of this id.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<usize> for $name {
            fn from(i: usize) -> Self {
                $name(i as u32)
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.index()
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifies an SSA value (one per defining instruction) within a function.
    ValueId,
    "%v"
);
id_type!(
    /// Identifies a basic block within a function.
    BlockId,
    "bb"
);
id_type!(
    /// Identifies a function within a module.
    FuncId,
    "@f"
);
id_type!(
    /// Identifies a global (byte array) within a module.
    GlobalId,
    "@g"
);
id_type!(
    /// Identifies a speculative region within a function (§3.1.1).
    RegionId,
    "sr"
);

/// The bitwidth of an integer value.
///
/// SIR is an integer-only IR (the paper's transformation targets integer
/// variables; see DESIGN.md for the FFT fixed-point substitution). `W1` is
/// the boolean width produced by comparisons.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Width {
    /// 1-bit boolean.
    W1,
    /// 8 bits — the size of a register slice in the BITSPEC ISA.
    W8,
    /// 16 bits.
    W16,
    /// 32 bits — the native machine word.
    W32,
    /// 64 bits — legalized to register pairs by the back-end.
    W64,
}

impl Width {
    /// Number of bits.
    pub fn bits(self) -> u32 {
        match self {
            Width::W1 => 1,
            Width::W8 => 8,
            Width::W16 => 16,
            Width::W32 => 32,
            Width::W64 => 64,
        }
    }

    /// Number of bytes occupied in memory (W1 occupies one byte).
    pub fn bytes(self) -> u32 {
        match self {
            Width::W1 | Width::W8 => 1,
            Width::W16 => 2,
            Width::W32 => 4,
            Width::W64 => 8,
        }
    }

    /// Bitmask selecting the valid bits of a value of this width.
    pub fn mask(self) -> u64 {
        match self {
            Width::W1 => 1,
            Width::W8 => 0xFF,
            Width::W16 => 0xFFFF,
            Width::W32 => 0xFFFF_FFFF,
            Width::W64 => u64::MAX,
        }
    }

    /// Truncates `v` to this width (zeroing the upper bits).
    pub fn truncate(self, v: u64) -> u64 {
        v & self.mask()
    }

    /// Sign-extends the `self`-wide low bits of `v` to 64 bits.
    pub fn sext_to_64(self, v: u64) -> i64 {
        let b = self.bits();
        if b == 64 {
            v as i64
        } else {
            let shift = 64 - b;
            ((v << shift) as i64) >> shift
        }
    }

    /// The smallest [`Width`] that can hold `bits` bits, if any.
    pub fn for_bits(bits: u32) -> Option<Width> {
        match bits {
            0 | 1 => Some(Width::W1),
            2..=8 => Some(Width::W8),
            9..=16 => Some(Width::W16),
            17..=32 => Some(Width::W32),
            33..=64 => Some(Width::W64),
            _ => None,
        }
    }

    /// All widths, narrowest first.
    pub const ALL: [Width; 5] = [Width::W1, Width::W8, Width::W16, Width::W32, Width::W64];
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.bits())
    }
}

/// The number of bits required to store the unsigned value `a`:
/// `RequiredBits(a) = floor(lg(a) + 1)` per §2.1 (and 1 for `a == 0`).
pub fn required_bits(a: u64) -> u32 {
    (64 - a.leading_zeros()).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_bits_and_masks() {
        assert_eq!(Width::W1.bits(), 1);
        assert_eq!(Width::W8.mask(), 0xFF);
        assert_eq!(Width::W16.truncate(0x1_2345), 0x2345);
        assert_eq!(Width::W64.mask(), u64::MAX);
        assert_eq!(Width::W32.bytes(), 4);
    }

    #[test]
    fn sign_extension() {
        assert_eq!(Width::W8.sext_to_64(0xFF), -1);
        assert_eq!(Width::W8.sext_to_64(0x7F), 127);
        assert_eq!(Width::W16.sext_to_64(0x8000), -32768);
        assert_eq!(Width::W64.sext_to_64(u64::MAX), -1);
        assert_eq!(Width::W1.sext_to_64(1), -1);
    }

    #[test]
    fn required_bits_matches_definition() {
        assert_eq!(required_bits(0), 1);
        assert_eq!(required_bits(1), 1);
        assert_eq!(required_bits(2), 2);
        assert_eq!(required_bits(255), 8);
        assert_eq!(required_bits(256), 9);
        assert_eq!(required_bits(u64::MAX), 64);
    }

    #[test]
    fn width_for_bits() {
        assert_eq!(Width::for_bits(1), Some(Width::W1));
        assert_eq!(Width::for_bits(8), Some(Width::W8));
        assert_eq!(Width::for_bits(9), Some(Width::W16));
        assert_eq!(Width::for_bits(33), Some(Width::W64));
        assert_eq!(Width::for_bits(65), None);
    }

    #[test]
    fn id_display() {
        assert_eq!(ValueId(3).to_string(), "%v3");
        assert_eq!(BlockId(0).to_string(), "bb0");
        assert_eq!(RegionId(1).to_string(), "sr1");
    }
}
