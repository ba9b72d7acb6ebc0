//! Tristate numbers ("tnums"): the kernel verifier's known-bits domain.
//!
//! A tnum `{value, mask}` represents the set of `u64`s that agree with
//! `value` on every bit where `mask` is 0; bits where `mask` is 1 are
//! unknown. The transfer functions below are the kernel's
//! (`kernel/bpf/tnum.c`, Edward Cree's algebra), rewritten with explicit
//! wrapping arithmetic so adversarial constants cannot overflow-panic a
//! debug build.

/// A tristate number: every concrete value `x` with
/// `x & !mask == value` is a member. `mask & value == 0` always holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tnum {
    /// Known bits (only meaningful where `mask` is 0).
    pub value: u64,
    /// Unknown bits.
    pub mask: u64,
}

// `add`/`sub`/`mul` deliberately shadow the operator names: they mirror
// the kernel's `tnum_add`/`tnum_sub`/`tnum_mul` and are abstract-domain
// transfer functions, not the `u64` operators.
#[allow(clippy::should_implement_trait)]
impl Tnum {
    /// The exactly-known constant `v`.
    pub const fn cnst(v: u64) -> Self {
        Tnum { value: v, mask: 0 }
    }

    /// Completely unknown.
    pub const fn unknown() -> Self {
        Tnum {
            value: 0,
            mask: u64::MAX,
        }
    }

    /// The tightest tnum containing every value in `[min, max]`
    /// (kernel `tnum_range`): bits above the highest differing bit are
    /// known, the rest unknown.
    pub fn range(min: u64, max: u64) -> Self {
        let chi = min ^ max;
        let bits = 64 - chi.leading_zeros();
        if bits >= 64 {
            return Tnum::unknown();
        }
        let delta = (1u64 << bits) - 1;
        Tnum {
            value: min & !delta,
            mask: delta,
        }
    }

    pub fn is_const(self) -> bool {
        self.mask == 0
    }

    pub fn const_value(self) -> Option<u64> {
        if self.is_const() {
            Some(self.value)
        } else {
            None
        }
    }

    /// Smallest member.
    pub fn min(self) -> u64 {
        self.value
    }

    /// Largest member.
    pub fn max(self) -> u64 {
        self.value | self.mask
    }

    /// Does `v` satisfy every known bit?
    pub fn contains(self, v: u64) -> bool {
        v & !self.mask == self.value
    }

    /// The tightest tnum holding every member of both (kernel
    /// `tnum_union`): a bit stays known only where both sides know it
    /// and agree on it.
    pub fn union(self, other: Tnum) -> Tnum {
        let mask = self.mask | other.mask | (self.value ^ other.value);
        Tnum {
            value: self.value & !mask,
            mask,
        }
    }

    /// Set intersection; `None` when the known bits contradict.
    pub fn intersect(self, other: Tnum) -> Option<Tnum> {
        if (self.value ^ other.value) & !self.mask & !other.mask != 0 {
            return None;
        }
        let mask = self.mask & other.mask;
        Some(Tnum {
            value: (self.value | other.value) & !mask,
            mask,
        })
    }

    pub fn add(self, other: Tnum) -> Tnum {
        let sm = self.mask.wrapping_add(other.mask);
        let sv = self.value.wrapping_add(other.value);
        let sigma = sm.wrapping_add(sv);
        let chi = sigma ^ sv;
        let mu = chi | self.mask | other.mask;
        Tnum {
            value: sv & !mu,
            mask: mu,
        }
    }

    pub fn sub(self, other: Tnum) -> Tnum {
        let dv = self.value.wrapping_sub(other.value);
        let alpha = dv.wrapping_add(self.mask);
        let beta = dv.wrapping_sub(other.mask);
        let chi = alpha ^ beta;
        let mu = chi | self.mask | other.mask;
        Tnum {
            value: dv & !mu,
            mask: mu,
        }
    }

    pub fn and(self, other: Tnum) -> Tnum {
        let alpha = self.value | self.mask;
        let beta = other.value | other.mask;
        let v = self.value & other.value;
        Tnum {
            value: v,
            mask: alpha & beta & !v,
        }
    }

    pub fn or(self, other: Tnum) -> Tnum {
        let v = self.value | other.value;
        let mu = self.mask | other.mask;
        Tnum {
            value: v,
            mask: mu & !v,
        }
    }

    pub fn xor(self, other: Tnum) -> Tnum {
        let v = self.value ^ other.value;
        let mu = self.mask | other.mask;
        Tnum {
            value: v & !mu,
            mask: mu,
        }
    }

    pub fn lshift(self, shift: u32) -> Tnum {
        let s = shift & 63;
        Tnum {
            value: self.value << s,
            mask: self.mask << s,
        }
    }

    pub fn rshift(self, shift: u32) -> Tnum {
        let s = shift & 63;
        Tnum {
            value: self.value >> s,
            mask: self.mask >> s,
        }
    }

    pub fn arshift(self, shift: u32) -> Tnum {
        let s = shift & 63;
        Tnum {
            value: ((self.value as i64) >> s) as u64,
            mask: ((self.mask as i64) >> s) as u64,
        }
    }

    /// Kernel `tnum_mul`: shift-and-add over the multiplier's bits,
    /// accumulating unknownness where a bit is itself unknown.
    pub fn mul(self, other: Tnum) -> Tnum {
        let mut a = self;
        let mut b = other;
        let acc_v = a.value.wrapping_mul(b.value);
        let mut acc_m = Tnum { value: 0, mask: 0 };
        while a.value != 0 || a.mask != 0 {
            if a.value & 1 != 0 {
                acc_m = acc_m.add(Tnum {
                    value: 0,
                    mask: b.mask,
                });
            } else if a.mask & 1 != 0 {
                acc_m = acc_m.add(Tnum {
                    value: 0,
                    mask: b.value | b.mask,
                });
            }
            a = a.rshift(1);
            b = b.lshift(1);
        }
        Tnum::cnst(acc_v).add(acc_m)
    }
}

impl std::fmt::Display for Tnum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_const() {
            write!(f, "{:#x}", self.value)
        } else if *self == Tnum::unknown() {
            write!(f, "?")
        } else {
            write!(f, "({:#x}; {:#x})", self.value, self.mask)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(t: Tnum) -> Vec<u64> {
        // Enumerate members over the low 8 bits (tests keep masks small).
        (0u64..256).filter(|v| t.contains(*v)).collect()
    }

    #[test]
    fn const_and_unknown_basics() {
        let c = Tnum::cnst(42);
        assert!(c.is_const());
        assert_eq!(c.const_value(), Some(42));
        assert!(c.contains(42) && !c.contains(41));
        let u = Tnum::unknown();
        assert!(u.contains(0) && u.contains(u64::MAX));
        assert_eq!((u.union(c), c.union(u), c.union(c)), (u, u, c));
    }

    #[test]
    fn range_covers_interval() {
        let t = Tnum::range(3, 12);
        for v in 3..=12 {
            assert!(t.contains(v), "{v} missing");
        }
        assert_eq!(t.min(), 0);
        assert!(t.max() >= 12);
        assert_eq!(Tnum::range(7, 7), Tnum::cnst(7));
        // Full-width range degrades to unknown without shifting UB.
        assert_eq!(Tnum::range(0, u64::MAX), Tnum::unknown());
    }

    #[test]
    fn add_is_sound_on_members() {
        let a = Tnum::range(0, 7);
        let b = Tnum::cnst(9);
        let sum = a.add(b);
        for x in members(a) {
            assert!(sum.contains(x.wrapping_add(9)));
        }
        // sub undoes add for constants
        assert_eq!(Tnum::cnst(20).sub(Tnum::cnst(5)), Tnum::cnst(15));
    }

    #[test]
    fn bitwise_ops_sound() {
        let a = Tnum {
            value: 0b1000,
            mask: 0b0110,
        };
        let b = Tnum::cnst(0b1010);
        for x in members(a) {
            assert!(a.and(b).contains(x & 0b1010));
            assert!(a.or(b).contains(x | 0b1010));
            assert!(a.xor(b).contains(x ^ 0b1010));
        }
    }

    #[test]
    fn shifts_track_bits() {
        let a = Tnum {
            value: 0b100,
            mask: 0b010,
        };
        assert_eq!(a.lshift(1).value, 0b1000);
        assert_eq!(a.lshift(1).mask, 0b0100);
        assert_eq!(a.rshift(1).value, 0b10);
        let neg = Tnum::cnst((-16i64) as u64);
        assert_eq!(neg.arshift(2), Tnum::cnst((-4i64) as u64));
    }

    #[test]
    fn mul_sound_on_members() {
        let a = Tnum::range(0, 7);
        let m = a.mul(Tnum::cnst(24));
        for x in members(a) {
            assert!(m.contains(x * 24), "{}", x);
        }
        assert_eq!(Tnum::cnst(6).mul(Tnum::cnst(7)), Tnum::cnst(42));
        // Wrapping, not panicking, on huge constants.
        let big = Tnum::cnst(u64::MAX).mul(Tnum::cnst(u64::MAX));
        assert!(big.is_const());
    }

    #[test]
    fn intersect_detects_contradiction() {
        let a = Tnum::cnst(4);
        let b = Tnum::cnst(5);
        assert_eq!(a.intersect(b), None);
        let r = Tnum::range(0, 15);
        assert_eq!(r.intersect(a), Some(a));
    }

    #[test]
    fn union_holds_every_member_of_both() {
        let (value, mask) = (0b1000_0001, 0b0110);
        let cases = [
            (Tnum::cnst(0b1010), Tnum::cnst(0b1000)),
            (Tnum::range(0, 7), Tnum::cnst(9)),
            (Tnum { value, mask }, Tnum::range(16, 31)),
        ];
        for (a, b) in cases {
            let u = a.union(b);
            assert_eq!(u.mask & u.value, 0);
            for x in members(a).into_iter().chain(members(b)) {
                assert!(u.contains(x), "{x} missing from {u}");
            }
        }
        // Only the bit the constants differ in becomes unknown.
        let (value, mask) = (0b1000, 0b0010);
        assert_eq!(cases[0].0.union(cases[0].1), Tnum { value, mask });
    }
}
