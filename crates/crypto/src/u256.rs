//! Fixed-width 256-bit unsigned integer arithmetic.
//!
//! [`U256`] is four little-endian `u64` limbs. It provides carrying
//! add/sub, widening multiply into a [`U512`], shifts, bit access, and a
//! generic 512-by-256-bit remainder. No other module of the workspace
//! calls it any more.

use std::cmp::Ordering;
use std::fmt;

/// A 256-bit unsigned integer, little-endian limbs (`limbs[0]` least
/// significant).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256 {
    /// The four 64-bit limbs, least significant first.
    pub limbs: [u64; 4],
}

/// A 512-bit unsigned integer, the result of a widening 256×256 multiply.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct U512 {
    /// The eight 64-bit limbs, least significant first.
    pub limbs: [u64; 8],
}

impl U256 {
    /// Zero.
    pub const ZERO: U256 = U256 { limbs: [0; 4] };
    /// One.
    pub const ONE: U256 = U256 { limbs: [1, 0, 0, 0] };

    /// Builds from a small value.
    pub const fn from_u64(v: u64) -> Self {
        U256 { limbs: [v, 0, 0, 0] }
    }

    /// Builds from 32 big-endian bytes.
    pub fn from_be_bytes(b: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let off = 32 - (i + 1) * 8;
            *limb = u64::from_be_bytes(b[off..off + 8].try_into().unwrap());
        }
        U256 { limbs }
    }

    /// Serializes to 32 big-endian bytes.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            let off = 32 - (i + 1) * 8;
            out[off..off + 8].copy_from_slice(&self.limbs[i].to_be_bytes());
        }
        out
    }

    /// Parses a hex string of up to 64 digits (no `0x` prefix).
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.is_empty() || s.len() > 64 {
            return None;
        }
        let mut padded = String::with_capacity(64);
        for _ in 0..64 - s.len() {
            padded.push('0');
        }
        padded.push_str(s);
        let mut bytes = [0u8; 32];
        for (i, chunk) in padded.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            bytes[i] = ((hi << 4) | lo) as u8;
        }
        Some(Self::from_be_bytes(&bytes))
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs == [0; 4]
    }

    /// Returns bit `i` (0 = least significant).
    pub fn bit(&self, i: usize) -> bool {
        debug_assert!(i < 256);
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of significant bits.
    pub fn bits(&self) -> usize {
        for i in (0..4).rev() {
            if self.limbs[i] != 0 {
                return i * 64 + (64 - self.limbs[i].leading_zeros() as usize);
            }
        }
        0
    }

    /// Wrapping addition, returning the carry.
    pub fn overflowing_add(&self, other: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = false;
        for ((o, &a), &b) in out.iter_mut().zip(&self.limbs).zip(&other.limbs) {
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            *o = s2;
            carry = c1 | c2;
        }
        (U256 { limbs: out }, carry)
    }

    /// Wrapping subtraction, returning the borrow.
    pub fn overflowing_sub(&self, other: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = false;
        for ((o, &a), &b) in out.iter_mut().zip(&self.limbs).zip(&other.limbs) {
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            *o = d2;
            borrow = b1 | b2;
        }
        (U256 { limbs: out }, borrow)
    }

    /// Widening multiplication producing a full 512-bit product.
    pub fn mul_wide(&self, other: &U256) -> U512 {
        let mut out = [0u64; 8];
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let acc = out[i + j] as u128
                    + self.limbs[i] as u128 * other.limbs[j] as u128
                    + carry;
                out[i + j] = acc as u64;
                carry = acc >> 64;
            }
            // Propagate the final carry; it always fits because the running
            // total is bounded by the 512-bit product.
            let mut k = i + 4;
            while carry > 0 {
                let acc = out[k] as u128 + carry;
                out[k] = acc as u64;
                carry = acc >> 64;
                k += 1;
            }
        }
        U512 { limbs: out }
    }

    /// Multiplies by a single 64-bit limb, producing 5 limbs
    /// `(low 4, high overflow)`.
    pub fn mul_u64(&self, m: u64) -> (U256, u64) {
        let mut out = [0u64; 4];
        let mut carry: u128 = 0;
        for (o, &a) in out.iter_mut().zip(&self.limbs) {
            let acc = a as u128 * m as u128 + carry;
            *o = acc as u64;
            carry = acc >> 64;
        }
        (U256 { limbs: out }, carry as u64)
    }
}

impl U512 {
    /// Splits into `(low 256 bits, high 256 bits)`.
    pub fn split(&self) -> (U256, U256) {
        (
            U256 { limbs: [self.limbs[0], self.limbs[1], self.limbs[2], self.limbs[3]] },
            U256 { limbs: [self.limbs[4], self.limbs[5], self.limbs[6], self.limbs[7]] },
        )
    }

    /// Returns bit `i` (0 = least significant).
    pub fn bit(&self, i: usize) -> bool {
        debug_assert!(i < 512);
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Generic remainder modulo a 256-bit divisor, by binary long division.
    ///
    /// This is the slow-but-obviously-correct path, checked against `u128`
    /// arithmetic in the unit tests. Panics if `divisor` is zero.
    pub fn rem(&self, divisor: &U256) -> U256 {
        assert!(!divisor.is_zero(), "division by zero");
        // Remainder as 5 limbs so the pre-reduction shift cannot overflow.
        let mut r = [0u64; 5];
        let d = [
            divisor.limbs[0],
            divisor.limbs[1],
            divisor.limbs[2],
            divisor.limbs[3],
            0u64,
        ];
        for i in (0..512).rev() {
            // r <<= 1
            for k in (1..5).rev() {
                r[k] = (r[k] << 1) | (r[k - 1] >> 63);
            }
            r[0] <<= 1;
            if self.bit(i) {
                r[0] |= 1;
            }
            // if r >= d { r -= d }
            if ge5(&r, &d) {
                sub5(&mut r, &d);
            }
        }
        debug_assert_eq!(r[4], 0);
        U256 { limbs: [r[0], r[1], r[2], r[3]] }
    }
}

fn ge5(a: &[u64; 5], b: &[u64; 5]) -> bool {
    for i in (0..5).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

fn sub5(a: &mut [u64; 5], b: &[u64; 5]) {
    let mut borrow = false;
    for i in 0..5 {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow as u64);
        a[i] = d2;
        borrow = b1 | b2;
    }
    debug_assert!(!borrow);
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256(0x")?;
        for b in self.to_be_bytes() {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn be_bytes_round_trip() {
        let mut b = [0u8; 32];
        for (i, byte) in b.iter_mut().enumerate() {
            *byte = i as u8;
        }
        let x = U256::from_be_bytes(&b);
        assert_eq!(x.to_be_bytes(), b);
    }

    #[test]
    fn hex_parsing() {
        let x = U256::from_hex("ff").unwrap();
        assert_eq!(x, U256::from_u64(0xff));
        let y = U256::from_hex("10000000000000000").unwrap(); // 2^64
        assert_eq!(y.limbs, [0, 1, 0, 0]);
        assert!(U256::from_hex("").is_none());
        assert!(U256::from_hex(&"f".repeat(65)).is_none());
    }

    #[test]
    fn add_carry_chain() {
        let max = U256 { limbs: [u64::MAX; 4] };
        let (sum, carry) = max.overflowing_add(&U256::ONE);
        assert!(carry);
        assert_eq!(sum, U256::ZERO);
    }

    #[test]
    fn sub_borrow_chain() {
        let (diff, borrow) = U256::ZERO.overflowing_sub(&U256::ONE);
        assert!(borrow);
        assert_eq!(diff, U256 { limbs: [u64::MAX; 4] });
    }

    #[test]
    fn mul_wide_small() {
        let a = U256::from_u64(0xffff_ffff_ffff_ffff);
        let p = a.mul_wide(&a);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(p.limbs[0], 1);
        assert_eq!(p.limbs[1], 0xffff_ffff_ffff_fffe);
        assert_eq!(p.limbs[2..8], [0; 6]);
    }

    #[test]
    fn mul_wide_max() {
        let max = U256 { limbs: [u64::MAX; 4] };
        let p = max.mul_wide(&max);
        // (2^256-1)^2 = 2^512 - 2^257 + 1
        assert_eq!(p.limbs[0], 1);
        assert_eq!(p.limbs[1..4], [0; 3]);
        assert_eq!(p.limbs[4], 0xffff_ffff_ffff_fffe);
        assert_eq!(p.limbs[5..8], [u64::MAX; 3]);
    }

    #[test]
    fn rem_small_cases() {
        let a = U256::from_u64(100).mul_wide(&U256::ONE);
        assert_eq!(a.rem(&U256::from_u64(7)), U256::from_u64(2));
        assert_eq!(a.rem(&U256::from_u64(100)), U256::ZERO);
        assert_eq!(a.rem(&U256::from_u64(101)), U256::from_u64(100));
    }

    #[test]
    fn rem_matches_u128_arithmetic() {
        // Cross-check the binary division against native u128 math.
        let cases: [(u128, u128); 4] = [
            (0xdead_beef_dead_beef_dead_beef, 0x1234_5678_9abc),
            (u128::MAX, 0xffff_ffff_ffff_fffe),
            (12345678901234567890, 97),
            (1 << 100, (1 << 50) - 1),
        ];
        for (a, m) in cases {
            let a256 = U256 { limbs: [a as u64, (a >> 64) as u64, 0, 0] };
            let m256 = U256 { limbs: [m as u64, (m >> 64) as u64, 0, 0] };
            let wide = a256.mul_wide(&U256::ONE);
            let want = a % m;
            let got = wide.rem(&m256);
            assert_eq!(got.limbs[0] as u128 | ((got.limbs[1] as u128) << 64), want);
        }
    }

    #[test]
    fn bits_and_bit_access() {
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::ONE.bits(), 1);
        let x = U256::from_hex("8000000000000000000000000000000000000000000000000000000000000000")
            .unwrap();
        assert_eq!(x.bits(), 256);
        assert!(x.bit(255));
        assert!(!x.bit(0));
    }

    #[test]
    fn mul_u64_overflow_limb() {
        let max = U256 { limbs: [u64::MAX; 4] };
        let (lo, hi) = max.mul_u64(2);
        assert_eq!(hi, 1);
        assert_eq!(lo.limbs, [u64::MAX - 1, u64::MAX, u64::MAX, u64::MAX]);
    }

    #[test]
    fn ordering() {
        let a = U256::from_hex("0100000000000000000000000000000000").unwrap();
        let b = U256::from_hex("ff00000000000000000000000000000000").unwrap();
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }
}
