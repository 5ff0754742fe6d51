//! Montgomery-form modular arithmetic for odd moduli.
//!
//! RSA verification dominates the attestation hot path, and the legacy
//! [`BigUint::modpow`] pays a full Knuth division after every multiply. A
//! [`Montgomery`] context precomputes `n' = -n^{-1} mod 2^64` and
//! `R^2 mod n` (with `R = 2^{64k}` for a `k`-limb modulus) once, after
//! which every modular multiply is a single CIOS (coarsely integrated
//! operand scanning) pass over `u64` limbs with `u128` accumulators — no
//! division, no allocation churn beyond the working buffer.
//!
//! Exponentiation uses a fixed 4-bit window (16-entry table) for long
//! exponents. For RSA-2048 private exponents that trades 15 precomputed
//! multiplies for ~3/8 of the per-bit multiplies of square-and-multiply.
//! The window size is a sweet spot: 5 bits doubles the table for <4%
//! fewer multiplies at RSA sizes, 3 bits gives up ~8%. Exponents of 64
//! bits or fewer — the public exponent 65537 above all — skip the table
//! and use plain square-and-multiply, which is cheaper below ~15 set bits.
//!
//! One exponentiation ladder runs on two kernels. The any-width kernel
//! keeps limbs in `Vec`s and squares with a dedicated pass. At 4 and 8
//! limbs (the primes and CRT halves of 512- and 1024-bit keys, and
//! 512-bit moduli) a const-generic `[u64; K]` kernel takes over: the
//! compiler unrolls its multiply fully, which then beats the dedicated
//! squaring pass, so it squares by multiplying. Miller–Rabin rounds run
//! on the same kernels and stay in Montgomery form throughout.

use crate::bignum::BigUint;

/// Precomputed Montgomery context for a fixed odd modulus.
///
/// The context is immutable after construction and safe to share across
/// threads (it is plain limb data), which is what lets quote verification
/// fan out on a thread pool.
#[derive(Debug, Clone)]
pub struct Montgomery {
    /// Modulus as little-endian `u64` limbs, padded to `k` entries.
    n: Vec<u64>,
    /// `-n^{-1} mod 2^64`.
    n0inv: u64,
    /// `R^2 mod n` in limb form, for converting into Montgomery domain.
    r2: Vec<u64>,
    /// Limb count.
    k: usize,
}

impl Montgomery {
    /// Builds a context for modulus `m`. Returns `None` unless `m` is odd
    /// and greater than 1 (Montgomery reduction requires `gcd(m, 2) = 1`).
    pub fn new(m: &BigUint) -> Option<Montgomery> {
        if !m.is_odd() || m == &BigUint::one() {
            return None;
        }
        let k = m.bits().div_ceil(64);
        let n = m.to_u64_limbs(k);
        // Newton–Hensel lifting: each step doubles the valid low bits of
        // inv ≡ n^{-1} mod 2^64; five steps from the 2-bit seed cover 64.
        let mut inv = n[0];
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
        }
        debug_assert_eq!(n[0].wrapping_mul(inv), 1);
        let n0inv = inv.wrapping_neg();
        // R^2 mod n via one divrem at setup; every later reduction is
        // division-free.
        let r2 = BigUint::one().shl(2 * 64 * k).rem(m).to_u64_limbs(k);
        Some(Montgomery { n, n0inv, r2, k })
    }

    /// The limb count of the modulus.
    pub fn limbs(&self) -> usize {
        self.k
    }

    /// CIOS Montgomery multiplication `a * b * R^{-1} mod n` of `k`-limb
    /// values below `n`, allocation-free: `t` is a `k + 2`-limb scratch
    /// buffer, the product lands in `out`. Exponentiation calls this in
    /// its inner loop so a 2048-bit `pow` does zero heap allocation past
    /// setup.
    fn mont_mul_into(&self, a: &[u64], b: &[u64], t: &mut [u64], out: &mut [u64]) {
        let k = self.k;
        debug_assert_eq!(a.len(), k);
        debug_assert_eq!(b.len(), k);
        debug_assert_eq!(out.len(), k);
        // t holds k+1 limbs of running sum plus one carry limb. The
        // multiply-by-`ai` and reduce-by-`m·n` passes are fused (finely
        // integrated operand scanning), so each outer iteration reads and
        // writes `t` once instead of twice; both u128 sums stay below
        // 2^128 because (2^64-1) + (2^64-1)^2 + (2^64-1) = 2^128 - 1.
        debug_assert!(t.len() >= k + 2);
        // Fixed-length reslices so the indexed loops compile without
        // bounds checks (the crate forbids unsafe, so this is the lever).
        let t = &mut t[..k + 2];
        let b = &b[..k];
        let n = &self.n[..k];
        // First outer iteration specialised: t is conceptually zero, so
        // it initialises every limb instead of reading + zero-filling.
        {
            let ai = a[0];
            let s = u128::from(ai) * u128::from(b[0]);
            let m = (s as u64).wrapping_mul(self.n0inv);
            let s2 = u128::from(s as u64) + u128::from(m) * u128::from(n[0]);
            debug_assert_eq!(s2 as u64, 0);
            let mut carry_a = s >> 64;
            let mut carry_m = s2 >> 64;
            for j in 1..k {
                let s = u128::from(ai) * u128::from(b[j]) + carry_a;
                carry_a = s >> 64;
                let s2 = u128::from(s as u64) + u128::from(m) * u128::from(n[j]) + carry_m;
                carry_m = s2 >> 64;
                t[j - 1] = s2 as u64;
            }
            let s = carry_a + carry_m;
            t[k - 1] = s as u64;
            t[k] = (s >> 64) as u64;
            t[k + 1] = 0;
        }
        for &ai in a[1..].iter() {
            let s = u128::from(t[0]) + u128::from(ai) * u128::from(b[0]);
            // The reduction limb that zeroes the window's low limb.
            let m = (s as u64).wrapping_mul(self.n0inv);
            let s2 = u128::from(s as u64) + u128::from(m) * u128::from(n[0]);
            debug_assert_eq!(s2 as u64, 0);
            let mut carry_a = s >> 64;
            let mut carry_m = s2 >> 64;
            for j in 1..k {
                let s = u128::from(t[j]) + u128::from(ai) * u128::from(b[j]) + carry_a;
                carry_a = s >> 64;
                let s2 = u128::from(s as u64) + u128::from(m) * u128::from(n[j]) + carry_m;
                carry_m = s2 >> 64;
                t[j - 1] = s2 as u64;
            }
            let s = u128::from(t[k]) + carry_a + carry_m;
            t[k - 1] = s as u64;
            t[k] = t[k + 1] + (s >> 64) as u64;
            t[k + 1] = 0;
        }
        // Result is in t[0..=k] and is < 2n; one conditional subtract.
        if t[k] != 0 || !less_than(&t[..k], &self.n) {
            sub_in_place(t, &self.n);
        }
        out.copy_from_slice(&t[..k]);
    }

    /// Allocation-free Montgomery squaring: `a * a * R^{-1} mod n`.
    ///
    /// Squaring computes each cross product `a[i]·a[j]` once and doubles
    /// (SOS: separate square and reduce passes), spending ~1.5k² MACs
    /// where [`Self::mont_mul_into`] spends 2k² — and squarings are ~half
    /// the multiplies of an exponentiation. `t` needs `2k + 2` limbs.
    fn mont_sqr_into(&self, a: &[u64], t: &mut [u64], out: &mut [u64]) {
        let k = self.k;
        debug_assert_eq!(a.len(), k);
        debug_assert_eq!(out.len(), k);
        debug_assert!(t.len() >= 2 * k);
        let t = &mut t[..2 * k];
        let a = &a[..k];
        let n = &self.n[..k];
        t.fill(0);
        // Cross products above the diagonal; position i+k is untouched
        // when row i's carry lands there, so a direct store is safe.
        for i in 0..k {
            let mut carry: u128 = 0;
            for j in (i + 1)..k {
                let s = u128::from(t[i + j]) + u128::from(a[i]) * u128::from(a[j]) + carry;
                t[i + j] = s as u64;
                carry = s >> 64;
            }
            t[i + k] = carry as u64;
        }
        // Double the cross products and add the diagonals in one pass
        // (the full square is 2·cross + diagonals and fits 2k limbs,
        // being at most n² < 2^{128k}).
        let mut high_bit = 0u64;
        let mut carry: u128 = 0;
        for i in 0..k {
            let next = t[2 * i] >> 63;
            let doubled = (t[2 * i] << 1) | high_bit;
            high_bit = next;
            let s = u128::from(doubled) + u128::from(a[i]) * u128::from(a[i]) + carry;
            t[2 * i] = s as u64;
            let next = t[2 * i + 1] >> 63;
            let doubled = (t[2 * i + 1] << 1) | high_bit;
            high_bit = next;
            let s2 = u128::from(doubled) + (s >> 64);
            t[2 * i + 1] = s2 as u64;
            carry = s2 >> 64;
        }
        debug_assert_eq!(high_bit, 0);
        debug_assert_eq!(carry, 0);
        // Montgomery reduction, one limb at a time; `extra` is the 2k-th
        // limb the deferred carries can spill into.
        let mut extra = 0u64;
        for i in 0..k {
            let m = t[i].wrapping_mul(self.n0inv);
            let mut carry: u128 = 0;
            for j in 0..k {
                let s = u128::from(t[i + j]) + u128::from(m) * u128::from(n[j]) + carry;
                t[i + j] = s as u64;
                carry = s >> 64;
            }
            let mut pos = i + k;
            let mut c = carry as u64;
            while c != 0 {
                if pos < 2 * k {
                    let (nv, overflow) = t[pos].overflowing_add(c);
                    t[pos] = nv;
                    c = u64::from(overflow);
                    pos += 1;
                } else {
                    extra += c;
                    c = 0;
                }
            }
        }
        // Result is t[k..2k] (+ extra·2^{64k}) and is < 2n; one
        // conditional subtract, whose borrow must consume `extra`.
        if extra != 0 || !less_than(&t[k..], &self.n) {
            let mut borrow = 0u64;
            for j in 0..k {
                let (d1, o1) = t[k + j].overflowing_sub(self.n[j]);
                let (d2, o2) = d1.overflowing_sub(borrow);
                t[k + j] = d2;
                borrow = u64::from(o1) + u64::from(o2);
            }
            debug_assert_eq!(borrow, extra);
        }
        out.copy_from_slice(&t[k..]);
    }

    /// `x mod n` as `k` limbs. Division only when `x ≥ n`; values that
    /// already fit below `n` skip the `BigUint` round trip.
    fn reduce(&self, x: &BigUint) -> Vec<u64> {
        if x.bits() <= 64 * self.k {
            let limbs = x.to_u64_limbs(self.k);
            if less_than(&limbs, &self.n) {
                return limbs;
            }
        }
        x.rem(&self.modulus()).to_u64_limbs(self.k)
    }

    /// Converts out of the Montgomery domain (`a * R^{-1} mod n`).
    ///
    /// Pure REDC — k reduction rounds, no multiplicand — so it costs
    /// half a [`Self::mont_mul_into`].
    #[allow(clippy::wrong_self_convention)]
    fn from_mont(&self, a: &[u64]) -> BigUint {
        let k = self.k;
        debug_assert_eq!(a.len(), k);
        let n = &self.n[..k];
        let mut t = vec![0u64; k + 2];
        t[..k].copy_from_slice(a);
        for _ in 0..k {
            let m = t[0].wrapping_mul(self.n0inv);
            let s = u128::from(t[0]) + u128::from(m) * u128::from(n[0]);
            debug_assert_eq!(s as u64, 0);
            let mut carry = s >> 64;
            for j in 1..k {
                let s = u128::from(t[j]) + u128::from(m) * u128::from(n[j]) + carry;
                t[j - 1] = s as u64;
                carry = s >> 64;
            }
            let s = u128::from(t[k]) + carry;
            t[k - 1] = s as u64;
            t[k] = t[k + 1] + (s >> 64) as u64;
            t[k + 1] = 0;
        }
        if t[k] != 0 || !less_than(&t[..k], &self.n) {
            sub_in_place(&mut t, &self.n);
        }
        BigUint::from_u64_limbs(&t[..k])
    }

    /// The modulus as a `BigUint`.
    pub fn modulus(&self) -> BigUint {
        BigUint::from_u64_limbs(&self.n)
    }

    /// Fixed 4-bit-window exponentiation: `base^exp mod n`.
    ///
    /// 4- and 8-limb moduli (256- and 512-bit: RSA primes, CRT halves
    /// and 512-bit moduli) run on a fixed-width `[u64; K]` kernel;
    /// every other width on [`Self::pow_generic`].
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one().rem(&self.modulus());
        }
        match self.k {
            4 => pow(&mut Fixed::<4>::new(self), base, exp),
            8 => pow(&mut Fixed::<8>::new(self), base, exp),
            _ => self.pow_generic(base, exp),
        }
    }

    /// [`Self::pow`] on the any-width kernel, whatever the limb count.
    /// Public so tests and the `hotpath` bench can cross-check the two
    /// kernels against each other.
    pub fn pow_generic(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one().rem(&self.modulus());
        }
        pow(&mut Wide::new(self), base, exp)
    }

    /// One Miller–Rabin round: true if the modulus `n` is a strong
    /// probable prime to base `a`, where the caller has split
    /// `n − 1 = d·2^r` (`d` odd) once for all its bases. Requires
    /// `1 < a < n − 1`.
    pub(crate) fn is_sprp(&self, a: &BigUint, d: &BigUint, r: usize) -> bool {
        match self.k {
            4 => sprp(&mut Fixed::<4>::new(self), a, d, r),
            8 => sprp(&mut Fixed::<8>::new(self), a, d, r),
            _ => sprp(&mut Wide::new(self), a, d, r),
        }
    }
}

/// A Montgomery multiplier over one modulus. The exponentiation and
/// Miller–Rabin ladders ([`pow_mont`], [`sprp`]) are written once
/// against it and run on either kernel.
trait Kernel {
    /// A residue in Montgomery form.
    type Elem: Clone + PartialEq;
    /// `x·R mod n`, for any `x`.
    fn to_mont(&mut self, x: &BigUint) -> Self::Elem;
    /// `a·R⁻¹ mod n`.
    #[allow(clippy::wrong_self_convention)]
    fn from_mont(&mut self, a: &Self::Elem) -> BigUint;
    /// `out = a·b·R⁻¹ mod n`.
    fn mul(&mut self, a: &Self::Elem, b: &Self::Elem, out: &mut Self::Elem);
    /// `out = a²·R⁻¹ mod n`.
    fn sqr(&mut self, a: &Self::Elem, out: &mut Self::Elem);
}

/// The any-width kernel: `Vec` limbs, fused CIOS multiply and SOS
/// squaring, one scratch buffer reused by every operation.
struct Wide<'a> {
    ctx: &'a Montgomery,
    scratch: Vec<u64>,
}

impl<'a> Wide<'a> {
    fn new(ctx: &'a Montgomery) -> Self {
        Wide {
            ctx,
            scratch: vec![0u64; 2 * ctx.k + 2],
        }
    }
}

impl Kernel for Wide<'_> {
    type Elem = Vec<u64>;

    fn to_mont(&mut self, x: &BigUint) -> Vec<u64> {
        let mut out = vec![0u64; self.ctx.k];
        let x = self.ctx.reduce(x);
        self.ctx
            .mont_mul_into(&x, &self.ctx.r2, &mut self.scratch, &mut out);
        out
    }

    fn from_mont(&mut self, a: &Vec<u64>) -> BigUint {
        self.ctx.from_mont(a)
    }

    fn mul(&mut self, a: &Vec<u64>, b: &Vec<u64>, out: &mut Vec<u64>) {
        self.ctx.mont_mul_into(a, b, &mut self.scratch, out);
    }

    fn sqr(&mut self, a: &Vec<u64>, out: &mut Vec<u64>) {
        self.ctx.mont_sqr_into(a, &mut self.scratch, out);
    }
}

/// The fixed-width kernel: `[u64; K]` limbs on the stack and a fused
/// CIOS multiply the compiler fully unrolls. At 4 and 8 limbs the
/// unrolled multiply beats the wide kernel's SOS squaring, so it squares
/// by multiplying too.
struct Fixed<'a, const K: usize> {
    ctx: &'a Montgomery,
    n: [u64; K],
    n0inv: u64,
    r2: [u64; K],
}

impl<'a, const K: usize> Fixed<'a, K> {
    /// Copies a `K`-limb context into arrays.
    fn new(ctx: &'a Montgomery) -> Self {
        debug_assert_eq!(ctx.k, K);
        Fixed {
            ctx,
            n: std::array::from_fn(|i| ctx.n[i]),
            n0inv: ctx.n0inv,
            r2: std::array::from_fn(|i| ctx.r2[i]),
        }
    }

    /// CIOS Montgomery multiplication `a·b·R⁻¹ mod n`, with the same
    /// fused multiply-and-reduce inner loop as
    /// [`Montgomery::mont_mul_into`]. Inputs must be below `n`.
    #[inline(always)]
    fn mont_mul(&self, a: &[u64; K], b: &[u64; K]) -> [u64; K] {
        let n = &self.n;
        // The running sum is t + hi·2^{64K}; it stays below 2n, so `hi`
        // is 0 or 1 (1 only when n has its top bit set).
        let mut t = [0u64; K];
        let mut hi = 0u64;
        for &ai in a {
            let s = u128::from(t[0]) + u128::from(ai) * u128::from(b[0]);
            let m = (s as u64).wrapping_mul(self.n0inv);
            let s2 = u128::from(s as u64) + u128::from(m) * u128::from(n[0]);
            debug_assert_eq!(s2 as u64, 0);
            let mut carry_a = s >> 64;
            let mut carry_m = s2 >> 64;
            for j in 1..K {
                let s = u128::from(t[j]) + u128::from(ai) * u128::from(b[j]) + carry_a;
                carry_a = s >> 64;
                let s2 = u128::from(s as u64) + u128::from(m) * u128::from(n[j]) + carry_m;
                carry_m = s2 >> 64;
                t[j - 1] = s2 as u64;
            }
            let s = u128::from(hi) + carry_a + carry_m;
            t[K - 1] = s as u64;
            hi = (s >> 64) as u64;
        }
        // One conditional subtract; when `hi` is set its borrow out
        // cancels it.
        if hi != 0 || !less_than(&t, n) {
            let mut borrow = 0u64;
            for (tj, &nj) in t.iter_mut().zip(n) {
                let (d1, o1) = tj.overflowing_sub(nj);
                let (d2, o2) = d1.overflowing_sub(borrow);
                *tj = d2;
                borrow = u64::from(o1) + u64::from(o2);
            }
            debug_assert_eq!(borrow, hi);
        }
        t
    }
}

impl<const K: usize> Kernel for Fixed<'_, K> {
    type Elem = [u64; K];

    fn to_mont(&mut self, x: &BigUint) -> [u64; K] {
        let x = self.ctx.reduce(x);
        self.mont_mul(&std::array::from_fn(|i| x[i]), &self.r2)
    }

    fn from_mont(&mut self, a: &[u64; K]) -> BigUint {
        let mut unit = [0u64; K];
        unit[0] = 1;
        BigUint::from_u64_limbs(&self.mont_mul(a, &unit))
    }

    #[inline(always)]
    fn mul(&mut self, a: &[u64; K], b: &[u64; K], out: &mut [u64; K]) {
        *out = self.mont_mul(a, b);
    }

    #[inline(always)]
    fn sqr(&mut self, a: &[u64; K], out: &mut [u64; K]) {
        *out = self.mont_mul(a, a);
    }
}

/// `base^exp mod n` on kernel `kn`; `exp` must be nonzero.
fn pow<Kn: Kernel>(kn: &mut Kn, base: &BigUint, exp: &BigUint) -> BigUint {
    let base_m = kn.to_mont(base);
    let x = pow_mont(kn, &base_m, exp);
    kn.from_mont(&x)
}

/// `base^exp` in Montgomery form; `exp` must be nonzero. Every multiply
/// writes `tmp` and swaps, so the ladder allocates nothing past the
/// window table.
fn pow_mont<Kn: Kernel>(kn: &mut Kn, base: &Kn::Elem, exp: &BigUint) -> Kn::Elem {
    let nbits = exp.bits();
    debug_assert!(nbits > 0);
    let mut tmp = base.clone();
    // Short exponents (the RSA public exponent 65537 above all) don't
    // amortize the 14-multiply window table; plain left-to-right
    // square-and-multiply needs only popcount(exp)-1 extra multiplies.
    if nbits <= 64 {
        let mut acc = base.clone();
        for i in (0..nbits - 1).rev() {
            kn.sqr(&acc, &mut tmp);
            std::mem::swap(&mut acc, &mut tmp);
            if exp.bit(i) {
                kn.mul(&acc, base, &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
        }
        return acc;
    }
    // table[d] = base^d in Montgomery form; table[0] is 1 (i.e. R mod n),
    // so the window multiply below is unconditional.
    let mut table = Vec::with_capacity(16);
    table.push(kn.to_mont(&BigUint::one()));
    table.push(base.clone());
    for d in 2..16 {
        kn.mul(&table[d - 1], base, &mut tmp);
        table.push(tmp.clone());
    }
    let digit = |w: usize| {
        (0..4).fold(0usize, |digit, b| {
            let i = w * 4 + b;
            digit | (usize::from(i < nbits && exp.bit(i)) << b)
        })
    };
    let windows = nbits.div_ceil(4);
    let mut acc = table[digit(windows - 1)].clone();
    for w in (0..windows - 1).rev() {
        for _ in 0..4 {
            kn.sqr(&acc, &mut tmp);
            std::mem::swap(&mut acc, &mut tmp);
        }
        kn.mul(&acc, &table[digit(w)], &mut tmp);
        std::mem::swap(&mut acc, &mut tmp);
    }
    acc
}

/// The Miller–Rabin round behind [`Montgomery::is_sprp`]. `x` stays in
/// Montgomery form from the exponentiation through every squaring; only
/// the comparisons against ±1 need their Montgomery forms.
fn sprp<Kn: Kernel>(kn: &mut Kn, a: &BigUint, d: &BigUint, r: usize) -> bool {
    let one = kn.to_mont(&BigUint::one());
    let minus_one = kn.to_mont(&d.shl(r)); // d·2^r = n − 1
    let a_m = kn.to_mont(a);
    let mut x = pow_mont(kn, &a_m, d);
    if x == one || x == minus_one {
        return true;
    }
    let mut tmp = x.clone();
    for _ in 1..r {
        kn.sqr(&x, &mut tmp);
        std::mem::swap(&mut x, &mut tmp);
        if x == minus_one {
            return true;
        }
    }
    false
}

/// `a < b` over equal-length little-endian limb slices.
fn less_than(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
    }
    false
}

/// `a -= b` over little-endian limbs (`a` may be longer than `b`).
fn sub_in_place(a: &mut [u64], b: &[u64]) {
    let mut borrow = 0u64;
    for (i, ai) in a.iter_mut().enumerate() {
        let bi = b.get(i).copied().unwrap_or(0);
        let (d1, o1) = ai.overflowing_sub(bi);
        let (d2, o2) = d1.overflowing_sub(borrow);
        *ai = d2;
        borrow = u64::from(o1) + u64::from(o2);
    }
    debug_assert_eq!(borrow, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::{RandomSource, XorShiftSource};

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    fn random_biguint(bytes: usize, rng: &mut XorShiftSource) -> BigUint {
        let mut buf = vec![0u8; bytes];
        rng.fill_bytes(&mut buf);
        BigUint::from_bytes_be(&buf)
    }

    /// A random odd modulus of exactly `bits` bits.
    fn random_odd_modulus(bits: usize, rng: &mut XorShiftSource) -> BigUint {
        let mut buf = vec![0u8; bits.div_ceil(8)];
        rng.fill_bytes(&mut buf);
        let top = (bits - 1) % 8;
        buf[0] &= ((1u16 << (top + 1)) - 1) as u8;
        buf[0] |= 1 << top;
        let last = buf.len() - 1;
        buf[last] |= 1;
        BigUint::from_bytes_be(&buf)
    }

    #[test]
    fn rejects_even_and_unit_moduli() {
        assert!(Montgomery::new(&n(10)).is_none());
        assert!(Montgomery::new(&BigUint::one()).is_none());
        assert!(Montgomery::new(&n(3)).is_some());
    }

    #[test]
    fn pow_small_numbers_match_legacy() {
        let cases = [
            (4u64, 13u64, 497u64),
            (2, 10, 1001),
            (7, 0, 13),
            (0, 5, 7),
            (0, 0, 7),
            (12345, 678, 99991),
        ];
        for (b, e, m) in cases {
            let ctx = Montgomery::new(&n(m)).expect("odd modulus");
            assert_eq!(
                ctx.pow(&n(b), &n(e)),
                n(b).modpow(&n(e), &n(m)),
                "{b}^{e} mod {m}"
            );
        }
    }

    #[test]
    fn modpow_montgomery_falls_back_for_even_moduli() {
        assert_eq!(n(3).modpow_montgomery(&n(4), &n(16)), n(81 % 16));
        assert_eq!(n(7).modpow_montgomery(&n(5), &BigUint::one()), n(0));
    }

    #[test]
    fn cross_check_random_odd_moduli() {
        let mut rng = XorShiftSource::new(0x4D07);
        for bits in [64usize, 128, 256, 521, 1024] {
            for _ in 0..8 {
                let m = random_odd_modulus(bits, &mut rng);
                let base = random_biguint(bits / 8 + 3, &mut rng);
                let exp = random_biguint(bits / 16 + 1, &mut rng);
                assert_eq!(
                    base.modpow_montgomery(&exp, &m),
                    base.modpow(&exp, &m),
                    "bits={bits}"
                );
            }
        }
    }

    #[test]
    fn cross_check_rsa_shaped_2048_bit_modulus() {
        // RSA-shaped: product of two random 1024-bit odd numbers (primality
        // is irrelevant for the arithmetic identity).
        let mut rng = XorShiftSource::new(0x2048);
        let p = random_odd_modulus(1024, &mut rng);
        let q = random_odd_modulus(1024, &mut rng);
        let m = p.mul(&q);
        assert!(m.is_odd());
        let e = n(65537);
        for _ in 0..3 {
            let base = random_biguint(256, &mut rng);
            assert_eq!(base.modpow_montgomery(&e, &m), base.modpow(&e, &m));
        }
        // One big random exponent to cover the dense-window path.
        let d = random_biguint(256, &mut rng);
        let base = random_biguint(256, &mut rng);
        assert_eq!(base.modpow_montgomery(&d, &m), base.modpow(&d, &m));
    }

    /// A random odd modulus of exactly `limbs` 64-bit limbs.
    fn random_limb_modulus(limbs: usize, rng: &mut XorShiftSource) -> BigUint {
        random_odd_modulus(64 * limbs - (rng.next_u64() % 60) as usize, rng)
    }

    #[test]
    fn fixed_kernel_matches_modpow_on_4_and_8_limbs() {
        let mut rng = XorShiftSource::new(0xF1D);
        for limbs in [4usize, 8] {
            // Top limb all ones: the running sum overflows into the
            // carry-out limb before the final subtract.
            let top_ones = BigUint::one().shl(64 * limbs).sub(&n(189));
            let mut moduli = vec![top_ones];
            moduli.extend((0..40).map(|_| random_limb_modulus(limbs, &mut rng)));
            for m in &moduli {
                let ctx = Montgomery::new(m).unwrap();
                assert_eq!(ctx.limbs(), limbs);
                let exp_65 = BigUint::one().shl(64).add(&random_biguint(8, &mut rng));
                let bases = [
                    BigUint::zero(),
                    BigUint::one(),
                    m.add(&random_biguint(4, &mut rng)),
                    random_biguint(8 * limbs, &mut rng),
                ];
                let exps = [BigUint::one(), exp_65, random_biguint(8 * limbs, &mut rng)];
                for base in &bases {
                    for exp in &exps {
                        let want = base.modpow(exp, m);
                        assert_eq!(ctx.pow(base, exp), want, "limbs={limbs}");
                        assert_eq!(ctx.pow_generic(base, exp), want, "limbs={limbs}");
                    }
                }
            }
        }
    }

    #[test]
    fn sprp_agrees_across_kernels() {
        // Odd candidates, prime and composite: the fixed and wide
        // kernels give the same Miller–Rabin verdict for every base.
        let mut rng = XorShiftSource::new(0x5B2);
        let prime_256 = BigUint::one().shl(255).add(&n(95)); // 2^255 + 95
        let mut candidates = vec![prime_256];
        candidates.extend((0..30).map(|_| random_limb_modulus(4, &mut rng)));
        candidates.extend((0..10).map(|_| random_limb_modulus(8, &mut rng)));
        let mut primes_seen = 0;
        for c in &candidates {
            let ctx = Montgomery::new(c).unwrap();
            let mut d = c.sub(&BigUint::one());
            let mut r = 0;
            while !d.is_odd() {
                d = d.shr(1);
                r += 1;
            }
            for a in [2u64, 3, 0xDEAD_BEEF] {
                let a = n(a);
                let wide = sprp(&mut Wide::new(&ctx), &a, &d, r);
                let fixed = match ctx.limbs() {
                    4 => sprp(&mut Fixed::<4>::new(&ctx), &a, &d, r),
                    _ => sprp(&mut Fixed::<8>::new(&ctx), &a, &d, r),
                };
                assert_eq!(wide, fixed, "{c:?} base {a:?}");
                assert_eq!(ctx.is_sprp(&a, &d, r), wide);
                primes_seen += usize::from(wide);
            }
        }
        assert!(primes_seen >= 3, "2^255 + 95 passes every base");
    }

    #[test]
    fn base_larger_than_modulus_is_reduced() {
        let m = n(1_000_003);
        let ctx = Montgomery::new(&m).unwrap();
        let big = n(1_000_003 * 7 + 12345);
        assert_eq!(ctx.pow(&big, &n(3)), n(12345).modpow(&n(3), &m));
    }

    #[test]
    fn fermat_little_theorem_holds() {
        let p = n(1_000_000_007);
        let ctx = Montgomery::new(&p).unwrap();
        for a in [2u64, 3, 10, 123_456_789] {
            assert_eq!(ctx.pow(&n(a), &p.sub(&BigUint::one())), BigUint::one());
        }
    }
}
