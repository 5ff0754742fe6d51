//! Probabilistic primality testing and prime generation.
//!
//! Miller–Rabin with the deterministic base set for inputs up to 81 bits
//! and 24 seeded random bases above that (error probability < 4^-24 per
//! accepted prime). [`is_prime`] screens with trial division by the
//! primes below 256 first. [`gen_prime`] draws one random odd candidate
//! with its top two bits set, then walks it upward in steps of 2. A
//! sieve replaces per-candidate trial division there: the candidate's
//! residues modulo the first 2048 odd primes are computed once and
//! stepped along with it, and only candidates no sieve prime divides
//! reach Miller–Rabin. The round count and error bound are unchanged.
//! Prime generation is deterministic given the caller's RNG, which keeps
//! TPM identities reproducible across simulation runs.

use crate::bignum::BigUint;
use crate::montgomery::Montgomery;

/// A deterministic RNG source for prime generation; implemented by
/// `bolted_sim::Rng` in practice, duplicated here as a tiny trait so this
/// crate stays dependency-free.
pub trait RandomSource: Send {
    /// Returns 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Fills a buffer with random bytes.
    fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

/// A minimal xorshift-based random source for when callers do not bring
/// their own (used by tests and key generation defaults).
#[derive(Debug, Clone)]
pub struct XorShiftSource {
    state: u64,
}

impl XorShiftSource {
    /// Creates a source from a non-zero seed (zero is mapped to a fixed
    /// constant).
    pub fn new(seed: u64) -> Self {
        XorShiftSource {
            state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
        }
    }
}

impl RandomSource for XorShiftSource {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }
}

const SMALL_PRIMES: [u32; 54] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
];

/// Deterministic Miller–Rabin bases valid for all `n < 3.3 * 10^24`.
const DETERMINISTIC_BASES: [u64; 13] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41];

/// Number of random Miller–Rabin rounds for large candidates
/// (error probability < 4^-24).
const RANDOM_ROUNDS: usize = 24;

/// Number of odd primes the prime search sieves candidates by.
const SIEVE_LEN: usize = 2048;

/// The first [`SIEVE_LEN`] odd primes, 3 through 17,881.
static SIEVE_PRIMES: [u32; SIEVE_LEN] = odd_primes();

/// Sieve of Eratosthenes over the odd numbers, at compile time. The
/// bound is just past the 2048th odd prime; too small a bound fails the
/// build with an out-of-range index.
const fn odd_primes() -> [u32; SIEVE_LEN] {
    const BOUND: usize = 17_900;
    let mut composite = [false; BOUND];
    let mut primes = [0u32; SIEVE_LEN];
    let mut count = 0;
    let mut i = 3;
    while count < SIEVE_LEN {
        if !composite[i] {
            primes[count] = i as u32;
            count += 1;
            let mut j = i * i;
            while j < BOUND {
                composite[j] = true;
                j += 2 * i;
            }
        }
        i += 2;
    }
    primes
}

/// Miller–Rabin on odd `n` with no factor below 256: the deterministic
/// bases up to 81 bits, [`RANDOM_ROUNDS`] random bases above. One
/// Montgomery context and one `n − 1 = d·2^r` split serve every base.
fn miller_rabin(n: &BigUint, rng: &mut dyn RandomSource) -> bool {
    let ctx = Montgomery::new(n).expect("candidate is odd and > 1");
    let n_minus_1 = n.sub(&BigUint::one());
    let mut d = n_minus_1.clone();
    let mut r = 0usize;
    while !d.is_odd() {
        d = d.shr(1);
        r += 1;
    }
    if n.bits() <= 81 {
        // Deterministic for anything that fits well under 3.3e24.
        return DETERMINISTIC_BASES
            .iter()
            .all(|&b| ctx.is_sprp(&BigUint::from_u64(b), &d, r));
    }
    // Random bases in [2, n-2].
    let n_minus_3 = n.sub(&BigUint::from_u64(3));
    let two = BigUint::from_u64(2);
    (0..RANDOM_ROUNDS).all(|_| ctx.is_sprp(&random_below(&n_minus_3, rng).add(&two), &d, r))
}

/// Tests `n` for primality.
pub fn is_prime(n: &BigUint, rng: &mut dyn RandomSource) -> bool {
    if n.is_zero() || n == &BigUint::one() {
        return false;
    }
    for &p in &SMALL_PRIMES {
        if n.rem_u32(p) == 0 {
            return n == &BigUint::from_u64(u64::from(p));
        }
    }
    // n > 251 and odd from here on.
    miller_rabin(n, rng)
}

/// Returns a uniform value in `[0, bound)` by rejection sampling.
///
/// # Panics
///
/// Panics if `bound` is zero.
pub fn random_below(bound: &BigUint, rng: &mut dyn RandomSource) -> BigUint {
    assert!(!bound.is_zero(), "random_below bound must be positive");
    let byte_len = bound.to_bytes_be().len();
    let top_bits = bound.bits() % 8;
    loop {
        let mut buf = vec![0u8; byte_len];
        rng.fill_bytes(&mut buf);
        if top_bits != 0 {
            buf[0] &= (1u8 << top_bits) - 1;
        }
        let candidate = BigUint::from_bytes_be(&buf);
        if &candidate < bound {
            return candidate;
        }
    }
}

/// Generates a random prime with exactly `bits` bits, the top two of
/// them set: the product of two such primes has exactly their combined
/// bit length, so an RSA modulus never needs a second draw.
///
/// # Panics
///
/// Panics if `bits < 8`.
pub fn gen_prime(bits: usize, rng: &mut dyn RandomSource) -> BigUint {
    assert!(bits >= 8, "prime size too small");
    let byte_len = bits.div_ceil(8);
    let mut buf = vec![0u8; byte_len];
    let mut residues = [0u32; SIEVE_LEN];
    // Below this size a candidate could be a sieve prime itself.
    let sieve_max_bits = (u32::BITS - SIEVE_PRIMES[SIEVE_LEN - 1].leading_zeros()) as usize;
    loop {
        rng.fill_bytes(&mut buf);
        // Force exact bit length, the top two bits and oddness.
        let top_bit = (bits - 1) % 8;
        buf[0] &= ((1u16 << (top_bit + 1)) - 1) as u8;
        buf[0] |= 1 << top_bit;
        if top_bit == 0 {
            buf[1] |= 0x80;
        } else {
            buf[0] |= 1 << (top_bit - 1);
        }
        buf[byte_len - 1] |= 1;
        let candidate = BigUint::from_bytes_be(&buf);
        if bits <= sieve_max_bits {
            if is_prime(&candidate, rng) {
                return candidate;
            }
        } else if let Some(p) = sieve_search(&candidate, bits, &mut residues, rng) {
            return p;
        }
    }
}

/// Walks `start, start + 2, …` to the first prime, or `None` once the
/// walk would pass `bits` bits (the caller then draws afresh). `start`
/// is odd and above every sieve prime, so a sieve prime dividing a
/// candidate proves it composite. `residues` is the caller's reused
/// buffer for `candidate mod p` over [`SIEVE_PRIMES`].
fn sieve_search(
    start: &BigUint,
    bits: usize,
    residues: &mut [u32; SIEVE_LEN],
    rng: &mut dyn RandomSource,
) -> Option<BigUint> {
    for (r, &p) in residues.iter_mut().zip(&SIEVE_PRIMES) {
        *r = start.rem_u32(p);
    }
    let mut clear = !residues.contains(&0);
    let mut delta = 0u64;
    loop {
        if clear {
            let candidate = start.add(&BigUint::from_u64(delta));
            if candidate.bits() != bits {
                return None;
            }
            if miller_rabin(&candidate, rng) {
                return Some(candidate);
            }
        }
        delta += 2;
        clear = step_residues(residues);
    }
}

/// Advances every residue by 2, as the candidate steps to the next odd
/// number; true if no sieve prime divides the new candidate. Branch-free
/// over all lanes, so it vectorises.
fn step_residues(residues: &mut [u32; SIEVE_LEN]) -> bool {
    let mut clear = true;
    for (r, &p) in residues.iter_mut().zip(&SIEVE_PRIMES) {
        let v = *r + 2;
        // v < 2p, so one conditional subtract reduces it.
        let v = if v >= p { v - p } else { v };
        *r = v;
        clear &= v != 0;
    }
    clear
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> XorShiftSource {
        XorShiftSource::new(0xB01DED)
    }

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn small_primes_accepted() {
        let mut r = rng();
        for p in [2u64, 3, 5, 7, 97, 251, 257, 65537, 1_000_000_007] {
            assert!(is_prime(&n(p), &mut r), "{p} is prime");
        }
    }

    #[test]
    fn small_composites_rejected() {
        let mut r = rng();
        for c in [0u64, 1, 4, 9, 15, 255, 1001, 65535, 1_000_000_005] {
            assert!(!is_prime(&n(c), &mut r), "{c} is composite");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Classic Fermat pseudoprimes that fool weak tests.
        let mut r = rng();
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265] {
            assert!(!is_prime(&n(c), &mut r), "Carmichael {c}");
        }
    }

    #[test]
    fn strong_pseudoprimes_to_base_2_rejected() {
        let mut r = rng();
        for c in [2047u64, 3277, 4033, 4681, 8321] {
            assert!(!is_prime(&n(c), &mut r), "2-SPRP {c}");
        }
    }

    #[test]
    fn known_large_prime_accepted() {
        // 2^89 - 1 is a Mersenne prime (exceeds the 81-bit deterministic
        // path, exercising the random-base branch).
        let mut r = rng();
        let p = BigUint::one().shl(89).sub(&BigUint::one());
        assert!(is_prime(&p, &mut r));
        // 2^83 - 1 is composite (167 divides it).
        let c = BigUint::one().shl(83).sub(&BigUint::one());
        assert!(!is_prime(&c, &mut r));
    }

    #[test]
    fn gen_prime_has_exact_bits_and_is_prime() {
        // 8..=15 bits take the plain draw-and-test path (a candidate
        // could be a sieve prime itself); 16 bits and up, the sieve.
        let mut r = rng();
        for bits in [8usize, 11, 15, 16, 32, 64, 100, 128, 256] {
            let p = gen_prime(bits, &mut r);
            assert_eq!(p.bits(), bits, "requested {bits} bits");
            assert!(p.bit(bits - 2), "{bits}-bit prime lacks its second bit");
            assert!(p.is_odd());
            assert!(is_prime(&p, &mut r));
        }
    }

    #[test]
    fn gen_prime_deterministic_per_seed() {
        for bits in [64usize, 256] {
            let a = gen_prime(bits, &mut XorShiftSource::new(7));
            let b = gen_prime(bits, &mut XorShiftSource::new(7));
            let c = gen_prime(bits, &mut XorShiftSource::new(8));
            assert_eq!(a, b);
            assert_ne!(a, c);
        }
    }

    #[test]
    fn gen_prime_sets_the_top_two_bits() {
        // With only the top bit forced, about half of all primes would
        // fall below 2^(k-1) + 2^(k-2).
        for k in [128usize, 256, 512] {
            let floor = BigUint::one().shl(k - 1).add(&BigUint::one().shl(k - 2));
            for seed in 1..=6u64 {
                let p = gen_prime(k, &mut XorShiftSource::new(seed));
                assert_eq!(p.bits(), k, "k={k} seed={seed}");
                assert!(p >= floor, "k={k} seed={seed}: top two bits not set");
            }
        }
    }

    #[test]
    fn sieve_table_is_the_first_odd_primes() {
        let table: Vec<u64> = SIEVE_PRIMES.iter().map(|&p| u64::from(p)).collect();
        let expect: Vec<u64> = (3u64..)
            .step_by(2)
            .filter(|&c| {
                (3..)
                    .step_by(2)
                    .take_while(|d| d * d <= c)
                    .all(|d| c % d != 0)
            })
            .take(SIEVE_LEN)
            .collect();
        assert_eq!(table, expect);
        assert_eq!(table.last(), Some(&17_881));
    }

    #[test]
    fn sieve_verdict_matches_trial_division() {
        // Walk random odd starts upward exactly as `sieve_search` does
        // and compare each step's verdict with `BigUint::rem` over every
        // small and sieve prime.
        let mut r = rng();
        let divisors: Vec<BigUint> = SMALL_PRIMES
            .iter()
            .chain(SIEVE_PRIMES.iter())
            .map(|&p| n(u64::from(p)))
            .collect();
        let mut residues = [0u32; SIEVE_LEN];
        for bytes in [3usize, 12, 32] {
            let mut buf = vec![0u8; bytes];
            r.fill_bytes(&mut buf);
            buf[0] |= 0x80;
            buf[bytes - 1] |= 1;
            let start = BigUint::from_bytes_be(&buf);
            for (res, &p) in residues.iter_mut().zip(&SIEVE_PRIMES) {
                *res = start.rem_u32(p);
            }
            let mut clear = !residues.contains(&0);
            for step in 0..400u64 {
                let c = start.add(&n(2 * step));
                let trial = divisors.iter().all(|p| !c.rem(p).is_zero());
                assert_eq!(clear, trial, "start={start:?} step={step}");
                clear = step_residues(&mut residues);
            }
        }
    }

    #[test]
    fn random_below_in_range() {
        let mut r = rng();
        let bound = n(1000);
        for _ in 0..1000 {
            assert!(random_below(&bound, &mut r) < bound);
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn random_below_zero_panics() {
        random_below(&BigUint::zero(), &mut rng());
    }
}
