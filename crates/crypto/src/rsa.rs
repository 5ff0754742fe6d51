//! RSA keypairs, PKCS#1 v1.5 signatures and encryption, from scratch.
//!
//! This backs the TPM's Endorsement Key (EK) and Attestation Identity Key
//! (AIK): quotes are RSA signatures over a PCR composite and nonce, and
//! the registrar's credential-activation challenge is RSA-encrypted to
//! the EK. Key sizes are configurable; the simulation defaults to 512-bit
//! keys (`CloudConfig::tpm_key_bits`) to keep runs fast — the protocol
//! logic is identical at 2048.

use std::sync::{Arc, OnceLock};

use crate::bignum::BigUint;
use crate::montgomery::Montgomery;
use crate::prime::{gen_prime, RandomSource};
use crate::sha256::{sha256, Digest};

/// DER prefix of `DigestInfo` for SHA-256 (RFC 8017 §9.2 note 1).
const SHA256_DIGEST_INFO: [u8; 19] = [
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
    0x00, 0x04, 0x20,
];

/// Errors from RSA operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RsaError {
    /// Message too long for the key modulus.
    MessageTooLong,
    /// Ciphertext or signature is malformed for this key.
    Malformed,
    /// Decryption padding check failed.
    BadPadding,
}

impl std::fmt::Display for RsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsaError::MessageTooLong => write!(f, "message too long for RSA modulus"),
            RsaError::Malformed => write!(f, "malformed RSA input"),
            RsaError::BadPadding => write!(f, "RSA padding check failed"),
        }
    }
}

impl std::error::Error for RsaError {}

/// An RSA public key `(n, e)`.
///
/// Carries a lazily-built [`Montgomery`] context for the modulus, shared
/// across clones (and threads) so repeated verifications against the same
/// key — the fleet-attestation hot path — pay the context setup once.
#[derive(Clone)]
pub struct PublicKey {
    n: BigUint,
    e: BigUint,
    /// Modulus length in bytes.
    k: usize,
    /// Cached Montgomery context for `n`; `None` inside if `n` is even
    /// (never the case for real RSA moduli, but kept total).
    mont: Arc<OnceLock<Option<Montgomery>>>,
}

impl PartialEq for PublicKey {
    fn eq(&self, other: &Self) -> bool {
        // The Montgomery cache is derived state and excluded on purpose.
        self.n == other.n && self.e == other.e && self.k == other.k
    }
}

impl Eq for PublicKey {}

impl std::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PublicKey")
            .field("n", &self.n)
            .field("e", &self.e)
            .field("k", &self.k)
            .finish()
    }
}

/// CRT acceleration parameters (RFC 8017 §3.2, second representation).
#[derive(Clone)]
struct CrtParams {
    p: BigUint,
    q: BigUint,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
}

/// An RSA private key.
#[derive(Clone)]
pub struct PrivateKey {
    public: PublicKey,
    d: BigUint,
    /// CRT parameters; private exponentiation runs ~3-4x faster with
    /// them (two half-size modpows instead of one full-size).
    crt: Option<CrtParams>,
}

// `PrivateKey` (and therefore `KeyPair`) deliberately implements neither
// `Debug` nor `Display`: the private exponent must not be formattable,
// even redacted — see lint rule L2 and the secrets.toml manifest.

/// A keypair.
#[derive(Clone)]
pub struct KeyPair {
    /// The public half.
    pub public: PublicKey,
    /// The private half.
    pub private: PrivateKey,
}

/// Generates an RSA keypair with a modulus of `bits` bits.
///
/// # Panics
///
/// Panics if `bits < 128` (too small even for tests).
pub fn generate_keypair(bits: usize, rng: &mut dyn RandomSource) -> KeyPair {
    assert!(bits >= 128, "RSA modulus too small");
    let e = BigUint::from_u64(65537);
    loop {
        let p = gen_prime(bits / 2, rng);
        let q = gen_prime(bits - bits / 2, rng);
        if p == q {
            continue;
        }
        let n = p.mul(&q);
        // Both primes have their top two bits set, so the product always
        // has exactly `bits` bits: one draw of (p, q) per key.
        debug_assert_eq!(n.bits(), bits);
        let one = BigUint::one();
        let phi = p.sub(&one).mul(&q.sub(&one));
        let Some(d) = e.modinv(&phi) else {
            continue;
        };
        let Some(qinv) = q.modinv(&p) else {
            continue;
        };
        let crt = CrtParams {
            dp: d.rem(&p.sub(&one)),
            dq: d.rem(&q.sub(&one)),
            p,
            q,
            qinv,
        };
        let k = bits.div_ceil(8);
        let public = PublicKey {
            n: n.clone(),
            e: e.clone(),
            k,
            mont: Arc::new(OnceLock::new()),
        };
        return KeyPair {
            private: PrivateKey {
                public: public.clone(),
                d,
                crt: Some(crt),
            },
            public,
        };
    }
}

impl PublicKey {
    /// Modulus size in bytes.
    pub fn modulus_len(&self) -> usize {
        self.k
    }

    /// The cached Montgomery context for `n`, built on first use.
    fn mont_ctx(&self) -> Option<&Montgomery> {
        self.mont.get_or_init(|| Montgomery::new(&self.n)).as_ref()
    }

    /// Public exponentiation `m^e mod n`.
    fn public_exp(&self, m: &BigUint) -> BigUint {
        match self.mont_ctx() {
            Some(ctx) => ctx.pow(m, &self.e),
            None => m.modpow(&self.e, &self.n),
        }
    }

    /// A stable fingerprint of the key (SHA-256 over `n || e`).
    pub fn fingerprint(&self) -> Digest {
        let mut data = self.n.to_bytes_be();
        data.extend_from_slice(&self.e.to_bytes_be());
        sha256(&data)
    }

    /// Verifies a PKCS#1 v1.5 SHA-256 signature over `message`.
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> bool {
        if signature.len() != self.k {
            return false;
        }
        let s = BigUint::from_bytes_be(signature);
        if s >= self.n {
            return false;
        }
        let em = self.public_exp(&s).to_bytes_be_padded(self.k);
        let expect = match emsa_pkcs1_v15(message, self.k) {
            Ok(em) => em,
            Err(_) => return false,
        };
        // Full re-encode comparison: immune to BER-laxity forgeries.
        crate::ct::ct_eq(&em, &expect)
    }

    /// Encrypts `message` with PKCS#1 v1.5 padding (type 2).
    pub fn encrypt(&self, message: &[u8], rng: &mut dyn RandomSource) -> Result<Vec<u8>, RsaError> {
        if message.len() + 11 > self.k {
            return Err(RsaError::MessageTooLong);
        }
        let mut em = Vec::with_capacity(self.k);
        em.push(0x00);
        em.push(0x02);
        // Non-zero random padding bytes.
        let ps_len = self.k - 3 - message.len();
        for _ in 0..ps_len {
            loop {
                let b = (rng.next_u64() & 0xFF) as u8;
                if b != 0 {
                    em.push(b);
                    break;
                }
            }
        }
        em.push(0x00);
        em.extend_from_slice(message);
        let m = BigUint::from_bytes_be(&em);
        Ok(self.public_exp(&m).to_bytes_be_padded(self.k))
    }
}

impl PrivateKey {
    /// The corresponding public key.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// Private exponentiation `m^d mod n`, via CRT when available. Both
    /// the full-size and half-size exponentiations run in Montgomery form
    /// (RSA primes are odd, so the context always exists).
    fn private_exp(&self, m: &BigUint) -> BigUint {
        let Some(crt) = &self.crt else {
            return m.modpow_montgomery(&self.d, &self.public.n);
        };
        // Garner's recombination over the two half-size halves.
        let m1 = m.modpow_montgomery(&crt.dp, &crt.p);
        let m2 = m.modpow_montgomery(&crt.dq, &crt.q);
        // h = qinv * (m1 - m2) mod p, computed over non-negative values.
        let m2_mod_p = m2.rem(&crt.p);
        let diff = if m1 >= m2_mod_p {
            m1.sub(&m2_mod_p)
        } else {
            m1.add(&crt.p).sub(&m2_mod_p)
        };
        let h = crt.qinv.mul_mod(&diff, &crt.p);
        m2.add(&crt.q.mul(&h))
    }

    /// Disables CRT acceleration (testing and benchmarking).
    pub fn without_crt(mut self) -> PrivateKey {
        self.crt = None;
        self
    }

    /// Signs `message` with PKCS#1 v1.5 / SHA-256.
    pub fn sign(&self, message: &[u8]) -> Vec<u8> {
        let em = emsa_pkcs1_v15(message, self.public.k)
            .expect("modulus always large enough for SHA-256 EMSA");
        let m = BigUint::from_bytes_be(&em);
        self.private_exp(&m).to_bytes_be_padded(self.public.k)
    }

    /// Decrypts a PKCS#1 v1.5 type-2 ciphertext.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, RsaError> {
        if ciphertext.len() != self.public.k {
            return Err(RsaError::Malformed);
        }
        let c = BigUint::from_bytes_be(ciphertext);
        if c >= self.public.n {
            return Err(RsaError::Malformed);
        }
        let em = self.private_exp(&c).to_bytes_be_padded(self.public.k);
        if em.len() < 11 || em[0] != 0x00 || em[1] != 0x02 {
            return Err(RsaError::BadPadding);
        }
        let sep = em[2..]
            .iter()
            .position(|&b| b == 0)
            .ok_or(RsaError::BadPadding)?;
        if sep < 8 {
            // PS must be at least eight bytes.
            return Err(RsaError::BadPadding);
        }
        Ok(em[2 + sep + 1..].to_vec())
    }
}

/// EMSA-PKCS1-v1_5 encoding of SHA-256(message) into `k` bytes.
fn emsa_pkcs1_v15(message: &[u8], k: usize) -> Result<Vec<u8>, RsaError> {
    let hash = sha256(message);
    let t_len = SHA256_DIGEST_INFO.len() + hash.as_bytes().len();
    if k < t_len + 11 {
        return Err(RsaError::MessageTooLong);
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xFF);
    em.push(0x00);
    em.extend_from_slice(&SHA256_DIGEST_INFO);
    em.extend_from_slice(hash.as_bytes());
    debug_assert_eq!(em.len(), k);
    Ok(em)
}

/// Convenience: generates a keypair from a plain `u64` seed using the
/// built-in xorshift source. Deterministic.
pub fn keypair_from_seed(bits: usize, seed: u64) -> KeyPair {
    let mut rng = crate::prime::XorShiftSource::new(seed);
    generate_keypair(bits, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::{random_below, XorShiftSource};

    fn small_keypair() -> KeyPair {
        keypair_from_seed(512, 0xA11CE)
    }

    #[test]
    fn sign_verify_round_trip() {
        let kp = small_keypair();
        let msg = b"pcr composite || nonce";
        let sig = kp.private.sign(msg);
        assert_eq!(sig.len(), kp.public.modulus_len());
        assert!(kp.public.verify(msg, &sig));
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let kp = small_keypair();
        let sig = kp.private.sign(b"message A");
        assert!(!kp.public.verify(b"message B", &sig));
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let kp = small_keypair();
        let mut sig = kp.private.sign(b"message");
        sig[10] ^= 1;
        assert!(!kp.public.verify(b"message", &sig));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let kp = small_keypair();
        let other = keypair_from_seed(512, 0xB0B);
        let sig = kp.private.sign(b"message");
        assert!(!other.public.verify(b"message", &sig));
    }

    #[test]
    fn verify_rejects_wrong_length_sig() {
        let kp = small_keypair();
        assert!(!kp.public.verify(b"m", &[0u8; 7]));
        assert!(!kp.public.verify(b"m", &[]));
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let kp = small_keypair();
        let mut rng = XorShiftSource::new(99);
        let msg = b"activation credential";
        let ct = kp.public.encrypt(msg, &mut rng).expect("encrypts");
        assert_eq!(ct.len(), kp.public.modulus_len());
        assert_ne!(&ct[..], &msg[..]);
        let pt = kp.private.decrypt(&ct).expect("decrypts");
        assert_eq!(pt, msg);
    }

    #[test]
    fn decrypt_rejects_tampering() {
        let kp = small_keypair();
        let mut rng = XorShiftSource::new(99);
        let mut ct = kp.public.encrypt(b"secret", &mut rng).expect("encrypts");
        ct[20] ^= 0xFF;
        assert!(kp.private.decrypt(&ct).is_err());
    }

    #[test]
    fn encrypt_rejects_oversize_message() {
        let kp = small_keypair();
        let mut rng = XorShiftSource::new(99);
        let big = vec![0u8; kp.public.modulus_len()];
        assert_eq!(
            kp.public.encrypt(&big, &mut rng),
            Err(RsaError::MessageTooLong)
        );
    }

    #[test]
    fn encryption_is_randomised() {
        let kp = small_keypair();
        let mut rng = XorShiftSource::new(99);
        let a = kp.public.encrypt(b"m", &mut rng).expect("encrypts");
        let b = kp.public.encrypt(b"m", &mut rng).expect("encrypts");
        assert_ne!(a, b, "PKCS#1 v1.5 type 2 padding is randomised");
    }

    #[test]
    fn keygen_is_deterministic_per_seed() {
        let a = keypair_from_seed(512, 1);
        let b = keypair_from_seed(512, 1);
        assert_eq!(a.public, b.public);
        let c = keypair_from_seed(512, 2);
        assert_ne!(a.public, c.public);
    }

    #[test]
    fn modulus_has_exact_bits_for_200_seeds() {
        // Primes with their top two bits set multiply to exactly `bits`
        // bits, so no (p, q) draw is ever thrown away for its length.
        for seed in 0..200u64 {
            let kp = keypair_from_seed(512, seed);
            assert_eq!(kp.public.n.bits(), 512, "seed={seed}");
        }
    }

    #[test]
    fn fingerprint_distinguishes_keys() {
        let a = keypair_from_seed(512, 1);
        let b = keypair_from_seed(512, 2);
        assert_ne!(a.public.fingerprint(), b.public.fingerprint());
        assert_eq!(a.public.fingerprint(), a.public.fingerprint());
    }

    #[test]
    fn emsa_layout() {
        let em = emsa_pkcs1_v15(b"x", 64).expect("fits");
        assert_eq!(em[0], 0x00);
        assert_eq!(em[1], 0x01);
        assert_eq!(em[em.len() - 32 - 20], 0x00);
        assert!(em[2..em.len() - 52].iter().all(|&b| b == 0xFF));
    }

    #[test]
    fn random_below_used_in_padding_never_zero() {
        // Encrypt many times; decryption must always succeed (PS bytes all
        // non-zero by construction).
        let kp = small_keypair();
        let mut rng = XorShiftSource::new(7);
        for i in 0..20u8 {
            let ct = kp.public.encrypt(&[i], &mut rng).expect("encrypts");
            assert_eq!(kp.private.decrypt(&ct).expect("decrypts"), vec![i]);
        }
    }

    #[test]
    fn random_below_is_uniform_enough() {
        // Smoke check on the helper exposed from prime.rs via public API.
        let mut rng = XorShiftSource::new(3);
        let bound = BigUint::from_u64(7);
        let mut counts = [0u32; 7];
        for _ in 0..7000 {
            let v = random_below(&bound, &mut rng);
            counts[v.to_bytes_be().first().copied().unwrap_or(0) as usize] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(*c > 700, "bucket {i} had {c}");
        }
    }
}

#[cfg(test)]
mod crt_tests {
    use super::*;
    use crate::prime::XorShiftSource;

    #[test]
    fn crt_and_plain_signatures_agree() {
        let kp = keypair_from_seed(512, 0xC47);
        let plain = kp.private.clone().without_crt();
        for msg in [b"a".as_slice(), b"quote over pcrs", &[0u8; 100]] {
            assert_eq!(kp.private.sign(msg), plain.sign(msg));
        }
    }

    #[test]
    fn crt_and_plain_decryption_agree() {
        let kp = keypair_from_seed(512, 0xC48);
        let plain = kp.private.clone().without_crt();
        let mut rng = XorShiftSource::new(3);
        let ct = kp.public.encrypt(b"payload", &mut rng).expect("encrypts");
        assert_eq!(
            kp.private.decrypt(&ct).expect("crt"),
            plain.decrypt(&ct).expect("plain")
        );
    }

    #[test]
    fn crt_signature_still_verifies() {
        let kp = keypair_from_seed(1024, 0xC49);
        let sig = kp.private.sign(b"message");
        assert!(kp.public.verify(b"message", &sig));
    }
}
