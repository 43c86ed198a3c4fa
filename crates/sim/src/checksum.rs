//! The one content digest of the reproduction: a streaming, seedable,
//! 64-bit hash used to verify application state fidelity across
//! checkpoint/restart and MPI-implementation switches, and by every store
//! layer that hashes checkpoint bytes (journal envelope integrity,
//! compression-ratio seeding, delta page digests, CAS page keys).
//!
//! **What it is.** The XXH64 construction: input is consumed in 32-byte
//! stripes, each stripe feeding four independent 64-bit multiply-rotate
//! lanes (so a superscalar core retires four multiplies per stripe in
//! parallel instead of one dependent multiply per *byte*); the lanes are
//! merged, the total length is mixed in, the ≤ 31 trailing bytes are folded
//! 8, 4 and 1 at a time, and a final avalanche spreads every input bit over
//! the output. Digests equal the published XXH64 values for the same seed
//! (the test vectors below are the oracle).
//!
//! **What it is not.** Cryptographic. It detects torn writes, bit rot and
//! divergent application state; it does not resist an adversary who picks
//! the input.
//!
//! **Split invariance.** The digest is a function of the seed and the
//! concatenated byte stream only — never of how the stream was cut into
//! [`Checksum::update`] calls. Bytes that do not fill a stripe wait in a
//! carry buffer of at most 31 bytes, so hashing a scatter segment by
//! segment, a rope page by page, or an `f64` array word by word equals the
//! one-shot digest of the flattened bytes. Callers rely on it
//! ([`crate::scatter::ScatterBuf::checksum`],
//! [`crate::memory::AddressSpace::checksum_half`]) and a property test
//! pins it.

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

const STRIPE: usize = 32;

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte lane"))
}

fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn merge(h: u64, acc: u64) -> u64 {
    (h ^ round(0, acc)).wrapping_mul(P1).wrapping_add(P4)
}

/// Streaming digest state. See the module docs for the construction and
/// the split-invariance contract.
#[derive(Clone, Debug)]
pub struct Checksum {
    /// The four lanes; until the first stripe, `acc[2]` is the seed.
    acc: [u64; 4],
    /// Bytes absorbed so far.
    total: u64,
    /// The `carried` (< 32) bytes that have not filled a stripe yet.
    carry: [u8; STRIPE],
    carried: usize,
}

impl Default for Checksum {
    fn default() -> Self {
        Checksum::with_seed(0)
    }
}

impl Checksum {
    /// Fresh state under seed 0.
    pub fn new() -> Checksum {
        Checksum::default()
    }

    /// Fresh state under `seed`. Digests under distinct seeds are
    /// independent hashes of the same bytes.
    pub fn with_seed(seed: u64) -> Checksum {
        Checksum {
            acc: [
                seed.wrapping_add(P1).wrapping_add(P2),
                seed.wrapping_add(P2),
                seed,
                seed.wrapping_sub(P1),
            ],
            total: 0,
            carry: [0; STRIPE],
            carried: 0,
        }
    }

    /// Absorb raw bytes.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.carried > 0 {
            let take = (STRIPE - self.carried).min(bytes.len());
            self.carry[self.carried..self.carried + take].copy_from_slice(&bytes[..take]);
            self.carried += take;
            bytes = &bytes[take..];
            if self.carried < STRIPE {
                return;
            }
            let stripe = self.carry;
            self.stripes(&stripe);
            self.carried = 0;
        }
        let whole = bytes.len() - bytes.len() % STRIPE;
        self.stripes(&bytes[..whole]);
        let tail = &bytes[whole..];
        self.carry[..tail.len()].copy_from_slice(tail);
        self.carried = tail.len();
    }

    /// Run the four lanes over `bytes`, a whole number of stripes.
    fn stripes(&mut self, bytes: &[u8]) {
        let [mut a, mut b, mut c, mut d] = self.acc;
        for s in bytes.chunks_exact(STRIPE) {
            a = round(a, word(&s[0..8]));
            b = round(b, word(&s[8..16]));
            c = round(c, word(&s[16..24]));
            d = round(d, word(&s[24..32]));
        }
        self.acc = [a, b, c, d];
    }

    /// Absorb a `u64` (little-endian).
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Absorb an `f64` by bit pattern (exact, not approximate).
    pub fn update_f64(&mut self, v: f64) {
        self.update_u64(v.to_bits());
    }

    /// Digest of everything absorbed so far (the state can keep
    /// absorbing).
    pub fn digest(&self) -> u64 {
        let mut h = if self.total >= STRIPE as u64 {
            let [a, b, c, d] = self.acc;
            let h = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            [a, b, c, d].into_iter().fold(h, merge)
        } else {
            self.acc[2].wrapping_add(P5)
        };
        h = h.wrapping_add(self.total);
        let mut tail = &self.carry[..self.carried];
        while let Some((lane, rest)) = tail.split_first_chunk::<8>() {
            h = (h ^ round(0, u64::from_le_bytes(*lane)))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4);
            tail = rest;
        }
        if let Some((half, rest)) = tail.split_first_chunk::<4>() {
            h = (h ^ u64::from(u32::from_le_bytes(*half)).wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
            tail = rest;
        }
        for b in tail {
            h = (h ^ u64::from(*b).wrapping_mul(P5))
                .rotate_left(11)
                .wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// Digest a byte slice in one call (seed 0).
pub fn checksum_bytes(bytes: &[u8]) -> u64 {
    checksum_bytes_seeded(0, bytes)
}

/// Digest a byte slice in one call under `seed`.
pub fn checksum_bytes_seeded(seed: u64, bytes: &[u8]) -> u64 {
    let mut c = Checksum::with_seed(seed);
    c.update(bytes);
    c.digest()
}

/// Checksum an `f64` slice by bit pattern.
pub fn checksum_f64s(vals: &[f64]) -> u64 {
    let mut c = Checksum::new();
    for v in vals {
        c.update_f64(*v);
    }
    c.digest()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xxHash's sanity-check input: bytes drawn from a squaring generator.
    fn sanity_buffer(len: usize) -> Vec<u8> {
        let mut gen: u32 = 2_654_435_761;
        (0..len)
            .map(|_| {
                let b = (gen >> 24) as u8;
                gen = gen.wrapping_mul(gen);
                b
            })
            .collect()
    }

    #[test]
    fn published_xxh64_vectors() {
        const PRIME: u64 = 2_654_435_761;
        assert_eq!(checksum_bytes(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(checksum_bytes_seeded(PRIME, b""), 0xAC75_FDA2_929B_17EF);
        assert_eq!(checksum_bytes(b"abc"), 0x44BC_2CF5_AD77_0999);
        // > 32 bytes: stripes, lane merge, 8- and 1-byte tail steps.
        assert_eq!(
            checksum_bytes(b"The quick brown fox jumps over the lazy dog"),
            0x0B24_2D36_1FDA_71BC
        );
        // xxHash's own sanity table (1, 14 and 101 bytes; seeds 0 and PRIME).
        let buf = sanity_buffer(101);
        for (len, seed, want) in [
            (1, 0, 0x4FCE_394C_C889_52D8),
            (1, PRIME, 0x7398_40CB_819F_A723),
            (14, 0, 0xCFFA_8DB8_81BC_3A3D),
            (14, PRIME, 0x5B96_1158_5EFC_C9CB),
            (101, 0, 0x0EAB_5433_84F8_78AD),
            (101, PRIME, 0xCAA6_5939_306F_1E21),
        ] {
            assert_eq!(
                checksum_bytes_seeded(seed, &buf[..len]),
                want,
                "{len} bytes, seed {seed}"
            );
        }
    }

    #[test]
    fn deterministic_and_sensitive() {
        assert_eq!(checksum_bytes(b"abc"), checksum_bytes(b"abc"));
        assert_ne!(checksum_bytes(b"abc"), checksum_bytes(b"abd"));
        assert_ne!(checksum_bytes(b"ab"), checksum_bytes(b"abc"));
        assert_ne!(checksum_bytes(b""), 0);
        assert_ne!(
            checksum_bytes_seeded(1, b"abc"),
            checksum_bytes_seeded(2, b"abc")
        );
    }

    #[test]
    fn order_sensitive() {
        let mut a = Checksum::new();
        a.update(b"xy");
        let mut b = Checksum::new();
        b.update(b"yx");
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn f64_bit_exact() {
        assert_ne!(checksum_f64s(&[0.0]), checksum_f64s(&[-0.0]));
        assert_eq!(checksum_f64s(&[1.5, 2.5]), checksum_f64s(&[1.5, 2.5]));
    }
}
