//! SHA-256 implemented from FIPS 180-4.
//!
//! A streaming [`Sha256`] hasher plus the one-shot [`sha256`] convenience
//! function. The implementation is the straightforward 64-round compression
//! function over 512-bit blocks with standard Merkle–Damgård padding; it is
//! validated against the NIST FIPS 180-4 example vectors and the
//! one-million-`a` vector in the tests below.

use crate::Digest;

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Streaming SHA-256 hasher.
///
/// ```
/// use hh_crypto::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), hh_crypto::sha256(b"abc"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Buffered partial block.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self { state: H0, buf: [0u8; 64], buf_len: 0, len: 0 }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
            rest = tail;
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Completes the hash and returns the digest, consuming the hasher.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.len.wrapping_mul(8);
        // Append 0x80, zero-pad to 56 mod 64, then the 64-bit length: one
        // block, or two when the 0x80 leaves no room for the length.
        let mut end = self.buf_len;
        self.buf[end] = 0x80;
        end += 1;
        if end > 56 {
            self.buf[end..].fill(0);
            let block = self.buf;
            self.compress(&block);
            end = 0;
        }
        self.buf[end..56].fill(0);
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest::new(out)
    }

    fn compress(&mut self, block: &[u8; 64]) {
        #[cfg(target_arch = "x86_64")]
        if ni::available() {
            // SAFETY: `available` runtime-detected sha/ssse3/sse4.1.
            unsafe { ni::compress(&mut self.state, block) };
            return;
        }
        self.compress_soft(block);
    }

    fn compress_soft(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[i * 4],
                block[i * 4 + 1],
                block[i * 4 + 2],
                block[i * 4 + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// One-shot SHA-256 of `data`.
///
/// ```
/// let d = hh_crypto::sha256(b"");
/// assert_eq!(
///     d.to_hex(),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
/// );
/// ```
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// SHA-NI accelerated compression (Intel SHA extensions).
///
/// The exact FIPS 180-4 function — same state, same output bits — just
/// computed by the `sha256rnds2`/`sha256msg1`/`sha256msg2` instructions
/// instead of the scalar round loop, so digests are identical whichever
/// path runs. Selected per-process by runtime CPUID detection; every
/// non-x86 or pre-SHA-NI machine keeps the portable implementation.
#[cfg(target_arch = "x86_64")]
mod ni {
    use super::K;
    use core::arch::x86_64::*;
    use std::sync::atomic::{AtomicU8, Ordering};

    /// Whether this CPU has the SHA extensions (cached CPUID probe).
    pub fn available() -> bool {
        static CACHE: AtomicU8 = AtomicU8::new(0);
        match CACHE.load(Ordering::Relaxed) {
            1 => true,
            2 => false,
            _ => {
                let has = std::arch::is_x86_feature_detected!("sha")
                    && std::arch::is_x86_feature_detected!("ssse3")
                    && std::arch::is_x86_feature_detected!("sse4.1");
                CACHE.store(if has { 1 } else { 2 }, Ordering::Relaxed);
                has
            }
        }
    }

    /// Four round constants `K[i..i + 4]` in one lane-ordered vector.
    #[inline(always)]
    unsafe fn kvec(i: usize) -> __m128i {
        _mm_set_epi32(K[i + 3] as i32, K[i + 2] as i32, K[i + 1] as i32, K[i] as i32)
    }

    /// One FIPS 180-4 compression of `block` into `state`.
    ///
    /// # Safety
    ///
    /// The CPU must support the `sha`, `ssse3` and `sse4.1` features
    /// (check [`available`] first).
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub unsafe fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        // Big-endian word loads via one byte shuffle per 16 bytes.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b_u64 as i64, 0x0405_0607_0001_0203);

        // Repack [a,b,c,d] / [e,f,g,h] into the ABEF / CDGH layout the
        // sha256rnds2 instruction works on.
        let tmp = _mm_shuffle_epi32(_mm_loadu_si128(state.as_ptr().cast()), 0xB1);
        let efgh = _mm_shuffle_epi32(_mm_loadu_si128(state.as_ptr().add(4).cast()), 0x1B);
        let mut abef = _mm_alignr_epi8(tmp, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, tmp, 0xF0);
        let abef_save = abef;
        let cdgh_save = cdgh;

        // Two sha256rnds2 per group: the instruction consumes two K+W
        // words per issue (lower pair, then upper pair).
        macro_rules! rounds4 {
            ($w:expr, $k:expr) => {{
                let wk = _mm_add_epi32($w, kvec($k));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
            }};
        }

        let mut m0 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().cast()), bswap);
        let mut m1 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16).cast()), bswap);
        let mut m2 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(32).cast()), bswap);
        let mut m3 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(48).cast()), bswap);

        rounds4!(m0, 0);
        rounds4!(m1, 4);
        rounds4!(m2, 8);
        rounds4!(m3, 12);

        // w[i] = w[i-16] + σ0(w[i-15]) + w[i-7] + σ1(w[i-2]): msg1 covers
        // the first two terms, the alignr add injects w[i-7], msg2 the σ1
        // feedback. `m0..m3` is the sliding 16-word window.
        let mut k = 16;
        while k < 64 {
            m0 = _mm_sha256msg1_epu32(m0, m1);
            m0 = _mm_add_epi32(m0, _mm_alignr_epi8(m3, m2, 4));
            m0 = _mm_sha256msg2_epu32(m0, m3);
            rounds4!(m0, k);
            (m0, m1, m2, m3) = (m1, m2, m3, m0);
            k += 4;
        }

        abef = _mm_add_epi32(abef, abef_save);
        cdgh = _mm_add_epi32(cdgh, cdgh_save);

        // Back to the [a,b,c,d] / [e,f,g,h] memory layout.
        let tmp = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(tmp, dchg, 0xF0));
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), _mm_alignr_epi8(dchg, tmp, 8));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nist_vector_empty() {
        assert_eq!(
            sha256(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_vector_abc() {
        assert_eq!(
            sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_vector_two_blocks() {
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_vector_896_bits() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            sha256(msg).to_hex(),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn nist_vector_million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256(&msg).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_many_small_updates() {
        let msg: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 256) as u8).collect();
        let want = sha256(&msg);
        let mut h = Sha256::new();
        for chunk in msg.chunks(3) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), want);
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        let a = sha256(b"hammerhead");
        let b = sha256(b"hammerheaD");
        assert_ne!(a, b);
    }

    /// Runs the full hash over `msg` through one specific compression
    /// function, bypassing the runtime dispatch in `compress`: the message
    /// padded per FIPS 180-4 §5.1.1 into a `Vec`, one byte at a time, then
    /// compressed block by block.
    fn digest_via(msg: &[u8], compress: impl Fn(&mut [u32; 8], &[u8; 64])) -> Digest {
        let mut padded = msg.to_vec();
        let bit_len = (msg.len() as u64).wrapping_mul(8);
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&bit_len.to_be_bytes());
        let mut state = H0;
        for chunk in padded.chunks_exact(64) {
            compress(&mut state, chunk.try_into().expect("64-byte chunk"));
        }
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest::new(out)
    }

    /// The portable compression on its own.
    fn soft(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut h = Sha256 { state: *state, buf: [0; 64], buf_len: 0, len: 0 };
        h.compress_soft(block);
        *state = h.state;
    }

    /// The portable round loop stays covered (and equal to the public
    /// entry point) even on machines where dispatch picks SHA-NI.
    #[test]
    fn software_path_matches_public_digest() {
        for len in [0usize, 1, 31, 55, 56, 63, 64, 65, 127, 128, 500] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            assert_eq!(digest_via(&msg, soft), sha256(&msg), "len {len}");
        }
    }

    /// `finalize` pads in place, in one block or two; at every length up to
    /// three blocks (the 55/56, 63/64, 119/120 and 127/128 boundaries among
    /// them) it must equal the reference padding, one-shot and streamed
    /// with the message split at every offset.
    #[test]
    fn padding_matches_reference_at_every_length() {
        let bytes: Vec<u8> = (0..200u32).map(|i| (i * 13 % 256) as u8).collect();
        for len in 0..=bytes.len() {
            let msg = &bytes[..len];
            let want = digest_via(msg, soft);
            assert_eq!(sha256(msg), want, "len {len}");
            for split in 0..=len {
                let mut h = Sha256::new();
                h.update(&msg[..split]);
                h.update(&msg[split..]);
                assert_eq!(h.finalize(), want, "len {len} split at {split}");
            }
        }
    }

    /// On SHA-NI hardware, the accelerated compression is bit-identical
    /// to the portable one for every padding shape.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn ni_path_matches_software_path() {
        if !ni::available() {
            return;
        }
        for len in [0usize, 1, 31, 55, 56, 63, 64, 65, 127, 128, 500, 1000] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 37 % 253) as u8).collect();
            // SAFETY: gated on `ni::available`.
            let fast = digest_via(&msg, |state, block| unsafe { ni::compress(state, block) });
            assert_eq!(fast, digest_via(&msg, soft), "len {len}");
        }
    }
}
