//! IEEE CRC-32 (reflected, polynomial `0xEDB88320`) — the checksum every
//! framed record carries. [`crc32`] is one function over two kernels.
//!
//! # The fold
//!
//! On `x86_64`, when the CPU has PCLMULQDQ and SSE4.1 (checked at run
//! time, once per process), an input of at least 64 bytes is folded 64
//! bytes per step with carry-less multiplies. The method is Gopal et al.,
//! "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
//! Instruction" (Intel, 2009), with the constants Linux's `crc32-pclmul`
//! uses for the reflected IEEE polynomial:
//!
//! 1. Four 128-bit lanes take the first 64 bytes, the running sum xored
//!    into the first. Each step multiplies every lane by x^512 mod P
//!    (`K1`, `K2`: one constant per 64-bit half) and xors in the lane's
//!    next 16 bytes, so the lanes carry independent remainders.
//! 2. The lanes fold into one with x^128 mod P (`K3`, `K4`), which then
//!    takes the input's remaining whole 16-byte blocks one at a time.
//! 3. The 128-bit remainder shrinks to 64 bits (`K4`, `K5`), and a
//!    Barrett reduction (P and μ = ⌊x^64 / P⌋) leaves the 32-bit sum.
//!
//! # The tables
//!
//! Slice-by-8 over const lookup tables: `TABLES[0]` is the classic
//! byte-at-a-time table, and `TABLES[k][b]` is the CRC of byte `b`
//! followed by `k` zero bytes, so eight table reads fold eight input
//! bytes into the running sum per step instead of one. The tables stay
//! the base case: an input under 64 bytes (most log records), the 0–15
//! bytes a fold leaves, and every CPU or target without the
//! instructions. Both kernels compute the same function, so which one
//! ran never shows in a byte of a record.

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// One byte folded into the running (pre-inverted) sum.
fn step(c: u32, b: u8) -> u32 {
    TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
}

/// The IEEE CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= fold::STEP && fold::available() {
        // SAFETY: `available` has just seen PCLMULQDQ and SSE4.1 on this
        // CPU, the features `fold::fold` is compiled for.
        let (c, rest) = unsafe { fold::fold(!0, bytes) };
        return !sliced(c, rest);
    }
    !sliced(!0, bytes)
}

/// `bytes` folded into the running (pre-inverted) sum `c`, eight bytes
/// per step through the tables.
fn sliced(mut c: u32, bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][w[4] as usize]
            ^ TABLES[2][w[5] as usize]
            ^ TABLES[1][w[6] as usize]
            ^ TABLES[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = step(c, b);
    }
    c
}

/// The carry-less-multiply kernel (module docs, "The fold").
#[cfg(target_arch = "x86_64")]
mod fold {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// The fewest bytes the fold takes: one 16-byte block per lane.
    pub(super) const STEP: usize = 64;

    // Each constant is a power of x modulo P, bit-reflected and shifted
    // left one place, as the reflected fold multiplies by it.
    /// x^(4·128+32) mod P: a lane's low half, 512 bits on.
    const K1: i64 = 0x1_5444_2BD4;
    /// x^(4·128−32) mod P: a lane's high half, 512 bits on.
    const K2: i64 = 0x1_C6E4_1596;
    /// x^(128+32) mod P: the low half, 128 bits on.
    const K3: i64 = 0x1_7519_97D0;
    /// x^(128−32) mod P: the high half, 128 bits on.
    const K4: i64 = 0x0_CCAA_009E;
    /// x^64 mod P: 96 bits down to 64.
    const K5: i64 = 0x1_63CD_6124;
    /// P itself, reflected, for the Barrett reduction.
    const P: i64 = 0x1_DB71_0641;
    /// μ = ⌊x^64 / P⌋, reflected, for the Barrett reduction.
    const MU: i64 = 0x1_F701_1641;

    /// True when this CPU runs [`fold`]. The detection is cached by the
    /// standard library, so a call is a load and a test.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// `bytes` — at least [`STEP`] of them — folded into the running
    /// (pre-inverted) sum `c`, 16 bytes at a time: the new sum, and the
    /// 0–15 bytes left for the tables.
    ///
    /// Callable only where [`available`] holds: the CPU must run
    /// PCLMULQDQ and SSE4.1.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(c: u32, bytes: &[u8]) -> (u32, &[u8]) {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let (quads, singles) = blocks.as_chunks::<4>();
        let (first, quads) = quads.split_first().expect("the caller passes at least STEP bytes");
        let mut lanes = [load(&first[0]), load(&first[1]), load(&first[2]), load(&first[3])];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(c as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for quad in quads {
            for (lane, block) in lanes.iter_mut().zip(quad) {
                *lane = fold_onto(*lane, load(block), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_onto(lanes[0], lanes[1], k3k4);
        x = fold_onto(x, lanes[2], k3k4);
        x = fold_onto(x, lanes[3], k3k4);
        for block in singles {
            x = fold_onto(x, load(block), k3k4);
        }
        // 128 bits to 96: the low half times K4 onto the high half.
        x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, k3k4), _mm_srli_si128::<8>(x));
        // 96 bits to 64: the low word times K5 onto the rest.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let k5 = _mm_set_epi64x(0, K5);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k5),
            _mm_srli_si128::<4>(x),
        );
        // Barrett: T1 = low word · μ, T2 = low word of T1 · P; the sum
        // is the second word of x ⊕ T2 (the reflected form's high half).
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pmu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pmu);
        (_mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32, tail)
    }

    /// `acc` carried past the 16 bytes of `next` (both halves times their
    /// constant in `keys`), with `next` folded in.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_onto(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let low = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let high = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(next, low), high)
    }

    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, and an unaligned load
        // reads exactly those 16 at any alignment.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// The kernel called directly, where this CPU runs it: `bytes` (at
    /// least [`STEP`]) folded from the initial sum.
    #[cfg(test)]
    pub(super) fn fold_if_available(bytes: &[u8]) -> Option<(u32, &[u8])> {
        // SAFETY: `available` has just seen the kernel's features.
        available().then(|| unsafe { fold(!0, bytes) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time reference both kernels must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0u32, |c, &b| step(c, b))
    }

    /// The fold kernel's own answer, with the tables finishing the 0–15
    /// bytes it leaves, where this CPU and target run it.
    fn crc32_folded(bytes: &[u8]) -> Option<u32> {
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= fold::STEP {
            let (c, tail) = fold::fold_if_available(bytes)?;
            assert_eq!(tail.len(), bytes.len() % 16, "the fold leaves only a partial block");
            return Some(!sliced(c, tail));
        }
        None
    }

    /// `n` deterministic bytes (xorshift64, no dependency).
    fn xorshift_bytes(n: usize) -> Vec<u8> {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // Long enough for the fold: 64 zero bytes, and the check string
        // eight times over.
        assert_eq!(crc32(&[0; 64]), 0x758D_6336);
        assert_eq!(crc32(&b"123456789".repeat(8)), 0x8811_A440);
    }

    #[test]
    fn single_bit_flip_changes_sum() {
        let base = b"the quick brown fox".to_vec();
        let sum = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), sum, "flip at byte {i} bit {bit} undetected");
            }
        }
    }

    /// A writer and a reader share `crc32`, so a wrong fold would still
    /// round-trip; only sums computed another way catch it. Every length
    /// through sixteen fold steps at every alignment of a 16-byte block
    /// equals the byte-at-a-time reference, and so does the kernel called
    /// directly wherever this CPU runs it. The 1 MiB sum is pinned to the
    /// value the tables alone computed.
    #[test]
    fn sliced_equals_bytewise_at_every_length_and_offset() {
        let buf = xorshift_bytes(1 << 20);
        for offset in 0..16 {
            for len in 0..=1024 {
                let window = &buf[offset..offset + len];
                let want = crc32_bytewise(window);
                assert_eq!(crc32(window), want, "offset {offset} len {len}");
                assert_eq!(!sliced(!0, window), want, "tables, offset {offset} len {len}");
                if let Some(folded) = crc32_folded(window) {
                    assert_eq!(folded, want, "fold, offset {offset} len {len}");
                }
            }
        }
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
        assert_eq!(crc32(&buf), 0xF51E_EFF7);
    }

    /// The release-scale leg: random lengths up to 4 MiB at random
    /// offsets, each kernel against the bytewise reference.
    /// `cargo test --release -p durability --lib -- --ignored crc_smoke`
    #[test]
    #[ignore = "release-scale; run with --ignored crc_smoke"]
    fn crc_smoke() {
        let buf = xorshift_bytes((4 << 20) + 64);
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = |below: usize| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % below as u64) as usize
        };
        for _ in 0..200 {
            let len = draw((4 << 20) + 1);
            let offset = draw(64);
            let window = &buf[offset..offset + len];
            let want = crc32_bytewise(window);
            assert_eq!(crc32(window), want, "offset {offset} len {len}");
            if let Some(folded) = crc32_folded(window) {
                assert_eq!(folded, want, "fold, offset {offset} len {len}");
            }
        }
    }
}
