//! IEEE CRC-32 (reflected, polynomial `0xEDB88320`), slice-by-8 over
//! const lookup tables — the checksum every framed record carries.
//!
//! `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
//! CRC of byte `b` followed by `k` zero bytes, so eight table reads fold
//! eight input bytes into the running sum per step instead of one.

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
    let mut c = !0u32;
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
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time reference the sliced loop must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0u32, |c, &b| step(c, b))
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
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

    #[test]
    fn sliced_equals_bytewise_at_every_length_and_offset() {
        // xorshift64: deterministic bytes with no dependency.
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..1 << 20)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 32) as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let window = &buf[offset..offset + len];
                assert_eq!(crc32(window), crc32_bytewise(window), "offset {offset} len {len}");
            }
        }
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
    }
}
