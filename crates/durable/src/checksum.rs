//! In-repo CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
//!
//! The container has no crates registry, so the usual `crc32fast`
//! dependency is replaced by a table-driven implementation built at
//! compile time. The algorithm matches zlib's `crc32` (and therefore
//! `cksum -o 3`, PNG, gzip): initial value `!0`, reflected table, final
//! complement — handy when inspecting WAL segments with external tools.
//!
//! The kernel is slice-by-16: table `k` advances a byte's contribution
//! past `k` further zero bytes, so sixteen independent lookups fold a
//! whole 16-byte block into the running value at once, and the tail
//! takes the one-byte step. Every WAL frame, recovery scan, snapshot
//! chunk and session frame is checked here, so the values must never
//! change; the byte-at-a-time loop's one serial lookup per byte is what
//! the blocks remove.

/// Sixteen tables: `[0]` is the classic byte table, and `[k][b]` is the
/// CRC state of byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let c = tables[k - 1][i];
            tables[k][i] = (c >> 8) ^ tables[0][(c & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = build_tables();

/// CRC-32 of `bytes` (zlib-compatible).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        // The running value folds into the block's first four bytes;
        // byte `i` then has `15 - i` bytes after it.
        let head = c.to_le_bytes();
        let mut next = 0;
        for (i, &b) in block.iter().enumerate() {
            let byte = if i < 4 { b ^ head[i] } else { b };
            next ^= TABLES[15 - i][usize::from(byte)];
        }
        c = next;
    }
    for &b in blocks.remainder() {
        c = TABLES[0][usize::from(b ^ c as u8)] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time reference: the polynomial bit by bit, no table.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    #[test]
    fn known_vectors() {
        // Reference values from zlib's crc32().
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn blocks_agree_with_the_reference_at_every_length_and_offset() {
        // A seeded xorshift buffer: every length 0..=1,100 at 16 start
        // offsets crosses every block/tail split and alignment.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buffer: Vec<u8> = (0..1_116)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        for offset in 0..16 {
            for len in 0..=1_100 {
                let bytes = &buffer[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_reference(bytes),
                    "offset {offset}, len {len}"
                );
            }
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"mvolap wal frame payload");
        let mut bytes = b"mvolap wal frame payload".to_vec();
        for i in 0..bytes.len() * 8 {
            bytes[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&bytes), base, "flip at bit {i} undetected");
            bytes[i / 8] ^= 1 << (i % 8);
        }
    }
}
