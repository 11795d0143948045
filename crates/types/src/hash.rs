//! Small, dependency-free checksums used by the log and backup formats.
//!
//! Crash recovery must detect torn writes: a segment image or log record
//! that was only partially written when the system failed. Log frames
//! carry a CRC-32C (Castagnoli), computed slicing-by-8 in portable code;
//! backups, and log frames written before it, carry 64-bit FNV-1a. Neither
//! is cryptographic; both tell a torn or stale image from a complete one.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// A fresh hasher.
    pub fn new() -> Fnv1a {
        Fnv1a::default()
    }

    /// Feed bytes.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
        self
    }

    /// Feed a little-endian u64.
    #[inline]
    pub fn update_u64(&mut self, v: u64) -> &mut Self {
        self.update(&v.to_le_bytes())
    }

    /// Feed a slice of 32-bit words.
    #[inline]
    pub fn update_words(&mut self, words: &[u32]) -> &mut Self {
        for &w in words {
            self.update(&w.to_le_bytes());
        }
        self
    }

    /// The hash value so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// One-shot FNV-1a over a word slice.
pub fn fnv1a_words(words: &[u32]) -> u64 {
    let mut h = Fnv1a::new();
    h.update_words(words);
    h.finish()
}

/// Slicing-by-8 tables of the reflected CRC-32C polynomial: `T[0]` is the
/// byte-at-a-time table, `T[k][i]` is `T[k-1][i]` advanced by one zero byte.
static CRC32C_TABLES: [[u32; 256]; 8] = crc32c_tables();

const fn crc32c_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 8 * 256 {
        let (k, b) = (i / 256, i % 256);
        t[k][b] = if k == 0 {
            let mut c = b as u32;
            let mut bit = 0;
            while bit < 8 {
                c = (c >> 1) ^ (0x82F6_3B78 & (c & 1).wrapping_neg());
                bit += 1;
            }
            c
        } else {
            (t[k - 1][b] >> 8) ^ t[0][(t[k - 1][b] & 0xFF) as usize]
        };
        i += 1;
    }
    t
}

/// Extends `crc`, the CRC-32C (Castagnoli) of some bytes (0 for none),
/// over `bytes`, eight at a time.
pub fn crc32c_append(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let mut c = !crc;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let x = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")) ^ u64::from(c);
        let b = |k: u32| (x >> (8 * k)) as usize & 0xFF;
        c = t[7][b(0)] ^ t[6][b(1)] ^ t[5][b(2)] ^ t[4][b(3)];
        c ^= t[3][b(4)] ^ t[2][b(5)] ^ t[1][b(6)] ^ t[0][b(7)];
    }
    for &b in chunks.remainder() {
        c = (c >> 8) ^ t[0][((c ^ u32::from(b)) & 0xFF) as usize];
    }
    !c
}

/// One-shot CRC-32C over a byte slice.
pub fn crc32c(bytes: &[u8]) -> u32 {
    crc32c_append(0, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let mut h = Fnv1a::new();
        h.update(b"foo").update(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn words_equal_bytes() {
        let words = [0x0403_0201u32, 0x0807_0605];
        let bytes = [1u8, 2, 3, 4, 5, 6, 7, 8];
        assert_eq!(fnv1a_words(&words), fnv1a(&bytes));
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = fnv1a(b"checkpoint");
        let b = fnv1a(b"checkpoinu");
        assert_ne!(a, b);
    }

    #[test]
    fn crc32c_known_answers() {
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(&[0; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFF; 32]), 0x62A8_AB43);
    }

    #[test]
    fn crc32c_slicing_equals_bytewise_at_every_split() {
        let bytes: Vec<u8> = (0..67u32).map(|i| (i * 37 + 11) as u8).collect();
        let bytewise = (bytes.iter()).fold(0, |crc, b| crc32c_append(crc, std::slice::from_ref(b)));
        assert_eq!(bytewise, crc32c(&bytes));
        for split in 0..=bytes.len() {
            let crc = crc32c_append(crc32c(&bytes[..split]), &bytes[split..]);
            assert_eq!(crc, bytewise, "split at {split}");
        }
    }

    #[test]
    fn u64_update_is_le_bytes() {
        let mut h = Fnv1a::new();
        h.update_u64(0x0102_0304_0506_0708);
        assert_eq!(h.finish(), fnv1a(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }
}
