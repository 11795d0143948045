//! Small, dependency-free checksums used by the log and backup formats.
//!
//! Crash recovery must detect torn writes: a segment image or log record
//! that was only partially written when the system failed. Log frames and
//! backup segment slots carry a CRC-32C (Castagnoli), computed four
//! interleaved lanes at a time, on the CPU's `crc32` instruction where
//! the CPU has one and in portable code elsewhere (the same value either
//! way). Backup slots and log frames
//! written before that, backup headers, LZ blocks, archives and the
//! storage fingerprint carry 64-bit FNV-1a. Neither is cryptographic;
//! both tell a torn or stale image from a complete one.

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

/// Bytes of one lane's block in [`crc32c_append`]: a round is
/// `CRC_LANES` consecutive blocks, one per lane.
const CRC_BLOCK: usize = 256;
/// Independent CRC registers [`crc32c_append`] advances side by side.
const CRC_LANES: usize = 4;

/// The CRC-32C tables: `T[0..8]` slice eight bytes at a time, `T[8..12]`
/// advance a register over one lane block of zero bytes. Every table is
/// some `S[n]`: `S[n][b]` is the (reflected, uninverted) register `b`
/// advanced over `n` zero bytes. `T[k] = S[k + 1]` are the slicing-by-8
/// tables. `T[8 + k] = S[CRC_BLOCK - k]` advances register byte `k` over
/// one block: zeros shift byte `k` down to byte 0 in `k` steps that add
/// no table term.
static CRC32C_TABLES: [[u32; 256]; 12] = crc32c_tables();

const fn crc32c_tables() -> [[u32; 256]; 12] {
    let mut t = [[0u32; 256]; 12];
    let mut b = 0;
    while b < 256 {
        let mut c = b as u32;
        let mut n = 1;
        while n <= CRC_BLOCK {
            let mut bit = 0;
            while bit < 8 {
                c = (c >> 1) ^ (0x82F6_3B78 & (c & 1).wrapping_neg());
                bit += 1;
            }
            if n <= 8 {
                t[n - 1][b] = c;
            }
            if n >= CRC_BLOCK - 3 {
                t[8 + CRC_BLOCK - n][b] = c;
            }
            n += 1;
        }
        b += 1;
    }
    t
}

/// `c` advanced over eight bytes, read little-endian from `chunk`.
#[inline(always)]
fn crc32c_step8(c: u32, chunk: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let x = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")) ^ u64::from(c);
    let b = |k: u32| (x >> (8 * k)) as usize & 0xFF;
    t[7][b(0)]
        ^ t[6][b(1)]
        ^ t[5][b(2)]
        ^ t[4][b(3)]
        ^ t[3][b(4)]
        ^ t[2][b(5)]
        ^ t[1][b(6)]
        ^ t[0][b(7)]
}

/// `c` advanced over one lane block of zero bytes.
#[inline(always)]
fn crc32c_skip_block(c: u32) -> u32 {
    let t = &CRC32C_TABLES;
    let b = |k: u32| (c >> (8 * k)) as usize & 0xFF;
    t[8][b(0)] ^ t[9][b(1)] ^ t[10][b(2)] ^ t[11][b(3)]
}

/// Extends `crc`, the CRC-32C (Castagnoli) of some bytes (0 for none),
/// over `bytes`.
///
/// Runs the kernel on the CPU's `crc32` instruction when the CPU has
/// one ([`crc32c_hw`]), else the portable slicing-by-8 kernel; both
/// return the same value for every input.
pub fn crc32c_append(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if crc32c_hw() {
        // The one unsafe call of the crate: a `target_feature` fn may be
        // called only where the feature is known present.
        #[allow(unsafe_code)]
        // SAFETY: `crc32c_hw` just reported SSE4.2, the only feature
        // `crc32c_append_sse42` enables.
        return unsafe { crc32c_append_sse42(crc, bytes) };
    }
    crc32c_append_sw(crc, bytes)
}

/// Whether [`crc32c_append`] runs on the CPU's `crc32` instruction
/// (SSE4.2 on x86-64) rather than the portable kernel. Always false on
/// other targets and under Miri.
pub fn crc32c_hw() -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        std::arch::is_x86_feature_detected!("sse4.2")
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    {
        false
    }
}

/// [`crc32c_append`] slicing-by-8 in portable code.
fn crc32c_append_sw(crc: u32, bytes: &[u8]) -> u32 {
    crc32c_lanes(crc, bytes, crc32c_step8)
}

/// [`crc32c_append`] on the `crc32` instruction, eight bytes a step.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "sse4.2")]
fn crc32c_append_sse42(crc: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::_mm_crc32_u64;
    crc32c_lanes(crc, bytes, |c, chunk| {
        let x = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        // the instruction's register is the reflected, uninverted one
        _mm_crc32_u64(u64::from(c), x) as u32
    })
}

/// The kernel both [`crc32c_append`] variants share; `step8` advances
/// a register over one 8-byte chunk.
///
/// Long inputs go in rounds of `CRC_LANES` consecutive blocks: each
/// lane runs its own register, so the lanes' steps overlap instead of
/// waiting on one another, and the round joins them in order. The
/// register is linear, so a block fed from `c` yields
/// `crc32c_skip_block(c)` XOR the block fed from 0. What no round takes
/// goes eight bytes a step in one lane, then byte by byte.
#[inline(always)]
fn crc32c_lanes(crc: u32, bytes: &[u8], step8: impl Fn(u32, &[u8]) -> u32) -> u32 {
    let mut c = !crc;
    let mut rounds = bytes.chunks_exact(CRC_LANES * CRC_BLOCK);
    for round in &mut rounds {
        let round: &[u8; CRC_LANES * CRC_BLOCK] = round.try_into().expect("one round");
        let mut lanes = [0u32; CRC_LANES];
        lanes[0] = c;
        for i in (0..CRC_BLOCK).step_by(8) {
            for (l, lane) in lanes.iter_mut().enumerate() {
                *lane = step8(*lane, &round[l * CRC_BLOCK + i..][..8]);
            }
        }
        c = lanes[1..]
            .iter()
            .fold(lanes[0], |c, &lane| crc32c_skip_block(c) ^ lane);
    }
    let mut chunks = rounds.remainder().chunks_exact(8);
    for chunk in &mut chunks {
        c = step8(c, chunk);
    }
    for &b in chunks.remainder() {
        c = (c >> 8) ^ CRC32C_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize];
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

    /// CRC-32C one bit at a time, sharing no table with the kernel.
    fn crc32c_bitwise(crc: u32, bytes: &[u8]) -> u32 {
        let mut c = !crc;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = (c >> 1) ^ (0x82F6_3B78 & (c & 1).wrapping_neg());
            }
        }
        !c
    }

    /// A CRC-32C kernel: [`crc32c_append`]'s signature.
    type Kernel = fn(u32, &[u8]) -> u32;

    /// The kernels this CPU can run: the portable one always, the
    /// instruction one (through the dispatch) when the CPU has it.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut kernels: Vec<(&'static str, Kernel)> = vec![("software", crc32c_append_sw)];
        if crc32c_hw() {
            kernels.push(("hardware", crc32c_append));
        }
        kernels
    }

    #[test]
    fn crc32c_slicing_equals_bytewise_at_every_split() {
        // Two multi-lane rounds and a tail that takes both the 8-byte and
        // the byte-at-a-time loop, over every kernel the CPU can run. Miri
        // checks a sample of the same cases on the portable kernel.
        let round = CRC_LANES * CRC_BLOCK;
        let bytes: Vec<u8> = (0..2 * round as u32 + 17)
            .map(|i| (i.wrapping_mul(37) ^ (i >> 7)).wrapping_add(11) as u8)
            .collect();
        let stride = if cfg!(miri) { 61 } else { 1 };
        // prefix[n] is the reference CRC of the first n bytes
        let prefix: Vec<u32> = std::iter::once(0)
            .chain(bytes.iter().scan(0, |crc, b| {
                *crc = crc32c_bitwise(*crc, std::slice::from_ref(b));
                Some(*crc)
            }))
            .collect();
        assert_eq!(prefix[bytes.len()], crc32c_bitwise(0, &bytes));
        let whole = prefix[bytes.len()];
        for (name, kernel) in kernels() {
            for len in (0..=bytes.len()).step_by(stride) {
                assert_eq!(
                    kernel(0, &bytes[..len]),
                    prefix[len],
                    "{name}, length {len}"
                );
            }
            for split in (0..=bytes.len()).step_by(stride) {
                let crc = kernel(kernel(0, &bytes[..split]), &bytes[split..]);
                assert_eq!(crc, whole, "{name}, split at {split}");
            }
        }
    }

    #[test]
    fn crc32c_from_every_unaligned_start_equals_bytewise() {
        // Inputs that begin 1 to 7 bytes past an 8-byte boundary, at
        // lengths across a round, the 8-byte loop and the byte tail.
        let round = CRC_LANES * CRC_BLOCK;
        let bytes: Vec<u8> = (0..(2 * round as u64 + 72) / 8)
            .flat_map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes())
            .collect();
        let aligned = bytes.as_ptr().align_offset(8);
        assert!(aligned < 8, "no 8-byte boundary in the buffer");
        let stride = if cfg!(miri) { 97 } else { 7 };
        for (name, kernel) in kernels() {
            for offset in 1..8 {
                let input = &bytes[aligned + offset..];
                let mut want = 0;
                let mut done = 0;
                for len in (0..=input.len()).step_by(stride) {
                    want = crc32c_bitwise(want, &input[done..len]);
                    done = len;
                    assert_eq!(
                        kernel(0, &input[..len]),
                        want,
                        "{name}, offset {offset}, length {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn crc32c_of_a_32_kib_slot_is_pinned() {
        // A 8 192-word backup slot image, words little-endian; the value
        // comes from a bit-at-a-time CRC-32C outside this crate.
        let slot: Vec<u8> = (0..8192u32)
            .flat_map(|i| i.wrapping_mul(0x9E37_79B9).to_le_bytes())
            .collect();
        assert_eq!(crc32c(&slot), 0xF84B_ABC1);
    }

    #[test]
    fn u64_update_is_le_bytes() {
        let mut h = Fnv1a::new();
        h.update_u64(0x0102_0304_0506_0708);
        assert_eq!(h.finish(), fnv1a(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }
}
