//! The correctness gate: counts attempted operations, records every
//! failure, and compares simulated output byte for byte.
//!
//! Only deterministic simulated bytes are ever compared (`cwfmem.run.v1`
//! documents, Perfetto exports); wall-clock values never enter a
//! comparison. No golden value is pinned, so a legitimate model change
//! moves the printed digest without failing the gate.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Running FNV-1a digest over a sequence of documents. Each document is
/// followed by a 0xff separator byte (never valid UTF-8), so moving bytes
/// between neighbouring documents changes the digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    /// Fold one document in.
    pub fn add(&mut self, doc: &str) {
        for &b in doc.as_bytes().iter().chain(&[0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The digest value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Attempted and failed operations plus the reasons for each failure.
#[derive(Debug, Default)]
pub struct Gate {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// Failure reasons kept for the report; the count stays exact beyond it.
const MAX_PROBLEMS: usize = 32;

impl Gate {
    /// Record one operation; `ok == false` counts it as failed with the
    /// reason `why()`. Returns `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < MAX_PROBLEMS {
                self.problems.push(why());
            }
        }
        ok
    }

    /// Record one byte-for-byte comparison of `got` against `want`.
    pub fn same_bytes(&mut self, what: &str, want: &str, got: &str) -> bool {
        let diff = first_difference(want.as_bytes(), got.as_bytes());
        self.check(diff.is_none(), || {
            format!(
                "{what}: bytes differ at offset {} ({} vs {} bytes)",
                diff.unwrap_or(0),
                want.len(),
                got.len()
            )
        })
    }

    /// Operations attempted so far.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed so far.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The recorded failure reasons (at most [`MAX_PROBLEMS`]).
    #[must_use]
    pub fn problems(&self) -> &[String] {
        &self.problems
    }
}

/// Offset of the first byte where `a` and `b` differ (the shorter length
/// when one is a prefix of the other), or `None` when they are equal.
#[must_use]
pub fn first_difference(a: &[u8], b: &[u8]) -> Option<usize> {
    match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(i) => Some(i),
        None if a.len() == b.len() => None,
        None => Some(a.len().min(b.len())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "{\n  \"schema\": \"cwfmem.run.v1\",\n  \"cycles\": 12345\n}\n";

    #[test]
    fn gate_rejects_one_flipped_byte() {
        for i in 0..DOC.len() {
            let mut bytes = DOC.as_bytes().to_vec();
            bytes[i] ^= 0x01;
            let flipped = String::from_utf8(bytes).expect("ASCII stays ASCII");
            let mut gate = Gate::default();
            assert!(!gate.same_bytes("doc", DOC, &flipped), "flip at {i} passed");
            assert_eq!((gate.attempted(), gate.failed()), (1, 1));
            assert!(gate.problems()[0].contains(&format!("offset {i}")));
        }
    }

    #[test]
    fn gate_accepts_identical_and_rejects_truncated() {
        let mut gate = Gate::default();
        assert!(gate.same_bytes("doc", DOC, DOC));
        assert!(!gate.same_bytes("doc", DOC, &DOC[..DOC.len() - 1]));
        assert_eq!((gate.attempted(), gate.failed()), (2, 1));
    }

    #[test]
    fn digest_is_order_and_boundary_sensitive() {
        let d = |docs: &[&str]| {
            let mut d = Digest::default();
            docs.iter().for_each(|x| d.add(x));
            d.value()
        };
        assert_eq!(d(&["a", "b"]), d(&["a", "b"]));
        assert_ne!(d(&["a", "b"]), d(&["b", "a"]));
        assert_ne!(d(&["ab", ""]), d(&["a", "b"]));
        // FNV-1a of the empty string is the offset basis.
        assert_eq!(Digest::default().value(), FNV_OFFSET);
    }
}
