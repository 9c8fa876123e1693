//! Deterministic RNG, config, and failure type for the shim runner.

use std::fmt;

/// Per-test configuration (subset: case count).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: env_cases().unwrap_or(64),
        }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases. As in real proptest, the
    /// `PROPTEST_CASES` environment variable overrides the in-source
    /// count — CI's nightly blitz uses it to multiply coverage without
    /// touching the tests.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases: env_cases().unwrap_or(cases),
        }
    }
}

/// The `PROPTEST_CASES` override, if set and parseable.
fn env_cases() -> Option<u32> {
    std::env::var("PROPTEST_CASES").ok()?.parse().ok()
}

/// A failed property case.
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Build a failure with the given message.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TestCaseError {}

/// SplitMix64-based generator; deterministic per test name.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from a test name (stable across runs and platforms).
    pub fn deterministic(name: &str) -> Self {
        // FNV-1a over the name: stable, unlike `DefaultHasher`.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng { state: h }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proptest_cases_env_overrides_source_counts() {
        // Set/remove within one test: no other test in this shim reads
        // the variable, so there is no cross-test race.
        std::env::set_var("PROPTEST_CASES", "400");
        assert_eq!(ProptestConfig::with_cases(40).cases, 400);
        assert_eq!(ProptestConfig::default().cases, 400);
        std::env::set_var("PROPTEST_CASES", "not-a-number");
        assert_eq!(ProptestConfig::with_cases(40).cases, 40);
        std::env::remove_var("PROPTEST_CASES");
        assert_eq!(ProptestConfig::with_cases(40).cases, 40);
        assert_eq!(ProptestConfig::default().cases, 64);
    }
}
