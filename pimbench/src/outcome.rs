//! Failure accounting: every request is attempted once per pass and
//! either matches its independent host reference or fails with a named
//! cause. Causes that name a known, documented program defect are kept
//! apart from unexplained mismatches; only the latter make a run
//! incorrect.

use pim_workloads::BitVec;
use std::collections::BTreeMap;

/// The one known program defect this benchmark exposes on purpose.
///
/// `AmbitSystem::execute` stripes chunk `c` onto subarray
/// `(c / banks) % subarrays`, so past `banks × subarrays` chunks (512 on
/// DDR3: 8 banks × 64 subarrays of 8 KiB rows, i.e. 4 MiB) chunks `c` and
/// `c + 512` share one subarray's compute rows. It issues each micro-op
/// for every chunk before the next, so the later chunk overwrites the
/// earlier one's intermediates: of an `n`-chunk vector, the first
/// `n − 512` chunks come back wrong and the rest right.
pub const AMBIT_CHUNK_ALIAS: &str = "ambit-execute-aliases-chunks-past-banks-x-subarrays";

/// Why a request failed its reference check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// A known program defect, named by a constant of this module.
    Known(&'static str),
    /// A mismatch nothing explains; the run is incorrect.
    Unexpected(String),
}

/// Attempts and failures by cause.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Outcomes {
    attempted: u64,
    known: BTreeMap<&'static str, u64>,
    unexpected: BTreeMap<String, u64>,
}

impl Outcomes {
    /// Records one attempted request.
    pub fn record(&mut self, result: Result<(), Failure>) {
        self.attempted += 1;
        match result {
            Ok(()) => {}
            Err(Failure::Known(cause)) => *self.known.entry(cause).or_default() += 1,
            Err(Failure::Unexpected(cause)) => *self.unexpected.entry(cause).or_default() += 1,
        }
    }

    /// Requests attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Requests that failed, for any cause.
    pub fn failed(&self) -> u64 {
        self.known.values().sum::<u64>() + self.unexpected.values().sum::<u64>()
    }

    /// Whether every failure is explained by a known defect.
    pub fn all_explained(&self) -> bool {
        self.unexpected.is_empty()
    }

    /// Failure counts by cause; unexplained causes are prefixed
    /// `unexpected:`.
    pub fn by_cause(&self) -> BTreeMap<String, u64> {
        let mut out: BTreeMap<String, u64> = self
            .known
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect();
        for (k, v) in &self.unexpected {
            out.insert(format!("unexpected: {k}"), *v);
        }
        out
    }
}

/// Classifies a mismatch between an Ambit-executed vector `got` and its
/// reference `want` on a device with `chunk_limit` distinct (bank,
/// subarray) pairs of `row_bits`-bit rows.
///
/// It is the known defect only when every differing chunk shares its
/// (bank, subarray) pair with a later chunk of the same vector; any
/// other difference is unexplained.
pub fn classify_ambit_mismatch(
    got: &BitVec,
    want: &BitVec,
    row_bits: usize,
    chunk_limit: usize,
    what: &str,
) -> Failure {
    if got.len() != want.len() {
        return Failure::Unexpected(format!("{what}: {} bits, want {}", got.len(), want.len()));
    }
    let chunks = want.len().div_ceil(row_bits);
    let unexplained = got
        .as_words()
        .iter()
        .zip(want.as_words())
        .enumerate()
        .filter(|(_, (g, w))| g != w)
        .map(|(word, _)| word * 64 / row_bits)
        .find(|&chunk| chunk + chunk_limit >= chunks);
    match unexplained {
        None if got != want => Failure::Known(AMBIT_CHUNK_ALIAS),
        None => Failure::Unexpected(format!("{what} reported a mismatch on equal vectors")),
        Some(chunk) => Failure::Unexpected(format!(
            "{what} differs in chunk {chunk} of {chunks}, which no later chunk aliases"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_attempts_and_failures_by_cause() {
        let mut o = Outcomes::default();
        o.record(Ok(()));
        o.record(Err(Failure::Known(AMBIT_CHUNK_ALIAS)));
        o.record(Err(Failure::Known(AMBIT_CHUNK_ALIAS)));
        o.record(Ok(()));
        assert_eq!(o.attempted(), 4);
        assert_eq!(o.failed(), 2);
        assert!(o.all_explained());
        assert_eq!(o.by_cause()[AMBIT_CHUNK_ALIAS], 2);
    }

    #[test]
    fn unexplained_failures_make_the_run_incorrect() {
        let mut o = Outcomes::default();
        o.record(Err(Failure::Unexpected("sssp distances".into())));
        o.record(Err(Failure::Known(AMBIT_CHUNK_ALIAS)));
        assert_eq!(o.failed(), 2);
        assert!(!o.all_explained());
        let causes = o.by_cause();
        assert_eq!(causes["unexpected: sssp distances"], 1);
        assert_eq!(causes.len(), 2);
    }

    /// A 4-chunk device of 128-bit rows: a 6-chunk vector's chunks 0
    /// and 1 share their compute rows with chunks 4 and 5.
    const ROW: usize = 128;
    const LIMIT: usize = 4;

    fn flip(v: &BitVec, bit: usize) -> BitVec {
        let mut out = v.clone();
        out.set(bit, !v.get(bit));
        out
    }

    fn want() -> BitVec {
        BitVec::from_fn(6 * ROW, |i| i % 3 == 0)
    }

    #[test]
    fn damage_in_aliased_early_chunks_is_the_known_defect() {
        let got = flip(&flip(&want(), 5), ROW + 70);
        assert_eq!(
            classify_ambit_mismatch(&got, &want(), ROW, LIMIT, "plan"),
            Failure::Known(AMBIT_CHUNK_ALIAS)
        );
    }

    #[test]
    fn damage_anywhere_else_is_unexpected_even_on_oversized_vectors() {
        // Chunk 2 aliases nothing; chunk 4 is the later chunk of its pair
        // and comes back right under the defect.
        for bit in [2 * ROW + 1, 4 * ROW, 6 * ROW - 1] {
            let got = flip(&flip(&want(), 3), bit);
            assert_eq!(
                classify_ambit_mismatch(&got, &want(), ROW, LIMIT, "plan"),
                Failure::Unexpected(format!(
                    "plan differs in chunk {} of 6, which no later chunk aliases",
                    bit / ROW
                ))
            );
        }
        let zeros = BitVec::zeros(6 * ROW);
        assert!(matches!(
            classify_ambit_mismatch(&zeros, &want(), ROW, LIMIT, "plan"),
            Failure::Unexpected(_)
        ));
    }

    #[test]
    fn vectors_within_reach_never_match_the_known_defect() {
        let want = BitVec::from_fn(LIMIT * ROW, |i| i % 5 == 0);
        let first = flip(&want, 0);
        assert!(matches!(
            classify_ambit_mismatch(&first, &want, ROW, LIMIT, "plan"),
            Failure::Unexpected(_)
        ));
    }

    #[test]
    fn a_short_result_is_unexpected() {
        let short = BitVec::zeros(LIMIT * ROW);
        assert_eq!(
            classify_ambit_mismatch(&short, &want(), ROW, LIMIT, "row job"),
            Failure::Unexpected("row job: 512 bits, want 768".into())
        );
    }

    #[test]
    fn an_empty_ledger_is_correct() {
        let o = Outcomes::default();
        assert_eq!((o.attempted(), o.failed()), (0, 0));
        assert!(o.all_explained());
        assert!(o.by_cause().is_empty());
    }
}
