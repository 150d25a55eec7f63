//! Char-slice token kernels: the token measures under Monge-Elkan, on
//! tokens already decoded to `char` slices.
//!
//! [`crate::PreparedText`] decodes its normalized tokens once, so the
//! prepared comparison path scores token pairs here without re-decoding
//! UTF-8 or touching the heap:
//!
//! * Jaro-Winkler keeps its match flags in two `u64` masks when both
//!   tokens have at most 64 chars;
//! * Levenshtein runs the single-block Myers kernel with its stack `Peq`
//!   table, and normalizes by the slice lengths.
//!
//! Longer tokens fall back to the heap-allocating reference algorithms.
//! Every kernel is bitwise equal to its string counterpart
//! ([`super::jaro_winkler`], [`super::levenshtein_similarity`], and their
//! blend in [`super::monge_elkan_jw`]), property-tested in
//! `tests/properties.rs`.

use super::jaro::jaro_slices;
use super::myers::levenshtein_chars;

/// Jaro-Winkler similarity of two char slices — bitwise equal to
/// [`super::jaro_winkler`] on the strings they decode.
pub fn jaro_winkler_chars(a: &[char], b: &[char]) -> f64 {
    let j = jaro_chars(a, b);
    let prefix = a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count();
    (j + prefix as f64 * 0.1 * (1.0 - j)).min(1.0)
}

/// Normalized Levenshtein similarity of two char slices — bitwise equal to
/// [`super::levenshtein_similarity`] on the strings they decode.
pub fn levenshtein_similarity_chars(a: &[char], b: &[char]) -> f64 {
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein_chars(a, b) as f64 / max_len as f64
}

/// The Monge-Elkan token measure — the mean of Jaro-Winkler and normalized
/// Levenshtein — on char slices.
pub fn token_similarity_chars(a: &[char], b: &[char]) -> f64 {
    (jaro_winkler_chars(a, b) + levenshtein_similarity_chars(a, b)) / 2.0
}

/// Jaro similarity with `u64` match masks: the reference algorithm's
/// greedy left-to-right matching and in-order transposition count, on
/// bits instead of a `Vec<bool>` and two collected match lists.
fn jaro_chars(a: &[char], b: &[char]) -> f64 {
    if a.len() > 64 || b.len() > 64 {
        return jaro_slices(a, b);
    }
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut a_matched = 0u64;
    let mut b_matched = 0u64;
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for (j, &cb) in b.iter().enumerate().take(hi).skip(lo) {
            if b_matched & (1 << j) == 0 && cb == ca {
                b_matched |= 1 << j;
                a_matched |= 1 << i;
                break;
            }
        }
    }
    let matches = a_matched.count_ones();
    if matches == 0 {
        return 0.0;
    }
    // Walk both match sets in order: the k-th matched char of `a` against
    // the k-th matched char of `b`.
    let mut mismatched = 0usize;
    let (mut am, mut bm) = (a_matched, b_matched);
    while am != 0 {
        if a[am.trailing_zeros() as usize] != b[bm.trailing_zeros() as usize] {
            mismatched += 1;
        }
        am &= am - 1;
        bm &= bm - 1;
    }
    let transpositions = mismatched / 2;
    let m = f64::from(matches);
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::string::{jaro_winkler, levenshtein_similarity};

    fn chars(s: &str) -> Vec<char> {
        s.chars().collect()
    }

    #[test]
    fn matches_string_versions_on_classics() {
        for (a, b) in [
            ("martha", "marhta"),
            ("dwayne", "duane"),
            ("", ""),
            ("", "abc"),
            ("abc", "xyz"),
            ("café", "cafe\u{301}"),
            ("lebron", "person"),
        ] {
            let (ca, cb) = (chars(a), chars(b));
            assert_eq!(
                jaro_winkler_chars(&ca, &cb).to_bits(),
                jaro_winkler(a, b).to_bits(),
                "{a:?} vs {b:?}"
            );
            assert_eq!(
                levenshtein_similarity_chars(&ca, &cb).to_bits(),
                levenshtein_similarity(a, b).to_bits(),
                "{a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn mask_and_fallback_paths_meet_at_64_chars() {
        let base: String = "abcdefghij".repeat(7);
        for (m, n) in [(64, 64), (64, 65), (65, 64), (63, 70)] {
            let a: String = base.chars().take(m).collect();
            let b: String = base.chars().rev().take(n).collect();
            let (ca, cb) = (chars(&a), chars(&b));
            assert_eq!(
                jaro_winkler_chars(&ca, &cb).to_bits(),
                jaro_winkler(&a, &b).to_bits(),
                "m={m} n={n}"
            );
        }
    }
}
