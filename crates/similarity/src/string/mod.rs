//! String similarity measures and normalization.

pub mod jaccard;
pub mod jaro;
pub(crate) mod kernel;
pub mod levenshtein;
pub mod myers;
pub mod ngram;
pub mod normalize;
pub mod phonetic;

pub use jaccard::jaccard_tokens;
pub use jaro::{jaro, jaro_winkler};
pub use levenshtein::{levenshtein, levenshtein_dp, levenshtein_similarity};
pub use myers::myers_levenshtein;
pub use ngram::{ngram_dice, trigram_dice};
pub use normalize::{normalize, normalized_tokens, tokenize};
pub use phonetic::{phonetic_token_similarity, soundex};

/// Token-level similarity: the mean of Jaro-Winkler and normalized
/// Levenshtein. Jaro-Winkler alone over-scores unrelated short tokens that
/// merely share letters (jw("lebron", "person") = 0.78); blending in edit
/// distance keeps one-typo tokens high (~0.9) while pushing coincidental
/// resemblances below typical thresholds (~0.55).
fn token_similarity(a: &str, b: &str) -> f64 {
    (jaro_winkler(a, b) + levenshtein_similarity(a, b)) / 2.0
}

/// Symmetric Monge-Elkan over already-tokenized inputs — the core of
/// [`monge_elkan_jw`], and the reference the prepared path in
/// [`crate::prepared`] must match bitwise.
fn monge_elkan_tokens(ta: &[&str], tb: &[&str]) -> f64 {
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    if ta.is_empty() || tb.is_empty() {
        return 0.0;
    }
    let dir = |xs: &[&str], ys: &[&str]| {
        let total: f64 = xs
            .iter()
            .map(|x| {
                ys.iter()
                    .map(|y| token_similarity(x, y))
                    .fold(0.0f64, f64::max)
            })
            .sum();
        total / xs.len() as f64
    };
    (dir(ta, tb) + dir(tb, ta)) / 2.0
}

/// Symmetric Monge-Elkan similarity with a blended Jaro-Winkler/Levenshtein
/// token measure as the inner
/// measure: each token is matched to its best counterpart, averaged, and the
/// two directions are averaged. The standard hybrid for multi-word entity
/// names — tolerant to token reordering and per-token typos, but not fooled
/// by whole-string letter overlap.
pub fn monge_elkan_jw(a: &str, b: &str) -> f64 {
    monge_elkan_tokens(&tokenize(a), &tokenize(b))
}

/// The combined string similarity used for feature values: the maximum of
/// *squared* symmetric Monge-Elkan (good for names with typos and reordered
/// tokens) and token Jaccard (good for multi-word labels with dropped
/// tokens), both on the normalized form.
///
/// Squaring calibrates the soft-token score: genuinely matching strings
/// (≥0.9 raw) lose little (→ ≥0.81) while coincidental resemblances between
/// unrelated short strings (raw 0.4–0.6, which soft-token measures produce
/// in abundance) drop below typical filter thresholds (→ 0.16–0.36). Without
/// this, an RDF pair's similarity matrix fills up with spurious
/// cross-attribute entries above the paper's θ = 0.3.
pub fn string_similarity(a: &str, b: &str) -> f64 {
    let na = normalize(a);
    let nb = normalize(b);
    if na == nb {
        return 1.0;
    }
    let me = monge_elkan_jw(&na, &nb);
    (me * me).max(jaccard_tokens(&na, &nb))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_equality_is_one() {
        assert_eq!(string_similarity("LeBron_James", "lebron james"), 1.0);
    }

    #[test]
    fn typo_scores_high() {
        assert!(string_similarity("Drugbank", "Drugbnak") > 0.7);
        assert!(string_similarity("LeBron James", "LeBron James") == 1.0);
        assert!(string_similarity("LeBron Jmaes", "LeBron James") > 0.75);
    }

    #[test]
    fn token_reorder_scores_high() {
        assert!(string_similarity("James LeBron", "LeBron James") > 0.9);
    }

    #[test]
    fn unrelated_scores_low() {
        assert!(string_similarity("ibuprofen", "semantic web") < 0.4);
        // Whole-string Jaro-Winkler scores this pair 0.67; the calibrated
        // hybrid must not be fooled by short coincidental resemblances.
        assert!(string_similarity("LeBron James", "person") < 0.4);
        // Cross-vocabulary categorical values must fall below θ = 0.3.
        assert!(string_similarity("person", "C-PRS") < 0.3);
        assert!(string_similarity("United States", "840") < 0.3);
        assert!(string_similarity("Politician", "person") < 0.3);
    }

    #[test]
    fn monge_elkan_single_tokens_blend_jw_and_levenshtein() {
        let expected =
            (jaro_winkler("martha", "marhta") + levenshtein_similarity("martha", "marhta")) / 2.0;
        assert!((monge_elkan_jw("martha", "marhta") - expected).abs() < 1e-12);
    }

    #[test]
    fn monge_elkan_empty_cases() {
        assert_eq!(monge_elkan_jw("", ""), 1.0);
        assert_eq!(monge_elkan_jw("", "abc"), 0.0);
    }

    #[test]
    fn range_and_symmetry() {
        for (a, b) in [("a", "b"), ("New York Times", "NY Times"), ("", "x")] {
            let s1 = string_similarity(a, b);
            let s2 = string_similarity(b, a);
            assert!((0.0..=1.0).contains(&s1));
            assert!((s1 - s2).abs() < 1e-12);
        }
    }
}
