//! Property-based tests for the similarity measures: every measure must be
//! symmetric, bounded to [0, 1], and return 1.0 on identical inputs.

use alex_sim::token_kernels::{
    jaro_winkler_chars, levenshtein_similarity_chars, token_similarity_chars,
};
use alex_sim::{
    jaccard_ids, jaccard_tokens, jaro, jaro_winkler, levenshtein, levenshtein_dp,
    levenshtein_similarity, myers_levenshtein, normalize, prepared_similarity,
    prepared_string_similarity, relative_numeric, scaled_numeric, string_similarity, trigram_dice,
    value_similarity, Date, PreparedText, PreparedValue, TokenInterner, TypedValue,
};
use proptest::prelude::*;

fn unit(x: f64) -> bool {
    (0.0..=1.0 + 1e-12).contains(&x)
}

/// The char-slice kernels against the string measures, bitwise, on one
/// pair of strings.
fn kernels_match(a: &str, b: &str) -> Result<(), TestCaseError> {
    let (ca, cb): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let jw = jaro_winkler(a, b);
    let lev = levenshtein_similarity(a, b);
    prop_assert_eq!(jaro_winkler_chars(&ca, &cb).to_bits(), jw.to_bits());
    prop_assert_eq!(
        levenshtein_similarity_chars(&ca, &cb).to_bits(),
        lev.to_bits()
    );
    prop_assert_eq!(
        token_similarity_chars(&ca, &cb).to_bits(),
        ((jw + lev) / 2.0).to_bits()
    );
    Ok(())
}

/// A typed value of kind `kind` (14 kinds) built from shared raw
/// material, so that generated pairs land on every arm of
/// `value_similarity`: text that sniffs to a year, integer, float, date or
/// boolean, text that does not, IRIs, and every numeric, temporal and
/// boolean kind.
fn typed(kind: u8, word: &str, n: i64, f: f64, month: u8, day: u8) -> TypedValue {
    let year = 1000 + n.rem_euclid(1101);
    let date = Date {
        year: 1900 + n.rem_euclid(200) as i32,
        month,
        day,
    };
    match kind {
        0 => TypedValue::Text(word.to_string()),
        1 => TypedValue::Text(year.to_string()),
        2 => TypedValue::Text(n.to_string()),
        3 => TypedValue::Text(f.to_string()),
        4 => TypedValue::Text(format!(
            "{:04}-{:02}-{:02}",
            date.year, date.month, date.day
        )),
        5 => TypedValue::Text((n % 2 == 0).to_string()),
        6 => TypedValue::Text(format!(" {n} {word}")),
        7 => TypedValue::Iri(format!("http://e/{word}")),
        8 => TypedValue::Iri(format!("http://e/ns#{n}")),
        9 => TypedValue::Integer(n),
        10 => TypedValue::Float(f),
        11 => TypedValue::Year(year as i32),
        12 => TypedValue::Date(date),
        _ => TypedValue::Boolean(n % 3 == 0),
    }
}

proptest! {
    #[test]
    fn levenshtein_triangle_inequality(a in ".{0,12}", b in ".{0,12}", c in ".{0,12}") {
        let ab = levenshtein(&a, &b);
        let bc = levenshtein(&b, &c);
        let ac = levenshtein(&a, &c);
        prop_assert!(ac <= ab + bc);
    }

    #[test]
    fn levenshtein_symmetry_and_identity(a in ".{0,16}", b in ".{0,16}") {
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        prop_assert_eq!(levenshtein(&a, &a), 0);
    }

    #[test]
    fn levenshtein_similarity_bounded(a in ".{0,16}", b in ".{0,16}") {
        prop_assert!(unit(levenshtein_similarity(&a, &b)));
    }

    #[test]
    fn jaro_bounded_symmetric(a in ".{0,16}", b in ".{0,16}") {
        let s1 = jaro(&a, &b);
        let s2 = jaro(&b, &a);
        prop_assert!(unit(s1));
        prop_assert!((s1 - s2).abs() < 1e-9);
    }

    #[test]
    fn jaro_winkler_dominates_jaro(a in ".{0,16}", b in ".{0,16}") {
        prop_assert!(jaro_winkler(&a, &b) + 1e-12 >= jaro(&a, &b));
        prop_assert!(unit(jaro_winkler(&a, &b)));
    }

    #[test]
    fn jaccard_bounded_symmetric(a in "[a-z ]{0,24}", b in "[a-z ]{0,24}") {
        let s1 = jaccard_tokens(&a, &b);
        let s2 = jaccard_tokens(&b, &a);
        prop_assert!(unit(s1));
        prop_assert!((s1 - s2).abs() < 1e-12);
    }

    #[test]
    fn trigram_bounded_symmetric_identity(a in ".{0,16}", b in ".{0,16}") {
        let s = trigram_dice(&a, &b);
        prop_assert!(unit(s));
        prop_assert!((s - trigram_dice(&b, &a)).abs() < 1e-12);
        prop_assert!((trigram_dice(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn string_similarity_identity_after_normalization(a in ".{0,20}") {
        // Identical inputs always score 1.0.
        prop_assert!((string_similarity(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn string_similarity_bounded_symmetric(a in ".{0,20}", b in ".{0,20}") {
        let s1 = string_similarity(&a, &b);
        prop_assert!(unit(s1));
        prop_assert!((s1 - string_similarity(&b, &a)).abs() < 1e-9);
    }

    #[test]
    fn normalize_is_idempotent(a in ".{0,32}") {
        let once = normalize(&a);
        prop_assert_eq!(normalize(&once), once.clone());
    }

    #[test]
    fn relative_numeric_bounded_symmetric(a in -1e9f64..1e9, b in -1e9f64..1e9) {
        let s = relative_numeric(a, b);
        prop_assert!(unit(s));
        prop_assert!((s - relative_numeric(b, a)).abs() < 1e-9);
    }

    #[test]
    fn scaled_numeric_bounded(a in -1e6f64..1e6, b in -1e6f64..1e6, scale in 0.1f64..1e6) {
        prop_assert!(unit(scaled_numeric(a, b, scale)));
    }

    #[test]
    fn value_similarity_symmetric_over_ints(a in -1000i64..1000, b in -1000i64..1000) {
        let va = TypedValue::Integer(a);
        let vb = TypedValue::Integer(b);
        let s1 = value_similarity(&va, &vb);
        prop_assert!(unit(s1));
        prop_assert!((s1 - value_similarity(&vb, &va)).abs() < 1e-12);
    }

    #[test]
    fn value_similarity_text_symmetric(a in "[a-zA-Z0-9 ]{0,16}", b in "[a-zA-Z0-9 ]{0,16}") {
        let va = TypedValue::Text(a);
        let vb = TypedValue::Text(b);
        let s1 = value_similarity(&va, &vb);
        prop_assert!(unit(s1));
        prop_assert!((s1 - value_similarity(&vb, &va)).abs() < 1e-9);
    }

    /// The bit-parallel Myers kernel is exactly the classic DP on short
    /// strings (single u64 block) — including empty strings.
    #[test]
    fn myers_equals_dp_single_block(a in ".{0,24}", b in ".{0,24}") {
        prop_assert_eq!(myers_levenshtein(&a, &b), levenshtein_dp(&a, &b));
    }

    /// …and on long strings that cross the 64-character block boundary,
    /// exercising the multi-block carry chain.
    #[test]
    fn myers_equals_dp_multi_block(a in ".{55,90}", b in ".{55,90}") {
        prop_assert_eq!(myers_levenshtein(&a, &b), levenshtein_dp(&a, &b));
    }

    /// …and with combining diacritics appended/injected, so the kernel's
    /// char-level (not byte-level) handling matches the DP's.
    #[test]
    fn myers_equals_dp_combining_chars(a in ".{0,70}", b in ".{0,70}") {
        // U+0301 combining acute, U+0308 combining diaeresis — standalone
        // combining marks are valid chars the DP treats as units.
        let a = format!("e\u{0301}{a}\u{0308}");
        let b = format!("{b}\u{0301}");
        prop_assert_eq!(myers_levenshtein(&a, &b), levenshtein_dp(&a, &b));
    }

    /// The char-slice Jaro-Winkler, Levenshtein-similarity and token
    /// kernels are bitwise equal to the string measures — including empty
    /// inputs and inputs past 64 chars, where the mask and single-block
    /// paths hand over to the reference algorithms.
    #[test]
    fn char_kernels_equal_string_measures(a in ".{0,80}", b in ".{0,80}") {
        kernels_match(&a, &b)?;
        kernels_match(&a, "")?;
        kernels_match(&a, &a)?;
    }

    /// …on a small alphabet, where matches, transpositions and common
    /// prefixes are frequent, on both sides of the 64-char boundary…
    #[test]
    fn char_kernels_equal_string_measures_dense(a in "[abcé]{0,80}", b in "[abcé]{50,80}") {
        kernels_match(&a, &b)?;
        kernels_match(&b, &a)?;
    }

    /// …and with standalone combining marks, which are chars of their own.
    #[test]
    fn char_kernels_equal_string_measures_combining(a in "[ae]{0,70}", b in ".{0,70}") {
        let a = format!("e\u{0301}{a}\u{0308}");
        let b = format!("{b}\u{0301}");
        kernels_match(&a, &b)?;
    }

    /// Interned sorted-id Jaccard is bitwise equal to the string-token
    /// `HashSet` formulation when both texts are prepared against one
    /// shared interner.
    #[test]
    fn interned_jaccard_equals_string_jaccard(a in ".{0,60}", b in ".{0,60}") {
        let mut interner = TokenInterner::new();
        let pa = PreparedText::prepare(&a, &mut interner);
        let pb = PreparedText::prepare(&b, &mut interner);
        let fast = jaccard_ids(pa.token_ids(), pb.token_ids());
        let slow = jaccard_tokens(&a, &b);
        prop_assert_eq!(fast.to_bits(), slow.to_bits());
    }

    /// The full prepared string kernel (batch Monge-Elkan + interned
    /// Jaccard) is bitwise equal to `string_similarity`, including on
    /// block-crossing and combining-mark inputs.
    #[test]
    fn prepared_equals_string_similarity(a in ".{0,70}", b in ".{0,70}") {
        let a = format!("{a}\u{0301}");
        let mut interner = TokenInterner::new();
        let pa = PreparedText::prepare(&a, &mut interner);
        let pb = PreparedText::prepare(&b, &mut interner);
        let fast = prepared_string_similarity(&pa, &pb);
        let slow = string_similarity(&a, &b);
        prop_assert_eq!(fast.to_bits(), slow.to_bits());
    }

    /// Multi-token texts from a small alphabet, with tokens short and past
    /// 64 chars, keep the prepared path bitwise equal in both orders.
    #[test]
    fn prepared_equals_string_similarity_tokens(a in "[abé _]{0,80}", b in "[ab]{60,70}( [abé]{0,9}){0,40}") {
        let mut interner = TokenInterner::new();
        let pa = PreparedText::prepare(&a, &mut interner);
        let pb = PreparedText::prepare(&b, &mut interner);
        prop_assert_eq!(
            prepared_string_similarity(&pa, &pb).to_bits(),
            string_similarity(&a, &b).to_bits()
        );
        prop_assert_eq!(
            prepared_string_similarity(&pb, &pa).to_bits(),
            string_similarity(&b, &a).to_bits()
        );
    }

    /// `prepared_similarity` is bitwise `value_similarity` on generated
    /// mixed-kind pairs, in both argument orders.
    #[test]
    fn prepared_value_equals_value_similarity(
        kinds in (0u8..14, 0u8..14),
        words in ("[a-z0-9 ._]{0,12}", "[a-z0-9 ._]{0,12}"),
        n in -3000i64..3000,
        delta in -12i64..12,
        calendar in (-1e4f64..1e4, 1u8..13, 1u8..29),
    ) {
        let (f, month, day) = calendar;
        let va = typed(kinds.0, &words.0, n, f, month, day);
        let vb = typed(kinds.1, &words.1, n + delta, f * (1.0 + delta as f64 / 1000.0), month, day);
        let mut interner = TokenInterner::new();
        let pa = PreparedValue::prepare(va.clone(), &mut interner);
        let pb = PreparedValue::prepare(vb.clone(), &mut interner);
        prop_assert_eq!(
            prepared_similarity(&pa, &pb).to_bits(),
            value_similarity(&va, &vb).to_bits()
        );
        prop_assert_eq!(
            prepared_similarity(&pb, &pa).to_bits(),
            value_similarity(&vb, &va).to_bits()
        );
    }
}
