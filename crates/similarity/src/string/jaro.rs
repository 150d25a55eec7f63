//! Jaro and Jaro-Winkler similarity.
//!
//! Jaro-Winkler is the workhorse for entity-name comparison in record
//! linkage; it rewards common prefixes, which suits names and labels.

/// Jaro similarity in [0, 1].
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    jaro_slices(&a, &b)
}

/// Jaro similarity of two char slices, with heap-allocated match flags:
/// the reference algorithm, and the fallback of
/// [`super::kernel::jaro_winkler_chars`] for slices longer than 64 chars.
pub(crate) fn jaro_slices(a: &[char], b: &[char]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_matched = vec![false; b.len()];
    let mut matches = 0usize;
    let mut a_match_chars: Vec<char> = Vec::new();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_matched[j] && b[j] == ca {
                b_matched[j] = true;
                a_match_chars.push(ca);
                matches += 1;
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    // Count transpositions between the matched sequences.
    let b_match_chars: Vec<char> = b
        .iter()
        .zip(b_matched.iter())
        .filter(|(_, &m)| m)
        .map(|(&c, _)| c)
        .collect();
    let transpositions = a_match_chars
        .iter()
        .zip(b_match_chars.iter())
        .filter(|(x, y)| x != y)
        .count()
        / 2;
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Jaro-Winkler similarity in [0, 1], with the standard prefix scale 0.1 and
/// maximum prefix length 4.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    (j + prefix as f64 * 0.1 * (1.0 - j)).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-3
    }

    #[test]
    fn identical_strings() {
        assert_eq!(jaro("martha", "martha"), 1.0);
        assert_eq!(jaro_winkler("martha", "martha"), 1.0);
    }

    #[test]
    fn classic_martha_marhta() {
        assert!(close(jaro("martha", "marhta"), 0.944));
        assert!(close(jaro_winkler("martha", "marhta"), 0.961));
    }

    #[test]
    fn classic_dwayne_duane() {
        assert!(close(jaro("dwayne", "duane"), 0.822));
        assert!(close(jaro_winkler("dwayne", "duane"), 0.840));
    }

    #[test]
    fn disjoint_strings_zero() {
        assert_eq!(jaro("abc", "xyz"), 0.0);
        assert_eq!(jaro_winkler("abc", "xyz"), 0.0);
    }

    #[test]
    fn empty_cases() {
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("", "abc"), 0.0);
        assert_eq!(jaro("abc", ""), 0.0);
    }

    #[test]
    fn symmetric() {
        assert!(close(jaro("prefix", "preface"), jaro("preface", "prefix")));
        assert!(close(
            jaro_winkler("prefix", "preface"),
            jaro_winkler("preface", "prefix")
        ));
    }

    #[test]
    fn winkler_rewards_prefix() {
        // Both pairs differ by one trailing char, but only one shares a prefix.
        assert!(jaro_winkler("abcdx", "abcdy") > jaro_winkler("xabcd", "yabcd"));
    }

    #[test]
    fn range_is_unit_interval() {
        for (a, b) in [("a", "b"), ("abc", "abd"), ("", "x"), ("longer", "short")] {
            let s = jaro_winkler(a, b);
            assert!((0.0..=1.0).contains(&s), "{a} vs {b} gave {s}");
        }
    }
}
