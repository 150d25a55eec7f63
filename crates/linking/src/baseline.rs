//! A naive label-matching baseline linker.
//!
//! Links two entities when their best literal-value similarity exceeds a
//! threshold, with greedy one-to-one assignment. This is the "syntax only"
//! strawman that PARIS (and ALEX on top of it) improves upon; the linking
//! bench compares the two.

use alex_rdf::{Dataset, EntityIndex, Term};
use alex_sim::{prepared_similarity, term_similarity, typed_value, PreparedValue, TokenInterner};

use crate::blocking::{candidate_pairs, BlockingConfig};
use crate::candidates::{LinkSet, LinkerOutput, ScoredLink};

/// Configuration for the label baseline.
#[derive(Debug, Clone)]
pub struct LabelBaseline {
    /// Minimum best-value similarity to emit a link.
    pub threshold: f64,
    /// Blocking configuration for candidate generation.
    pub blocking: BlockingConfig,
}

impl Default for LabelBaseline {
    fn default() -> Self {
        LabelBaseline {
            threshold: 0.85,
            blocking: BlockingConfig::default(),
        }
    }
}

impl LabelBaseline {
    /// Link `left` and `right` by best literal-value similarity.
    ///
    /// Every entity's literal values are prepared once; each candidate
    /// pair then scores every literal pair with [`prepared_similarity`],
    /// which is bitwise [`alex_sim::value_similarity`] — so scores equal
    /// the naive per-pair [`best_literal_similarity`] oracle (tested
    /// below), visiting pairs in the same order with the same ≥ 1.0
    /// short-circuit.
    pub fn link(&self, left: &Dataset, right: &Dataset) -> LinkerOutput {
        let left_index = left.entity_index();
        let right_index = right.entity_index();
        let pairs = candidate_pairs(left, &left_index, right, &right_index, &self.blocking);

        let mut interner = TokenInterner::new();
        let left_values = literal_values(left, &left_index, &mut interner);
        let right_values = literal_values(right, &right_index, &mut interner);

        let mut links = LinkSet::new();
        for (lid, rid) in pairs {
            let score = best_prepared(&left_values[lid as usize], &right_values[rid as usize]);
            if score >= self.threshold {
                links.push(ScoredLink {
                    left: lid,
                    right: rid,
                    score,
                });
            }
        }
        LinkerOutput {
            links: links.one_to_one(),
            left_index,
            right_index,
        }
    }
}

/// Every indexed entity's literal values, prepared against `interner`.
fn literal_values(
    ds: &Dataset,
    idx: &EntityIndex,
    interner: &mut TokenInterner,
) -> Vec<Vec<PreparedValue>> {
    (0..idx.len() as u32)
        .map(|id| {
            ds.graph()
                .matching(Some(idx.term(id)), None, None)
                .filter(|t| t.object.is_literal())
                .map(|t| PreparedValue::prepare(typed_value(ds, t.object), interner))
                .collect()
        })
        .collect()
}

/// The best similarity between any value of `left` and any of `right` —
/// [`best_literal_similarity`] on prepared values.
fn best_prepared(left: &[PreparedValue], right: &[PreparedValue]) -> f64 {
    let mut best: f64 = 0.0;
    for lv in left {
        for rv in right {
            best = best.max(prepared_similarity(lv, rv));
            if best >= 1.0 {
                return 1.0;
            }
        }
    }
    best
}

/// The best similarity between any literal value of `l` and any literal
/// value of `r` — the naive per-pair formulation, kept as the oracle the
/// prepared path in [`LabelBaseline::link`] is tested against.
pub fn best_literal_similarity(left: &Dataset, l: Term, right: &Dataset, r: Term) -> f64 {
    let mut best: f64 = 0.0;
    for lt in left.graph().matching(Some(l), None, None) {
        if !lt.object.is_literal() {
            continue;
        }
        for rt in right.graph().matching(Some(r), None, None) {
            if !rt.object.is_literal() {
                continue;
            }
            best = best.max(term_similarity(left, lt.object, right, rt.object));
            if best >= 1.0 {
                return 1.0;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use alex_rdf::vocab;

    fn datasets() -> (Dataset, Dataset) {
        let mut left = Dataset::new("L");
        left.add_str("http://l/a", "http://l/o/label", "LeBron James");
        left.add_str("http://l/b", "http://l/o/label", "Michael Jordan");
        let mut right = Dataset::new("R");
        right.add_str("http://r/1", "http://r/p/name", "James, LeBron");
        right.add_str("http://r/2", "http://r/p/name", "Jordan, Michael");
        right.add_str("http://r/3", "http://r/p/name", "Kobe Bryant");
        (left, right)
    }

    #[test]
    fn links_matching_names() {
        let (left, right) = datasets();
        let out = LabelBaseline::default().link(&left, &right);
        assert_eq!(out.links.len(), 2);
        let pairs = out.links.to_term_pairs(&out.left_index, &out.right_index);
        let as_strings: Vec<(String, String)> = pairs
            .iter()
            .map(|&(l, r)| (left.resolve(l).to_string(), right.resolve(r).to_string()))
            .collect();
        assert!(as_strings.contains(&("http://l/a".into(), "http://r/1".into())));
        assert!(as_strings.contains(&("http://l/b".into(), "http://r/2".into())));
    }

    #[test]
    fn threshold_excludes_weak_matches() {
        let (left, right) = datasets();
        let strict = LabelBaseline {
            threshold: 1.01, // impossible
            ..LabelBaseline::default()
        };
        let out = strict.link(&left, &right);
        assert!(out.links.is_empty());
    }

    #[test]
    fn best_literal_similarity_maximizes() {
        let mut left = Dataset::new("L");
        left.add_str("http://l/a", "http://l/p1", "zzz");
        left.add_str("http://l/a", "http://l/p2", "LeBron James");
        let mut right = Dataset::new("R");
        right.add_str("http://r/1", "http://r/q", "lebron james");
        let (li, ri) = (left.entity_index(), right.entity_index());
        let s = best_literal_similarity(&left, li.term(0), &right, ri.term(0));
        assert_eq!(s, 1.0);
    }

    #[test]
    fn prepared_scoring_matches_naive_oracle() {
        // Mixed-kind literals: text, numeric-looking text, typed years,
        // plus multi-valued entities — every dispatch arm of the prepared
        // path must agree bitwise with the naive per-pair oracle.
        let mut left = Dataset::new("L");
        left.add_str("http://l/a", "http://l/label", "LeBron James");
        left.add_str("http://l/a", "http://l/born", "1984");
        left.add_str("http://l/b", "http://l/label", "Café München");
        left.add_str("http://l/b", "http://l/alt", "cafe muenchen");
        left.add_str("http://l/c", "http://l/num", "42");
        left.add_typed("http://l/c", "http://l/code", "1984", vocab::XSD_STRING);
        let mut right = Dataset::new("R");
        right.add_str("http://r/1", "http://r/name", "James, LeBron");
        right.add_str("http://r/1", "http://r/year", "1984");
        right.add_str("http://r/2", "http://r/name", "Cafe Munchen");
        right.add_str("http://r/3", "http://r/name", "42.0");
        right.add_typed("http://r/3", "http://r/born", "1985-02-01", vocab::XSD_DATE);
        let (li, ri) = (left.entity_index(), right.entity_index());

        let mut interner = TokenInterner::new();
        let lv = literal_values(&left, &li, &mut interner);
        let rv = literal_values(&right, &ri, &mut interner);
        for l in 0..li.len() as u32 {
            for r in 0..ri.len() as u32 {
                let prepared = best_prepared(&lv[l as usize], &rv[r as usize]);
                let naive = best_literal_similarity(&left, li.term(l), &right, ri.term(r));
                assert_eq!(prepared.to_bits(), naive.to_bits(), "pair ({l}, {r})");
            }
        }
    }

    #[test]
    fn one_to_one_enforced() {
        let mut left = Dataset::new("L");
        left.add_str("http://l/a", "http://l/p", "Duplicate Name");
        left.add_str("http://l/b", "http://l/p", "Duplicate Name");
        let mut right = Dataset::new("R");
        right.add_str("http://r/1", "http://r/q", "Duplicate Name");
        let out = LabelBaseline::default().link(&left, &right);
        assert_eq!(out.links.len(), 1);
    }
}
