//! Precomputed typed attribute values.
//!
//! Building the link space evaluates millions of value similarities; parsing
//! and classifying each RDF term on every comparison would dominate the
//! cost. [`SideValues`] resolves, classifies, *and prepares* every entity's
//! attribute values once per side: each value carries its string form's
//! decoded tokens and interned Jaccard token ids, and a text value its
//! sniffed typed value ([`PreparedValue`]), so the similarity hot loop
//! never re-normalizes a string or allocates a `HashSet`. Both sides of a
//! comparison must be built against one shared [`TokenInterner`] — token
//! ids are only meaningful within an interner.

use alex_rdf::{Dataset, EntityIndex, Sym};
use alex_sim::{typed_value, PreparedValue, TokenInterner};

/// Prepared attribute lists for every entity of one data set.
#[derive(Debug, Clone, Default)]
pub struct SideValues {
    per_entity: Vec<Vec<(Sym, PreparedValue)>>,
}

impl SideValues {
    /// Resolve and prepare every indexed entity's attributes, interning
    /// token ids into `interner` (shared across the two sides of a build).
    pub fn build(ds: &Dataset, idx: &EntityIndex, interner: &mut TokenInterner) -> SideValues {
        let per_entity = (0..idx.len() as u32)
            .map(|id| {
                ds.graph()
                    .matching(Some(idx.term(id)), None, None)
                    .filter_map(|t| {
                        // Predicates are IRIs in every well-formed graph;
                        // drop (rather than die on) anything else.
                        let pred = t.predicate.as_iri()?;
                        let value = PreparedValue::prepare(typed_value(ds, t.object), interner);
                        Some((pred, value))
                    })
                    .collect()
            })
            .collect();
        SideValues { per_entity }
    }

    /// The prepared attributes of entity `id`.
    pub fn attrs(&self, id: u32) -> &[(Sym, PreparedValue)] {
        &self.per_entity[id as usize]
    }

    /// Number of entities covered.
    pub fn len(&self) -> usize {
        self.per_entity.len()
    }

    /// Whether no entity is covered.
    pub fn is_empty(&self) -> bool {
        self.per_entity.is_empty()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use alex_rdf::vocab;
    use alex_sim::TypedValue;

    #[test]
    fn builds_typed_attrs_per_entity() {
        let mut ds = Dataset::new("t");
        ds.add_str("http://e/a", "http://e/name", "Alpha");
        ds.add_typed("http://e/a", "http://e/born", "1984", vocab::XSD_GYEAR);
        ds.add_str("http://e/b", "http://e/name", "Beta");
        let idx = ds.entity_index();
        let mut interner = TokenInterner::new();
        let vals = SideValues::build(&ds, &idx, &mut interner);
        assert_eq!(vals.len(), 2);
        let a = idx
            .id(ds
                .interner()
                .get("http://e/a")
                .map(alex_rdf::Term::Iri)
                .unwrap())
            .unwrap();
        let attrs = vals.attrs(a);
        assert_eq!(attrs.len(), 2);
        assert!(attrs
            .iter()
            .any(|(_, v)| *v.value() == TypedValue::Year(1984)));
        assert!(attrs
            .iter()
            .any(|(_, v)| matches!(v.value(), TypedValue::Text(s) if s == "Alpha")));
        // Text values arrive pre-tokenized with interned ids.
        assert!(attrs.iter().all(|(_, v)| !v.text().token_ids().is_empty()));
        assert!(!interner.is_empty());
    }

    #[test]
    fn empty_dataset() {
        let ds = Dataset::new("t");
        let idx = ds.entity_index();
        let vals = SideValues::build(&ds, &idx, &mut TokenInterner::new());
        assert!(vals.is_empty());
    }
}
