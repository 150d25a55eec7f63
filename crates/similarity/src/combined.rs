//! The generic, type-dispatched similarity function.
//!
//! This is the paper's "generic similarity function that depends on the type
//! of the attributes to be compared (string, integer, float, date, etc.)"
//! (§4.1). It compares two [`TypedValue`]s — and, one level up, two RDF
//! object terms resolved from their data sets — returning a score in [0, 1].

use alex_rdf::{Dataset, Term};

use crate::date::{date_similarity, date_year_similarity, year_similarity};
use crate::numeric::{boolean_similarity, relative_numeric};
use crate::string::string_similarity;
use crate::value::{iri_local_name, sniff, typed_value, TypedValue};

/// Similarity of two typed values, in [0, 1].
///
/// Same-type pairs use the type's native measure. Mixed pairs coerce where a
/// meaningful comparison exists (date↔year, int↔float, text that parses as a
/// number) and otherwise fall back to string similarity of the lexical forms
/// — RDF data is messy, and "1984" as text still deserves to match the year
/// 1984.
pub fn value_similarity(a: &TypedValue, b: &TypedValue) -> f64 {
    use TypedValue as V;
    match (a, b) {
        (V::Text(x), V::Text(y)) => string_similarity(x, y),
        (V::Integer(x), V::Integer(y)) => relative_numeric(*x as f64, *y as f64),
        (V::Float(x), V::Float(y)) => relative_numeric(*x, *y),
        (V::Integer(x), V::Float(y)) | (V::Float(y), V::Integer(x)) => {
            relative_numeric(*x as f64, *y)
        }
        (V::Date(x), V::Date(y)) => date_similarity(*x, *y),
        (V::Year(x), V::Year(y)) => year_similarity(*x, *y),
        (V::Date(d), V::Year(y)) | (V::Year(y), V::Date(d)) => date_year_similarity(*d, *y),
        (V::Year(y), V::Integer(i)) | (V::Integer(i), V::Year(y)) => year_similarity(*y, *i as i32),
        (V::Boolean(x), V::Boolean(y)) => boolean_similarity(*x, *y),
        (V::Iri(x), V::Iri(y)) => {
            if x == y {
                1.0
            } else {
                string_similarity(iri_local_name(x), iri_local_name(y))
            }
        }
        // Text against a non-text value: re-sniff the text; if it now has the
        // partner's kind, compare natively, else compare lexical forms.
        (V::Text(t), other) | (other, V::Text(t)) => {
            let sniffed = sniff(t);
            if sniffed.type_name() == other.type_name() && !matches!(sniffed, V::Text(_)) {
                value_similarity(&sniffed, other)
            } else {
                string_similarity(t, &render(other))
            }
        }
        // IRI against a literal value: compare local name to lexical form.
        (V::Iri(x), other) | (other, V::Iri(x)) => {
            string_similarity(iri_local_name(x), &render(other))
        }
        // Remaining numeric/temporal cross-type pairs carry no signal.
        _ => 0.0,
    }
}

/// Render a typed value back to a comparable lexical form.
pub(crate) fn render(v: &TypedValue) -> String {
    match v {
        TypedValue::Text(s) => s.clone(),
        TypedValue::Integer(i) => i.to_string(),
        TypedValue::Float(f) => f.to_string(),
        TypedValue::Date(d) => format!("{:04}-{:02}-{:02}", d.year, d.month, d.day),
        TypedValue::Year(y) => y.to_string(),
        TypedValue::Boolean(b) => b.to_string(),
        TypedValue::Iri(s) => iri_local_name(s).to_string(),
    }
}

/// Similarity of two RDF object terms, each resolved in its own data set.
///
/// This is the entry point used when building similarity matrices between
/// entities of two data sets.
pub fn term_similarity(ds_a: &Dataset, a: Term, ds_b: &Dataset, b: Term) -> f64 {
    let va = typed_value(ds_a, a);
    let vb = typed_value(ds_b, b);
    value_similarity(&va, &vb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Date;
    use alex_rdf::vocab;

    #[test]
    fn text_text_uses_string_similarity() {
        let a = TypedValue::Text("LeBron James".into());
        let b = TypedValue::Text("lebron_james".into());
        assert_eq!(value_similarity(&a, &b), 1.0);
    }

    #[test]
    fn numeric_pairs() {
        assert_eq!(
            value_similarity(&TypedValue::Integer(10), &TypedValue::Integer(10)),
            1.0
        );
        assert!(value_similarity(&TypedValue::Integer(10), &TypedValue::Float(9.5)) > 0.9);
    }

    #[test]
    fn date_year_mixed() {
        let d = TypedValue::Date(Date::parse("1984-12-30").unwrap());
        let y = TypedValue::Year(1984);
        assert_eq!(value_similarity(&d, &y), 1.0);
    }

    #[test]
    fn year_integer_mixed() {
        let y = TypedValue::Year(1984);
        let i = TypedValue::Integer(1984);
        assert_eq!(value_similarity(&y, &i), 1.0);
    }

    #[test]
    fn iri_exact_and_local_name() {
        let a = TypedValue::Iri("http://a/LeBron_James".into());
        let b = TypedValue::Iri("http://b/ns#LeBron_James".into());
        assert_eq!(value_similarity(&a, &a), 1.0);
        assert_eq!(value_similarity(&a, &b), 1.0);
    }

    #[test]
    fn text_coerces_to_partner_type() {
        let t = TypedValue::Text("1984".into());
        let y = TypedValue::Year(1984);
        assert_eq!(value_similarity(&t, &y), 1.0);
    }

    #[test]
    fn text_number_fallback_to_lexical() {
        let t = TypedValue::Text("nineteen".into());
        let y = TypedValue::Year(1984);
        let s = value_similarity(&t, &y);
        assert!((0.0..1.0).contains(&s));
    }

    #[test]
    fn iri_vs_literal_compares_local_name() {
        let iri = TypedValue::Iri("http://e/Miami_Heat".into());
        let txt = TypedValue::Text("Miami Heat".into());
        assert_eq!(value_similarity(&iri, &txt), 1.0);
    }

    #[test]
    fn boolean_vs_date_is_zero() {
        let b = TypedValue::Boolean(true);
        let d = TypedValue::Date(Date::parse("2000-01-01").unwrap());
        assert_eq!(value_similarity(&b, &d), 0.0);
    }

    #[test]
    fn symmetry_across_kinds() {
        let pairs = [
            (TypedValue::Text("abc".into()), TypedValue::Integer(3)),
            (
                TypedValue::Year(1990),
                TypedValue::Date(Date::parse("1992-05-01").unwrap()),
            ),
            (
                TypedValue::Iri("http://e/X".into()),
                TypedValue::Text("X".into()),
            ),
        ];
        for (a, b) in &pairs {
            assert!((value_similarity(a, b) - value_similarity(b, a)).abs() < 1e-12);
        }
    }

    #[test]
    fn term_similarity_across_datasets() {
        let mut ds1 = Dataset::new("a");
        let mut ds2 = Dataset::new("b");
        let t1 = ds1.plain("LeBron James");
        let t2 = ds2.plain("LeBron_James");
        assert_eq!(term_similarity(&ds1, t1, &ds2, t2), 1.0);

        let y1 = ds1.typed("1984", vocab::XSD_GYEAR);
        let y2 = ds2.plain("1984");
        assert_eq!(term_similarity(&ds1, y1, &ds2, y2), 1.0);
    }
}
