//! Pre-normalized, pre-tokenized values: pay string preparation once.
//!
//! [`crate::string_similarity`] normalizes both inputs, tokenizes them,
//! decodes every token's UTF-8 once per token pair, and builds per-call
//! `HashSet`s for Jaccard — on *every* call. Inside the linking hot loops
//! the same literals are compared millions of times, so this module moves
//! all of that to a one-time preparation step:
//!
//! * [`TokenInterner`] maps normalized tokens to dense `u32` ids shared by
//!   both data sets being compared;
//! * [`PreparedText`] stores a string's normalized tokens decoded to
//!   `char`s, and its *sorted, deduplicated* token-id set;
//! * [`jaccard_ids`] computes token-set Jaccard by a linear merge of two
//!   sorted id slices — no allocation, no hashing;
//! * [`PreparedValue`] wraps a [`TypedValue`] with the prepared text of its
//!   string form (a text, an IRI's local name, or the rendering of a
//!   number, date or boolean) and, for text, its sniffed typed value;
//! * [`prepared_similarity`] scores two prepared values **byte-identically
//!   to [`crate::value_similarity`]** on the raw values (property-tested),
//!   mirroring its dispatch arm for arm on the precomputed forms.
//!
//! Token pairs are scored by the char-slice kernels in
//! `string::kernel`, which allocate nothing for tokens of up to 64 chars.

use std::collections::HashMap;

use crate::combined::render;
use crate::string::kernel::token_similarity_chars;
use crate::string::{normalize, tokenize};
use crate::value::{iri_local_name, sniff, TypedValue};

/// Interns normalized tokens as dense `u32` ids.
///
/// Ids are only meaningful relative to the interner that produced them;
/// both sides of a comparison must share one interner.
#[derive(Debug, Default, Clone)]
pub struct TokenInterner {
    lookup: HashMap<String, u32>,
}

impl TokenInterner {
    /// An empty interner.
    pub fn new() -> TokenInterner {
        TokenInterner::default()
    }

    /// Intern `token`, returning its dense id. Idempotent.
    pub fn intern(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.lookup.get(token) {
            return id;
        }
        let id = u32::try_from(self.lookup.len()).unwrap_or(u32::MAX);
        self.lookup.insert(token.to_string(), id);
        id
    }

    /// Number of distinct tokens interned.
    pub fn len(&self) -> usize {
        self.lookup.len()
    }

    /// Whether no token has been interned.
    pub fn is_empty(&self) -> bool {
        self.lookup.is_empty()
    }
}

/// Jaccard similarity of two **sorted, deduplicated** token-id slices:
/// `|A∩B| / |A∪B|` by a single linear merge.
///
/// Matches [`crate::jaccard_tokens`] exactly when the slices hold the
/// interned normalized tokens of the two strings (both-empty ⇒ 1.0,
/// one-empty ⇒ 0.0).
pub fn jaccard_ids(a: &[u32], b: &[u32]) -> f64 {
    debug_assert!(
        a.windows(2).all(|w| w[0] < w[1]),
        "ids must be sorted+dedup"
    );
    debug_assert!(
        b.windows(2).all(|w| w[0] < w[1]),
        "ids must be sorted+dedup"
    );
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut i = 0;
    let mut j = 0;
    let mut intersection = 0usize;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                intersection += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - intersection;
    intersection as f64 / union as f64
}

/// A string prepared for repeated comparison: normalized once, tokenized
/// once, tokens decoded to `char`s once, token ids sorted once.
#[derive(Debug, Clone, Default)]
pub struct PreparedText {
    /// The normalized tokens' chars, back to back. The normalized form is
    /// the tokens joined by single spaces, so two texts have equal
    /// normalized forms exactly when `chars` and `ends` are equal.
    chars: Box<[char]>,
    /// Each token's end offset into `chars`, in token order.
    ends: Box<[u32]>,
    /// Sorted, deduplicated ids of the tokens `jaccard_tokens` would see
    /// (i.e. the tokens of `normalize(normalize(raw))`, matching its
    /// re-normalizing behaviour exactly).
    token_ids: Box<[u32]>,
}

impl PreparedText {
    /// Normalize and tokenize `raw`, interning its Jaccard tokens.
    pub fn prepare(raw: &str, interner: &mut TokenInterner) -> PreparedText {
        let norm = normalize(raw);
        let mut chars = Vec::with_capacity(norm.len());
        let mut ends = Vec::new();
        for tok in tokenize(&norm) {
            chars.extend(tok.chars());
            ends.push(u32::try_from(chars.len()).expect("a text's char count fits u32"));
        }
        // `jaccard_tokens(&norm, _)` re-normalizes its input; normalization
        // is idempotent for the common cases but the re-derived tokens are
        // what the oracle hashes, so intern exactly those.
        let renorm = normalize(&norm);
        let mut token_ids: Vec<u32> = tokenize(&renorm)
            .into_iter()
            .map(|tok| interner.intern(tok))
            .collect();
        token_ids.sort_unstable();
        token_ids.dedup();
        PreparedText {
            chars: chars.into(),
            ends: ends.into(),
            token_ids: token_ids.into(),
        }
    }

    /// The normalized tokens as char slices, in order.
    pub fn tokens(&self) -> impl Iterator<Item = &[char]> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let token = &self.chars[start..end as usize];
            start = end as usize;
            token
        })
    }

    /// Sorted, deduplicated token ids (the Jaccard set).
    pub fn token_ids(&self) -> &[u32] {
        &self.token_ids
    }
}

/// Similarity of two prepared strings — byte-identical to
/// [`crate::string_similarity`] on the raw strings.
pub fn prepared_string_similarity(a: &PreparedText, b: &PreparedText) -> f64 {
    if a.chars == b.chars && a.ends == b.ends {
        return 1.0;
    }
    let me = monge_elkan(a, b);
    (me * me).max(jaccard_ids(&a.token_ids, &b.token_ids))
}

/// Column maxima for token lists up to this long live on the stack.
const STACK_TOKENS: usize = 32;

/// Symmetric Monge-Elkan over prepared tokens, bitwise equal to the
/// string path's `monge_elkan_tokens`.
///
/// The token measure is bitwise symmetric — Jaro-Winkler counts matches
/// and transpositions identically in both directions and IEEE addition
/// commutes; Levenshtein distance is an exact integer — so one pass over
/// the token matrix yields both directions: row maxima for `a → b`,
/// column maxima for `b → a`, each accumulated in the order the reference
/// folds them.
fn monge_elkan(a: &PreparedText, b: &PreparedText) -> f64 {
    let (na, nb) = (a.ends.len(), b.ends.len());
    if na == 0 && nb == 0 {
        return 1.0;
    }
    if na == 0 || nb == 0 {
        return 0.0;
    }
    let mut stack = [0.0f64; STACK_TOKENS];
    let mut heap = Vec::new();
    let col_max: &mut [f64] = if nb <= STACK_TOKENS {
        &mut stack[..nb]
    } else {
        heap.resize(nb, 0.0);
        &mut heap
    };
    let mut forward = 0.0f64;
    for x in a.tokens() {
        let mut row_max = 0.0f64;
        for (y, col) in b.tokens().zip(col_max.iter_mut()) {
            let sim = token_similarity_chars(x, y);
            row_max = row_max.max(sim);
            *col = col.max(sim);
        }
        forward += row_max;
    }
    let backward: f64 = col_max.iter().sum();
    (forward / na as f64 + backward / nb as f64) / 2.0
}

/// A [`TypedValue`] with everything [`prepared_similarity`] needs
/// precomputed.
#[derive(Debug, Clone)]
pub struct PreparedValue {
    value: TypedValue,
    /// The string form the value is compared by against text: a `Text`
    /// value's text, an IRI's local name, or the lexical rendering of a
    /// number, date or boolean.
    text: PreparedText,
    /// A `Text` value's sniffed typed value, when that is not text.
    sniffed: Option<TypedValue>,
}

impl PreparedValue {
    /// Prepare `value` for repeated comparison.
    pub fn prepare(value: TypedValue, interner: &mut TokenInterner) -> PreparedValue {
        let (text, sniffed) = match &value {
            TypedValue::Text(s) => (
                PreparedText::prepare(s, interner),
                Some(sniff(s)).filter(|v| !matches!(v, TypedValue::Text(_))),
            ),
            TypedValue::Iri(s) => (PreparedText::prepare(iri_local_name(s), interner), None),
            other => (PreparedText::prepare(&render(other), interner), None),
        };
        PreparedValue {
            value,
            text,
            sniffed,
        }
    }

    /// The underlying typed value.
    pub fn value(&self) -> &TypedValue {
        &self.value
    }

    /// The prepared string form: the text, an IRI's local name, or the
    /// rendering of any other kind.
    pub fn text(&self) -> &PreparedText {
        &self.text
    }

    /// Whether the value is compared as a string against every partner
    /// (`Text` and `Iri`), rather than by a numeric or temporal measure.
    pub fn is_texty(&self) -> bool {
        matches!(self.value, TypedValue::Text(_) | TypedValue::Iri(_))
    }
}

/// Similarity of two prepared values, in [0, 1] — byte-identical to
/// [`crate::value_similarity`] on the underlying [`TypedValue`]s
/// (property-tested in `tests/properties.rs`).
///
/// Every arm of the generic dispatch that compares strings runs here on
/// the precomputed forms, with the same argument order: text↔text,
/// IRI↔IRI, text↔anything (through the text's precomputed sniffed value
/// when it has the partner's kind, else against the partner's prepared
/// rendering), and IRI↔literal. Only numeric, temporal and boolean pairs
/// reach [`crate::value_similarity`], whose arms for those kinds are plain
/// arithmetic. Token pairs of at most 64 chars allocate nothing; longer
/// tokens take the allocating reference kernels.
pub fn prepared_similarity(a: &PreparedValue, b: &PreparedValue) -> f64 {
    use TypedValue as V;
    match (&a.value, &b.value) {
        (V::Text(_), V::Text(_)) => prepared_string_similarity(&a.text, &b.text),
        // IRI equality short-circuits before any string work.
        (V::Iri(x), V::Iri(y)) => {
            if x == y {
                1.0
            } else {
                prepared_string_similarity(&a.text, &b.text)
            }
        }
        (V::Text(_), _) => text_against(a, b),
        (_, V::Text(_)) => text_against(b, a),
        // IRI against a literal value: local name against rendering.
        (V::Iri(_), _) => prepared_string_similarity(&a.text, &b.text),
        (_, V::Iri(_)) => prepared_string_similarity(&b.text, &a.text),
        _ => crate::value_similarity(&a.value, &b.value),
    }
}

/// A text value against a non-text partner: natively when the text sniffs
/// to the partner's kind, else text against the partner's string form
/// (sniffing never yields an IRI, so IRIs always take the string path).
fn text_against(text: &PreparedValue, other: &PreparedValue) -> f64 {
    match &text.sniffed {
        Some(sniffed) if sniffed.type_name() == other.value.type_name() => {
            crate::value_similarity(sniffed, &other.value)
        }
        _ => prepared_string_similarity(&text.text, &other.text),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::{string_similarity, value_similarity};

    fn prep(v: TypedValue, i: &mut TokenInterner) -> PreparedValue {
        PreparedValue::prepare(v, i)
    }

    #[test]
    fn jaccard_ids_matches_hashset_semantics() {
        assert_eq!(jaccard_ids(&[], &[]), 1.0);
        assert_eq!(jaccard_ids(&[], &[1]), 0.0);
        assert_eq!(jaccard_ids(&[1, 2], &[2, 3]), 1.0 / 3.0);
        assert_eq!(jaccard_ids(&[1, 2, 3], &[1, 2, 3]), 1.0);
    }

    #[test]
    fn prepared_text_matches_string_similarity() {
        let cases = [
            ("LeBron James", "lebron_james"),
            ("New York Times", "NY Times"),
            ("ibuprofen", "semantic web"),
            ("", ""),
            ("", "abc"),
            ("Café MÜNCHEN", "cafe munchen"),
            ("a b c", "c b a"),
        ];
        let mut interner = TokenInterner::new();
        for (a, b) in cases {
            let pa = PreparedText::prepare(a, &mut interner);
            let pb = PreparedText::prepare(b, &mut interner);
            let got = prepared_string_similarity(&pa, &pb);
            let want = string_similarity(a, b);
            assert_eq!(got.to_bits(), want.to_bits(), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn prepared_value_matches_value_similarity_across_kinds() {
        use crate::value::Date;
        let values = [
            TypedValue::Text("LeBron James".into()),
            TypedValue::Text("1984".into()),
            TypedValue::Text("29".into()),
            TypedValue::Text("3.25".into()),
            TypedValue::Text("1984-12-30".into()),
            TypedValue::Text("true".into()),
            TypedValue::Iri("http://e/LeBron_James".into()),
            TypedValue::Iri("http://e/1984".into()),
            TypedValue::Iri("http://e/ns#Miami_Heat".into()),
            TypedValue::Integer(1984),
            TypedValue::Float(3.25),
            TypedValue::Year(1984),
            TypedValue::Date(Date::parse("1984-12-30").unwrap()),
            TypedValue::Boolean(true),
            TypedValue::Boolean(false),
            TypedValue::Integer(-7),
        ];
        let mut interner = TokenInterner::new();
        let prepared: Vec<PreparedValue> = values
            .iter()
            .map(|v| prep(v.clone(), &mut interner))
            .collect();
        for (i, a) in prepared.iter().enumerate() {
            for (j, b) in prepared.iter().enumerate() {
                let got = prepared_similarity(a, b);
                let want = value_similarity(&values[i], &values[j]);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{:?} vs {:?}",
                    values[i],
                    values[j]
                );
            }
        }
    }

    #[test]
    fn tokens_are_decoded_in_order() {
        let mut interner = TokenInterner::new();
        let p = PreparedText::prepare("Café_MÜNCHEN  x", &mut interner);
        let tokens: Vec<String> = p.tokens().map(|t| t.iter().collect()).collect();
        assert_eq!(tokens, ["café", "münchen", "x"]);
        assert_eq!(PreparedText::prepare("", &mut interner).tokens().count(), 0);
    }

    #[test]
    fn only_non_text_sniffs_are_kept() {
        let mut interner = TokenInterner::new();
        let year = prep(TypedValue::Text("1984".into()), &mut interner);
        assert_eq!(year.sniffed, Some(TypedValue::Year(1984)));
        let name = prep(TypedValue::Text("LeBron".into()), &mut interner);
        assert_eq!(name.sniffed, None);
        assert!(name.is_texty() && !prep(TypedValue::Year(1984), &mut interner).is_texty());
    }

    #[test]
    fn token_ids_are_sorted_and_deduped() {
        let mut interner = TokenInterner::new();
        let p = PreparedText::prepare("beta alpha beta gamma alpha", &mut interner);
        let ids = p.token_ids();
        assert_eq!(ids.len(), 3);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn interner_is_idempotent() {
        let mut interner = TokenInterner::new();
        let a = interner.intern("alpha");
        let b = interner.intern("beta");
        assert_ne!(a, b);
        assert_eq!(interner.intern("alpha"), a);
        assert_eq!(interner.len(), 2);
    }
}
