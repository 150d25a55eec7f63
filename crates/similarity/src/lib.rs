//! # alex-sim — typed similarity functions
//!
//! Feature values in ALEX are similarity scores in [0, 1] between the values
//! of two attributes (§4.1). This crate provides:
//!
//! * string measures — normalized Levenshtein, Jaro / Jaro-Winkler, token
//!   Jaccard, n-gram Dice — over a shared normalization pipeline;
//! * numeric, date, year, and boolean measures;
//! * [`TypedValue`] classification of RDF terms (by datatype, or by sniffing
//!   untyped literals);
//! * the combined, type-dispatched entry points [`value_similarity`] and
//!   [`term_similarity`];
//! * the prepared path ([`PreparedValue`], [`prepared_similarity`]) that
//!   the linking and link-space hot loops use: every value prepared once,
//!   every value pair scored bitwise equal to [`value_similarity`], with no
//!   allocation for tokens of up to 64 chars.
//!
//! Every measure is symmetric, returns 1.0 on equal inputs, and stays within
//! [0, 1] (property-tested in `tests/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combined;
pub mod date;
pub mod numeric;
pub mod prepared;
pub mod string;
pub mod value;

pub use combined::{term_similarity, value_similarity};
pub use date::{date_similarity, date_year_similarity, year_similarity};
pub use numeric::{boolean_similarity, relative_numeric, scaled_numeric};
pub use prepared::{
    jaccard_ids, prepared_similarity, prepared_string_similarity, PreparedText, PreparedValue,
    TokenInterner,
};
pub use string::{
    jaccard_tokens, jaro, jaro_winkler, levenshtein, levenshtein_dp, levenshtein_similarity,
    monge_elkan_jw, myers_levenshtein, ngram_dice, normalize, phonetic_token_similarity, soundex,
    string_similarity, trigram_dice,
};
pub use value::{iri_local_name, sniff, typed_value, Date, TypedValue};

/// The char-slice token kernels behind [`prepared_similarity`], reachable
/// only so `tests/properties.rs` can hold them bitwise equal to the string
/// measures. Not part of the crate's API.
#[doc(hidden)]
pub mod token_kernels {
    pub use crate::string::kernel::{
        jaro_winkler_chars, levenshtein_similarity_chars, token_similarity_chars,
    };
}
