//! The link space: filtered feature sets for candidate entity pairs, with
//! per-feature score indexes for exploration queries.
//!
//! "ALEX explores links in a space of feature sets. This space is populated
//! in a pre-processing step, with a feature set for every pair of entities
//! in the two data sets" (§3.2), filtered by θ (§6.1). Enumerating every
//! pair is quadratic, so — like every linking system at LOD scale — we
//! enumerate candidates by token blocking and keep exactly the pairs whose
//! feature set survives the θ filter. The arithmetic total (for the paper's
//! Fig. 5 comparison) is exposed as [`LinkSpace::total_possible`].
//!
//! The exploration primitive (§4.2) — "find all links whose value for
//! feature `f` lies in `[v − step, v + step]`" — is served by per-feature
//! arrays sorted by score (binary search, output-linear).
//!
//! Everything a build derives from the two data sets alone — entity
//! indexes, prepared attribute values, blocked candidates — lives in
//! [`SpaceInputs`], so the partitioned driver (§6.2) prepares it once and
//! every partition's space shares it.

use std::collections::HashMap;
use std::sync::Arc;

use alex_linking::{candidate_pairs, BlockingConfig};
use alex_rdf::{Dataset, EntityIndex, Term};

use crate::feature::{FeatureCatalog, FeatureId, FeatureSet};
use crate::simmatrix::{feature_set, intern_feature_set, raw_feature_set};
use crate::values::SideValues;

/// Dense id of an entity pair in the link space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PairId(pub u32);

/// Configuration for building a link space.
#[derive(Debug, Clone)]
pub struct SpaceConfig {
    /// θ — similarity entries below this are discarded (§6.1).
    pub theta: f64,
    /// Blocking configuration for candidate enumeration.
    pub blocking: BlockingConfig,
    /// Equal-size partition restriction (§6.2): `Some((i, n))` keeps only
    /// left entities with `id % n == i`. Ids remain global, so partitions
    /// agree on entity identity.
    pub partition: Option<(usize, usize)>,
}

impl Default for SpaceConfig {
    fn default() -> Self {
        SpaceConfig {
            theta: 0.3,
            blocking: BlockingConfig::default(),
            partition: None,
        }
    }
}

/// Entity indexes and prepared attribute values of both data sets. Built
/// once per pair of data sets and shared, behind an [`Arc`], by every
/// space built from them and every clone of those spaces.
#[derive(Debug)]
struct Sides {
    left_index: EntityIndex,
    right_index: EntityIndex,
    left_values: SideValues,
    right_values: SideValues,
}

/// The inputs of a link-space build that depend only on the two data sets
/// and the blocking configuration: both entity indexes, both sides'
/// prepared attribute values, and the blocked candidate pairs in blocking
/// order.
///
/// [`LinkSpace::build`] prepares them for one space; the partitioned
/// driver prepares them once and builds every partition's space from them
/// with [`LinkSpace::from_inputs`], which yields exactly the space
/// `LinkSpace::build` yields for that partition.
#[derive(Debug)]
pub struct SpaceInputs {
    sides: Arc<Sides>,
    candidates: Vec<(u32, u32)>,
}

impl SpaceInputs {
    /// Index both data sets, prepare every entity's attribute values, and
    /// enumerate the blocked candidate pairs.
    pub fn prepare(left: &Dataset, right: &Dataset, blocking: &BlockingConfig) -> SpaceInputs {
        let left_index = left.entity_index();
        let right_index = right.entity_index();
        // One interner spans both sides: the interned-Jaccard kernel
        // compares token ids across data sets, so both must intern into
        // the same id space.
        let mut interner = alex_sim::TokenInterner::new();
        let left_values = SideValues::build(left, &left_index, &mut interner);
        let right_values = SideValues::build(right, &right_index, &mut interner);
        let candidates = candidate_pairs(left, &left_index, right, &right_index, blocking);
        SpaceInputs {
            sides: Arc::new(Sides {
                left_index,
                right_index,
                left_values,
                right_values,
            }),
            candidates,
        }
    }

    /// The left entity index.
    pub fn left_index(&self) -> &EntityIndex {
        &self.sides.left_index
    }

    /// The right entity index.
    pub fn right_index(&self) -> &EntityIndex {
        &self.sides.right_index
    }
}

/// The filtered space of candidate links.
#[derive(Debug, Clone)]
pub struct LinkSpace {
    catalog: FeatureCatalog,
    sides: Arc<Sides>,
    pairs: Vec<(u32, u32)>,
    pair_lookup: HashMap<(u32, u32), PairId>,
    features: Vec<FeatureSet>,
    by_feature: HashMap<FeatureId, Vec<(f64, PairId)>>,
    theta: f64,
    blocked_pairs: usize,
    admitted: Vec<(u32, u32)>,
}

impl LinkSpace {
    /// Build the space for a pair of data sets.
    pub fn build(left: &Dataset, right: &Dataset, cfg: &SpaceConfig) -> LinkSpace {
        let inputs = SpaceInputs::prepare(left, right, &cfg.blocking);
        LinkSpace::from_inputs(&inputs, cfg.theta, cfg.partition)
    }

    /// Build the space at θ = `theta` from prepared inputs, restricted to
    /// `partition` as in [`SpaceConfig::partition`]. The space shares the
    /// inputs' indexes and prepared values rather than copying them.
    pub fn from_inputs(
        inputs: &SpaceInputs,
        theta: f64,
        partition: Option<(usize, usize)>,
    ) -> LinkSpace {
        let restricted: Vec<(u32, u32)>;
        let candidates: &[(u32, u32)] = match partition {
            Some((i, n)) => {
                assert!(n > 0 && i < n, "partition index out of range");
                restricted = inputs
                    .candidates
                    .iter()
                    .copied()
                    .filter(|&(l, _)| l as usize % n == i)
                    .collect();
                &restricted
            }
            None => &inputs.candidates,
        };
        let blocked_pairs = candidates.len();
        let sides = Arc::clone(&inputs.sides);

        // Similarity is the O(pairs × attrs²) hot loop: workers compute
        // catalog-free raw feature sets for candidate chunks, then the
        // ordered merge below interns them in original candidate order —
        // the exact intern sequence the sequential loop produces, so
        // feature ids (and everything downstream) are byte-identical at
        // any thread count.
        let pool = alex_parallel::Pool::new("space_build");
        let raw = pool.map(candidates, |&(l, r)| {
            raw_feature_set(
                sides.left_values.attrs(l),
                sides.right_values.attrs(r),
                theta,
            )
        });

        let mut catalog = FeatureCatalog::new();
        let mut pairs = Vec::new();
        let mut features: Vec<FeatureSet> = Vec::new();
        for (&(l, r), raw_sf) in candidates.iter().zip(raw) {
            if raw_sf.is_empty() {
                continue;
            }
            pairs.push((l, r));
            features.push(intern_feature_set(raw_sf, &mut catalog));
        }

        let pair_lookup = pairs
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, PairId(i as u32)))
            .collect();
        let mut space = LinkSpace {
            catalog,
            sides,
            pairs,
            pair_lookup,
            features,
            by_feature: HashMap::new(),
            theta,
            blocked_pairs,
            admitted: Vec::new(),
        };
        space.rebuild_feature_index();
        space
    }

    fn rebuild_feature_index(&mut self) {
        let mut by_feature: HashMap<FeatureId, Vec<(f64, PairId)>> = HashMap::new();
        for (i, sf) in self.features.iter().enumerate() {
            for &(f, score) in sf {
                by_feature
                    .entry(f)
                    .or_default()
                    .push((score, PairId(i as u32)));
            }
        }
        for list in by_feature.values_mut() {
            list.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        }
        self.by_feature = by_feature;
    }

    /// Number of pairs in the filtered space.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The arithmetic number of possible pairs (before any filtering) —
    /// `|left entities in partition| × |right entities|`, the paper's
    /// "TotalLinks" bar in Fig. 5(a).
    pub fn total_possible(&self) -> u64 {
        self.sides.left_index.len() as u64 * self.sides.right_index.len() as u64
    }

    /// Number of candidate pairs enumerated by blocking, before the θ filter.
    pub fn blocked_pairs(&self) -> usize {
        self.blocked_pairs
    }

    /// θ used when building this space.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The feature catalog.
    pub fn catalog(&self) -> &FeatureCatalog {
        &self.catalog
    }

    /// The left entity index.
    pub fn left_index(&self) -> &EntityIndex {
        &self.sides.left_index
    }

    /// The right entity index.
    pub fn right_index(&self) -> &EntityIndex {
        &self.sides.right_index
    }

    /// Entity ids of a pair.
    pub fn pair(&self, id: PairId) -> (u32, u32) {
        self.pairs[id.0 as usize]
    }

    /// Entity terms of a pair.
    pub fn pair_terms(&self, id: PairId) -> (Term, Term) {
        let (l, r) = self.pair(id);
        (
            self.sides.left_index.term(l),
            self.sides.right_index.term(r),
        )
    }

    /// The pair id for `(left, right)` entity ids, if in the space.
    pub fn id_of(&self, left: u32, right: u32) -> Option<PairId> {
        self.pair_lookup.get(&(left, right)).copied()
    }

    /// The state feature set of a pair (§4.1).
    pub fn feature_set_of(&self, id: PairId) -> &FeatureSet {
        &self.features[id.0 as usize]
    }

    /// Iterate over all pair ids.
    pub fn pair_ids(&self) -> impl Iterator<Item = PairId> {
        (0..self.pairs.len() as u32).map(PairId)
    }

    /// Ensure `(left, right)` is in the space (used to admit initial
    /// candidate links that blocking did not enumerate). Computes the
    /// feature set on demand; a pair with no feature above θ is still
    /// admitted with an empty set (it is a candidate link, just one with no
    /// exploration directions).
    pub fn ensure_pair(&mut self, left: u32, right: u32) -> PairId {
        if let Some(id) = self.id_of(left, right) {
            return id;
        }
        let sf = feature_set(
            self.sides.left_values.attrs(left),
            self.sides.right_values.attrs(right),
            self.theta,
            &mut self.catalog,
        );
        let id = PairId(self.pairs.len() as u32);
        for &(f, score) in &sf {
            let list = self.by_feature.entry(f).or_default();
            let pos = list.partition_point(|&(s, _)| s < score);
            list.insert(pos, (score, id));
        }
        self.pairs.push((left, right));
        self.pair_lookup.insert((left, right), id);
        self.features.push(sf);
        self.admitted.push((left, right));
        id
    }

    /// Every pair admitted by [`LinkSpace::ensure_pair`] after the build, in
    /// admission order. Replaying this log against a freshly built space
    /// reproduces the exact same `PairId` (and `FeatureId`) assignments, which
    /// is what lets crash recovery persist raw ids.
    pub fn admissions(&self) -> &[(u32, u32)] {
        &self.admitted
    }

    /// Order-sensitive FNV-1a fingerprint of the built space: the pair list,
    /// the catalog's feature definitions, and θ. Two spaces with the same
    /// fingerprint assign the same `PairId`/`FeatureId` meanings, so a
    /// snapshot taken against one can be restored against the other.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        mix(self.pairs.len() as u64);
        for &(l, r) in &self.pairs {
            mix(u64::from(l));
            mix(u64::from(r));
        }
        for (f, fp) in self.catalog.iter() {
            mix(u64::from(f.0));
            mix(fp.left.index() as u64);
            mix(fp.right.index() as u64);
        }
        mix(self.theta.to_bits());
        h
    }

    /// The exploration query (§4.2): all pairs whose score for `feature`
    /// lies in `[center − step, center + step]`.
    pub fn explore(&self, feature: FeatureId, center: f64, step: f64) -> Vec<PairId> {
        let Some(list) = self.by_feature.get(&feature) else {
            return Vec::new();
        };
        let lo = center - step;
        let hi = center + step;
        let start = list.partition_point(|&(s, _)| s < lo);
        let end = list.partition_point(|&(s, _)| s <= hi);
        list[start..end].iter().map(|&(_, id)| id).collect()
    }

    /// Linear-scan reference implementation of [`LinkSpace::explore`], used
    /// by tests and the ablation bench.
    pub fn explore_scan(&self, feature: FeatureId, center: f64, step: f64) -> Vec<PairId> {
        let lo = center - step;
        let hi = center + step;
        let mut out = Vec::new();
        for id in self.pair_ids() {
            if let Some(score) = crate::feature::feature_score(self.feature_set_of(id), feature) {
                if (lo..=hi).contains(&score) {
                    out.push(id);
                }
            }
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn datasets() -> (Dataset, Dataset) {
        let mut left = Dataset::new("L");
        let mut right = Dataset::new("R");
        for (i, name) in [
            "LeBron James",
            "Michael Jordan",
            "Tim Duncan",
            "Kobe Bryant",
        ]
        .iter()
        .enumerate()
        {
            left.add_str(&format!("http://l/{i}"), "http://l/label", name);
            left.add_str(&format!("http://l/{i}"), "http://l/type", "player");
            right.add_str(&format!("http://r/{i}"), "http://r/name", name);
            right.add_str(&format!("http://r/{i}"), "http://r/class", "player");
        }
        (left, right)
    }

    #[test]
    fn build_keeps_pairs_above_theta() {
        let (left, right) = datasets();
        let space = LinkSpace::build(&left, &right, &SpaceConfig::default());
        assert!(!space.is_empty());
        // Every matched pair carries at least the name feature.
        for id in space.pair_ids() {
            assert!(!space.feature_set_of(id).is_empty());
        }
    }

    #[test]
    fn total_possible_is_arithmetic() {
        let (left, right) = datasets();
        let space = LinkSpace::build(&left, &right, &SpaceConfig::default());
        assert_eq!(space.total_possible(), 16);
        assert!(space.len() as u64 <= space.total_possible());
    }

    #[test]
    fn pair_round_trips() {
        let (left, right) = datasets();
        let space = LinkSpace::build(&left, &right, &SpaceConfig::default());
        for id in space.pair_ids() {
            let (l, r) = space.pair(id);
            assert_eq!(space.id_of(l, r), Some(id));
            let (lt, rt) = space.pair_terms(id);
            assert_eq!(space.left_index().id(lt), Some(l));
            assert_eq!(space.right_index().id(rt), Some(r));
        }
    }

    #[test]
    fn explore_matches_scan_reference() {
        let (left, right) = datasets();
        let space = LinkSpace::build(&left, &right, &SpaceConfig::default());
        for (f, _) in space.catalog().iter() {
            for center in [0.3, 0.5, 0.8, 1.0] {
                let mut a = space.explore(f, center, 0.1);
                let mut b = space.explore_scan(f, center, 0.1);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "feature {f:?} center {center}");
            }
        }
    }

    #[test]
    fn explore_around_one_finds_exact_matches() {
        let (left, right) = datasets();
        let space = LinkSpace::build(&left, &right, &SpaceConfig::default());
        // The (label, name) feature at score 1.0 ± 0.05 finds the 4 exact
        // name matches.
        let label = left.interner().get("http://l/label").unwrap();
        let name = right.interner().get("http://r/name").unwrap();
        let f = space
            .catalog()
            .get(crate::feature::FeaturePair {
                left: label,
                right: name,
            })
            .unwrap();
        let found = space.explore(f, 1.0, 0.05);
        assert!(found.len() >= 4);
        let exact: Vec<_> = found
            .iter()
            .filter(|&&id| {
                let (l, r) = space.pair(id);
                l == r
            })
            .collect();
        assert_eq!(exact.len(), 4);
    }

    #[test]
    fn ensure_pair_admits_new_pairs() {
        let (left, right) = datasets();
        let mut space = LinkSpace::build(&left, &right, &SpaceConfig::default());
        let before = space.len();
        // (0, 1) = LeBron vs Jordan: same type, different names; blocking
        // may or may not have admitted it. Force-admit and verify.
        let id = space.ensure_pair(0, 1);
        assert_eq!(space.id_of(0, 1), Some(id));
        assert!(space.len() >= before);
        // Idempotent.
        assert_eq!(space.ensure_pair(0, 1), id);
    }

    #[test]
    fn ensure_pair_updates_feature_index() {
        let (left, right) = datasets();
        let mut space = LinkSpace::build(&left, &right, &SpaceConfig::default());
        let id = space.ensure_pair(0, 1);
        for &(f, score) in space.feature_set_of(id).clone().iter() {
            let found = space.explore(f, score, 0.001);
            assert!(found.contains(&id), "feature index missing new pair");
        }
    }

    #[test]
    fn partition_restricts_left_side() {
        let (left, right) = datasets();
        let cfg = SpaceConfig {
            partition: Some((0, 2)),
            ..SpaceConfig::default()
        };
        let space = LinkSpace::build(&left, &right, &cfg);
        for id in space.pair_ids() {
            let (l, _) = space.pair(id);
            assert_eq!(l % 2, 0);
        }
    }

    #[test]
    fn partitions_cover_the_space() {
        let (left, right) = datasets();
        let full = LinkSpace::build(&left, &right, &SpaceConfig::default());
        let mut total = 0;
        for i in 0..3 {
            let cfg = SpaceConfig {
                partition: Some((i, 3)),
                ..SpaceConfig::default()
            };
            total += LinkSpace::build(&left, &right, &cfg).len();
        }
        assert_eq!(total, full.len());
    }

    /// Spaces built from one shared [`SpaceInputs`] are exactly the spaces
    /// per-partition [`LinkSpace::build`] calls give: same pairs, feature
    /// ids, feature definitions, score bits and fingerprint, at 1 and 4
    /// threads.
    #[test]
    fn shared_inputs_match_per_partition_builds() {
        use alex_datagen::{generate_pair, DatasetKind, PairSpec};
        let spec = PairSpec::of(DatasetKind::OpenCycNba, DatasetKind::NYTimes);
        let pair = generate_pair(&spec.config(11));
        let (left, right) = (&pair.left, &pair.right);
        let cfg = SpaceConfig::default();
        let fingerprint_of = |space: &LinkSpace| {
            let features: Vec<Vec<(FeatureId, u64)>> = space
                .pair_ids()
                .map(|id| {
                    let sf = space.feature_set_of(id);
                    sf.iter().map(|&(f, score)| (f, score.to_bits())).collect()
                })
                .collect();
            let catalog: Vec<_> = space.catalog().iter().collect();
            (
                space.fingerprint(),
                space
                    .pair_ids()
                    .map(|id| space.pair(id))
                    .collect::<Vec<_>>(),
                features,
                format!("{catalog:?}"),
                space.blocked_pairs(),
            )
        };
        for threads in [1, 4] {
            alex_parallel::set_threads(threads);
            let inputs = SpaceInputs::prepare(left, right, &cfg.blocking);
            for n in [1, 3, 4] {
                for i in 0..n {
                    let shared = LinkSpace::from_inputs(&inputs, cfg.theta, Some((i, n)));
                    let alone = LinkSpace::build(
                        left,
                        right,
                        &SpaceConfig {
                            partition: Some((i, n)),
                            ..cfg.clone()
                        },
                    );
                    assert!(!alone.is_empty(), "partition {i}/{n} is empty");
                    assert_eq!(
                        fingerprint_of(&shared),
                        fingerprint_of(&alone),
                        "partition {i}/{n} at {threads} threads"
                    );
                }
            }
            let whole = LinkSpace::from_inputs(&inputs, cfg.theta, None);
            let alone = LinkSpace::build(left, right, &cfg);
            assert_eq!(fingerprint_of(&whole), fingerprint_of(&alone));
            alex_parallel::set_threads(0);
        }
    }

    #[test]
    fn clones_share_prepared_sides() {
        let (left, right) = datasets();
        let space = LinkSpace::build(&left, &right, &SpaceConfig::default());
        let copy = space.clone();
        assert!(Arc::ptr_eq(&space.sides, &copy.sides));
    }

    #[test]
    #[should_panic(expected = "partition index")]
    fn bad_partition_panics() {
        let (left, right) = datasets();
        let cfg = SpaceConfig {
            partition: Some((3, 3)),
            ..SpaceConfig::default()
        };
        let _ = LinkSpace::build(&left, &right, &cfg);
    }

    #[test]
    fn higher_theta_shrinks_space() {
        let (left, right) = datasets();
        let lo = LinkSpace::build(
            &left,
            &right,
            &SpaceConfig {
                theta: 0.1,
                ..SpaceConfig::default()
            },
        );
        let hi = LinkSpace::build(
            &left,
            &right,
            &SpaceConfig {
                theta: 0.9,
                ..SpaceConfig::default()
            },
        );
        assert!(hi.len() <= lo.len());
    }
}
