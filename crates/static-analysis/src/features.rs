//! Named feature vectors.
//!
//! The paper's testbed (Figure 4) feeds a flat vector of numeric code
//! properties into the machine-learning stage. [`FeatureVector`] is that
//! vector: an ordered map from feature name to value. Collectors append to
//! it; training aligns vectors by name across applications on the sorted
//! name union, and scoring fills a fixed schema through
//! [`FeatureVector::fill_dense`].

use std::borrow::Cow;
use std::fmt;

/// An ordered collection of named numeric features.
///
/// Insertion overwrites: the last writer of a name wins (collectors are
/// expected to use distinct, namespaced names such as `loc.code` or
/// `taint.flows`).
///
/// Internally a name-sorted `Vec` rather than a tree: lookups are binary
/// searches, in-order insertion (how collectors and the wire protocol
/// mostly build vectors) is an append, and the batch-scoring dense fill
/// is a cache-friendly linear merge over a contiguous slice. Names are
/// `Cow<'static, str>`: the collectors' literal names are stored as
/// borrowed statics, so an extraction allocates no string per feature;
/// names built at run time or decoded off the wire are owned.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FeatureVector {
    /// `(name, value)` pairs, sorted by name, names unique.
    values: Vec<(Cow<'static, str>, f64)>,
}

impl FeatureVector {
    /// An empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set feature `name` to `value`. Non-finite values are clamped to 0 so
    /// a degenerate analysis result cannot poison the training matrix.
    pub fn set(&mut self, name: impl Into<Cow<'static, str>>, value: f64) {
        let v = if value.is_finite() { value } else { 0.0 };
        let name = name.into();
        // In-order appends (the common build pattern) skip the search.
        if self.values.last().is_none_or(|(last, _)| *last < name) {
            self.values.push((name, v));
            return;
        }
        match self.values.binary_search_by(|(k, _)| k.cmp(&name)) {
            Ok(i) => self.values[i].1 = v,
            Err(i) => self.values.insert(i, (name, v)),
        }
    }

    /// Fetch a feature by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .binary_search_by(|(k, _)| (**k).cmp(name))
            .ok()
            .map(|i| self.values[i].1)
    }

    /// Fetch a feature, defaulting to 0.0 — convenient for optional
    /// collector families.
    pub fn get_or_zero(&self, name: &str) -> f64 {
        self.get(name).unwrap_or(0.0)
    }

    /// Fill `out` with the value of every name in `names` in order (0.0
    /// for absent names) — equivalent to one [`get_or_zero`] per name.
    /// When `names` is sorted (model schemas are: they come from these
    /// same name-ordered maps), this is a single linear merge over the
    /// underlying sorted map instead of a tree lookup per name; unsorted
    /// runs just restart the merge cursor, so the result is identical
    /// either way. The batch-scoring row-preparation hot path lives on
    /// this.
    ///
    /// [`get_or_zero`]: FeatureVector::get_or_zero
    pub fn fill_dense(&self, names: &[String], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(names.len());
        let values = &self.values;
        let mut i = 0;
        let mut prev: Option<&str> = None;
        for name in names {
            if prev.is_some_and(|p| p > name.as_str()) {
                i = 0;
            }
            prev = Some(name.as_str());
            while i < values.len() && *values[i].0 < *name.as_str() {
                i += 1;
            }
            match values.get(i) {
                Some((k, v)) if **k == *name.as_str() => out.push(*v),
                _ => out.push(0.0),
            }
        }
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no features have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterate `(name, value)` in name order (stable across runs — feature
    /// matrices must align column-wise between training and prediction).
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, v)| (&**k, *v))
    }

    /// The feature names, in order.
    pub fn names(&self) -> Vec<&str> {
        self.values.iter().map(|(k, _)| &**k).collect()
    }

    /// Merge `other` into `self` (other's values win on collision).
    pub fn merge(&mut self, other: &FeatureVector) {
        for (k, v) in &other.values {
            self.set(k.clone(), *v);
        }
    }

    /// Restrict to features whose name starts with `prefix` — used by the
    /// single-family ablation experiment (EXP-UNIFIED).
    pub fn with_prefix(&self, prefix: &str) -> FeatureVector {
        FeatureVector {
            // Filtering a sorted vector keeps it sorted.
            values: self
                .values
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .cloned()
                .collect(),
        }
    }
}

impl fmt::Display for FeatureVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{k} = {v:.4}")?;
        }
        Ok(())
    }
}

impl FromIterator<(String, f64)> for FeatureVector {
    fn from_iter<T: IntoIterator<Item = (String, f64)>>(iter: T) -> Self {
        let mut fv = FeatureVector::new();
        for (k, v) in iter {
            fv.set(k, v);
        }
        fv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_and_default() {
        let mut fv = FeatureVector::new();
        assert!(fv.is_empty());
        fv.set("loc.code", 120.0);
        assert_eq!(fv.get("loc.code"), Some(120.0));
        assert_eq!(fv.get("missing"), None);
        assert_eq!(fv.get_or_zero("missing"), 0.0);
        assert_eq!(fv.len(), 1);
    }

    #[test]
    fn non_finite_values_are_clamped() {
        let mut fv = FeatureVector::new();
        fv.set("a", f64::NAN);
        fv.set("b", f64::INFINITY);
        assert_eq!(fv.get("a"), Some(0.0));
        assert_eq!(fv.get("b"), Some(0.0));
    }

    #[test]
    fn fill_dense_matches_per_name_lookup() {
        let mut fv = FeatureVector::new();
        for (k, v) in [("a", 1.0), ("c", 3.0), ("m", 13.0), ("z", 26.0)] {
            fv.set(k, v);
        }
        // Sorted schema (the fast merge), with gaps and a missing tail.
        let sorted: Vec<String> = ["a", "b", "c", "c", "n", "z", "zz"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        // Unsorted schema (cursor restarts) must agree too.
        let unsorted: Vec<String> = ["z", "a", "m", "a", "q"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        for names in [sorted, unsorted] {
            let mut dense = Vec::new();
            fv.fill_dense(&names, &mut dense);
            let expected: Vec<f64> = names.iter().map(|n| fv.get_or_zero(n)).collect();
            assert_eq!(dense, expected, "names = {names:?}");
        }
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut fv = FeatureVector::new();
        fv.set("z", 1.0);
        fv.set("a", 2.0);
        fv.set("m", 3.0);
        let names: Vec<&str> = fv.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
    }

    #[test]
    fn merge_overwrites() {
        let mut a = FeatureVector::new();
        a.set("x", 1.0);
        a.set("y", 2.0);
        let mut b = FeatureVector::new();
        b.set("y", 9.0);
        b.set("z", 3.0);
        a.merge(&b);
        assert_eq!(a.get("y"), Some(9.0));
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn prefix_filter() {
        let fv: FeatureVector = [
            ("loc.code".to_string(), 1.0),
            ("loc.comment".to_string(), 2.0),
            ("taint.flows".to_string(), 3.0),
        ]
        .into_iter()
        .collect();
        let loc = fv.with_prefix("loc.");
        assert_eq!(loc.len(), 2);
        assert!(loc.get("taint.flows").is_none());
    }

    #[test]
    fn display_formats_lines() {
        let mut fv = FeatureVector::new();
        fv.set("a", 1.5);
        fv.set("b", 2.0);
        assert_eq!(fv.to_string(), "a = 1.5000\nb = 2.0000");
    }
}
