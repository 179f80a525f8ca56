//! Permutations and the paper's `map` vector.
//!
//! Every sorting build (GCSR++, GCSC++, CSF) returns a `map` vector so the
//! caller can reorganize the value payload: *"`map[i]` records the new index
//! of the i-th point in the new `b_coor`"* (§III, Algorithm 3). Two dual
//! representations appear throughout:
//!
//! * a **gather permutation** `perm`: output slot `j` takes input point
//!   `perm[j]` (what an argsort produces);
//! * a **scatter map** `map`: input point `i` lands in output slot `map[i]`
//!   (what the paper's WRITE consumes).
//!
//! They are inverses of each other.

use std::cmp::Ordering;

/// Stable argsort of `0..n` under a comparator — the workspace's one
/// argsort, behind every sorting build.
///
/// Returns the gather permutation: `perm[j]` is the input index that sorts
/// into position `j`; ties keep input order. The comparator may count its
/// own calls (the builds charge them to an `OpCounter`): the sort is one
/// sequential standard-library `sort_by`, so that count depends on the
/// input alone.
pub fn argsort_by<F>(n: usize, mut cmp: F) -> Vec<usize>
where
    F: FnMut(usize, usize) -> Ordering,
{
    let mut perm: Vec<usize> = (0..n).collect();
    perm.sort_by(|&a, &b| cmp(a, b));
    perm
}

/// Stable argsort of `0..n` by a key function.
pub fn argsort_by_key<K, F>(n: usize, mut key: F) -> Vec<usize>
where
    K: Ord,
    F: FnMut(usize) -> K,
{
    argsort_by(n, |a, b| key(a).cmp(&key(b)))
}

/// Invert a permutation: if `perm[j] = i` then `inv[i] = j`.
///
/// Converts a gather permutation into the paper's scatter `map` (and back).
pub fn invert_permutation(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; perm.len()];
    for (j, &i) in perm.iter().enumerate() {
        debug_assert!(i < perm.len());
        inv[i] = j;
    }
    inv
}

/// Whether `p` is a permutation of `0..p.len()`.
pub fn is_permutation(p: &[usize]) -> bool {
    let mut seen = vec![false; p.len()];
    for &i in p {
        if i >= p.len() || seen[i] {
            return false;
        }
        seen[i] = true;
    }
    true
}

/// Gather fixed-size elements: output slot `j` = input element `perm[j]`.
pub fn gather<T: Copy + Send + Sync>(items: &[T], perm: &[usize]) -> Vec<T> {
    perm.iter().map(|&i| items[i]).collect()
}

/// Scatter fixed-size elements by the paper's `map`: input element `i`
/// lands in output slot `map[i]`.
pub fn scatter<T: Copy + Send + Sync + Default>(items: &[T], map: &[usize]) -> Vec<T> {
    assert_eq!(items.len(), map.len());
    let mut out = vec![T::default(); items.len()];
    for (i, &j) in map.iter().enumerate() {
        out[j] = items[i];
    }
    out
}

/// Reorganize an opaque byte payload of `elem_size`-byte records by the
/// paper's scatter `map` (WRITE step "Reorganize b_data based on map").
///
/// `bytes.len()` must equal `map.len() * elem_size`.
pub fn scatter_bytes(bytes: &[u8], elem_size: usize, map: &[usize]) -> Vec<u8> {
    assert_eq!(bytes.len(), map.len() * elem_size);
    let mut out = vec![0u8; bytes.len()];
    for (i, &j) in map.iter().enumerate() {
        out[j * elem_size..(j + 1) * elem_size]
            .copy_from_slice(&bytes[i * elem_size..(i + 1) * elem_size]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argsort_is_stable() {
        let keys = [3u64, 1, 3, 1, 2];
        let perm = argsort_by_key(keys.len(), |i| keys[i]);
        assert_eq!(perm, vec![1, 3, 4, 0, 2]);
    }

    #[test]
    fn argsort_by_matches_argsort_by_key() {
        let keys = [5u64, 5, 0, 9, 0, 2];
        let a = argsort_by(keys.len(), |x, y| keys[x].cmp(&keys[y]));
        let b = argsort_by_key(keys.len(), |i| keys[i]);
        assert_eq!(a, b);
    }

    #[test]
    fn invert_roundtrip() {
        let perm = vec![2usize, 0, 3, 1];
        let inv = invert_permutation(&perm);
        assert_eq!(inv, vec![1, 3, 0, 2]);
        assert_eq!(invert_permutation(&inv), perm);
        assert!(is_permutation(&perm));
    }

    #[test]
    fn is_permutation_rejects() {
        assert!(!is_permutation(&[0, 0]));
        assert!(!is_permutation(&[1, 2]));
        assert!(is_permutation(&[]));
    }

    #[test]
    fn gather_scatter_are_inverse() {
        let items = [10u64, 20, 30, 40];
        let perm = vec![3usize, 1, 0, 2];
        let map = invert_permutation(&perm);
        let gathered = gather(&items, &perm);
        assert_eq!(gathered, vec![40, 20, 10, 30]);
        let scattered = scatter(&gathered, &perm); // scatter by perm undoes gather by perm
        assert_eq!(scattered.to_vec(), items.to_vec());
        // And scattering the original by `map` equals gathering by `perm`.
        assert_eq!(scatter(&items, &map), gathered);
    }

    #[test]
    fn byte_scatter_matches_typed_scatter() {
        let vals = [1.5f64, -2.0, 3.25];
        let map = vec![2usize, 0, 1];
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let out = scatter_bytes(&bytes, 8, &map);
        let decoded: Vec<f64> = out
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(decoded, vec![-2.0, 3.25, 1.5]);
    }

    #[test]
    #[should_panic]
    fn scatter_bytes_length_mismatch_panics() {
        scatter_bytes(&[0u8; 7], 8, &[0]);
    }
}
