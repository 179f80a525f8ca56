//! The reference model every answer is checked against: a map from
//! coordinate to the value of the latest write, nothing else.
//!
//! Coordinates are keyed by their row-major address, computed here and
//! not by the crates under test.

use std::collections::BTreeMap;

pub struct Oracle {
    dims: Vec<u64>,
    /// address → value of the latest write to it.
    points: BTreeMap<u64, f64>,
}

impl Oracle {
    pub fn new(dims: &[u64]) -> Oracle {
        Oracle {
            dims: dims.to_vec(),
            points: BTreeMap::new(),
        }
    }

    pub fn address(&self, coord: &[u64]) -> u64 {
        assert_eq!(coord.len(), self.dims.len(), "coordinate arity");
        coord.iter().zip(&self.dims).fold(0, |addr, (&c, &d)| {
            assert!(c < d, "coordinate {c} outside dimension {d}");
            addr * d + c
        })
    }

    pub fn write(&mut self, coord: &[u64], value: f64) {
        let addr = self.address(coord);
        self.points.insert(addr, value);
    }

    pub fn get(&self, coord: &[u64]) -> Option<f64> {
        self.points.get(&self.address(coord)).copied()
    }

    /// Live points: distinct coordinates written so far.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// The stored points inside the inclusive box `lo..=hi`, as
    /// `(address, value)` in address order.
    pub fn scan(&self, lo: &[u64], hi: &[u64]) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        let mut cell = lo.to_vec();
        loop {
            let addr = self.address(&cell);
            if let Some(&v) = self.points.get(&addr) {
                out.push((addr, v));
            }
            // Odometer step, last dimension fastest (row-major order).
            let mut d = cell.len();
            loop {
                if d == 0 {
                    return out;
                }
                d -= 1;
                if cell[d] < hi[d] {
                    cell[d] += 1;
                    break;
                }
                cell[d] = lo[d];
            }
        }
    }

    /// Compare a point answer with the model. Values must match bit for bit.
    pub fn check_get(&self, coord: &[u64], got: Option<f64>) -> Option<String> {
        let want = self.get(coord);
        let same = match (want, got) {
            (Some(w), Some(g)) => w.to_bits() == g.to_bits(),
            (None, None) => true,
            _ => false,
        };
        (!same).then(|| format!("point {coord:?}: model has {want:?}, system answered {got:?}"))
    }

    /// Compare a region answer (`(address, value)` rows, any order, one
    /// per stored point) with the model, row count included.
    pub fn check_scan(&self, lo: &[u64], hi: &[u64], mut got: Vec<(u64, f64)>) -> Option<String> {
        let want = self.scan(lo, hi);
        got.sort_by_key(|&(addr, _)| addr);
        let same = want.len() == got.len()
            && want
                .iter()
                .zip(&got)
                .all(|(w, g)| w.0 == g.0 && w.1.to_bits() == g.1.to_bits());
        (!same).then(|| {
            format!(
                "region {lo:?}..={hi:?}: model has {} point(s), system answered {}{}",
                want.len(),
                got.len(),
                if want.len() == got.len() {
                    " with different contents"
                } else {
                    ""
                }
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_write_wins_and_scans_count_rows() {
        let mut o = Oracle::new(&[4, 4]);
        o.write(&[1, 2], 1.0);
        o.write(&[3, 3], 2.0);
        o.write(&[1, 2], 3.0);
        assert_eq!(o.len(), 2);
        assert_eq!(o.get(&[1, 2]), Some(3.0));
        assert_eq!(o.get(&[0, 0]), None);
        assert_eq!(o.scan(&[0, 0], &[3, 3]), vec![(6, 3.0), (15, 2.0)]);
        assert_eq!(o.scan(&[2, 0], &[3, 2]), vec![]);

        assert!(o.check_get(&[1, 2], Some(3.0)).is_none());
        assert!(
            o.check_get(&[1, 2], Some(1.0)).is_some(),
            "a stale value is wrong"
        );
        assert!(o.check_get(&[1, 2], None).is_some());
        assert!(
            o.check_get(&[0, 0], Some(0.0)).is_some(),
            "found where nothing is stored"
        );
        assert!(o
            .check_scan(&[0, 0], &[3, 3], vec![(15, 2.0), (6, 3.0)])
            .is_none());
        assert!(
            o.check_scan(&[0, 0], &[3, 3], vec![(6, 3.0)]).is_some(),
            "a missing row is wrong"
        );
        assert!(o
            .check_scan(&[0, 0], &[3, 3], vec![(6, 3.0), (15, 2.5)])
            .is_some());
    }
}
