//! ASCII rendering of 2D sparsity patterns — the Fig. 2 regeneration.
//!
//! Downsamples a 2D point set onto a character grid: `#` for cells whose
//! bucket holds at least one point, `·` otherwise. The `fig2` experiment
//! renders a small instance of each pattern so the three structures
//! (diagonal band, uniform scatter, dense block in scatter) are visible in
//! a terminal.

use artsparse_tensor::{CoordBuffer, Shape};

/// Render a 2D point set onto at most `max_side × max_side` characters.
pub fn ascii_2d(shape: &Shape, coords: &CoordBuffer, max_side: usize) -> String {
    assert_eq!(shape.ndim(), 2, "ascii rendering is for 2D tensors");
    assert!(max_side > 0);
    let rows = shape.dim(0);
    let cols = shape.dim(1);
    let gh = (rows.min(max_side as u64)) as usize;
    let gw = (cols.min(max_side as u64)) as usize;
    let mut grid = vec![false; gh * gw];
    for p in coords.iter() {
        let r = (p[0] * gh as u64 / rows) as usize;
        let c = (p[1] * gw as u64 / cols) as usize;
        grid[r * gw + c] = true;
    }
    let mut out = String::with_capacity(gh * (gw + 1));
    for r in 0..gh {
        for c in 0..gw {
            out.push(if grid[r * gw + c] { '#' } else { '\u{B7}' });
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Pattern, PatternParams};
    use crate::Dataset;

    #[test]
    fn tsp_renders_a_diagonal() {
        let shape = Shape::new(vec![32, 32]).unwrap();
        let ds = Dataset::generate(Pattern::Tsp, shape.clone(), PatternParams::default());
        let art = ascii_2d(&shape, &ds.coords, 32);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 32);
        // Diagonal cells are set; far corners are not.
        assert_eq!(lines[0].chars().next().unwrap(), '#');
        assert_eq!(lines[31].chars().last().unwrap(), '#');
        assert_eq!(lines[0].chars().last().unwrap(), '\u{B7}');
        assert_eq!(lines[31].chars().next().unwrap(), '\u{B7}');
    }

    #[test]
    fn msp_renders_a_dense_block() {
        let shape = Shape::new(vec![96, 96]).unwrap();
        let ds = Dataset::generate(Pattern::Msp, shape.clone(), PatternParams::default());
        let art = ascii_2d(&shape, &ds.coords, 48);
        let lines: Vec<Vec<char>> = art.lines().map(|l| l.chars().collect()).collect();
        // The m/3..2m/3 block maps to grid cells 16..31 — all set.
        for (r, line) in lines.iter().enumerate().take(31).skip(17) {
            for (c, &cell) in line.iter().enumerate().take(31).skip(17) {
                assert_eq!(cell, '#', "({r},{c}) should be dense");
            }
        }
    }

    #[test]
    fn downsampling_caps_the_grid() {
        let shape = Shape::new(vec![1000, 1000]).unwrap();
        let coords = CoordBuffer::from_points(2, &[[999u64, 999]]).unwrap();
        let art = ascii_2d(&shape, &coords, 10);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 10);
        assert_eq!(lines[9].chars().count(), 10);
        assert_eq!(lines[9].chars().last().unwrap(), '#');
    }
}
