//! GSP scenario: a social-graph adjacency matrix.
//!
//! The paper's GSP pattern models adjacency matrices (§III cites social
//! networks / recommender systems). We generate a random directed graph,
//! store its adjacency matrix under each organization, answer edge
//! queries and neighborhood scans, and ask the advisor which organization
//! fits a read-heavy serving workload.
//!
//! ```sh
//! cargo run --release --example graph_adjacency
//! ```

use artsparse::core::advisor::{recommend, AccessProfile};
use artsparse::patterns::rng::SplitMix64;
use artsparse::{CoordBuffer, FormatKind, Region, Shape, SparseTensor};

const USERS: u64 = 4096;
const EDGES: usize = 40_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Random edges with a deterministic seed.
    let mut rng = SplitMix64::new(2024);
    let shape = Shape::new(vec![USERS, USERS])?;
    let mut tensor = SparseTensor::<f32>::new(shape.clone());
    let mut some_edge = None;
    for _ in 0..EDGES {
        let src = rng.next_below(USERS);
        let dst = rng.next_below(USERS);
        let weight = rng.next_f64() as f32;
        tensor.insert(&[src, dst], weight)?;
        some_edge.get_or_insert((src, dst));
    }
    println!(
        "graph: {USERS} users, {} edges, density {:.4}%",
        tensor.nnz(),
        tensor.density() * 100.0
    );

    // Edge-existence queries under every organization.
    let (src, dst) = some_edge.unwrap();
    let probes = CoordBuffer::from_points(2, &[[src, dst], [0, 0], [1, 1]])?;
    println!("\n{:<14} {:>12} edge({src},{dst})", "format", "bytes");
    for kind in FormatKind::PAPER_FIVE {
        let enc = tensor.encode(kind)?;
        let hits = enc.get_many::<f32>(&probes)?;
        println!(
            "{:<14} {:>12} {}",
            kind.name(),
            enc.total_bytes(),
            if hits[0].is_some() {
                "found"
            } else {
                "MISSING!"
            }
        );
        assert!(hits[0].is_some());
    }

    // Out-neighborhood scan of one user = one row of the matrix.
    let enc = tensor.encode(FormatKind::GcsrPP)?;
    let row = Region::from_corners(&[src, 0], &[src, USERS - 1])?;
    let neighbors = enc.read_region::<f32>(&row)?;
    println!(
        "\nuser {src} follows {} accounts (first: {:?})",
        neighbors.len(),
        neighbors.first().map(|(c, _)| c[1])
    );
    assert!(!neighbors.is_empty());

    // Which organization should a read-heavy edge service use?
    let rec = recommend(tensor.nnz() as u64, &shape, &AccessProfile::read_heavy());
    println!("\nadvisor (read-heavy): ");
    for c in &rec.ranking {
        println!("  {:<8} score {:.3}", c.kind.name(), c.score);
    }
    Ok(())
}
