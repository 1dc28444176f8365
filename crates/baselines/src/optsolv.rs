//! Dedicated optimized solvers ("OPTSolv" in Fig. 16).
//!
//! The paper compares against Concorde (TSP), Ford-Fulkerson network flow
//! (image segmentation), LAMMPS (molecular dynamics) and a number
//! partitioner for asset allocation. None of those code bases is
//! redistributable here, so each is replaced by a solver of the same
//! algorithmic family (see the DESIGN.md substitution table):
//!
//! * [`tsp_reference`] — nearest-neighbor + 2-opt (Concorde stand-in);
//! * [`edmonds_karp_segmentation`] — BFS-augmenting max-flow min-cut
//!   (Ford-Fulkerson family, as the paper itself cites);
//! * [`karmarkar_karp`] — largest-differencing number partitioning;
//! * [`lattice_descent`] — greedy spin relaxation (LAMMPS stand-in for
//!   the ferromagnetic ground-state search).

use sachi_ising::anneal::Schedule;
use sachi_ising::solver::{CpuReferenceSolver, IterativeSolver, SolveOptions};
use sachi_ising::spin::{Spin, SpinVector};
use sachi_workloads::molecular::MolecularDynamics;
use sachi_workloads::segmentation::ImageSegmentation;
use sachi_workloads::spec::Workload;
use sachi_workloads::tsp::{tour_length, two_opt_tour};
use std::collections::{BinaryHeap, VecDeque};

/// Concorde stand-in: returns `(tour, length)` for a distance matrix.
pub fn tsp_reference(dist: &[Vec<i64>]) -> (Vec<usize>, i64) {
    let tour = two_opt_tour(dist);
    let len = if tour.is_empty() {
        0
    } else {
        tour_length(&tour, dist)
    };
    (tour, len)
}

/// Karmarkar-Karp largest-differencing number partitioning with full
/// assignment reconstruction. Returns the `+1/-1` assignment and the
/// absolute imbalance.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn karmarkar_karp(values: &[i64]) -> (SpinVector, i64) {
    assert!(!values.is_empty(), "cannot partition zero values");
    let n = values.len();
    // Node arena: leaves 0..n are the inputs; internal nodes record that
    // their `same` child shares their side and `opposite` child takes the
    // other side.
    let mut same_child: Vec<Option<usize>> = vec![None; n];
    let mut opposite_child: Vec<Option<usize>> = vec![None; n];
    let mut heap: BinaryHeap<(i64, usize)> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| (v.abs(), i))
        .collect();
    while heap.len() > 1 {
        let (a, na) = heap.pop().expect("len > 1");
        let (b, nb) = heap.pop().expect("len > 1");
        let m = same_child.len();
        same_child.push(Some(na));
        opposite_child.push(Some(nb));
        heap.push((a - b, m));
    }
    let (imbalance, root) = heap.pop().expect("one node remains");
    // Color the difference tree.
    let mut assignment = vec![Spin::Up; n];
    let mut stack = vec![(root, Spin::Up)];
    while let Some((node, color)) = stack.pop() {
        if node < n {
            assignment[node] = color;
            continue;
        }
        if let Some(s) = same_child[node] {
            stack.push((s, color));
        }
        if let Some(o) = opposite_child[node] {
            stack.push((o, color.flipped()));
        }
    }
    (SpinVector::from_spins(&assignment), imbalance)
}

/// Ford-Fulkerson-family (Edmonds-Karp) min-cut segmentation of an image
/// instance. Source connects to bright pixels, dark pixels to the sink,
/// and neighbors share a similarity capacity; the min cut separates
/// foreground from background. Returns the label vector (`+1`
/// foreground) and the max-flow value.
pub fn edmonds_karp_segmentation(image: &ImageSegmentation) -> (SpinVector, i64) {
    let w = image.width();
    let h = image.height();
    let n = w * h;
    let source = n;
    let sink = n + 1;
    let nodes = n + 2;

    // Adjacency with residual capacities.
    let mut heads: Vec<Vec<usize>> = vec![Vec::new(); nodes];
    let mut to: Vec<usize> = Vec::new();
    let mut cap: Vec<i64> = Vec::new();
    let add_edge = |heads: &mut Vec<Vec<usize>>,
                    to: &mut Vec<usize>,
                    cap: &mut Vec<i64>,
                    u: usize,
                    v: usize,
                    c: i64| {
        heads[u].push(to.len());
        to.push(v);
        cap.push(c);
        heads[v].push(to.len());
        to.push(u);
        cap.push(0);
    };
    let pixels = image.pixels();
    for (i, &p) in pixels.iter().enumerate() {
        // Terminal affinities.
        add_edge(&mut heads, &mut to, &mut cap, source, i, p as i64);
        add_edge(&mut heads, &mut to, &mut cap, i, sink, 255 - p as i64);
    }
    // 4-neighbor smoothness, symmetric.
    for r in 0..h {
        for c_ in 0..w {
            let u = r * w + c_;
            for (nr, nc) in [(r + 1, c_), (r, c_ + 1)] {
                if nr < h && nc < w {
                    let v = nr * w + nc;
                    let sim = 64 - ((pixels[u] as i64 - pixels[v] as i64).abs() / 4).min(63);
                    add_edge(&mut heads, &mut to, &mut cap, u, v, sim);
                    add_edge(&mut heads, &mut to, &mut cap, v, u, sim);
                }
            }
        }
    }

    // Edmonds-Karp: BFS shortest augmenting paths.
    let mut flow = 0i64;
    loop {
        let mut parent_edge = vec![usize::MAX; nodes];
        let mut visited = vec![false; nodes];
        visited[source] = true;
        let mut queue = VecDeque::from([source]);
        'bfs: while let Some(u) = queue.pop_front() {
            for &e in &heads[u] {
                let v = to[e];
                if !visited[v] && cap[e] > 0 {
                    visited[v] = true;
                    parent_edge[v] = e;
                    if v == sink {
                        break 'bfs;
                    }
                    queue.push_back(v);
                }
            }
        }
        if !visited[sink] {
            break;
        }
        // Bottleneck along the path.
        let mut bottleneck = i64::MAX;
        let mut v = sink;
        while v != source {
            let e = parent_edge[v];
            bottleneck = bottleneck.min(cap[e]);
            v = to[e ^ 1];
        }
        let mut v = sink;
        while v != source {
            let e = parent_edge[v];
            cap[e] -= bottleneck;
            cap[e ^ 1] += bottleneck;
            v = to[e ^ 1];
        }
        flow += bottleneck;
    }

    // Min cut: source-side of the residual graph is foreground.
    let mut reachable = vec![false; nodes];
    reachable[source] = true;
    let mut queue = VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        for &e in &heads[u] {
            let v = to[e];
            if !reachable[v] && cap[e] > 0 {
                reachable[v] = true;
                queue.push_back(v);
            }
        }
    }
    let labels: SpinVector = (0..n).map(|i| Spin::from_bit(reachable[i])).collect();
    (labels, flow)
}

/// LAMMPS stand-in: greedy lattice relaxation — repeated deterministic
/// sweeps of the sign rule until quiescent. Returns the spins and the
/// number of sweeps used.
///
/// A hold below its freeze threshold starts frozen, where the golden
/// sweep's decision is the bare sign rule, so this is
/// [`CpuReferenceSolver`] under that hold: the quiescence test and the
/// sweep cap are the shared protocol's.
pub fn lattice_descent(
    md: &MolecularDynamics,
    initial: &SpinVector,
    max_sweeps: u64,
) -> (SpinVector, u64) {
    let frozen = SolveOptions {
        max_sweeps,
        schedule: Schedule::constant(0.5, 1.0),
        ..SolveOptions::default()
    };
    let result = CpuReferenceSolver::new().solve(md.graph(), initial, &frozen);
    (result.spins, result.sweeps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sachi_workloads::segmentation::Connectivity;
    use sachi_workloads::tsp::{distance_matrix, random_cities};

    #[test]
    fn tsp_reference_produces_valid_tour() {
        let coords = random_cities(12, 1);
        let d = distance_matrix(&coords);
        let (tour, len) = tsp_reference(&d);
        assert_eq!(tour.len(), 12);
        assert!(len > 0);
        let mut sorted = tour.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn karmarkar_karp_exact_on_known_instance() {
        // {1, 2, 3, 4} partitions perfectly (1+4 | 2+3) and differencing
        // finds it.
        let (assignment, imbalance) = karmarkar_karp(&[1, 2, 3, 4]);
        assert_eq!(imbalance, 0);
        let signed: i64 = [1, 2, 3, 4]
            .iter()
            .zip(assignment.iter())
            .map(|(&v, s)| v * s.value())
            .sum();
        assert_eq!(signed.abs(), 0);
        // The classic {4..8} example: differencing stops at imbalance 2
        // even though a perfect split exists — KK is a heuristic, and the
        // reconstruction must agree with the differencing result.
        let (assignment, imbalance) = karmarkar_karp(&[4, 5, 6, 7, 8]);
        assert_eq!(imbalance, 2);
        let signed: i64 = [4, 5, 6, 7, 8]
            .iter()
            .zip(assignment.iter())
            .map(|(&v, s)| v * s.value())
            .sum();
        assert_eq!(signed.abs(), 2);
    }

    #[test]
    fn karmarkar_karp_assignment_matches_reported_imbalance() {
        let mut rng = StdRng::seed_from_u64(3);
        use rand::Rng;
        let values: Vec<i64> = (0..40).map(|_| rng.gen_range(1..10_000)).collect();
        let (assignment, imbalance) = karmarkar_karp(&values);
        let signed: i64 = values
            .iter()
            .zip(assignment.iter())
            .map(|(&v, s)| v * s.value())
            .sum();
        assert_eq!(
            signed.abs(),
            imbalance,
            "reconstruction inconsistent with differencing"
        );
        // KK is near-optimal on random instances: imbalance far below max value.
        assert!(imbalance < 10_000, "imbalance {imbalance}");
    }

    #[test]
    fn karmarkar_karp_single_value() {
        let (assignment, imbalance) = karmarkar_karp(&[42]);
        assert_eq!(imbalance, 42);
        assert_eq!(assignment.len(), 1);
    }

    #[test]
    fn edmonds_karp_separates_disc_from_background() {
        let image = ImageSegmentation::with_options(12, 12, 5, Connectivity::Grid4, 6);
        let (labels, flow) = edmonds_karp_segmentation(&image);
        assert!(flow > 0);
        let fg = labels.count_up();
        // The bright disc covers a meaningful minority of the image.
        assert!(
            fg > 5 && fg < 139,
            "degenerate segmentation: {fg} foreground"
        );
        // Foreground should be brighter on average than background.
        let pixels = image.pixels();
        let (mut fg_sum, mut fg_n, mut bg_sum, mut bg_n) = (0u64, 0u64, 0u64, 0u64);
        for (i, s) in labels.iter().enumerate() {
            if s.bit() {
                fg_sum += pixels[i] as u64;
                fg_n += 1;
            } else {
                bg_sum += pixels[i] as u64;
                bg_n += 1;
            }
        }
        assert!(
            fg_sum * bg_n > bg_sum * fg_n,
            "foreground darker than background"
        );
    }

    #[test]
    fn lattice_descent_reaches_ground_state_from_near_alignment() {
        let md = MolecularDynamics::new(5, 5, 2);
        let mut init = SpinVector::filled(25, Spin::Up);
        init.flip(7);
        init.flip(12);
        let (spins, sweeps) = lattice_descent(&md, &init, 100);
        assert!(sweeps < 100);
        assert!((md.accuracy(&spins) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lattice_descent_monotonically_reduces_energy() {
        let md = MolecularDynamics::new(6, 6, 4);
        let mut rng = StdRng::seed_from_u64(8);
        let init = SpinVector::random(36, &mut rng);
        let before = sachi_ising::hamiltonian::energy(md.graph(), &init);
        let (spins, _) = lattice_descent(&md, &init, 50);
        let after = sachi_ising::hamiltonian::energy(md.graph(), &spins);
        assert!(after <= before);
    }
}
