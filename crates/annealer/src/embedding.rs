//! Heuristic minor embedding (Cai, Macready & Roy 2014 style).
//!
//! A logical variable becomes a *chain* of physical qubits: the chain must
//! be connected in the hardware graph, chains must be vertex-disjoint, and
//! every logical coupling needs at least one physical coupler between the
//! two chains. Embedding is NP-hard; the heuristic reproduced here is the
//! one the paper cites:
//!
//! 1. embed variables one at a time, routing to already-embedded
//!    neighbours along shortest paths where *over-used* qubits cost
//!    exponentially more,
//! 2. then re-embed each variable with the others fixed for several
//!    improvement passes, escalating the over-use penalty,
//! 3. stop once no physical qubit is claimed by two chains.
//!
//! The same module provides chain statistics (the paper's Figure 11:
//! variable count, physical qubit count, average chain size vs `n`),
//! ferromagnetic chain coupling construction, and majority-vote
//! unembedding with chain-break accounting.

use crate::topology::Chimera;
use qmkp_qubo::IsingModel;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BinaryHeap;

/// A minor embedding: one chain of physical qubits per logical variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Embedding {
    /// `chains[v]` = sorted physical qubits representing logical `v`.
    pub chains: Vec<Vec<usize>>,
}

/// Aggregate chain statistics (the quantities plotted in Figure 11).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainStats {
    /// Logical variable count.
    pub num_logical: usize,
    /// Total physical qubits used.
    pub num_physical: usize,
    /// Average chain length.
    pub avg_chain_len: f64,
    /// Longest chain.
    pub max_chain_len: usize,
}

impl Embedding {
    /// Computes chain statistics.
    pub fn stats(&self) -> ChainStats {
        let num_logical = self.chains.len();
        let num_physical: usize = self.chains.iter().map(Vec::len).sum();
        let max_chain_len = self.chains.iter().map(Vec::len).max().unwrap_or(0);
        ChainStats {
            num_logical,
            num_physical,
            avg_chain_len: if num_logical == 0 {
                0.0
            } else {
                num_physical as f64 / num_logical as f64
            },
            max_chain_len,
        }
    }

    /// Validates the embedding: non-empty disjoint connected chains and a
    /// physical coupler for every logical edge.
    pub fn is_valid(&self, logical_edges: &[(usize, usize)], hw: &Chimera) -> bool {
        let mut owner = vec![usize::MAX; hw.num_qubits()];
        for (v, chain) in self.chains.iter().enumerate() {
            if chain.is_empty() {
                return false;
            }
            for &q in chain {
                if owner[q] != usize::MAX {
                    return false; // overlap
                }
                owner[q] = v;
            }
        }
        // Connectivity of each chain.
        for chain in &self.chains {
            let mut seen = vec![chain[0]];
            let mut frontier = vec![chain[0]];
            while let Some(q) = frontier.pop() {
                for &nb in hw.neighbors(q) {
                    if chain.contains(&nb) && !seen.contains(&nb) {
                        seen.push(nb);
                        frontier.push(nb);
                    }
                }
            }
            if seen.len() != chain.len() {
                return false;
            }
        }
        // Couplers for logical edges.
        for &(a, b) in logical_edges {
            let ok = self.chains[a].iter().any(|&qa| {
                hw.neighbors(qa)
                    .iter()
                    .any(|&nb| self.chains[b].contains(&nb))
            });
            if !ok {
                return false;
            }
        }
        true
    }
}

/// Finds a minor embedding of a logical interaction graph into `hw`.
///
/// `logical_edges` lists the variable pairs that interact; variables are
/// `0..num_logical`. Returns `None` if the heuristic fails within
/// `max_passes` improvement passes.
pub fn find_embedding(
    logical_edges: &[(usize, usize)],
    num_logical: usize,
    hw: &Chimera,
    seed: u64,
    max_passes: usize,
) -> Option<Embedding> {
    find_embedding_with_tries(logical_edges, num_logical, hw, seed, max_passes, 8)
}

/// [`find_embedding`] with an explicit restart budget — large instances
/// may prefer fewer, cheaper tries.
pub fn find_embedding_with_tries(
    logical_edges: &[(usize, usize)],
    num_logical: usize,
    hw: &Chimera,
    seed: u64,
    max_passes: usize,
    tries: u64,
) -> Option<Embedding> {
    // Strategy 1: hard-blocking constructive routing (never overlaps, so
    // a success is immediately valid), polished by refinement passes.
    for t in 0..tries.max(1) {
        let s = seed.wrapping_add(t.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        if let Some(emb) = constructive_embedding(logical_edges, num_logical, hw, s) {
            return Some(refine_embedding(
                &emb,
                logical_edges,
                hw,
                s,
                max_passes.min(3),
            ));
        }
    }
    // Strategy 2: CMR-style soft-overlap heuristic with restarts.
    let heuristic = (0..tries.max(1)).find_map(|t| {
        try_embedding(
            logical_edges,
            num_logical,
            hw,
            seed.wrapping_add(t.wrapping_mul(0xd134_2543_de82_ef95)),
            max_passes,
        )
    });
    heuristic.or_else(|| {
        // Strategy 3: deterministic fallback — truncate the native clique
        // embedding (every graph is a subgraph of the clique on its
        // variables), then shrink its uniform chains with refinement.
        clique_embedding(hw, num_logical)
            .map(|emb| refine_embedding(&emb, logical_edges, hw, seed, max_passes.max(2)))
    })
}

/// Hard-blocking constructive embedding: variables are embedded in
/// descending-degree order (hardest first), each routed to its already-
/// embedded neighbours through **free qubits only**. No overlap can ever
/// arise, so any completed assignment is a valid embedding; congestion
/// shows up as an honest `None` (grow the hardware and retry).
pub fn constructive_embedding(
    logical_edges: &[(usize, usize)],
    num_logical: usize,
    hw: &Chimera,
    seed: u64,
) -> Option<Embedding> {
    let mut rng = StdRng::seed_from_u64(seed);
    let nq = hw.num_qubits();
    let mut lg_adj = vec![Vec::new(); num_logical];
    for &(a, b) in logical_edges {
        assert!(
            a < num_logical && b < num_logical && a != b,
            "bad logical edge"
        );
        lg_adj[a].push(b);
        lg_adj[b].push(a);
    }
    // Hardest (highest-degree) first, random tie-break.
    let mut order: Vec<usize> = (0..num_logical).collect();
    order.shuffle(&mut rng);
    order.sort_by_key(|&v| std::cmp::Reverse(lg_adj[v].len()));

    let mut chains: Vec<Vec<usize>> = vec![Vec::new(); num_logical];
    let mut used = vec![false; nq];
    for &v in &order {
        let embedded_nbrs: Vec<usize> = lg_adj[v]
            .iter()
            .copied()
            .filter(|&u| !chains[u].is_empty())
            .collect();
        if embedded_nbrs.is_empty() {
            let q = pick_free_seed(hw, &used, &mut rng)?;
            chains[v] = vec![q];
            used[q] = true;
            continue;
        }
        // Grow v's chain incrementally, snaking from neighbour chain to
        // neighbour chain; each hop only needs free-space connectivity
        // between the *current* chain and the next target — far more
        // robust than demanding one root that reaches every target.
        let mut chain_v: Vec<usize> = Vec::new();
        for (step, &u) in embedded_nbrs.iter().enumerate() {
            if step == 0 {
                // Anchor adjacent to the first target (the anchor IS the
                // coupler to u, so adjacency is mandatory).
                let root = (0..nq)
                    .filter(|&q| {
                        !used[q] && hw.neighbors(q).iter().any(|&nb| chains[u].contains(&nb))
                    })
                    .min_by_key(|&q| {
                        // Prefer anchors with many free neighbours (room
                        // to grow), tie-broken pseudo-randomly.
                        let free_nbrs = hw.neighbors(q).iter().filter(|&&nb| !used[nb]).count();
                        (usize::MAX - free_nbrs, q ^ (seed as usize))
                    })?;
                used[root] = true;
                chain_v.push(root);
                continue;
            }
            // Already coupled?
            let coupled = chain_v
                .iter()
                .any(|&q| hw.neighbors(q).iter().any(|&nb| chains[u].contains(&nb)));
            if coupled {
                continue;
            }
            // Route from the growing chain to u's boundary through free
            // qubits.
            let (dist, parent) = bfs_free(&chain_v, hw, &used);
            let end = (0..nq)
                .filter(|&q| {
                    !used[q]
                        && dist[q] != u32::MAX
                        && hw.neighbors(q).iter().any(|&nb| chains[u].contains(&nb))
                })
                .min_by_key(|&q| dist[q])?;
            // The endpoint joins u's chain (so u's reach grows with its
            // logical degree); the interior of the path joins v.
            let mut q = end;
            let mut interior = Vec::new();
            while parent[q] != usize::MAX {
                q = parent[q];
                if !chain_v.contains(&q) {
                    interior.push(q);
                }
            }
            used[end] = true;
            chains[u].push(end);
            for &p in &interior {
                used[p] = true;
                chain_v.push(p);
            }
            // Coupler v↔u: the path element adjacent to `end` is either in
            // `interior` (now v's) or was already in chain_v.
        }
        chains[v] = chain_v;
    }
    let mut emb = Embedding { chains };
    for c in &mut emb.chains {
        c.sort_unstable();
    }
    emb.is_valid(logical_edges, hw).then_some(emb)
}

/// A random free qubit with all-free cell neighbours when possible.
fn pick_free_seed(hw: &Chimera, used: &[bool], rng: &mut StdRng) -> Option<usize> {
    let free: Vec<usize> = (0..hw.num_qubits()).filter(|&q| !used[q]).collect();
    if free.is_empty() {
        return None;
    }
    use rand::seq::SliceRandom as _;
    free.choose(rng).copied()
}

/// Multi-source shortest paths from a chain through free qubits only.
/// Blocked qubits stay at `u32::MAX`; the chain's own qubits are sources.
/// Free qubits that *touch* used qubits cost extra, steering paths away
/// from existing chains so they are not walled in — the difference
/// between routing K6 and failing at K8.
fn bfs_free(chain: &[usize], hw: &Chimera, used: &[bool]) -> (Vec<u32>, Vec<usize>) {
    let nq = hw.num_qubits();
    let cost =
        |q: usize| -> u32 { 1 + 2 * hw.neighbors(q).iter().filter(|&&nb| used[nb]).count() as u32 };
    let mut dist = vec![u32::MAX; nq];
    let mut parent = vec![usize::MAX; nq];
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u32, usize)>> =
        std::collections::BinaryHeap::new();
    for &q in chain {
        dist[q] = 0;
        heap.push(std::cmp::Reverse((0, q)));
    }
    while let Some(std::cmp::Reverse((d, q))) = heap.pop() {
        if d > dist[q] {
            continue;
        }
        for &nb in hw.neighbors(q) {
            if !used[nb] {
                let nd = d + cost(nb);
                if nd < dist[nb] {
                    dist[nb] = nd;
                    parent[nb] = q;
                    heap.push(std::cmp::Reverse((nd, nb)));
                }
            }
        }
    }
    (dist, parent)
}

/// Shrinks a *valid* embedding by repeatedly tearing out one chain and
/// re-routing it with the shortest-path machinery, keeping the best valid
/// state seen (by total physical qubits). Never returns something worse
/// than the input. This is how the clique-embedding fallback recovers
/// instance-appropriate chain lengths instead of uniform worst-case ones.
///
/// # Panics
/// Panics if the input embedding is invalid.
pub fn refine_embedding(
    emb: &Embedding,
    logical_edges: &[(usize, usize)],
    hw: &Chimera,
    seed: u64,
    passes: usize,
) -> Embedding {
    assert!(
        emb.is_valid(logical_edges, hw),
        "refinement needs a valid embedding"
    );
    let num_logical = emb.chains.len();
    let mut lg_adj = vec![Vec::new(); num_logical];
    for &(a, b) in logical_edges {
        lg_adj[a].push(b);
        lg_adj[b].push(a);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chains = emb.chains.clone();
    let mut usage = vec![0u32; hw.num_qubits()];
    for chain in &chains {
        for &q in chain {
            usage[q] += 1;
        }
    }
    let mut best = emb.clone();
    let mut best_size: usize = best.chains.iter().map(Vec::len).sum();
    let mut order: Vec<usize> = (0..num_logical).collect();

    for _ in 0..passes.max(1) {
        order.shuffle(&mut rng);
        for &v in &order {
            for &q in &chains[v] {
                usage[q] -= 1;
            }
            let old = std::mem::take(&mut chains[v]);
            match embed_one(
                v,
                &lg_adj,
                &mut chains,
                &mut usage,
                hw,
                1e6,
                false,
                &mut rng,
            ) {
                Some(chain) => {
                    for &q in &chain {
                        usage[q] += 1;
                    }
                    chains[v] = chain;
                }
                None => {
                    for &q in &old {
                        usage[q] += 1;
                    }
                    chains[v] = old;
                }
            }
        }
        if usage.iter().all(|&u| u <= 1) {
            let mut candidate = Embedding {
                chains: chains.clone(),
            };
            for c in &mut candidate.chains {
                c.sort_unstable();
            }
            let size: usize = candidate.chains.iter().map(Vec::len).sum();
            if size < best_size && candidate.is_valid(logical_edges, hw) {
                best_size = size;
                best = candidate;
            }
        }
    }
    best
}

/// The deterministic **TRIAD** native clique embedding (Choi 2011):
/// embeds `K_{t·min(m,n)}` into Chimera with uniform chains of length
/// `min(m,n) + 1` — each chain is an L: a vertical run down column `i`
/// plus a horizontal run along row `i`, joined in the diagonal cell.
///
/// Returns `None` when `n_vars` exceeds the native clique size.
pub fn clique_embedding(hw: &Chimera, n_vars: usize) -> Option<Embedding> {
    let m = hw.m.min(hw.n);
    if n_vars > hw.t * m {
        return None;
    }
    let mut chains = Vec::with_capacity(n_vars);
    for v in 0..n_vars {
        let (i, k) = (v / hw.t, v % hw.t);
        let mut chain: Vec<usize> = (0..=i).map(|r| hw.index(r, i, 0, k)).collect();
        chain.extend((i..m).map(|c| hw.index(i, c, 1, k)));
        chain.sort_unstable();
        chains.push(chain);
    }
    Some(Embedding { chains })
}

fn try_embedding(
    logical_edges: &[(usize, usize)],
    num_logical: usize,
    hw: &Chimera,
    seed: u64,
    max_passes: usize,
) -> Option<Embedding> {
    let mut rng = StdRng::seed_from_u64(seed);
    let nq = hw.num_qubits();
    let mut lg_adj = vec![Vec::new(); num_logical];
    for &(a, b) in logical_edges {
        assert!(
            a < num_logical && b < num_logical && a != b,
            "bad logical edge"
        );
        lg_adj[a].push(b);
        lg_adj[b].push(a);
    }

    let mut chains: Vec<Vec<usize>> = vec![Vec::new(); num_logical];
    let mut usage = vec![0u32; nq];
    let mut order: Vec<usize> = (0..num_logical).collect();
    order.shuffle(&mut rng);

    for pass in 0..max_passes.max(1) {
        // Over-use penalty escalates with passes; a fresh order each pass
        // breaks deterministic plateaus.
        order.shuffle(&mut rng);
        let penalty = 4.0f64 * (1u64 << pass.min(16)) as f64;
        for &v in &order {
            // Tear out v's current chain.
            for &q in &chains[v] {
                usage[q] -= 1;
            }
            chains[v].clear();
            let chain = embed_one(
                v,
                &lg_adj,
                &mut chains,
                &mut usage,
                hw,
                penalty,
                true,
                &mut rng,
            )?;
            for &q in &chain {
                usage[q] += 1;
            }
            chains[v] = chain;
        }
        if usage.iter().all(|&u| u <= 1) && chains.iter().all(|c| !c.is_empty()) {
            let mut emb = Embedding { chains };
            for c in &mut emb.chains {
                c.sort_unstable();
            }
            debug_assert!(emb.is_valid(logical_edges, hw));
            return Some(emb);
        }
    }
    None
}

/// Embeds one variable against the currently-embedded neighbours.
/// Returns the new chain (may overlap other chains; the caller's usage
/// penalties shrink overlaps over passes).
#[allow(clippy::too_many_arguments)] // internal helper threading the router's full working state
fn embed_one(
    v: usize,
    lg_adj: &[Vec<usize>],
    chains: &mut [Vec<usize>],
    usage: &mut [u32],
    hw: &Chimera,
    penalty: f64,
    split_paths: bool,
    rng: &mut StdRng,
) -> Option<Vec<usize>> {
    let nq = hw.num_qubits();
    let cost = |q: usize, usage: &[u32]| penalty.powi(usage[q] as i32);
    let embedded_nbrs: Vec<usize> = lg_adj[v]
        .iter()
        .copied()
        .filter(|&u| !chains[u].is_empty())
        .collect();

    if embedded_nbrs.is_empty() {
        // First vertex (or isolated): take the cheapest qubit, randomized
        // among ties.
        let q = (0..nq).min_by(|&a, &b| {
            (cost(a, usage) + jitter(rng)).total_cmp(&(cost(b, usage) + jitter(rng)))
        })?;
        return Some(vec![q]);
    }

    // Multi-source Dijkstra from each neighbour chain.
    let mut dists: Vec<Vec<f64>> = Vec::with_capacity(embedded_nbrs.len());
    let mut parents: Vec<Vec<usize>> = Vec::with_capacity(embedded_nbrs.len());
    for &u in &embedded_nbrs {
        let (d, p) = dijkstra_from_chain(&chains[u], hw, usage, penalty);
        dists.push(d);
        parents.push(p);
    }

    // Root: cheapest total connection cost, with a sub-unit random jitter
    // so plateaued configurations explore alternative roots across passes.
    let mut best_root: Option<(usize, f64)> = None;
    'root: for q in 0..nq {
        let mut total = cost(q, usage) + jitter(rng);
        for d in &dists {
            if d[q].is_infinite() {
                continue 'root;
            }
            total += d[q];
        }
        if best_root.is_none_or(|(_, c)| total < c) {
            best_root = Some((q, total));
        }
    }
    let (root, _) = best_root?;

    // Chain = root plus the near part of each path; the contiguous fresh
    // suffix of each path joins the neighbour's chain (minorminer-style
    // path splitting, so high-degree neighbours don't saturate).
    let mut chain = vec![root];
    for (idx, &u) in embedded_nbrs.iter().enumerate() {
        let mut walk: Vec<(usize, bool)> = Vec::new();
        let mut q = root;
        while parents[idx][q] != usize::MAX {
            q = parents[idx][q];
            if chains[u].contains(&q) {
                break; // reached u's boundary
            }
            let fresh = !chain.contains(&q) && !walk.iter().any(|&(w, f)| f && w == q);
            walk.push((q, fresh));
        }
        let fresh_total = walk.iter().filter(|&&(_, f)| f).count();
        let mut suffix = 0;
        for &(_, fresh) in walk.iter().rev() {
            if fresh {
                suffix += 1;
            } else {
                break;
            }
        }
        let give_u = if split_paths {
            suffix.min(1).min(fresh_total)
        } else {
            0
        };
        let boundary = walk.len() - give_u;
        for (i, &(q, fresh)) in walk.iter().enumerate() {
            if fresh {
                if i < boundary {
                    chain.push(q);
                } else {
                    chains[u].push(q);
                    usage[q] += 1;
                }
            }
        }
    }
    Some(chain)
}

/// A small random tie-breaking perturbation (strictly below the minimum
/// cost unit, so it never overrides a real cost difference of ≥ 1).
fn jitter(rng: &mut StdRng) -> f64 {
    use rand::Rng;
    rng.gen::<f64>() * 0.5
}

/// Multi-source Dijkstra where entering qubit `q` costs
/// `penalty^usage[q]`; sources (the chain) cost 0. Returns distances and
/// parent pointers (`usize::MAX` at sources).
fn dijkstra_from_chain(
    chain: &[usize],
    hw: &Chimera,
    usage: &[u32],
    penalty: f64,
) -> (Vec<f64>, Vec<usize>) {
    let nq = hw.num_qubits();
    let mut dist = vec![f64::INFINITY; nq];
    let mut parent = vec![usize::MAX; nq];
    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, usize)>> = BinaryHeap::new();
    // f64 keys packed as ordered u64 via the sign-magnitude trick (all
    // costs are non-negative and finite, so the raw-bit order matches).
    let key = |d: f64| d.to_bits();
    for &q in chain {
        dist[q] = 0.0;
        heap.push(std::cmp::Reverse((key(0.0), q)));
    }
    while let Some(std::cmp::Reverse((dk, q))) = heap.pop() {
        if dk > key(dist[q]) {
            continue;
        }
        for &nb in hw.neighbors(q) {
            let ndist = dist[q] + penalty.powi(usage[nb] as i32);
            if ndist < dist[nb] {
                dist[nb] = ndist;
                parent[nb] = q;
                heap.push(std::cmp::Reverse((key(ndist), nb)));
            }
        }
    }
    (dist, parent)
}

/// Builds the physical Ising problem for an embedding: logical fields are
/// split evenly across the chain, logical couplings evenly across the
/// available inter-chain couplers, and every intra-chain coupler gets the
/// ferromagnetic chain coupling `−chain_strength`.
///
/// # Panics
/// Panics if a logical coupling has no physical coupler (invalid
/// embedding).
pub fn embed_ising(
    logical: &IsingModel,
    emb: &Embedding,
    hw: &Chimera,
    chain_strength: f64,
) -> IsingModel {
    let mut phys = IsingModel::new(hw.num_qubits());
    phys.offset = logical.offset;
    for (v, chain) in emb.chains.iter().enumerate() {
        let share = logical.h[v] / chain.len() as f64;
        for &q in chain {
            phys.h[q] += share;
        }
        // Ferromagnetic chain bonds on every intra-chain coupler.
        for (i, &a) in chain.iter().enumerate() {
            for &b in &chain[i + 1..] {
                if hw.coupled(a, b) {
                    phys.add_coupling(a, b, -chain_strength);
                }
            }
        }
    }
    for (&(u, v), &j) in &logical.j {
        let couplers: Vec<(usize, usize)> = emb.chains[u]
            .iter()
            .flat_map(|&a| {
                emb.chains[v]
                    .iter()
                    .filter(move |&&b| hw.coupled(a, b))
                    .map(move |&b| (a, b))
            })
            .collect();
        assert!(
            !couplers.is_empty(),
            "no physical coupler for logical edge ({u},{v})"
        );
        let share = j / couplers.len() as f64;
        for (a, b) in couplers {
            phys.add_coupling(a, b, share);
        }
    }
    phys
}

/// Majority-vote unembedding of a physical spin sample. Returns the
/// logical assignment (`true` = spin up = `x = 1`) and the number of
/// *broken chains* (chains whose qubits disagreed).
pub fn unembed(sample: &[i8], emb: &Embedding) -> (Vec<bool>, usize) {
    let mut logical = Vec::with_capacity(emb.chains.len());
    let mut broken = 0;
    for chain in &emb.chains {
        let ups = chain.iter().filter(|&&q| sample[q] > 0).count();
        if ups != 0 && ups != chain.len() {
            broken += 1;
        }
        logical.push(2 * ups > chain.len());
    }
    if broken > 0 {
        qmkp_obs::counter("anneal.embed.chain_breaks", &[], broken as u64);
    }
    (logical, broken)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmkp_qubo::QuboModel;

    fn k_n_edges(n: usize) -> Vec<(usize, usize)> {
        (0..n)
            .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
            .collect()
    }

    #[test]
    fn embeds_a_triangle_in_a_single_cell_graph() {
        // K3 does not embed in a bipartite K_{4,4} without chains;
        // a 2×2 Chimera has the paths needed.
        let hw = Chimera::new(2, 2, 4);
        let edges = k_n_edges(3);
        let emb = find_embedding(&edges, 3, &hw, 1, 10).expect("triangle embeds");
        assert!(emb.is_valid(&edges, &hw));
        let stats = emb.stats();
        assert_eq!(stats.num_logical, 3);
        assert!(stats.num_physical >= 3);
    }

    #[test]
    fn embeds_k8_in_c4() {
        let hw = Chimera::new(4, 4, 4);
        let edges = k_n_edges(8);
        let emb = find_embedding(&edges, 8, &hw, 7, 14).expect("K8 embeds in C(4,4,4)");
        assert!(emb.is_valid(&edges, &hw));
        let stats = emb.stats();
        assert!(stats.avg_chain_len >= 1.0);
        assert!(stats.max_chain_len >= 2, "K8 needs chains on Chimera");
    }

    #[test]
    fn denser_problems_need_longer_chains() {
        let hw = Chimera::new(8, 8, 4);
        let sparse: Vec<(usize, usize)> = (0..11).map(|i| (i, i + 1)).collect(); // path
        let dense = k_n_edges(12);
        let e1 = find_embedding(&sparse, 12, &hw, 3, 12).expect("path embeds");
        let e2 = find_embedding(&dense, 12, &hw, 3, 16).expect("K12 embeds");
        assert!(
            e2.stats().avg_chain_len > e1.stats().avg_chain_len,
            "K12 chains {} should exceed path chains {}",
            e2.stats().avg_chain_len,
            e1.stats().avg_chain_len
        );
    }

    #[test]
    fn isolated_variables_embed_as_singletons() {
        let hw = Chimera::new(2, 2, 4);
        let emb = find_embedding(&[], 5, &hw, 0, 4).expect("isolated vars embed");
        assert!(emb.is_valid(&[], &hw));
        assert_eq!(emb.stats().num_physical, 5);
    }

    #[test]
    fn validation_rejects_broken_embeddings() {
        let hw = Chimera::new(2, 2, 4);
        // Overlapping chains.
        let emb = Embedding {
            chains: vec![vec![0], vec![0]],
        };
        assert!(!emb.is_valid(&[], &hw));
        // Disconnected chain: qubits 0 (cell 0 vertical) and a far qubit.
        let far = hw.index(1, 1, 0, 3);
        let emb = Embedding {
            chains: vec![vec![0, far]],
        };
        assert!(!emb.is_valid(&[], &hw));
        // Missing coupler for a logical edge: two same-side qubits.
        let emb = Embedding {
            chains: vec![vec![hw.index(0, 0, 0, 0)], vec![hw.index(1, 1, 0, 0)]],
        };
        assert!(!emb.is_valid(&[(0, 1)], &hw));
    }

    #[test]
    fn embedded_ising_ground_state_matches_logical() {
        // Logical problem: 3-spin frustrated Ising from a QUBO.
        let mut q = QuboModel::new(3);
        q.add_linear(0, -1.0);
        q.add_quadratic(0, 1, 2.0);
        q.add_quadratic(1, 2, -1.0);
        q.add_quadratic(0, 2, 1.0);
        let logical = IsingModel::from_qubo(&q);
        let hw = Chimera::new(2, 2, 4);
        let edges = vec![(0usize, 1usize), (1, 2), (0, 2)];
        let emb = find_embedding(&edges, 3, &hw, 5, 10).unwrap();
        let phys = embed_ising(&logical, &emb, &hw, 4.0);

        // Brute-force the physical model restricted to used qubits.
        let used: Vec<usize> = emb.chains.iter().flatten().copied().collect();
        assert!(used.len() <= 16, "test instance must stay enumerable");
        let mut best = (f64::INFINITY, vec![0i8; hw.num_qubits()]);
        for pattern in 0..(1u64 << used.len()) {
            let mut s = vec![-1i8; hw.num_qubits()];
            for (bit, &q) in used.iter().enumerate() {
                if (pattern >> bit) & 1 == 1 {
                    s[q] = 1;
                }
            }
            let e = phys.energy(&s);
            if e < best.0 {
                best = (e, s);
            }
        }
        let (logical_x, broken) = unembed(&best.1, &emb);
        assert_eq!(broken, 0, "ground state must have intact chains");
        let (brute_bits, brute_e) = q.brute_force_min();
        let bits = logical_x
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b)
            .fold(0u128, |acc, (i, _)| acc | (1 << i));
        assert_eq!(
            q.energy_bits(bits),
            brute_e,
            "bits {bits:b} vs {brute_bits:b}"
        );
    }

    #[test]
    fn unembed_majority_vote_and_breaks() {
        let emb = Embedding {
            chains: vec![vec![0, 1, 2], vec![3]],
        };
        let (x, broken) = unembed(&[1, 1, -1, -1, 0], &emb);
        assert_eq!(x, vec![true, false]);
        assert_eq!(broken, 1);
        let (x, broken) = unembed(&[1, 1, 1, 1, 0], &emb);
        assert_eq!(x, vec![true, true]);
        assert_eq!(broken, 0);
    }

    #[test]
    fn clique_embedding_is_valid_and_uniform() {
        let hw = Chimera::new(4, 4, 4);
        for n in [3usize, 8, 16] {
            let emb = clique_embedding(&hw, n).expect("fits natively");
            let edges = k_n_edges(n);
            assert!(emb.is_valid(&edges, &hw), "K{n} clique embedding");
            for chain in &emb.chains {
                assert_eq!(chain.len(), 5, "TRIAD chains have length m+1");
            }
        }
        assert!(clique_embedding(&hw, 17).is_none(), "K17 exceeds C(4,4,4)");
    }

    #[test]
    fn find_embedding_falls_back_to_clique_for_hard_instances() {
        // K14 on C(4,4,4) defeats the heuristic but fits the native
        // clique embedding.
        let hw = Chimera::new(4, 4, 4);
        let edges = k_n_edges(14);
        let emb = find_embedding(&edges, 14, &hw, 0, 4).expect("fallback covers K14");
        assert!(emb.is_valid(&edges, &hw));
    }
}
// (refinement tests live in the main test module above; appended here to
// keep the diff append-only)
#[cfg(test)]
mod refine_tests {
    use super::*;

    fn k_n_edges(n: usize) -> Vec<(usize, usize)> {
        (0..n)
            .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
            .collect()
    }

    #[test]
    fn refinement_never_worsens_and_stays_valid() {
        let hw = Chimera::new(6, 6, 4);
        // A sparse logical graph embedded via the (wasteful) clique layout.
        let edges: Vec<(usize, usize)> = (0..11).map(|i| (i, i + 1)).collect();
        let clique = clique_embedding(&hw, 12).unwrap();
        let before = clique.stats();
        let refined = refine_embedding(&clique, &edges, &hw, 1, 6);
        assert!(refined.is_valid(&edges, &hw));
        let after = refined.stats();
        assert!(after.num_physical <= before.num_physical);
        // A path on a roomy Chimera should shrink dramatically.
        assert!(
            after.avg_chain_len < before.avg_chain_len / 2.0,
            "path chains should shrink: {} vs {}",
            after.avg_chain_len,
            before.avg_chain_len
        );
    }

    #[test]
    fn refinement_on_a_clique_keeps_validity() {
        let hw = Chimera::new(4, 4, 4);
        let edges = k_n_edges(10);
        let clique = clique_embedding(&hw, 10).unwrap();
        let refined = refine_embedding(&clique, &edges, &hw, 3, 4);
        assert!(refined.is_valid(&edges, &hw));
        assert!(refined.stats().num_physical <= clique.stats().num_physical);
    }
}

#[cfg(test)]
mod constructive_tests {
    use super::*;

    #[test]
    fn constructive_embeds_moderate_cliques() {
        // Hard-blocking routing is greedy, so allow a few seeds; at least
        // one must route K10 on a roomy C(8,8,4).
        let hw = Chimera::new(8, 8, 4);
        let edges: Vec<(usize, usize)> = (0..10)
            .flat_map(|a| ((a + 1)..10).map(move |b| (a, b)))
            .collect();
        let emb = (0..8)
            .find_map(|seed| constructive_embedding(&edges, 10, &hw, seed))
            .expect("K10 routes on C(8,8,4) within 8 seeds");
        assert!(emb.is_valid(&edges, &hw));
    }

    #[test]
    fn constructive_never_overlaps_even_when_it_fails() {
        // On a tiny graph a big clique must fail — with None, not panic.
        let hw = Chimera::new(2, 2, 4);
        let edges: Vec<(usize, usize)> = (0..30)
            .flat_map(|a| ((a + 1)..30).map(move |b| (a, b)))
            .collect();
        assert!(constructive_embedding(&edges, 30, &hw, 0).is_none());
    }

    #[test]
    fn find_embedding_prefers_short_chains_via_constructive_path() {
        // The failure mode that motivated the constructive strategy: an
        // MKP-QUBO-like interaction graph (overlapping cliques) on a
        // roomy Chimera must embed with realistic chain lengths, not the
        // uniform clique fallback.
        let mut edges = Vec::new();
        for g in 0..6usize {
            let base = g * 5;
            for a in 0..6 {
                for b in (a + 1)..6 {
                    let (x, y) = (base + a, base + b);
                    if x < 33 && y < 33 && x != y {
                        edges.push((x.min(y), x.max(y)));
                    }
                }
            }
        }
        edges.dedup();
        let hw = Chimera::new(9, 9, 4);
        let emb = find_embedding(&edges, 33, &hw, 3, 6).expect("embeds");
        assert!(emb.is_valid(&edges, &hw));
        assert!(
            emb.stats().avg_chain_len < 9.0,
            "constructive+refine should beat the clique fallback's uniform 10: {}",
            emb.stats().avg_chain_len
        );
    }
}
