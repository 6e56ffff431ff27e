//! The one deterministic input generator every workload draws from.
//!
//! Everything the program sees — base graphs, churn batches, query
//! arguments, seeds of its own sketches — comes out of a [`Gen`] built from
//! the run's `--seed`, on the single benchmark thread. The generator also
//! keeps the reference live-edge set ([`LiveSet`]) that every advanced
//! epoch is checked against.

use dsg_graph::{gen, Edge, Graph, NetMultiset, StreamUpdate, Vertex};
use dsg_hash::SplitMix64;
use std::collections::HashMap;

/// A seeded, single-threaded source of every benchmark input.
pub struct Gen {
    rng: SplitMix64,
}

impl Gen {
    /// The generator of workload `salt` under run seed `seed`.
    pub fn new(seed: u64, salt: u64) -> Self {
        Self {
            rng: SplitMix64::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// A fresh 64-bit value (used to seed the program's own sketches).
    pub fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform in `[0, bound)`.
    pub fn below(&mut self, bound: usize) -> usize {
        self.rng.next_below(bound as u64) as usize
    }

    /// A base graph of density `p`: uniform over graphs on `n` vertices
    /// with exactly `round(p · n(n-1)/2)` edges, so every seed loads the
    /// same number of edges.
    pub fn graph(&mut self, n: usize, p: f64) -> Graph {
        let seed = self.next_u64();
        let m = (p * (n * (n - 1) / 2) as f64).round() as usize;
        gen::gnm(n, m, seed)
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The generator's reference copy of the live graph: the edges every
/// served epoch must hold, in a form that supports O(1) random picks.
#[derive(Clone)]
pub struct LiveSet {
    n: usize,
    edges: Vec<Edge>,
    slot: HashMap<Edge, usize>,
}

impl LiveSet {
    /// An empty live set over `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            edges: Vec::new(),
            slot: HashMap::new(),
        }
    }

    /// Number of live edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edge is live.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    fn contains(&self, e: &Edge) -> bool {
        self.slot.contains_key(e)
    }

    fn insert(&mut self, e: Edge) {
        let at = self.edges.len();
        if self.slot.insert(e, at).is_none() {
            self.edges.push(e);
        }
    }

    fn remove(&mut self, e: &Edge) {
        if let Some(at) = self.slot.remove(e) {
            self.edges.swap_remove(at);
            if let Some(moved) = self.edges.get(at) {
                self.slot.insert(*moved, at);
            }
        }
    }

    fn random_pair(&self, g: &mut Gen) -> Edge {
        loop {
            let u = g.below(self.n) as Vertex;
            let v = g.below(self.n) as Vertex;
            if u != v {
                return Edge::new(u, v);
            }
        }
    }

    /// The inserts that load `graph` (shuffled), recorded as live.
    pub fn load(&mut self, graph: &Graph, g: &mut Gen) -> Vec<StreamUpdate> {
        let mut ups: Vec<StreamUpdate> = graph
            .edges()
            .iter()
            .map(|e| StreamUpdate::insert(e.u(), e.v()))
            .collect();
        g.shuffle(&mut ups);
        for e in graph.edges() {
            self.insert(*e);
        }
        ups
    }

    /// One epoch of balanced churn: `net / 2` live edges deleted and
    /// `net / 2` non-edges inserted (so the live graph keeps its size),
    /// plus `pairs` insert/delete pairs on other non-edges that cancel
    /// within the batch. The order is shuffled; each pair's insert comes
    /// before its delete. The reference set is advanced to the batch's
    /// net effect.
    pub fn churn(&mut self, g: &mut Gen, net: usize, pairs: usize) -> Vec<StreamUpdate> {
        let half = net / 2;
        let mut deleted = Vec::with_capacity(half);
        for _ in 0..half.min(self.len()) {
            let e = self.edges[g.below(self.len())];
            self.remove(&e);
            deleted.push(e);
        }
        let mut inserted: Vec<Edge> = Vec::with_capacity(half);
        while inserted.len() < half {
            let e = self.random_pair(g);
            if !self.contains(&e) && !deleted.contains(&e) && !inserted.contains(&e) {
                inserted.push(e);
            }
        }
        let mut cancelling = Vec::with_capacity(pairs);
        while cancelling.len() < pairs {
            let e = self.random_pair(g);
            if !self.contains(&e) && !inserted.contains(&e) {
                cancelling.push(e);
            }
        }
        for e in &inserted {
            self.insert(*e);
        }
        // Tokens: 0 = net delete, 1 = net insert, 2 = one half of a pair.
        let mut tokens: Vec<(u8, usize)> = Vec::with_capacity(net + 2 * pairs);
        tokens.extend((0..deleted.len()).map(|i| (0, i)));
        tokens.extend((0..inserted.len()).map(|i| (1, i)));
        tokens.extend((0..pairs).flat_map(|i| [(2, i), (2, i)]));
        g.shuffle(&mut tokens);
        let mut opened = vec![false; pairs];
        tokens
            .into_iter()
            .map(|(kind, i)| match kind {
                0 => StreamUpdate::delete(deleted[i].u(), deleted[i].v()),
                1 => StreamUpdate::insert(inserted[i].u(), inserted[i].v()),
                _ => {
                    let e = cancelling[i];
                    if std::mem::replace(&mut opened[i], true) {
                        StreamUpdate::delete(e.u(), e.v())
                    } else {
                        StreamUpdate::insert(e.u(), e.v())
                    }
                }
            })
            .collect()
    }

    /// Whether `net` holds exactly the reference live edges, each once
    /// with unit weight.
    pub fn matches(&self, net: &NetMultiset) -> bool {
        let entries = net.entries();
        entries.len() == self.edges.len()
            && entries
                .iter()
                .all(|e| e.multiplicity == 1 && e.weight == 1.0 && self.contains(&e.edge))
    }
}

/// Net changes for `frac` balanced churn on `live` edges: even, at least
/// one delete and one insert.
pub fn net_changes(live: usize, frac: f64) -> usize {
    let k = (frac * live as f64).round() as usize;
    (k.max(2) + 1) & !1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_keeps_size_and_orders_pairs() {
        let mut g = Gen::new(7, 1);
        let base = g.graph(60, 0.3);
        let mut live = LiveSet::new(60);
        let loaded = live.load(&base, &mut g);
        assert_eq!(loaded.len(), base.num_edges());
        let before = live.len();
        let batch = live.churn(&mut g, 6, 50);
        assert_eq!(batch.len(), 6 + 100);
        assert_eq!(live.len(), before);
        let mut all = loaded;
        all.extend(batch);
        let net = NetMultiset::from_updates(60, all.iter());
        assert!(live.matches(&net));
    }

    #[test]
    fn same_seed_same_inputs() {
        let run = |seed| {
            let mut g = Gen::new(seed, 3);
            let base = g.graph(40, 0.3);
            let mut live = LiveSet::new(40);
            let mut ups = live.load(&base, &mut g);
            ups.extend(live.churn(&mut g, 2, 10));
            ups
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn net_changes_are_even_and_balanced() {
        assert_eq!(net_changes(215, 0.01), 2);
        assert_eq!(net_changes(1837, 0.01), 18);
        assert_eq!(net_changes(10, 0.01), 2);
    }
}
