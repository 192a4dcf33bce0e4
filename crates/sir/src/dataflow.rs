//! A small reusable dataflow framework.
//!
//! Analyses in the pipeline (known-bits narrowing in `opt`, def-before-use
//! checking over machine IR in `backend`, and the `bitlint` region checks)
//! share the same shape: a monotone transfer function iterated over a CFG to
//! a fixpoint, forward or backward, with an optional widening hook to force
//! termination on growing lattices. This module factors that shape out so
//! each analysis only supplies its lattice and transfer.
//!
//! The framework is deliberately index-based: a [`Graph`] exposes its nodes
//! as `0..num_nodes()`, which lets SIR functions, machine-IR functions and
//! any other CFG plug in without adapters beyond a trait impl.

/// Direction of the dataflow iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from predecessors to successors.
    Forward,
    /// Facts flow from successors to predecessors.
    Backward,
}

/// A directed graph with a distinguished entry node.
pub trait Graph {
    /// Number of nodes; node ids are `0..num_nodes()`.
    fn num_nodes(&self) -> usize;
    /// The entry node.
    fn entry(&self) -> usize;
    /// Calls `f` on every successor node id of `n`, without allocating
    /// (including speculative/handler edges where the graph has them — the
    /// analysis sees the conservative CFG).
    fn for_each_succ(&self, n: usize, f: impl FnMut(usize));
}

/// A dataflow analysis over graph `G`.
pub trait Analysis<G: Graph> {
    /// The lattice element attached to each node.
    type Fact: Clone + PartialEq;

    /// Iteration direction.
    fn direction(&self) -> Direction;

    /// The fact entering the graph: at the entry node for forward analyses,
    /// at exit nodes (no successors) for backward analyses.
    fn boundary(&self, g: &G) -> Self::Fact;

    /// The optimistic initial fact for every node.
    fn init(&self, g: &G, n: usize) -> Self::Fact;

    /// Joins `from` into `into`; returns true when `into` changed.
    fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool;

    /// The node transfer function: computes the output fact from the input.
    fn transfer(&self, g: &G, n: usize, input: &Self::Fact) -> Self::Fact;

    /// Widening hook, called after each transfer with the previous output
    /// (`old`), the freshly computed output (`new`, mutable) and the number
    /// of times this node has been processed. Analyses over unbounded-height
    /// lattices jump still-changing entries to top here; the default is a
    /// no-op.
    fn widen(&self, _g: &G, _n: usize, _old: &Self::Fact, _new: &mut Self::Fact, _visits: u32) {}
}

/// The fixpoint: per-node input and output facts.
///
/// For forward analyses `input[n]` is the fact at block entry and
/// `output[n]` the fact at block exit; for backward analyses the roles are
/// mirrored (`input[n]` is the fact at block exit).
#[derive(Debug, Clone)]
pub struct Solution<F> {
    pub input: Vec<F>,
    pub output: Vec<F>,
}

/// A graph's successor lists, flattened once: node `n`'s successors are
/// `succs(n)`, in the graph's order.
#[derive(Debug, Clone)]
pub struct Edges {
    at: Vec<usize>,
    to: Vec<usize>,
}

impl Edges {
    /// Collects every successor list of `g`.
    pub fn of<G: Graph>(g: &G) -> Edges {
        let mut at = Vec::with_capacity(g.num_nodes() + 1);
        let mut to = Vec::new();
        for n in 0..g.num_nodes() {
            at.push(to.len());
            g.for_each_succ(n, |s| to.push(s));
        }
        at.push(to.len());
        Edges { at, to }
    }

    /// Successors of node `n`.
    pub(crate) fn succs(&self, n: usize) -> &[usize] {
        &self.to[self.at[n]..self.at[n + 1]]
    }

    /// The reversed graph: predecessor lists, each in ascending node order.
    pub(crate) fn reversed(&self) -> Edges {
        let mut lists = vec![Vec::new(); self.at.len() - 1];
        for (u, w) in self.at.windows(2).enumerate() {
            self.to[w[0]..w[1]].iter().for_each(|&s| lists[s].push(u));
        }
        let mut at = vec![0];
        for l in &lists {
            at.push(at[at.len() - 1] + l.len());
        }
        let to = lists.concat();
        Edges { at, to }
    }

    /// Depth-first postorder (successors in graph order) from each of
    /// `roots` in turn, skipping nodes an earlier root reached.
    pub fn postorder(&self, roots: impl IntoIterator<Item = usize>) -> Vec<usize> {
        let mut seen = vec![false; self.at.len() - 1];
        let mut post = Vec::with_capacity(seen.len());
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for root in roots {
            if std::mem::replace(&mut seen[root], true) {
                continue;
            }
            stack.push((root, self.at[root]));
            while let Some(top) = stack.last_mut() {
                let u = top.0;
                if top.1 == self.at[u + 1] {
                    stack.pop();
                    post.push(u);
                    continue;
                }
                let s = self.to[top.1];
                top.1 += 1;
                if !std::mem::replace(&mut seen[s], true) {
                    stack.push((s, self.at[s]));
                }
            }
        }
        post
    }
}

/// Runs `a` over `g` to a fixpoint with a worklist.
pub fn solve<G: Graph, A: Analysis<G>>(g: &G, a: &A) -> Solution<A::Fact> {
    let n = g.num_nodes();
    let forward = a.direction() == Direction::Forward;
    // Edge lists in iteration direction: `flow_preds.succs(n)` are the nodes
    // whose output feeds n's input.
    let succs = Edges::of(g);
    let preds = succs.reversed();
    let (flow_preds, flow_succs) = if forward {
        (&preds, &succs)
    } else {
        (&succs, &preds)
    };
    // Boundary nodes: the entry (forward) or every exit (backward).
    let boundary = |i: usize| {
        if forward {
            i == g.entry()
        } else {
            succs.succs(i).is_empty()
        }
    };

    let mut input: Vec<A::Fact> = (0..n).map(|i| a.init(g, i)).collect();
    let mut output: Vec<A::Fact> = (0..n).map(|i| a.init(g, i)).collect();
    let mut visits: Vec<u32> = vec![0; n];
    let mut queued: Vec<bool> = vec![true; n];
    // Seed the worklist with every node (unreachable nodes settle on their
    // init facts after one transfer).
    let mut work: std::collections::VecDeque<usize> = (0..n).collect();
    while let Some(u) = work.pop_front() {
        queued[u] = false;
        visits[u] += 1;
        // input[u] = join of boundary (if boundary node) and flow-preds.
        let mut inp = a.init(g, u);
        if boundary(u) {
            a.join(&mut inp, &a.boundary(g));
        }
        for &p in flow_preds.succs(u) {
            a.join(&mut inp, &output[p]);
        }
        let mut out = a.transfer(g, u, &inp);
        a.widen(g, u, &output[u], &mut out, visits[u]);
        input[u] = inp;
        if out != output[u] {
            output[u] = out;
            for &s in flow_succs.succs(u) {
                if !queued[s] {
                    queued[s] = true;
                    work.push_back(s);
                }
            }
        }
    }
    Solution { input, output }
}

/// [`Graph`] over a SIR function's CFG, with misspeculation (handler) edges
/// included so facts reach handlers conservatively.
impl Graph for crate::func::Function {
    fn num_nodes(&self) -> usize {
        self.blocks.len()
    }

    fn entry(&self) -> usize {
        self.entry.index()
    }

    fn for_each_succ(&self, n: usize, mut f: impl FnMut(usize)) {
        for b in self.spec_succs(crate::types::BlockId(n as u32)) {
            f(b.index());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A literal adjacency-list graph for framework tests.
    struct Adj {
        entry: usize,
        succs: Vec<Vec<usize>>,
    }

    impl Graph for Adj {
        fn num_nodes(&self) -> usize {
            self.succs.len()
        }
        fn entry(&self) -> usize {
            self.entry
        }
        fn for_each_succ(&self, n: usize, f: impl FnMut(usize)) {
            self.succs[n].iter().copied().for_each(f);
        }
    }

    /// Forward reachability: a node's fact is true iff it is reachable from
    /// the entry.
    struct Reach;

    impl Analysis<Adj> for Reach {
        type Fact = bool;
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn boundary(&self, _g: &Adj) -> bool {
            true
        }
        fn init(&self, _g: &Adj, _n: usize) -> bool {
            false
        }
        fn join(&self, into: &mut bool, from: &bool) -> bool {
            let old = *into;
            *into |= *from;
            *into != old
        }
        fn transfer(&self, _g: &Adj, _n: usize, input: &bool) -> bool {
            *input
        }
    }

    /// Backward "can reach an exit" over the same graphs.
    struct ReachesExit;

    impl Analysis<Adj> for ReachesExit {
        type Fact = bool;
        fn direction(&self) -> Direction {
            Direction::Backward
        }
        fn boundary(&self, _g: &Adj) -> bool {
            true
        }
        fn init(&self, _g: &Adj, _n: usize) -> bool {
            false
        }
        fn join(&self, into: &mut bool, from: &bool) -> bool {
            let old = *into;
            *into |= *from;
            *into != old
        }
        fn transfer(&self, _g: &Adj, _n: usize, input: &bool) -> bool {
            *input
        }
    }

    /// A counter analysis whose lattice would climb forever without the
    /// widening hook.
    struct Count {
        cutoff: u32,
    }

    impl Analysis<Adj> for Count {
        type Fact = u64;
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn boundary(&self, _g: &Adj) -> u64 {
            0
        }
        fn init(&self, _g: &Adj, _n: usize) -> u64 {
            0
        }
        fn join(&self, into: &mut u64, from: &u64) -> bool {
            let old = *into;
            *into = (*into).max(*from);
            *into != old
        }
        fn transfer(&self, _g: &Adj, _n: usize, input: &u64) -> u64 {
            input.saturating_add(1)
        }
        fn widen(&self, _g: &Adj, _n: usize, old: &u64, new: &mut u64, visits: u32) {
            if visits > self.cutoff && new != old {
                *new = u64::MAX;
            }
        }
    }

    #[test]
    fn forward_reachability_ignores_disconnected_nodes() {
        // 0 -> 1 -> 2, node 3 disconnected.
        let g = Adj {
            entry: 0,
            succs: vec![vec![1], vec![2], vec![], vec![2]],
        };
        let s = solve(&g, &Reach);
        assert_eq!(s.output, vec![true, true, true, false]);
    }

    #[test]
    fn backward_reaches_exit_through_loop() {
        // 0 -> 1 <-> 2, 1 -> 3(exit); all can reach the exit.
        let g = Adj {
            entry: 0,
            succs: vec![vec![1], vec![2, 3], vec![1], vec![]],
        };
        let s = solve(&g, &ReachesExit);
        assert_eq!(s.output, vec![true, true, true, true]);
    }

    #[test]
    fn widening_forces_termination_on_a_loop() {
        // 0 -> 1 -> 1 (self loop): the count climbs until widening fires.
        let g = Adj {
            entry: 0,
            succs: vec![vec![1], vec![1]],
        };
        let s = solve(&g, &Count { cutoff: 8 });
        assert_eq!(s.output[1], u64::MAX);
        // Node 0 is outside the loop: no widening, exact count.
        assert_eq!(s.output[0], 1);
    }

    #[test]
    fn sir_function_graph_includes_handler_edges() {
        use crate::inst::Terminator;
        let mut f = crate::func::Function::new("g", vec![], None);
        let r = f.add_block();
        let h = f.add_block();
        f.block_mut(f.entry).term = Terminator::Br(r);
        f.block_mut(r).term = Terminator::Ret(None);
        f.block_mut(h).term = Terminator::Ret(None);
        f.add_region(vec![r], h);
        let mut succs = Vec::new();
        f.for_each_succ(r.index(), |s| succs.push(s));
        assert_eq!(succs, vec![h.index()]);
        let s = solve(&f, &ReachSir);
        assert!(
            s.output[h.index()],
            "handler must be reachable via spec edge"
        );
    }

    /// Reach over SIR functions (same lattice as `Reach`).
    struct ReachSir;

    impl Analysis<crate::func::Function> for ReachSir {
        type Fact = bool;
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn boundary(&self, _g: &crate::func::Function) -> bool {
            true
        }
        fn init(&self, _g: &crate::func::Function, _n: usize) -> bool {
            false
        }
        fn join(&self, into: &mut bool, from: &bool) -> bool {
            let old = *into;
            *into |= *from;
            *into != old
        }
        fn transfer(&self, _g: &crate::func::Function, _n: usize, input: &bool) -> bool {
            *input
        }
    }
}
