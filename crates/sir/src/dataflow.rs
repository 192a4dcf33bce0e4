//! CFG plumbing shared by the block-level analyses.
//!
//! A [`Graph`] exposes its nodes as `0..num_nodes()`, which lets SIR
//! functions, machine-IR functions and any other CFG plug in without
//! adapters beyond a trait impl. [`Edges`] flattens a graph's successor
//! lists once for the solvers and orders, and [`Reversed`] flips them, so
//! the backward gen/kill solver in [`crate::liveness`] also runs forward
//! problems (machine-IR definedness).

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

/// `g` with every edge flipped: node `n`'s successors are its predecessors
/// in `g`, in ascending node order. The entry stays `g`'s entry; the
/// solvers only use it as their first depth-first root.
#[derive(Debug, Clone)]
pub struct Reversed {
    preds: Edges,
    entry: usize,
}

impl Reversed {
    /// Flips every edge of `g`.
    pub fn of<G: Graph>(g: &G) -> Reversed {
        Reversed {
            preds: Edges::of(g).reversed(),
            entry: g.entry(),
        }
    }
}

impl Graph for Reversed {
    fn num_nodes(&self) -> usize {
        self.preds.at.len() - 1
    }

    fn entry(&self) -> usize {
        self.entry
    }

    fn for_each_succ(&self, n: usize, f: impl FnMut(usize)) {
        self.preds.succs(n).iter().copied().for_each(f);
    }
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

    /// A literal adjacency-list graph.
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

    fn sorted(mut v: Vec<usize>) -> Vec<usize> {
        v.sort_unstable();
        v
    }

    #[test]
    fn forward_reachability_ignores_disconnected_nodes() {
        // 0 -> 1 -> 2, node 3 disconnected (it only points into 2).
        let g = Adj {
            entry: 0,
            succs: vec![vec![1], vec![2], vec![], vec![2]],
        };
        assert_eq!(Edges::of(&g).postorder([g.entry()]), vec![2, 1, 0]);
        // Later roots pick up what earlier ones missed, once each.
        assert_eq!(Edges::of(&g).postorder([0, 3, 2]), vec![2, 1, 0, 3]);
    }

    #[test]
    fn backward_reaches_exit_through_loop() {
        // 0 -> 1 <-> 2, 1 -> 3 (exit); 4 only loops on itself.
        let g = Adj {
            entry: 0,
            succs: vec![vec![1], vec![2, 3], vec![1], vec![], vec![4]],
        };
        let r = Reversed::of(&g);
        assert_eq!(r.num_nodes(), 5);
        assert_eq!(r.entry(), 0);
        let mut preds = Vec::new();
        r.for_each_succ(1, |p| preds.push(p));
        assert_eq!(preds, vec![0, 2], "predecessors, ascending");
        assert_eq!(sorted(Edges::of(&r).postorder([3])), vec![0, 1, 2, 3]);
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
        let reach = Edges::of(&f).postorder([f.entry.index()]);
        assert!(
            reach.contains(&h.index()),
            "handler must be reachable via spec edge"
        );
        let mut preds = Vec::new();
        Reversed::of(&f).for_each_succ(h.index(), |p| preds.push(p));
        assert_eq!(preds, vec![r.index()]);
    }
}
