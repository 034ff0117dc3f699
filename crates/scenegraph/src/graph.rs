//! The semaphore-protected, asynchronously updated scene graph.
//!
//! §3.4: the viewer is multi-threaded, "with one thread dedicated to
//! interactive rendering, and other threads dedicated to receiving data from
//! the Visapult back end ... Except for a small amount of scene graph access
//! control with semaphores, I/O and rendering occur in an asynchronous
//! fashion, so all pipes are full."
//!
//! [`SceneGraph`] is that shared structure: I/O threads call
//! [`SceneGraph::update`]/[`SceneGraph::insert`] whenever a payload arrives,
//! the render thread calls [`SceneGraph::snapshot`] whenever it wants to draw
//! a frame, and neither waits on the other beyond the short critical section.

use crate::node::SceneNode;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of a node in the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u64);

/// Counters describing scene-graph activity, used to verify that updates and
/// rendering really are decoupled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SceneGraphStats {
    /// Number of insert/update/remove operations applied.
    pub updates: u64,
    /// Number of snapshots taken by render threads.
    pub snapshots: u64,
    /// Monotonic generation counter (bumps on every mutation).
    pub generation: u64,
}

#[derive(Default)]
struct Inner {
    nodes: BTreeMap<NodeId, SceneNode>,
    generation: u64,
}

/// A shared, retained-mode scene graph.
#[derive(Clone, Default)]
pub struct SceneGraph {
    inner: Arc<RwLock<Inner>>,
    next_id: Arc<AtomicU64>,
    updates: Arc<AtomicU64>,
    snapshots: Arc<AtomicU64>,
}

impl SceneGraph {
    /// An empty scene graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a node and return its id.
    pub fn insert(&self, node: SceneNode) -> NodeId {
        let id = NodeId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let mut inner = self.inner.write();
        inner.nodes.insert(id, node);
        inner.generation += 1;
        self.updates.fetch_add(1, Ordering::Relaxed);
        id
    }

    /// Replace the node with the given id (inserting it if absent).  This is
    /// what a viewer I/O thread does when a new texture arrives for its PE.
    pub fn update(&self, id: NodeId, node: SceneNode) {
        let mut inner = self.inner.write();
        inner.nodes.insert(id, node);
        inner.generation += 1;
        self.updates.fetch_add(1, Ordering::Relaxed);
    }

    /// Remove a node.  Returns the node if it existed.
    pub fn remove(&self, id: NodeId) -> Option<SceneNode> {
        let mut inner = self.inner.write();
        let out = inner.nodes.remove(&id);
        if out.is_some() {
            inner.generation += 1;
            self.updates.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// Number of nodes currently in the graph.
    pub fn len(&self) -> usize {
        self.inner.read().nodes.len()
    }

    /// True if the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A consistent copy of the graph contents, in id order.  The render
    /// thread calls this once per frame; the copy means rendering proceeds
    /// without holding the lock while I/O threads keep updating.  Textures
    /// and line sets are shared, so the copy is a refcount bump per node.
    pub fn snapshot(&self) -> Vec<(NodeId, SceneNode)> {
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        let inner = self.inner.read();
        inner.nodes.iter().map(|(id, n)| (*id, n.clone())).collect()
    }

    /// Clone of one node.
    pub fn get(&self, id: NodeId) -> Option<SceneNode> {
        self.inner.read().nodes.get(&id).cloned()
    }

    /// The current generation (bumped by every mutation); a render thread can
    /// skip redrawing when the generation has not changed.
    pub fn generation(&self) -> u64 {
        self.inner.read().generation
    }

    /// Activity counters.
    pub fn stats(&self) -> SceneGraphStats {
        SceneGraphStats {
            updates: self.updates.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            generation: self.inner.read().generation,
        }
    }

    /// Total payload bytes of everything in the graph — the viewer-side
    /// "object database" size the design keeps small (O(n²) in the volume
    /// resolution).
    pub fn payload_bytes(&self) -> u64 {
        self.inner.read().nodes.values().map(SceneNode::payload_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Quad3;
    use volren::RgbaImage;

    fn texture_node(size: usize, z: f32) -> SceneNode {
        SceneNode::TextureQuad {
            image: RgbaImage::new(size, size).into(),
            quad: Quad3::axis_aligned(2, [0.0, 0.0, z], 1.0, 1.0),
        }
    }

    #[test]
    fn insert_update_remove_roundtrip() {
        let g = SceneGraph::new();
        let id = g.insert(texture_node(4, 0.0));
        assert_eq!(g.len(), 1);
        assert!(g.get(id).is_some());
        g.update(id, texture_node(8, 0.0));
        match g.get(id).unwrap() {
            SceneNode::TextureQuad { image, .. } => assert_eq!(image.width(), 8),
            _ => panic!("wrong node type"),
        }
        assert!(g.remove(id).is_some());
        assert!(g.is_empty());
        assert!(g.remove(id).is_none());
    }

    #[test]
    fn generation_bumps_on_every_mutation() {
        let g = SceneGraph::new();
        let g0 = g.generation();
        let id = g.insert(texture_node(2, 0.0));
        let g1 = g.generation();
        g.update(id, texture_node(2, 1.0));
        let g2 = g.generation();
        assert!(g0 < g1 && g1 < g2);
        // Snapshots do not change the generation.
        let _ = g.snapshot();
        assert_eq!(g.generation(), g2);
    }

    #[test]
    fn snapshot_is_a_point_in_time_copy() {
        let g = SceneGraph::new();
        let id = g.insert(texture_node(2, 0.0));
        let snap = g.snapshot();
        g.update(id, texture_node(16, 0.0));
        // The old snapshot still shows the 2x2 texture.
        match &snap[0].1 {
            SceneNode::TextureQuad { image, .. } => assert_eq!(image.width(), 2),
            _ => panic!("wrong node type"),
        }
    }

    #[test]
    fn payload_bytes_sum_over_nodes() {
        let g = SceneGraph::new();
        g.insert(texture_node(8, 0.0));
        g.insert(texture_node(4, 1.0));
        assert_eq!(g.payload_bytes(), (8 * 8 * 4 + 4 * 4 * 4) as u64);
    }

    #[test]
    fn concurrent_updates_and_snapshots_do_not_interfere() {
        // Mimic the viewer: 4 I/O threads each updating their own texture
        // node many times while a render thread snapshots continuously.
        let g = SceneGraph::new();
        let ids: Vec<NodeId> = (0..4).map(|i| g.insert(texture_node(4, i as f32))).collect();
        let updates_per_thread = 200;
        std::thread::scope(|scope| {
            for (t, id) in ids.iter().enumerate() {
                let g = g.clone();
                let id = *id;
                scope.spawn(move || {
                    for k in 0..updates_per_thread {
                        g.update(id, texture_node(4 + (k % 3), t as f32));
                    }
                });
            }
            let g2 = g.clone();
            scope.spawn(move || {
                for _ in 0..300 {
                    let snap = g2.snapshot();
                    // Snapshots always see a consistent node count.
                    assert_eq!(snap.len(), 4);
                }
            });
        });
        let stats = g.stats();
        assert_eq!(stats.updates, 4 + 4 * updates_per_thread as u64);
        assert!(stats.snapshots >= 300);
    }
}
