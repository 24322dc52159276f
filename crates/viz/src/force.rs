//! Directed force layout for the GROUPVIZ circles.
//!
//! "GROUPVIZ visualizes k groups in the form of circles. … The position of
//! circles is enforced by a directed force layout to prevent visual
//! clutter. The size of circles reflects the number of users in groups."
//!
//! The simulation follows the d3-force model: per tick, apply
//! many-body repulsion, pairwise **collision** resolution against circle
//! radii, **centering** toward the canvas center, and optional **link**
//! springs between similar groups; integrate with velocity Verlet and a
//! velocity decay. With k ≤ 7 circles convergence takes a few hundred
//! ticks; the clutter claim (C11) is measured as total pairwise overlap
//! area, which must hit zero.

/// One circle in the layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Position.
    pub x: f64,
    /// Position.
    pub y: f64,
    /// Velocity.
    pub vx: f64,
    /// Velocity.
    pub vy: f64,
    /// Circle radius (scaled from group size by the caller).
    pub radius: f64,
}

impl Node {
    /// A stationary node.
    pub fn new(x: f64, y: f64, radius: f64) -> Self {
        Self {
            x,
            y,
            vx: 0.0,
            vy: 0.0,
            radius,
        }
    }
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct ForceConfig {
    /// Canvas width.
    pub width: f64,
    /// Canvas height.
    pub height: f64,
    /// Many-body repulsion strength (d3's `charge`, negative = repel).
    pub charge: f64,
    /// Centering force strength toward the canvas center.
    pub centering: f64,
    /// Spring strength for links.
    pub link_strength: f64,
    /// Rest length for links.
    pub link_distance: f64,
    /// Velocity decay per tick (`0..1`).
    pub velocity_decay: f64,
    /// Extra padding between circles during collision resolution.
    pub collision_padding: f64,
}

impl Default for ForceConfig {
    fn default() -> Self {
        Self {
            width: 800.0,
            height: 600.0,
            charge: -120.0,
            centering: 0.05,
            link_strength: 0.05,
            link_distance: 120.0,
            velocity_decay: 0.6,
            collision_padding: 4.0,
        }
    }
}

/// The force simulation.
#[derive(Debug, Clone)]
pub struct ForceLayout {
    /// Current node states.
    pub nodes: Vec<Node>,
    links: Vec<(usize, usize, f64)>,
    cfg: ForceConfig,
}

impl ForceLayout {
    /// Create a layout. Nodes start on a deterministic phyllotaxis spiral
    /// around the canvas center (the same trick d3 uses) so identical
    /// inputs always produce identical layouts.
    pub fn new(radii: &[f64], cfg: ForceConfig) -> Self {
        let cx = cfg.width / 2.0;
        let cy = cfg.height / 2.0;
        let nodes = radii
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                let k = i as f64;
                let radius_step = 12.0 * (k + 1.0).sqrt();
                let angle = k * 2.399963229728653; // golden angle
                Node::new(
                    cx + radius_step * angle.cos(),
                    cy + radius_step * angle.sin(),
                    r,
                )
            })
            .collect();
        Self {
            nodes,
            links: Vec::new(),
            cfg,
        }
    }

    /// Add a spring between two nodes weighted by `strength ∈ [0,1]`
    /// (e.g. Jaccard similarity between the groups).
    pub fn link(&mut self, a: usize, b: usize, strength: f64) {
        assert!(a < self.nodes.len() && b < self.nodes.len());
        if a != b {
            self.links.push((a, b, strength.clamp(0.0, 1.0)));
        }
    }

    /// Advance one tick.
    pub fn tick(&mut self) {
        let n = self.nodes.len();
        if n == 0 {
            return;
        }
        let cx = self.cfg.width / 2.0;
        let cy = self.cfg.height / 2.0;
        // Many-body repulsion (exact O(n²); k ≤ 12 in practice).
        for i in 0..n {
            for j in i + 1..n {
                let dx = self.nodes[j].x - self.nodes[i].x;
                let dy = self.nodes[j].y - self.nodes[i].y;
                let d2 = (dx * dx + dy * dy).max(1.0);
                let f = self.cfg.charge / d2;
                let d = d2.sqrt();
                let (ux, uy) = (dx / d, dy / d);
                self.nodes[i].vx += f * ux;
                self.nodes[i].vy += f * uy;
                self.nodes[j].vx -= f * ux;
                self.nodes[j].vy -= f * uy;
            }
        }
        // Link springs.
        for &(a, b, s) in &self.links {
            let dx = self.nodes[b].x - self.nodes[a].x;
            let dy = self.nodes[b].y - self.nodes[a].y;
            let d = (dx * dx + dy * dy).sqrt().max(1e-6);
            let stretch = d - self.cfg.link_distance;
            let f = self.cfg.link_strength * s * stretch / d;
            self.nodes[a].vx += f * dx;
            self.nodes[a].vy += f * dy;
            self.nodes[b].vx -= f * dx;
            self.nodes[b].vy -= f * dy;
        }
        // Centering.
        for node in &mut self.nodes {
            node.vx += (cx - node.x) * self.cfg.centering;
            node.vy += (cy - node.y) * self.cfg.centering;
        }
        // Integrate with decay.
        for node in &mut self.nodes {
            node.vx *= self.cfg.velocity_decay;
            node.vy *= self.cfg.velocity_decay;
            node.x += node.vx;
            node.y += node.vy;
        }
        // Collision resolution: push overlapping circles apart directly
        // (position-based, like d3.forceCollide iterations).
        for _ in 0..3 {
            for i in 0..n {
                for j in i + 1..n {
                    let min_d =
                        self.nodes[i].radius + self.nodes[j].radius + self.cfg.collision_padding;
                    let dx = self.nodes[j].x - self.nodes[i].x;
                    let dy = self.nodes[j].y - self.nodes[i].y;
                    let d2 = dx * dx + dy * dy;
                    if d2 >= min_d * min_d {
                        continue;
                    }
                    let d = d2.sqrt().max(1e-6);
                    let overlap = (min_d - d) / 2.0;
                    let (ux, uy) = if d > 1e-5 {
                        (dx / d, dy / d)
                    } else {
                        // Coincident centers: separate along a stable axis.
                        let angle = (i * 7 + j) as f64;
                        (angle.cos(), angle.sin())
                    };
                    self.nodes[i].x -= ux * overlap;
                    self.nodes[i].y -= uy * overlap;
                    self.nodes[j].x += ux * overlap;
                    self.nodes[j].y += uy * overlap;
                }
            }
        }
        // Keep circles inside the canvas.
        for node in &mut self.nodes {
            node.x = node.x.clamp(node.radius, self.cfg.width - node.radius);
            node.y = node.y.clamp(node.radius, self.cfg.height - node.radius);
        }
    }

    /// Run `ticks` steps.
    pub fn run(&mut self, ticks: usize) {
        for _ in 0..ticks {
            self.tick();
        }
    }

    /// Total pairwise circle-overlap area — the clutter metric of C11.
    pub fn total_overlap_area(&self) -> f64 {
        let mut total = 0.0;
        for i in 0..self.nodes.len() {
            for j in i + 1..self.nodes.len() {
                total += circle_overlap(
                    (self.nodes[i].x, self.nodes[i].y, self.nodes[i].radius),
                    (self.nodes[j].x, self.nodes[j].y, self.nodes[j].radius),
                );
            }
        }
        total
    }
}

/// Intersection area of two circles `(x, y, r)`.
pub fn circle_overlap(a: (f64, f64, f64), b: (f64, f64, f64)) -> f64 {
    let d = ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
    let (r1, r2) = (a.2, b.2);
    if d >= r1 + r2 {
        return 0.0;
    }
    let (small, large) = if r1 < r2 { (r1, r2) } else { (r2, r1) };
    if d + small <= large {
        // Fully contained.
        return std::f64::consts::PI * small * small;
    }
    let part1 = small
        * small
        * ((d * d + small * small - large * large) / (2.0 * d * small))
            .clamp(-1.0, 1.0)
            .acos();
    let part2 = large
        * large
        * ((d * d + large * large - small * small) / (2.0 * d * large))
            .clamp(-1.0, 1.0)
            .acos();
    let part3 = 0.5
        * ((-d + small + large) * (d + small - large) * (d - small + large) * (d + small + large))
            .max(0.0)
            .sqrt();
    part1 + part2 - part3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_geometry() {
        // Disjoint.
        assert_eq!(circle_overlap((0.0, 0.0, 1.0), (5.0, 0.0, 1.0)), 0.0);
        // Identical circles overlap fully.
        let full = circle_overlap((0.0, 0.0, 2.0), (0.0, 0.0, 2.0));
        assert!((full - std::f64::consts::PI * 4.0).abs() < 1e-9);
        // Contained.
        let contained = circle_overlap((0.0, 0.0, 5.0), (1.0, 0.0, 1.0));
        assert!((contained - std::f64::consts::PI).abs() < 1e-9);
        // Half-ish overlap is positive and less than the smaller area.
        let partial = circle_overlap((0.0, 0.0, 1.0), (1.0, 0.0, 1.0));
        assert!(partial > 0.0 && partial < std::f64::consts::PI);
    }

    #[test]
    fn layout_eliminates_clutter() {
        // Seven circles (the paper's k ≤ 7) with chunky radii.
        let radii = [40.0, 35.0, 30.0, 28.0, 25.0, 22.0, 20.0];
        let mut layout = ForceLayout::new(&radii, ForceConfig::default());
        let before = layout.total_overlap_area();
        assert!(before > 0.0, "spiral seed should start cluttered");
        layout.run(300);
        let after = layout.total_overlap_area();
        assert!(
            after < 1e-6,
            "layout should remove all overlap, got {after} (before {before})"
        );
    }

    #[test]
    fn layout_is_deterministic() {
        let radii = [30.0, 20.0, 25.0];
        let mut a = ForceLayout::new(&radii, ForceConfig::default());
        let mut b = ForceLayout::new(&radii, ForceConfig::default());
        a.run(100);
        b.run(100);
        for (na, nb) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(na, nb);
        }
    }

    #[test]
    fn nodes_stay_on_canvas() {
        let radii = [50.0; 10];
        let mut layout = ForceLayout::new(
            &radii,
            ForceConfig {
                width: 400.0,
                height: 300.0,
                ..Default::default()
            },
        );
        layout.run(200);
        for n in &layout.nodes {
            assert!(n.x >= n.radius - 1e-9 && n.x <= 400.0 - n.radius + 1e-9);
            assert!(n.y >= n.radius - 1e-9 && n.y <= 300.0 - n.radius + 1e-9);
        }
    }

    #[test]
    fn links_pull_similar_groups_together() {
        let radii = [10.0, 10.0, 10.0, 10.0];
        let cfg = ForceConfig {
            link_distance: 30.0,
            link_strength: 0.8,
            charge: -400.0,
            centering: 0.01,
            ..Default::default()
        };
        let mut linked = ForceLayout::new(&radii, cfg.clone());
        linked.link(0, 1, 1.0);
        let mut unlinked = ForceLayout::new(&radii, cfg);
        linked.run(400);
        unlinked.run(400);
        let dist = |l: &ForceLayout, a: usize, b: usize| {
            ((l.nodes[a].x - l.nodes[b].x).powi(2) + (l.nodes[a].y - l.nodes[b].y).powi(2)).sqrt()
        };
        assert!(
            dist(&linked, 0, 1) < dist(&unlinked, 0, 1),
            "linked pair should sit closer"
        );
    }

    #[test]
    fn energy_decays_toward_equilibrium() {
        // Kinetic energy, the convergence indicator.
        let energy = |layout: &ForceLayout| -> f64 {
            layout.nodes.iter().map(|n| n.vx * n.vx + n.vy * n.vy).sum()
        };
        let radii = [30.0, 25.0, 20.0, 15.0];
        let mut layout = ForceLayout::new(&radii, ForceConfig::default());
        layout.run(20);
        let early = energy(&layout);
        layout.run(400);
        let late = energy(&layout);
        assert!(
            late < early.max(1e-3),
            "energy should decay: early {early} late {late}"
        );
    }

    #[test]
    fn empty_and_single_node() {
        let mut empty = ForceLayout::new(&[], ForceConfig::default());
        empty.run(10);
        assert!(empty.nodes.is_empty());
        let mut single = ForceLayout::new(&[20.0], ForceConfig::default());
        single.run(50);
        // Single node converges to center.
        assert!((single.nodes[0].x - 400.0).abs() < 1.0);
        assert!((single.nodes[0].y - 300.0).abs() < 1.0);
    }

    #[test]
    fn coincident_centers_get_separated() {
        let mut layout = ForceLayout::new(&[10.0, 10.0], ForceConfig::default());
        layout.nodes[0].x = 100.0;
        layout.nodes[0].y = 100.0;
        layout.nodes[1].x = 100.0;
        layout.nodes[1].y = 100.0;
        layout.run(50);
        let d = ((layout.nodes[0].x - layout.nodes[1].x).powi(2)
            + (layout.nodes[0].y - layout.nodes[1].y).powi(2))
        .sqrt();
        assert!(d >= 20.0, "separated distance {d}");
    }
}
