//! Network models.
//!
//! The paper's kernel offers an analytical, flow-based contention model
//! (validated against the GTNetS packet-level simulator) plus an
//! MPI-specific refinement: on cluster interconnects running TCP,
//! communication time is **piece-wise linear** in message size rather than
//! affine — small messages fit an IP frame and achieve a higher data rate,
//! and MPI implementations switch from buffered to synchronous mode above
//! a message-size threshold. The model is instantiated with 3 segments,
//! i.e. 8 parameters: 2 segment boundaries plus a latency and a bandwidth
//! correction factor per segment (Section 5).

use crate::resource::Route;

/// One segment of the piece-wise linear model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Upper bound (exclusive) of message sizes in this segment, bytes.
    /// The last segment uses `f64::INFINITY`.
    pub max_size: f64,
    /// Multiplier applied to the route's physical latency.
    pub lat_factor: f64,
    /// Multiplier applied to the achieved bandwidth (≤ 1 slows down,
    /// > 1 would speed up; protocol efficiency).
    pub bw_factor: f64,
}

/// Piece-wise linear correction of latency/bandwidth by message size.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseModel {
    segments: Vec<Segment>,
}

impl PiecewiseModel {
    /// A single-segment identity model (plain flow model, no correction).
    pub fn identity() -> Self {
        PiecewiseModel {
            segments: vec![Segment {
                max_size: f64::INFINITY,
                lat_factor: 1.0,
                bw_factor: 1.0,
            }],
        }
    }

    /// Builds a model from segments sorted by `max_size`; the last segment
    /// must be unbounded.
    pub fn new(segments: Vec<Segment>) -> Self {
        assert!(!segments.is_empty(), "piecewise model needs >= 1 segment");
        for w in segments.windows(2) {
            assert!(w[0].max_size < w[1].max_size, "segments must be sorted");
        }
        // panics: kernel invariant; violation means simulator state corruption
        let last = segments.last().unwrap();
        assert!(last.max_size.is_infinite(), "last segment must be unbounded");
        for s in &segments {
            assert!(s.lat_factor > 0.0 && s.bw_factor > 0.0);
        }
        PiecewiseModel { segments }
    }

    /// The default 3-segment instantiation for TCP cluster interconnects.
    ///
    /// Boundaries: 1420 B (payload fitting one IP frame) and 64 KiB (the
    /// usual eager/rendezvous protocol switch). Factors are plausible
    /// defaults in the range SimGrid's SMPI calibration produces for
    /// GigaEthernet; `tit-calibrate` refits them from ping-pong data.
    pub fn default_mpi() -> Self {
        PiecewiseModel::new(vec![
            Segment { max_size: 1420.0, lat_factor: 1.0, bw_factor: 0.42 },
            Segment { max_size: 65536.0, lat_factor: 1.9, bw_factor: 0.90 },
            Segment { max_size: f64::INFINITY, lat_factor: 2.2, bw_factor: 0.975 },
        ])
    }

    /// Returns `(lat_factor, bw_factor)` for a message of `size` bytes.
    pub fn factors(&self, size: f64) -> (f64, f64) {
        for s in &self.segments {
            if size < s.max_size {
                return (s.lat_factor, s.bw_factor);
            }
        }
        // panics: kernel invariant; violation means simulator state corruption
        let last = self.segments.last().unwrap();
        (last.lat_factor, last.bw_factor)
    }

    /// Segment index a message of `size` bytes falls in.
    pub fn segment_of(&self, size: f64) -> usize {
        self.segments.iter().position(|s| size < s.max_size).unwrap_or(self.segments.len() - 1)
    }

    /// The fitted segments, in increasing size order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of free parameters (2 boundaries + 2 factors per segment for
    /// the canonical 3-segment model = 8).
    pub fn num_parameters(&self) -> usize {
        (self.segments.len() - 1) + 2 * self.segments.len()
    }
}

/// Kernel-wide network configuration.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// When false, flows never share bandwidth: each transfers at the
    /// route's narrowest link speed (the simplistic model most simulators
    /// in the related work use; kept as an ablation baseline).
    pub contention: bool,
    /// Size-dependent latency/bandwidth correction.
    pub piecewise: PiecewiseModel,
    /// TCP congestion-window cap: when set, a flow's rate is additionally
    /// bounded by `gamma / (2 × route latency)` (bandwidth-delay product).
    pub tcp_gamma: Option<f64>,
    /// MPI sends below this size complete for the sender as soon as they
    /// are posted (buffered/eager mode); larger sends are synchronous
    /// (rendezvous), as the paper notes for `MPI_Send`.
    pub eager_threshold: f64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            contention: true,
            piecewise: PiecewiseModel::identity(),
            tcp_gamma: None,
            eager_threshold: 65536.0,
        }
    }
}

impl NetworkConfig {
    /// Configuration mirroring the paper's MPI-on-TCP cluster model.
    pub fn mpi_cluster() -> Self {
        NetworkConfig {
            contention: true,
            piecewise: PiecewiseModel::default_mpi(),
            tcp_gamma: Some(4_194_304.0),
            eager_threshold: 65536.0,
        }
    }

    /// Contention-free constant model (related-work baseline).
    pub fn constant() -> Self {
        NetworkConfig { contention: false, ..Default::default() }
    }

    /// Whether a send of `size` bytes is eager (the sender is released
    /// at post time) rather than rendezvous.
    pub fn is_eager(&self, size: f64) -> bool {
        size <= self.eager_threshold
    }

    /// The rate bound of one flow over `route`, shared links aside: the
    /// route's fat-pipe bound, capped by the TCP window
    /// `gamma / (2 × latency)`; without contention, by the narrowest
    /// link too. A flow no shared link constrains and no finite cap
    /// bounds runs at the narrowest link's speed.
    pub fn flow_bound(&self, route: &Route) -> f64 {
        let mut bound = route.bound;
        if let Some(gamma) = self.tcp_gamma {
            if route.latency > 0.0 {
                bound = bound.min(gamma / (2.0 * route.latency));
            }
        }
        if !self.contention {
            bound = bound.min(route.min_bw);
        }
        if (!self.contention || route.shared.is_empty()) && bound.is_infinite() {
            bound = route.min_bw;
        }
        bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_factors_are_one() {
        let m = PiecewiseModel::identity();
        assert_eq!(m.factors(0.0), (1.0, 1.0));
        assert_eq!(m.factors(1e12), (1.0, 1.0));
        assert_eq!(m.segment_of(1e12), 0);
    }

    #[test]
    fn default_mpi_has_three_segments_eight_parameters() {
        let m = PiecewiseModel::default_mpi();
        assert_eq!(m.segments().len(), 3);
        assert_eq!(m.num_parameters(), 8);
    }

    #[test]
    fn segment_selection_by_size() {
        let m = PiecewiseModel::default_mpi();
        assert_eq!(m.segment_of(100.0), 0);
        assert_eq!(m.segment_of(1420.0), 1); // boundary is exclusive
        assert_eq!(m.segment_of(10_000.0), 1);
        assert_eq!(m.segment_of(1e9), 2);
    }

    #[test]
    fn small_messages_see_lower_latency_factor() {
        let m = PiecewiseModel::default_mpi();
        let (lat_s, _) = m.factors(64.0);
        let (lat_l, _) = m.factors(1e6);
        assert!(lat_s < lat_l);
    }

    #[test]
    #[should_panic(expected = "unbounded")]
    fn last_segment_must_be_unbounded() {
        PiecewiseModel::new(vec![Segment { max_size: 10.0, lat_factor: 1.0, bw_factor: 1.0 }]);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn segments_must_be_sorted() {
        PiecewiseModel::new(vec![
            Segment { max_size: 100.0, lat_factor: 1.0, bw_factor: 1.0 },
            Segment { max_size: 10.0, lat_factor: 1.0, bw_factor: 1.0 },
            Segment { max_size: f64::INFINITY, lat_factor: 1.0, bw_factor: 1.0 },
        ]);
    }
}
