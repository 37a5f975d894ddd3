//! Link latency models.
//!
//! The paper's testbed spreads validators over 13 AWS regions (§5). The
//! [`GeoLatency`] model embeds an approximate inter-region RTT matrix for
//! exactly those regions; the harness that builds it decides which node
//! lives where. One-way delay is half the RTT plus multiplicative jitter.

use crate::time::Duration;
use crate::NodeId;
use rand::Rng;

/// Number of AWS regions in the paper's deployment.
pub const REGION_COUNT: usize = 13;

/// One of the paper's 13 AWS regions.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Region {
    /// N. Virginia
    UsEast1,
    /// Oregon
    UsWest2,
    /// Canada (Montreal)
    CaCentral1,
    /// Frankfurt
    EuCentral1,
    /// Ireland
    EuWest1,
    /// London
    EuWest2,
    /// Paris
    EuWest3,
    /// Stockholm
    EuNorth1,
    /// Mumbai
    ApSouth1,
    /// Singapore
    ApSoutheast1,
    /// Sydney
    ApSoutheast2,
    /// Tokyo
    ApNortheast1,
    /// Seoul
    ApNortheast2,
}

impl Region {
    /// All regions, in the paper's listing order.
    pub const ALL: [Region; REGION_COUNT] = [
        Region::UsEast1,
        Region::UsWest2,
        Region::CaCentral1,
        Region::EuCentral1,
        Region::EuWest1,
        Region::EuWest2,
        Region::EuWest3,
        Region::EuNorth1,
        Region::ApSouth1,
        Region::ApSoutheast1,
        Region::ApSoutheast2,
        Region::ApNortheast1,
        Region::ApNortheast2,
    ];

    /// The AWS region name.
    pub fn name(self) -> &'static str {
        match self {
            Region::UsEast1 => "us-east-1",
            Region::UsWest2 => "us-west-2",
            Region::CaCentral1 => "ca-central-1",
            Region::EuCentral1 => "eu-central-1",
            Region::EuWest1 => "eu-west-1",
            Region::EuWest2 => "eu-west-2",
            Region::EuWest3 => "eu-west-3",
            Region::EuNorth1 => "eu-north-1",
            Region::ApSouth1 => "ap-south-1",
            Region::ApSoutheast1 => "ap-southeast-1",
            Region::ApSoutheast2 => "ap-southeast-2",
            Region::ApNortheast1 => "ap-northeast-1",
            Region::ApNortheast2 => "ap-northeast-2",
        }
    }

    fn index(self) -> usize {
        Region::ALL.iter().position(|r| *r == self).expect("member of ALL")
    }
}

/// Approximate inter-region round-trip times in milliseconds.
///
/// Values are representative public measurements (same order as
/// [`Region::ALL`]); only the row-to-row *shape* matters for the
/// reproduction — EU/US form a tight cluster, APAC regions are remote.
/// The matrix is symmetric with ~1 ms intra-region RTT.
const RTT_MS: [[u32; REGION_COUNT]; REGION_COUNT] = [
    //           use1 usw2  cac  euc  euw1 euw2 euw3  eun  aps  apse1 apse2 apne1 apne2
    /* use1  */
    [1, 65, 15, 90, 70, 75, 80, 110, 190, 220, 200, 160, 180],
    /* usw2  */ [65, 1, 60, 150, 130, 135, 140, 165, 220, 165, 140, 100, 120],
    /* cac   */ [15, 60, 1, 95, 75, 80, 85, 110, 200, 215, 210, 155, 175],
    /* euc   */ [90, 150, 95, 1, 25, 15, 10, 25, 110, 160, 280, 230, 240],
    /* euw1  */ [70, 130, 75, 25, 1, 12, 18, 40, 125, 180, 280, 220, 240],
    /* euw2  */ [75, 135, 80, 15, 12, 1, 8, 30, 115, 170, 275, 215, 235],
    /* euw3  */ [80, 140, 85, 10, 18, 8, 1, 30, 105, 160, 280, 225, 235],
    /* eun   */ [110, 165, 110, 25, 40, 30, 30, 1, 140, 190, 300, 250, 260],
    /* aps   */ [190, 220, 200, 110, 125, 115, 105, 140, 1, 60, 150, 120, 130],
    /* apse1 */ [220, 165, 215, 160, 180, 170, 160, 190, 60, 1, 95, 70, 75],
    /* apse2 */ [200, 140, 210, 280, 280, 275, 280, 300, 150, 95, 1, 105, 135],
    /* apne1 */ [160, 100, 155, 230, 220, 215, 225, 250, 120, 70, 105, 1, 35],
    /* apne2 */ [180, 120, 175, 240, 240, 235, 235, 260, 130, 75, 135, 35, 1],
];

/// Multiplicative jitter bound: a one-way delay is scaled by a factor
/// drawn uniformly from `[1.0, 1.0 + JITTER]`.
const JITTER: f64 = 0.10;

/// Geo-distributed latency: each node lives in the region its caller
/// assigned it (`build_sim` spreads validators over the 13 regions
/// round-robin, "as equally as possible" like the paper, and puts each
/// client beside its validator).
#[derive(Clone, Debug)]
pub struct GeoLatency {
    assignment: Vec<Region>,
}

impl GeoLatency {
    /// Node `i` lives in `assignment[i]`.
    pub fn with_assignment(assignment: Vec<Region>) -> Self {
        GeoLatency { assignment }
    }

    fn one_way(&self, from: NodeId, to: NodeId, rng: &mut impl Rng) -> Duration {
        let a = self.assignment[from.0].index();
        let b = self.assignment[to.0].index();
        let rtt_us = RTT_MS[a][b] as f64 * 1000.0;
        let factor = 1.0 + rng.gen::<f64>() * JITTER;
        Duration::from_micros((rtt_us / 2.0 * factor) as u64)
    }
}

/// How long a message takes from `from` to `to`.
#[derive(Clone, Debug)]
pub enum LatencyModel {
    /// Fixed one-way delay for every link (tests).
    Constant(Duration),
    /// The 13-region AWS matrix.
    Geo(GeoLatency),
}

impl LatencyModel {
    /// Samples the one-way delay for a message on `from → to`.
    pub fn sample(&self, from: NodeId, to: NodeId, rng: &mut impl Rng) -> Duration {
        match self {
            LatencyModel::Constant(d) => *d,
            LatencyModel::Geo(geo) => geo.one_way(from, to, rng),
        }
    }
}

impl Default for LatencyModel {
    /// A 25 ms constant one-way delay: a fast homogeneous LAN-ish default
    /// for unit tests.
    fn default() -> Self {
        LatencyModel::Constant(Duration::from_millis(25))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn matrix_is_symmetric_with_unit_diagonal() {
        for i in 0..REGION_COUNT {
            assert_eq!(RTT_MS[i][i], 1, "diagonal at {i}");
            for j in 0..REGION_COUNT {
                assert_eq!(RTT_MS[i][j], RTT_MS[j][i], "symmetry at ({i},{j})");
            }
        }
    }

    /// Node `i` in region `i`: the 13 regions once each.
    fn every_region() -> LatencyModel {
        LatencyModel::Geo(GeoLatency::with_assignment(Region::ALL.to_vec()))
    }

    #[test]
    fn geo_delay_within_bounds() {
        // us-east-1 → ap-southeast-2: half the 200 ms RTT, plus jitter.
        let model = every_region();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let d = model.sample(NodeId(0), NodeId(10), &mut rng);
            assert!(d >= Duration::from_millis(100), "{d}");
            assert!(d <= Duration::from_millis(110), "{d}");
        }
    }

    #[test]
    fn constant_model_is_constant() {
        let model = LatencyModel::Constant(Duration::from_millis(10));
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            assert_eq!(model.sample(NodeId(0), NodeId(1), &mut rng), Duration::from_millis(10));
        }
    }

    #[test]
    fn geo_sampling_is_deterministic_per_seed() {
        let model = every_region();
        let sample = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..50)
                .map(|i| model.sample(NodeId(i % 13), NodeId((i * 7) % 13), &mut rng).as_micros())
                .collect::<Vec<_>>()
        };
        assert_eq!(sample(9), sample(9));
        assert_ne!(sample(9), sample(10));
    }

    #[test]
    fn region_names_match_paper() {
        assert_eq!(Region::UsEast1.name(), "us-east-1");
        assert_eq!(Region::ApNortheast2.name(), "ap-northeast-2");
        assert_eq!(Region::ALL.len(), REGION_COUNT);
    }

    #[test]
    fn apac_is_farther_than_intra_eu() {
        // Sanity on the matrix shape the experiments rely on.
        let fra = Region::EuCentral1.index();
        let lon = Region::EuWest2.index();
        let syd = Region::ApSoutheast2.index();
        assert!(RTT_MS[fra][lon] < 30);
        assert!(RTT_MS[fra][syd] > 200);
    }
}
