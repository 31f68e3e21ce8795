//! Catalog of the paper's Table 1 datasets, as scaled synthetic stand-ins.
//!
//! Each entry records the real dataset's size and family from Table 1 of the
//! paper, a default scale divisor chosen so the default instance fits
//! comfortably in memory (≤ ~1M adjacency entries), and a generator that
//! reproduces the family's structure (see [`crate::gen`]). The
//! `table1_datasets` bench binary prints the generated properties next to
//! the paper's numbers.

use crate::gen::{community, grid, pref_attach, sbm, social};
use crate::Graph;
use pargcn_matrix::Dense;

/// Scale divisor: the generated graph has `|V| = paper_vertices / divisor`
/// vertices with the family's average degree preserved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale(pub u32);

impl Scale {
    /// The paper's full dataset size (use only with enough memory).
    pub const FULL: Scale = Scale(1);
}

/// A generated dataset: the graph plus, for labelled datasets (Cora),
/// features/labels/train mask.
pub struct GraphData {
    pub graph: Graph,
    /// Class-correlated features; `None` for datasets the paper uses with
    /// random features (Table 2: "random vertex features and label data").
    pub features: Option<Dense>,
    pub labels: Option<Vec<u32>>,
    pub train_mask: Option<Vec<bool>>,
}

/// The eleven datasets of the paper's Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dataset {
    Amazon0601,
    CitPatents,
    CoPapersDblp,
    ComAmazon,
    ComYoutube,
    Flickr,
    RoadNetCa,
    SocSlashdot0902,
    Cora,
    OgbnPapers100M,
    Reddit,
}

impl Dataset {
    /// All datasets in Table 1 order.
    pub const ALL: [Dataset; 11] = [
        Dataset::Amazon0601,
        Dataset::CitPatents,
        Dataset::CoPapersDblp,
        Dataset::ComAmazon,
        Dataset::ComYoutube,
        Dataset::Flickr,
        Dataset::RoadNetCa,
        Dataset::SocSlashdot0902,
        Dataset::Cora,
        Dataset::OgbnPapers100M,
        Dataset::Reddit,
    ];

    /// The eight graphs used in Table 2 / Figure 3 (CPU experiments).
    pub const TABLE2: [Dataset; 8] = [
        Dataset::Amazon0601,
        Dataset::CitPatents,
        Dataset::CoPapersDblp,
        Dataset::ComAmazon,
        Dataset::ComYoutube,
        Dataset::Flickr,
        Dataset::RoadNetCa,
        Dataset::SocSlashdot0902,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Amazon0601 => "amazon0601",
            Dataset::CitPatents => "cit-Patents",
            Dataset::CoPapersDblp => "coPapersDBLP",
            Dataset::ComAmazon => "com-Amazon",
            Dataset::ComYoutube => "com-Youtube",
            Dataset::Flickr => "flickr",
            Dataset::RoadNetCa => "roadNet-CA",
            Dataset::SocSlashdot0902 => "soc-Slashdot0902",
            Dataset::Cora => "Cora",
            Dataset::OgbnPapers100M => "ogbn-Papers100M",
            Dataset::Reddit => "Reddit",
        }
    }

    /// `(vertices, edges, directed)` as reported in the paper's Table 1.
    pub fn paper_properties(&self) -> (usize, usize, bool) {
        match self {
            Dataset::Amazon0601 => (403_394, 3_387_388, true),
            Dataset::CitPatents => (3_774_768, 16_518_948, true),
            Dataset::CoPapersDblp => (540_486, 30_491_458, false),
            Dataset::ComAmazon => (334_863, 1_851_744, false),
            Dataset::ComYoutube => (1_134_890, 5_975_248, false),
            Dataset::Flickr => (820_878, 9_837_214, true),
            Dataset::RoadNetCa => (1_971_281, 5_533_214, false),
            Dataset::SocSlashdot0902 => (82_168, 948_464, true),
            Dataset::Cora => (2_708, 10_556, false),
            Dataset::OgbnPapers100M => (111_059_956, 1_615_685_872, true),
            Dataset::Reddit => (232_965, 114_615_892, false),
        }
    }

    /// Default scale divisor (chosen so the default instance stays under
    /// roughly a million adjacency entries; Cora is generated at full size).
    pub fn default_scale(&self) -> Scale {
        match self {
            Dataset::Amazon0601 => Scale(16),
            Dataset::CitPatents => Scale(64),
            Dataset::CoPapersDblp => Scale(64),
            Dataset::ComAmazon => Scale(8),
            Dataset::ComYoutube => Scale(16),
            Dataset::Flickr => Scale(32),
            Dataset::RoadNetCa => Scale(16),
            Dataset::SocSlashdot0902 => Scale(4),
            Dataset::Cora => Scale(1),
            Dataset::OgbnPapers100M => Scale(512),
            Dataset::Reddit => Scale(64),
        }
    }

    /// Scaled vertex count under `scale`.
    fn scaled_vertices(&self, scale: Scale) -> usize {
        let (v, _, _) = self.paper_properties();
        (v / scale.0 as usize).max(16)
    }

    /// Generates the dataset at the given scale, deterministically in `seed`.
    pub fn generate(&self, scale: Scale, seed: u64) -> GraphData {
        let (v, e, directed) = self.paper_properties();
        let n = self.scaled_vertices(scale);
        let avg_deg = e as f64 / v as f64;
        let graph = match self {
            Dataset::Amazon0601 | Dataset::ComAmazon => {
                community::copurchase(n, avg_deg, directed, seed)
            }
            Dataset::CoPapersDblp => community::coauthor(n, avg_deg, seed),
            Dataset::CitPatents | Dataset::OgbnPapers100M => {
                // Citation graphs: directed preferential attachment, m = avg
                // out-degree.
                pref_attach::generate(n, avg_deg.round().max(1.0) as usize, true, seed)
            }
            Dataset::ComYoutube | Dataset::Reddit => social::generate(n, avg_deg, false, seed),
            Dataset::Flickr | Dataset::SocSlashdot0902 => social::generate(n, avg_deg, true, seed),
            Dataset::RoadNetCa => grid::road_network(n, seed),
            Dataset::Cora => {
                let labelled = sbm::generate(
                    sbm::SbmParams {
                        n,
                        ..Default::default()
                    },
                    seed,
                );
                return GraphData {
                    graph: labelled.graph,
                    features: Some(labelled.features),
                    labels: Some(labelled.labels),
                    train_mask: Some(labelled.train_mask),
                };
            }
        };
        GraphData {
            graph,
            features: None,
            labels: None,
            train_mask: None,
        }
    }

    /// Generates at the default scale.
    pub fn generate_default(&self, seed: u64) -> GraphData {
        self.generate(self.default_scale(), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_datasets_generate_at_tiny_scale() {
        for ds in Dataset::ALL {
            // Very aggressive scaling for test speed.
            let scale = Scale(ds.default_scale().0.saturating_mul(16));
            let data = ds.generate(scale, 1);
            assert!(data.graph.n() >= 16, "{} empty", ds.name());
            assert!(data.graph.num_edges() > 0, "{} has no edges", ds.name());
            let (_, _, directed) = ds.paper_properties();
            assert_eq!(
                data.graph.directed(),
                directed,
                "{} directedness",
                ds.name()
            );
        }
    }

    #[test]
    fn cora_has_labels_and_features() {
        let data = Dataset::Cora.generate_default(0);
        assert!(data.features.is_some());
        assert_eq!(data.labels.as_ref().unwrap().len(), 2708);
    }

    #[test]
    fn road_network_is_least_skewed_social_most() {
        let road = Dataset::RoadNetCa.generate(Scale(256), 3);
        let social = Dataset::Flickr.generate(Scale(256), 3);
        assert!(
            road.graph.degree_stats().skew < social.graph.degree_stats().skew,
            "road skew {} should be below social skew {}",
            road.graph.degree_stats().skew,
            social.graph.degree_stats().skew
        );
    }

    #[test]
    fn average_degree_within_family_band() {
        // Degree should be within 3x of the paper value for representative sets.
        for ds in [
            Dataset::ComAmazon,
            Dataset::RoadNetCa,
            Dataset::SocSlashdot0902,
        ] {
            let (v, e, _) = ds.paper_properties();
            let paper_avg = e as f64 / v as f64;
            let g = ds.generate(Scale(ds.default_scale().0 * 4), 5).graph;
            let got = g.degree_stats().avg;
            assert!(
                got > paper_avg / 3.0 && got < paper_avg * 3.0,
                "{}: paper avg {paper_avg:.1}, generated {got:.1}",
                ds.name()
            );
        }
    }

    #[test]
    fn deterministic_generation() {
        let a = Dataset::ComAmazon.generate(Scale(64), 9);
        let b = Dataset::ComAmazon.generate(Scale(64), 9);
        assert_eq!(a.graph.adjacency().indices(), b.graph.adjacency().indices());
    }
}
