//! Algorithm selection.
//!
//! [`Algorithm`] enumerates the paper's comparison set and is consumed
//! by [`crate::session::SessionBuilder`].

/// The algorithms compared in the paper's evaluation (§V-A).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Algorithm {
    /// WSD with the learned (RL) weight function.
    WsdL,
    /// WSD with the GPS heuristic weight `9·|H(e)| + 1`.
    WsdH,
    /// WSD with uniform weights (control; not a paper column).
    WsdUniform,
    /// GPS adapted with DEL tags.
    GpsA,
    /// Plain GPS (insertion-only streams only).
    Gps,
    /// Triest-FD.
    Triest,
    /// ThinkD (accurate variant).
    ThinkD,
    /// Waiting-room sampling.
    Wrs,
}

impl Algorithm {
    /// Display name matching the paper's table headers.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::WsdL => "WSD-L",
            Algorithm::WsdH => "WSD-H",
            Algorithm::WsdUniform => "WSD-U",
            Algorithm::GpsA => "GPS-A",
            Algorithm::Gps => "GPS",
            Algorithm::Triest => "Triest",
            Algorithm::ThinkD => "ThinkD",
            Algorithm::Wrs => "WRS",
        }
    }

    /// The six-column comparison of Tables II/III/VII–X.
    pub fn paper_table_set() -> [Algorithm; 6] {
        [
            Algorithm::WsdL,
            Algorithm::WsdH,
            Algorithm::GpsA,
            Algorithm::Triest,
            Algorithm::ThinkD,
            Algorithm::Wrs,
        ]
    }

    /// True if the algorithm supports deletion events.
    pub fn supports_deletions(&self) -> bool {
        !matches!(self, Algorithm::Gps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionBuilder;
    use wsd_graph::{Edge, EdgeEvent, Pattern};

    #[test]
    fn factory_builds_every_algorithm() {
        for alg in [
            Algorithm::WsdL,
            Algorithm::WsdH,
            Algorithm::WsdUniform,
            Algorithm::GpsA,
            Algorithm::Gps,
            Algorithm::Triest,
            Algorithm::ThinkD,
            Algorithm::Wrs,
        ] {
            let mut s = SessionBuilder::new(alg, 64, 7).query(Pattern::Triangle).build();
            assert_eq!(s.name(), alg.name());
            s.process(EdgeEvent::insert(Edge::new(1, 2)));
            assert_eq!(s.report().queries[0].estimate, 0.0);
        }
    }

    #[test]
    fn paper_table_set_order() {
        let names: Vec<&str> = Algorithm::paper_table_set().iter().map(|a| a.name()).collect();
        assert_eq!(names, ["WSD-L", "WSD-H", "GPS-A", "Triest", "ThinkD", "WRS"]);
    }

    #[test]
    fn deletion_support_flags() {
        assert!(!Algorithm::Gps.supports_deletions());
        assert!(Algorithm::WsdL.supports_deletions());
        assert!(Algorithm::Wrs.supports_deletions());
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_policy_dimension_panics() {
        use crate::weight::LinearPolicy;
        let _ = SessionBuilder::new(Algorithm::WsdL, 64, 7)
            .query(Pattern::Triangle)
            .with_policy(LinearPolicy::neutral(5)) // triangle needs 6
            .build();
    }
}
