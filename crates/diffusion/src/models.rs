//! Triggering-model variants of the diffusion process.
//!
//! The paper builds on the classic triggering models of Kempe et al. \[1\]:
//! the Independent Cascade (IC) and the Linear Threshold (LT).  The dynamic
//! factors (preferences, perceptions, influence strengths, item
//! associations) extend either model; the experiments of the paper use the
//! IC-based variant, so it is the default everywhere in this suite.

/// Which triggering model governs a promotion attempt.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DiffusionModel {
    /// Independent Cascade: when `u'` newly adopts `x`, it gets one
    /// independent chance to make its friend `u` adopt `x` with probability
    /// `P_act(u', u) · P_pref(u, x)`.
    #[default]
    IndependentCascade,
    /// Linear Threshold: every user draws a threshold `θ_{u,x} ~ U[0, 1]`
    /// per item at the start of the simulation and adopts `x` once the sum
    /// of `P_act(u', u) · P_pref(u, x)` over in-neighbours that have adopted
    /// `x` reaches the threshold.
    LinearThreshold,
}

impl DiffusionModel {
    /// A short machine-readable name (used in experiment CSV output).
    pub fn name(&self) -> &'static str {
        match self {
            DiffusionModel::IndependentCascade => "ic",
            DiffusionModel::LinearThreshold => "lt",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_independent_cascade() {
        assert_eq!(
            DiffusionModel::default(),
            DiffusionModel::IndependentCascade
        );
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(DiffusionModel::IndependentCascade.name(), "ic");
        assert_eq!(DiffusionModel::LinearThreshold.name(), "lt");
    }
}
