//! Composite generators: random mixtures of error types and clean copies.

use crate::ErrorGen;
use lvp_dataframe::DataFrame;
use lvp_models::BlackBoxModel;
use rand::rngs::StdRng;
use rand::Rng;

/// The probability with which a [`Mixture`] includes each member.
const INCLUDE_PROB: f64 = 0.5;

/// Applies a randomly chosen subset of its member generators in sequence
/// (§6.2: "randomly chosen mixtures of four different error types ... with
/// different probabilities").
///
/// Each member is included independently with probability 0.5; if the
/// sampled subset is empty, one random member is applied so the mixture
/// always corrupts something.
pub struct Mixture {
    members: Vec<Box<dyn ErrorGen>>,
    name: String,
}

impl Mixture {
    /// Builds a mixture over the given members.
    pub fn from_boxes(members: Vec<Box<dyn ErrorGen>>) -> Self {
        assert!(!members.is_empty(), "mixture needs at least one member");
        let name = format!(
            "mixture({})",
            members
                .iter()
                .map(|m| m.name())
                .collect::<Vec<_>>()
                .join("+")
        );
        Self { members, name }
    }
}

impl ErrorGen for Mixture {
    fn touched_columns(&self, df: &DataFrame) -> Vec<usize> {
        // Any member might be selected, so the union of member declarations.
        let mut cols: Vec<usize> = self
            .members
            .iter()
            .flat_map(|m| m.touched_columns(df))
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn corrupt(&self, df: &DataFrame, rng: &mut StdRng) -> DataFrame {
        self.corrupt_with_model(df, None, rng)
    }

    fn corrupt_with_model(
        &self,
        df: &DataFrame,
        model: Option<&dyn BlackBoxModel>,
        rng: &mut StdRng,
    ) -> DataFrame {
        let mut selected: Vec<&Box<dyn ErrorGen>> = self
            .members
            .iter()
            .filter(|_| rng.gen::<f64>() < INCLUDE_PROB)
            .collect();
        if selected.is_empty() {
            let i = rng.gen_range(0..self.members.len());
            selected.push(&self.members[i]);
        }
        let mut out = df.clone();
        for gen in selected {
            out = gen.corrupt_with_model(&out, model, rng);
        }
        out
    }
}

/// A "generator" that returns the frame unchanged. Mixed into predictor
/// training so the learned regressor also sees the error-free regime
/// (`p_err = 0` in the paper's problem statement).
#[derive(Debug, Clone, Default)]
pub struct CleanCopy;

impl ErrorGen for CleanCopy {
    fn touched_columns(&self, _df: &DataFrame) -> Vec<usize> {
        Vec::new()
    }

    fn name(&self) -> &str {
        "clean"
    }

    fn corrupt(&self, df: &DataFrame, _rng: &mut StdRng) -> DataFrame {
        df.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tabular::{MissingValues, Outliers};
    use lvp_dataframe::toy_frame;
    use rand::SeedableRng;

    #[test]
    fn mixture_applies_at_least_one_member() {
        // A one-member mixture draws an empty subset on about half the
        // seeds; it corrupts on every one only through the fallback.
        let df = toy_frame(1000);
        let mix = Mixture::from_boxes(vec![Box::new(MissingValues::all_categorical(df.schema()))]);
        for seed in 0..64u64 {
            let out = mix.corrupt(&df, &mut StdRng::seed_from_u64(seed));
            assert!(out != df, "seed {seed}: mixture must corrupt something");
        }
    }

    #[test]
    fn mixture_name_lists_members() {
        let df = toy_frame(4);
        let mix = Mixture::from_boxes(vec![
            Box::new(MissingValues::all_categorical(df.schema())),
            Box::new(Outliers::all_numeric(df.schema())),
        ]);
        assert_eq!(mix.name(), "mixture(missing_values+outliers)");
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_mixture_panics() {
        let _ = Mixture::from_boxes(vec![]);
    }

    #[test]
    fn clean_copy_is_identity() {
        let df = toy_frame(10);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(CleanCopy.corrupt(&df, &mut rng), df);
    }

    #[test]
    fn mixture_preserves_shape() {
        let df = toy_frame(64);
        let mix = Mixture::from_boxes(vec![
            Box::new(MissingValues::all_categorical(df.schema())),
            Box::new(Outliers::all_numeric(df.schema())),
        ]);
        let mut rng = StdRng::seed_from_u64(3);
        let out = mix.corrupt(&df, &mut rng);
        assert_eq!(out.n_rows(), 64);
        assert_eq!(out.labels(), df.labels());
    }
}
