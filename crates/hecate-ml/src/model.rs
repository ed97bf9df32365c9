//! The [`Regressor`] trait and the paper's R1–R18 model registry.

use crate::MlError;
use linalg::Matrix;

/// A supervised regression model.
///
/// Models are `Send + Sync` once fitted so the framework can evaluate
/// paths concurrently.
pub trait Regressor: Send + Sync {
    /// Fits the model on the design matrix `x` and targets `y`.
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError>;

    /// Predicts targets for each row of `x`.
    fn predict(&self, x: &Matrix) -> Result<Vec<f64>, MlError>;

    /// Predicts one row: the same value, bit for bit, as `predict` on a
    /// one-row matrix. Models on the forecast hot path override it to
    /// skip that matrix and the per-call result vectors.
    fn predict_row(&self, row: &[f64]) -> Result<f64, MlError> {
        Ok(self.predict(&Matrix::from_vec(1, row.len(), row.to_vec()))?[0])
    }
}

/// The eighteen regressors of the paper, in the paper's alphabetical
/// order and with the paper's labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RegressorKind {
    /// R1: Ada Boost Regressor.
    AdaBoostR,
    /// R2: ARD Regression.
    Ardr,
    /// R3: Bagging Regressor.
    Bagging,
    /// R4: Decision Tree Regressor.
    Dtr,
    /// R5: Elastic Net.
    ElasticNet,
    /// R6: Gradient Boosting Regressor.
    Gbr,
    /// R7: Gaussian Process Regressor.
    Gpr,
    /// R8: Histogram-based Gradient Boosting Regression.
    Hgbr,
    /// R9: Huber Regressor.
    HuberR,
    /// R10: Lasso.
    Lasso,
    /// R11: Linear Regression.
    Lr,
    /// R12: RANdom SAmple Consensus Regressor.
    RansacR,
    /// R13: Random Forest Regressor.
    Rfr,
    /// R14: Ridge.
    Ridge,
    /// R15: Stochastic Gradient Descent Regressor.
    Sgdr,
    /// R16: Support Vector Machine, linear kernel.
    SvmLinear,
    /// R17: Support Vector Machine, RBF kernel.
    SvmRbf,
    /// R18: Theil-Sen Regressor.
    TheilSenR,
}

impl RegressorKind {
    /// All eighteen kinds in paper order (R1..R18).
    pub fn all() -> [RegressorKind; 18] {
        use RegressorKind::*;
        [
            AdaBoostR, Ardr, Bagging, Dtr, ElasticNet, Gbr, Gpr, Hgbr, HuberR, Lasso, Lr, RansacR,
            Rfr, Ridge, Sgdr, SvmLinear, SvmRbf, TheilSenR,
        ]
    }

    /// The paper's identifier, e.g. `"R13"`.
    pub fn paper_id(self) -> &'static str {
        use RegressorKind::*;
        match self {
            AdaBoostR => "R1",
            Ardr => "R2",
            Bagging => "R3",
            Dtr => "R4",
            ElasticNet => "R5",
            Gbr => "R6",
            Gpr => "R7",
            Hgbr => "R8",
            HuberR => "R9",
            Lasso => "R10",
            Lr => "R11",
            RansacR => "R12",
            Rfr => "R13",
            Ridge => "R14",
            Sgdr => "R15",
            SvmLinear => "R16",
            SvmRbf => "R17",
            TheilSenR => "R18",
        }
    }

    /// The paper's display name, e.g. `"RFR"`.
    pub fn label(self) -> &'static str {
        use RegressorKind::*;
        match self {
            AdaBoostR => "AdaBoostR",
            Ardr => "ARDR",
            Bagging => "Bagging",
            Dtr => "DTR",
            ElasticNet => "ElasticNet",
            Gbr => "GBR",
            Gpr => "GPR",
            Hgbr => "HGBR",
            HuberR => "HuberR",
            Lasso => "Lasso",
            Lr => "LR",
            RansacR => "RANSACR",
            Rfr => "RFR",
            Ridge => "Ridge",
            Sgdr => "SGDR",
            SvmLinear => "SVM_Linear",
            SvmRbf => "SVM_RBF",
            TheilSenR => "TheilSenR",
        }
    }

    /// Instantiates the model with its scikit-learn default
    /// hyperparameters and the given seed (for stochastic models).
    /// Two kinds share a type: Bagging is a ten-tree random forest (every
    /// feature at every split), Lasso an elastic net at `l1_ratio = 1`.
    pub fn build(self, seed: u64) -> Box<dyn Regressor> {
        use RegressorKind::*;
        match self {
            AdaBoostR => Box::new(crate::boost::AdaBoostRegressor::new()),
            Ardr => Box::new(crate::bayes::ArdRegression::new()),
            Bagging => {
                let mut bagging = crate::ensemble::RandomForestRegressor::with_seed(seed);
                bagging.n_estimators = 10;
                Box::new(bagging)
            }
            Dtr => Box::new(crate::tree::DecisionTreeRegressor::new()),
            ElasticNet | Lasso => Box::new(self.penalised(1.0)),
            Gbr => Box::new(crate::boost::GradientBoostingRegressor::new()),
            Gpr => Box::new(crate::gp::GaussianProcessRegressor::new()),
            Hgbr => Box::new(crate::hist::HistGradientBoostingRegressor::new()),
            HuberR => Box::new(crate::robust::HuberRegressor::new()),
            Lr => Box::new(crate::linear::LinearRegression::new()),
            RansacR => Box::new(crate::robust::RansacRegressor::with_seed(seed)),
            Rfr => Box::new(crate::ensemble::RandomForestRegressor::with_seed(seed)),
            Ridge => Box::new(crate::linear::Ridge::new()),
            Sgdr => Box::new(crate::sgd::SgdRegressor::with_seed(seed)),
            SvmLinear => Box::new(crate::svr::SvrRegressor::linear()),
            SvmRbf => Box::new(crate::svr::SvrRegressor::rbf()),
            TheilSenR => Box::new(crate::robust::TheilSenRegressor::with_seed(seed)),
        }
    }

    /// A coordinate-descent kind at penalty `alpha`: ElasticNet at
    /// scikit-learn's `l1_ratio = 0.5`, Lasso at `l1_ratio = 1`.
    /// [`RegressorKind::build`] passes scikit-learn's `alpha = 1`.
    fn penalised(self, alpha: f64) -> crate::coordinate::ElasticNet {
        let l1_ratio = if self == Self::Lasso { 1.0 } else { 0.5 };
        crate::coordinate::ElasticNet::with_params(alpha, l1_ratio)
    }

    /// Parses a paper id (`"R13"`) or label (`"RFR"`, case-insensitive).
    pub fn parse(s: &str) -> Option<RegressorKind> {
        let s_low = s.to_ascii_lowercase();
        RegressorKind::all().into_iter().find(|k| {
            k.paper_id().to_ascii_lowercase() == s_low || k.label().to_ascii_lowercase() == s_low
        })
    }
}

impl std::fmt::Display for RegressorKind {
    /// Renders as the paper writes it, e.g. `R13:RFR`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.paper_id(), self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_18_unique_models() {
        let all = RegressorKind::all();
        assert_eq!(all.len(), 18);
        let ids: std::collections::BTreeSet<_> = all.iter().map(|k| k.paper_id()).collect();
        assert_eq!(ids.len(), 18);
        let labels: std::collections::BTreeSet<_> = all.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 18);
    }

    #[test]
    fn paper_ids_are_sequential() {
        for (i, k) in RegressorKind::all().into_iter().enumerate() {
            assert_eq!(k.paper_id(), format!("R{}", i + 1));
        }
    }

    #[test]
    fn parse_accepts_ids_and_labels() {
        assert_eq!(RegressorKind::parse("R13"), Some(RegressorKind::Rfr));
        assert_eq!(RegressorKind::parse("rfr"), Some(RegressorKind::Rfr));
        assert_eq!(RegressorKind::parse("SVM_rbf"), Some(RegressorKind::SvmRbf));
        assert_eq!(RegressorKind::parse("nope"), None);
    }

    /// FNV-1a over the little-endian bytes of each value's bits.
    fn fnv1a(values: &[f64]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in values {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn every_kind_fits_a_tiny_dataset() {
        // Each of the 18 models goes through fit+predict, and its 60
        // predictions keep their bits: the table pins every kind, so a
        // last-ulp change to any model fails here even where Fig 6's
        // two decimals would not show it.
        let want: [u64; 18] = [
            0xe0a8c63b08fc1516, // R1:AdaBoostR
            0x4a09790e0c49628f, // R2:ARDR
            0xfa512225041f10f0, // R3:Bagging
            0x0751a17638bcac6d, // R4:DTR
            0x4001981a3bfa87ba, // R5:ElasticNet
            0x6e5dc9327fdbe02d, // R6:GBR
            0xaf5c39e232453114, // R7:GPR
            0x317c167cd53c8a06, // R8:HGBR
            0x9be861b951a5d536, // R9:HuberR
            0x4db03064e1dc32dd, // R10:Lasso
            0x33ef4b7e7609c940, // R11:LR
            0x33ef4b7e7609c940, // R12:RANSACR
            0x42ae93731a61d1ab, // R13:RFR
            0xb3a6363824c22eab, // R14:Ridge
            0x1f894e14f4214041, // R15:SGDR
            0x873c897f963c11c8, // R16:SVM_Linear
            0xb86579131f0b9584, // R17:SVM_RBF
            0x3f4278e16a0aea5e, // R18:TheilSenR
        ];
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                let t = i as f64 / 5.0;
                vec![t.sin(), t.cos()]
            })
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] + 0.5 * r[1]).collect();
        let x = Matrix::from_rows(&rows);
        for (k, want) in RegressorKind::all().into_iter().zip(want) {
            let mut m = k.build(1);
            m.fit(&x, &y)
                .unwrap_or_else(|e| panic!("{k} fit failed: {e}"));
            let p = m
                .predict(&x)
                .unwrap_or_else(|e| panic!("{k} predict failed: {e}"));
            assert_eq!(p.len(), y.len(), "{k}");
            assert!(p.iter().all(|v| v.is_finite()), "{k} produced non-finite");
            assert_eq!(fnv1a(&p), want, "{k}: {:#018x}", fnv1a(&p));
        }
        // At alpha = 1 the Lasso shrinks this signal to its mean (60
        // equal predictions), so the table cannot see an L1 change.
        // Lightly penalised, both kinds keep every coefficient.
        let light = [
            (RegressorKind::ElasticNet, 0x8f7676ce9369c1f8),
            (RegressorKind::Lasso, 0x1aef8e640030ec14),
        ];
        for (k, want) in light {
            let mut m = k.penalised(0.01);
            m.fit(&x, &y).unwrap();
            let p = m.predict(&x).unwrap();
            assert_eq!(fnv1a(&p), want, "{k} at alpha 0.01: {:#018x}", fnv1a(&p));
        }
    }
}
