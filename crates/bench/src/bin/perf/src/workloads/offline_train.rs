//! `offline_train` — the paper protocol from nothing, once for the
//! univariate (dense autoencoder) and once for a multivariate (LSTM
//! seq2seq) configuration. It uses hec-nn / hec-tensor the *other* way
//! from `trace_replay`: backward passes and BPTT beside seq2seq
//! inference, where `trace_replay` only runs the dense forward. A kernel
//! or workspace change that helps inference and costs training shows
//! here. No bytes parsed, no DES.

use hec_bandit::TrainConfig;
use hec_bench::multivariate_config;
use hec_core::{DatasetConfig, ExperimentConfig, SchemeKind, Table2Row};
use hec_data::mhealth::MhealthConfig;

use super::{
    digest, univariate, LayerValues, LibStats, Pipeline, RepOutput, SimValues, Size, Workload,
};
use crate::spans::Recorder;

pub struct OfflineTrain {
    configs: [ExperimentConfig; 2],
    /// Windows the last rep scored through `oracle_over`.
    detected: usize,
}

impl OfflineTrain {
    pub fn build(seed: u64, size: Size) -> Self {
        let (mut uni, power) = univariate(size);
        uni.dataset = DatasetConfig::Univariate(hec_data::power::PowerConfig { seed, ..power });
        let multi = match size {
            // 18 channels, one subject: 108 windows of 64 steps. One
            // epoch keeps the pair of pipelines near two seconds.
            Size::Full => ExperimentConfig {
                dataset: DatasetConfig::Multivariate(MhealthConfig {
                    subjects: 1,
                    window: 64,
                    stride: 32,
                    session_len: 256,
                    normal_session_multiplier: 4,
                    noise_std: 0.12,
                    seed,
                }),
                ad_epochs: 1,
                policy: TrainConfig { epochs: 100, learning_rate: 2e-3, ..Default::default() },
                seq2seq_hidden: 32,
                policy_hidden: 100,
                seed: 42,
            },
            Size::Small => {
                let mut quick = multivariate_config(size.profile());
                quick.ad_epochs = 1;
                if let DatasetConfig::Multivariate(mh) = &mut quick.dataset {
                    mh.subjects = 1;
                    mh.seed = seed;
                }
                quick
            }
        };
        Self { configs: [uni, multi], detected: 0 }
    }
}

impl Workload for OfflineTrain {
    fn rep(&mut self, rec: &mut Recorder) -> Result<RepOutput, String> {
        let mut windows = 0usize;
        let mut detected = 0usize;
        let mut tables: Vec<(Vec<Table2Row>, [usize; 3])> = Vec::with_capacity(2);
        for config in &self.configs {
            rec.span("pass", |rec| -> Result<(), String> {
                let mut pipe = Pipeline::train(config.clone(), rec);
                let eval_corpus = pipe.exp.split.full.clone();
                let eval_oracle =
                    rec.span("anomaly.detect", |_| pipe.exp.oracle_over(&eval_corpus));
                let (rows, actions) = rec.span("core.table2", |_| {
                    pipe.exp.table2(&eval_oracle, &mut pipe.policy, &pipe.scaler)
                });
                if actions.iter().sum::<usize>() != eval_corpus.len() {
                    return Err(format!(
                        "table2: action histogram {actions:?} does not cover {} windows",
                        eval_corpus.len()
                    ));
                }
                windows += eval_corpus.len();
                detected += pipe.policy_oracle.len() + eval_oracle.len();
                tables.push((rows, actions));
                Ok(())
            })?;
        }
        self.detected = detected;
        let ours = tables[1]
            .0
            .iter()
            .find(|row| row.scheme == SchemeKind::Adaptive)
            .ok_or("table2: no \"Our Method\" row")?;
        Ok(RepOutput {
            windows: windows as u64,
            digest: digest(&tables),
            sim: SimValues {
                f1: Some(ours.f1),
                delay_mean_ms: Some(ours.delay_ms),
                reward_x100: ours.reward,
                drop_share: None,
            },
        })
    }

    fn layer_metrics(&mut self, rec: &mut Recorder, _lib: &LibStats, out: &mut LayerValues) {
        let detect_ms = rec.busy_ms("anomaly.detect");
        out.set("data.generate.busy_ms", rec.busy_ms("data.generate"));
        out.set("anomaly.fit.busy_ms", rec.busy_ms("anomaly.fit"));
        out.set("anomaly.detect.busy_ms", detect_ms);
        out.set("anomaly.detect.ns_per_window", detect_ms * 1e6 / self.detected as f64);
        out.set(
            "anomaly.detect.allocs_per_window",
            rec.allocs("anomaly.detect") as f64 / self.detected as f64,
        );
        out.set("bandit.train_static.busy_ms", rec.busy_ms("bandit.train_static"));
        out.set("core.table2.busy_ms", rec.busy_ms("core.table2"));
    }
}
