//! Functional end-to-end INT8 inference through the simulated
//! accelerator — the whole system working as an inference engine.
//!
//! A [`Pipeline`] is a small CNN (conv / FC layers with ReLU,
//! requantization and pooling — the MCU post-processing of Sec. 6.3).
//! [`Pipeline::run`] executes it **through the functional datapaths** of
//! the configured architecture: conv layers are im2col-lowered, weights
//! are W-DBB pruned (except layer 1), activations pass through DAP with
//! the per-layer density tuning, the simulated mux/serialization logic
//! computes every accumulator, and the MCU model requantizes between
//! layers. A reference path computes the same semantics with the
//! golden kernels; the two are asserted bit-identical — layer by layer,
//! logits included.
//!
//! The module is compiled for tests only: it is a bit-exact
//! cross-check of the functional datapaths, and nothing outside its
//! own tests runs a pipeline.

use crate::{Accelerator, ArchKind};
use s2ta_dbb::dap::{choose_layer_nnz, dap_matrix, LayerNnz};
use s2ta_dbb::{prune, BlockAxis, DbbConfig, DbbMatrix};
use s2ta_sim::{smt, systolic, tpe, EventCounts};
use s2ta_tensor::postproc::{maxpool2x2, relu_requant, requant, Requant};
use s2ta_tensor::{im2col, AccMatrix, ConvShape, Matrix, Tensor4};

/// The operation a pipeline layer performs.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerOp {
    /// A convolution with the given geometry.
    Conv(ConvShape),
    /// A fully-connected layer (`out_features x in_features` weights).
    Fc {
        /// Input features (must equal the flattened previous output).
        in_features: usize,
        /// Output features.
        out_features: usize,
    },
}

/// One layer of a functional inference pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineLayer {
    /// Layer name.
    pub name: String,
    /// The operation.
    pub op: LayerOp,
    /// Weights in GEMM form (`M x K`, channel-innermost reduction).
    pub weights: Matrix,
    /// Apply ReLU before requantization.
    pub relu: bool,
    /// Apply 2x2/2 max-pooling after requantization (conv layers only).
    pub pool: bool,
}

/// A runnable multi-layer network.
#[derive(Debug, Clone, PartialEq)]
pub struct Pipeline {
    /// Layers in execution order.
    pub layers: Vec<PipelineLayer>,
}

/// The activation state flowing between layers.
#[derive(Debug, Clone, PartialEq)]
pub struct Feature {
    /// `channels x (h*w)` activation matrix.
    pub data: Matrix,
    /// Spatial height.
    pub h: usize,
    /// Spatial width.
    pub w: usize,
}

impl Feature {
    /// Wraps an input image / feature map.
    ///
    /// # Panics
    ///
    /// Panics if the matrix width is not `h * w`.
    pub fn new(data: Matrix, h: usize, w: usize) -> Self {
        assert_eq!(data.cols(), h * w, "feature width must equal h*w");
        Self { data, h, w }
    }

    /// Flattens to a `K x 1` column for FC layers (channel-major).
    pub fn flatten(&self) -> Matrix {
        Matrix::from_vec(self.data.len(), 1, self.data.data().to_vec())
    }

    fn as_tensor(&self) -> Tensor4 {
        Tensor4::from_vec([1, self.data.rows(), self.h, self.w], self.data.data().to_vec())
    }
}

/// The result of one pipeline execution.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceRun {
    /// Per-layer output features (after post-processing).
    pub features: Vec<Feature>,
    /// Final logits.
    pub logits: Vec<i8>,
    /// Predicted class (argmax of logits, lowest index on ties).
    pub prediction: usize,
    /// Aggregate simulated events (zero for the reference path).
    pub events: EventCounts,
}

impl Pipeline {
    /// Validates inter-layer shape compatibility.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message if any layer's weights disagree
    /// with its op, or consecutive layers do not fit.
    pub fn validate(&self, input_channels: usize) {
        let mut channels = input_channels;
        for l in &self.layers {
            match &l.op {
                LayerOp::Conv(s) => {
                    assert_eq!(s.c, channels, "{}: input channels mismatch", l.name);
                    assert_eq!(
                        (l.weights.rows(), l.weights.cols()),
                        (s.k, s.c * s.r * s.s),
                        "{}: weight dims mismatch",
                        l.name
                    );
                    channels = s.k;
                }
                LayerOp::Fc { in_features, out_features } => {
                    assert_eq!(
                        (l.weights.rows(), l.weights.cols()),
                        (*out_features, *in_features),
                        "{}: weight dims mismatch",
                        l.name
                    );
                    channels = *out_features;
                }
            }
        }
    }

    /// Runs the pipeline through `acc`'s functional datapath.
    pub fn run(&self, acc: &Accelerator, input: &Feature) -> InferenceRun {
        self.execute(input, |idx, layer, a| self.layer_on_arch(acc, idx, layer, a))
    }

    /// Runs the pipeline with golden kernels under the same DBB
    /// semantics `kind` would apply (pruning, DAP) — the bit-exact
    /// reference for [`Pipeline::run`].
    fn run_reference(&self, kind: ArchKind, input: &Feature) -> InferenceRun {
        self.execute(input, |idx, layer, a| {
            let (w, a) = self.effective_operands(kind, idx, layer, a);
            (s2ta_tensor::gemm_ref(&w, &a), EventCounts::default())
        })
    }

    fn execute(
        &self,
        input: &Feature,
        mut layer_fn: impl FnMut(usize, &PipelineLayer, &Matrix) -> (AccMatrix, EventCounts),
    ) -> InferenceRun {
        self.validate(input.data.rows());
        let mut feature = input.clone();
        let mut features = Vec::with_capacity(self.layers.len());
        let mut events = EventCounts::default();
        for (idx, layer) in self.layers.iter().enumerate() {
            let (a_matrix, out_hw) = match &layer.op {
                LayerOp::Conv(s) => (im2col(s, &feature.as_tensor()), (s.out_h(), s.out_w())),
                LayerOp::Fc { .. } => (feature.flatten(), (1, 1)),
            };
            let (acc, ev) = layer_fn(idx, layer, &a_matrix);
            events += ev;
            let rq = Requant::fit(&acc);
            let out = if layer.relu { relu_requant(&acc, rq) } else { requant(&acc, rq) };
            let mut next = Feature::new(out, out_hw.0, out_hw.1);
            if layer.pool {
                let (pooled, oh, ow) = maxpool2x2(&next.data, next.h, next.w);
                next = Feature::new(pooled, oh, ow);
            }
            features.push(next.clone());
            feature = next;
        }
        let logits: Vec<i8> = feature.data.data().to_vec();
        let prediction = logits
            .iter()
            .enumerate()
            .max_by_key(|&(i, &v)| (v, std::cmp::Reverse(i)))
            .map(|(i, _)| i)
            .unwrap_or(0);
        InferenceRun { features, logits, prediction, events }
    }

    /// The pruned/DAP'd `(weights, activations)` layer `idx` executes
    /// with on `kind`, so the reference path replays identical
    /// semantics.
    fn effective_operands(
        &self,
        kind: ArchKind,
        idx: usize,
        layer: &PipelineLayer,
        a: &Matrix,
    ) -> (Matrix, Matrix) {
        let w = if kind.uses_wdbb() && idx != 0 {
            prune::prune_matrix(&layer.weights, BlockAxis::Rows, DbbConfig::w_default())
        } else {
            layer.weights.clone()
        };
        let a_eff = if kind.uses_adbb() {
            let (adbb, _) = dap_matrix(a, 8, self.layer_nnz(idx, a));
            adbb.decompress()
        } else {
            a.clone()
        };
        (w, a_eff)
    }

    /// Per-layer A-DBB tuning: layer 0 (image) runs dense; others keep
    /// 95% of activation magnitude (Sec. 5.2 per-layer tuning).
    fn layer_nnz(&self, idx: usize, a: &Matrix) -> LayerNnz {
        if idx == 0 {
            LayerNnz::Dense
        } else {
            choose_layer_nnz(a, 8, 0.95)
        }
    }

    fn layer_on_arch(
        &self,
        acc: &Accelerator,
        idx: usize,
        layer: &PipelineLayer,
        a: &Matrix,
    ) -> (AccMatrix, EventCounts) {
        let cfg = acc.config();
        let geom = &cfg.geometry;
        match cfg.kind {
            ArchKind::Sa => {
                let run = systolic::run(geom, false, &layer.weights, a);
                (run.result, run.events)
            }
            ArchKind::SaZvcg => {
                let run = systolic::run(geom, true, &layer.weights, a);
                (run.result, run.events)
            }
            ArchKind::SaSmtT2Q2 | ArchKind::SaSmtT2Q4 => {
                let run = smt::run(geom, cfg.smt, &layer.weights, a);
                (run.result, run.events)
            }
            ArchKind::S2taW => {
                let w = self.compress_weights(cfg.kind, idx, layer);
                let run = tpe::run_wdbb(geom, &w, a);
                (run.result, run.events)
            }
            ArchKind::S2taAw => {
                let w = self.compress_weights(cfg.kind, idx, layer);
                let (adbb, dap_ev) = dap_matrix(a, geom.bz, self.layer_nnz(idx, a));
                let run = tpe::run_aw(geom, &w, &adbb);
                let mut events = run.events;
                events.dap_stages += dap_ev.stages;
                events.dap_comparisons += dap_ev.comparisons;
                (run.result, events)
            }
        }
    }

    fn compress_weights(&self, kind: ArchKind, idx: usize, layer: &PipelineLayer) -> DbbMatrix {
        debug_assert!(kind.uses_wdbb());
        if idx == 0 {
            DbbMatrix::compress(&layer.weights, BlockAxis::Rows, DbbConfig::dense(8))
                .expect("dense bound always satisfiable")
        } else {
            prune::prune_and_compress(&layer.weights, DbbConfig::w_default())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a LeNet-5-shaped pipeline with random INT8 weights, plus a
    /// random 32x32 single-channel input — the standard smoke-test network.
    fn random_lenet(seed: u64) -> (Pipeline, Feature) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use s2ta_tensor::sparsity::SparseSpec;

        let mut rng = StdRng::seed_from_u64(seed);
        let conv = |name: &str, shape: ConvShape, pool: bool, rng: &mut StdRng| PipelineLayer {
            name: name.into(),
            weights: SparseSpec::random(0.2).matrix(shape.k, shape.c * shape.r * shape.s, rng),
            op: LayerOp::Conv(shape),
            relu: true,
            pool,
        };
        let c1 = conv("conv1", ConvShape::new(6, 1, 32, 32, 5, 5, 1, 0), true, &mut rng);
        let c2 = conv("conv2", ConvShape::new(16, 6, 14, 14, 5, 5, 1, 0), true, &mut rng);
        let fc =
            |name: &str, inf: usize, outf: usize, relu: bool, rng: &mut StdRng| PipelineLayer {
                name: name.into(),
                weights: SparseSpec::random(0.2).matrix(outf, inf, rng),
                op: LayerOp::Fc { in_features: inf, out_features: outf },
                relu,
                pool: false,
            };
        let f3 = fc("fc3", 16 * 5 * 5, 120, true, &mut rng);
        let f4 = fc("fc4", 120, 84, true, &mut rng);
        let f5 = fc("fc5", 84, 10, false, &mut rng);
        let pipeline = Pipeline { layers: vec![c1, c2, f3, f4, f5] };
        let input = Feature::new(SparseSpec::random(0.1).matrix(1, 32 * 32, &mut rng), 32, 32);
        (pipeline, input)
    }

    #[test]
    fn lenet_shapes_flow() {
        let (p, input) = random_lenet(1);
        let acc = Accelerator::preset(ArchKind::SaZvcg);
        let run = p.run(&acc, &input);
        assert_eq!(run.features[0].data.rows(), 6);
        assert_eq!((run.features[0].h, run.features[0].w), (14, 14));
        assert_eq!((run.features[1].h, run.features[1].w), (5, 5));
        assert_eq!(run.logits.len(), 10);
        assert!(run.prediction < 10);
        assert!(run.events.cycles > 0);
    }

    #[test]
    fn every_arch_matches_its_reference_bit_exactly() {
        let (p, input) = random_lenet(2);
        for kind in ArchKind::ALL {
            let acc = Accelerator::preset(kind);
            let sim = p.run(&acc, &input);
            let golden = p.run_reference(kind, &input);
            assert_eq!(sim.logits, golden.logits, "{kind}: logits diverge");
            for (i, (s, g)) in sim.features.iter().zip(&golden.features).enumerate() {
                assert_eq!(s, g, "{kind}: layer {i} features diverge");
            }
        }
    }

    #[test]
    fn dbb_pruning_changes_numerics_but_not_wildly() {
        let (p, input) = random_lenet(3);
        let dense = p.run(&Accelerator::preset(ArchKind::SaZvcg), &input);
        let pruned = p.run(&Accelerator::preset(ArchKind::S2taAw), &input);
        // Logit vectors differ (lossy pruning) but stay correlated: the
        // top logit of the dense run stays within the top half.
        let dense_top = dense.prediction;
        let mut order: Vec<usize> = (0..pruned.logits.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(pruned.logits[i]));
        let rank = order.iter().position(|&i| i == dense_top).expect("class present");
        assert!(rank < pruned.logits.len() / 2, "pruning destroyed the prediction entirely");
    }

    #[test]
    fn aw_is_faster_end_to_end() {
        let (p, input) = random_lenet(4);
        let zvcg = p.run(&Accelerator::preset(ArchKind::SaZvcg), &input);
        let aw = p.run(&Accelerator::preset(ArchKind::S2taAw), &input);
        assert!(
            aw.events.cycles < zvcg.events.cycles,
            "AW {} vs ZVCG {}",
            aw.events.cycles,
            zvcg.events.cycles
        );
    }

    #[test]
    #[should_panic(expected = "input channels mismatch")]
    fn validation_catches_bad_wiring() {
        let (mut p, input) = random_lenet(5);
        if let LayerOp::Conv(s) = &mut p.layers[1].op {
            s.c = 3; // conv1 produces 6 channels
        }
        let _ = p.run(&Accelerator::preset(ArchKind::Sa), &input);
    }
}
