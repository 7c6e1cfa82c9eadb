//! # pnp-tensor
//!
//! A small, dependency-light dense tensor and neural-network library that
//! provides exactly the building blocks needed by the PnP tuner's RGCN model:
//!
//! * [`Tensor`] — a row-major 2-D (or 1-D) `f32` tensor with elementwise ops,
//!   reductions, and matrix multiplication.
//! * Layers with hand-written backward passes: [`Linear`], [`Embedding`],
//!   activations ([`ReLU`], [`LeakyReLU`], [`Sigmoid`], [`Tanh`]) and
//!   [`Dropout`].
//! * Losses: softmax [`cross_entropy`] and [`mse_loss`].
//! * Optimizers: [`Sgd`], [`Adam`], and [`AdamW`] (with optional `amsgrad`),
//!   matching the hyperparameters in Table II of the paper.
//! * Weight (de)serialization for the transfer-learning experiment
//!   (train GNN on Haswell, re-train only the dense layers on Skylake).
//!
//! The library is deliberately *not* a general autograd system: every layer
//! caches what it needs during `forward_train` and implements an explicit
//! `backward`, while the inference `forward` takes `&self` and caches
//! nothing. This keeps the code auditable and fast on a single core.
//!
//! ## Example
//!
//! ```
//! use pnp_tensor::{Tensor, Linear, Layer, ReLU, cross_entropy, Adam, Optimizer};
//! use pnp_tensor::init::SeededRng;
//!
//! let mut rng = SeededRng::new(42);
//! // Parameter names key optimizer state, so give each layer a unique prefix.
//! let mut l1 = Linear::with_name("fc1", 4, 8, &mut rng);
//! let mut act = ReLU::new();
//! let mut l2 = Linear::with_name("fc2", 8, 3, &mut rng);
//! let x = Tensor::randn(&[2, 4], &mut rng);
//! let targets = vec![0usize, 2usize];
//!
//! let mut opt = Adam::new(1e-2);
//! for _ in 0..50 {
//!     let h = act.forward_train(&l1.forward_train(&x));
//!     let logits = l2.forward_train(&h);
//!     let (loss, dlogits) = cross_entropy(&logits, &targets);
//!     let dh = l2.backward(&dlogits);
//!     let dl1 = act.backward(&dh);
//!     l1.backward(&dl1);
//!     let mut params = Vec::new();
//!     params.extend(l1.parameters());
//!     params.extend(l2.parameters());
//!     opt.step(&mut params);
//!     assert!(loss.is_finite());
//! }
//! ```

pub mod activation;
pub mod dropout;
pub mod embedding;
pub mod init;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod matmul;
pub mod ops;
pub mod optim;
pub mod serialize;
pub mod tensor;

pub use activation::{LeakyReLU, ReLU, Sigmoid, Tanh};
pub use dropout::Dropout;
pub use embedding::Embedding;
pub use init::SeededRng;
pub use layer::{Layer, Parameter};
pub use linear::Linear;
pub use loss::{cross_entropy, mse_loss, softmax_rows, softmax_rows_inplace};
pub use matmul::{matmul_threads, set_matmul_threads, MATMUL_THREADS_ENV_VAR, PAR_MIN_ROWS};
pub use optim::{Adam, AdamW, Optimizer, Sgd};
pub use serialize::{load_parameters, save_parameters, ParameterBundle};
pub use tensor::Tensor;
