#ifndef FEDSHAP_ML_MODEL_H_
#define FEDSHAP_ML_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "ml/matrix.h"
#include "util/random.h"
#include "util/status.h"

namespace fedshap {

/// Interface every gradient-trainable FL model implements (linear/logistic
/// regression, MLP, CNN).
///
/// The FedAvg substrate only needs four capabilities: flat parameter access
/// (to ship models between server and clients), minibatch gradients (for
/// local SGD), prediction (for utility evaluation) and cloning (to train an
/// independent model per coalition from the same initialization).
///
/// Parameters are exposed as one flat float vector; the layout is
/// model-internal but stable for a given architecture, which is what FedAvg
/// aggregation requires.
class Model {
 public:
  virtual ~Model() = default;

  /// Deep copy, preserving current parameters.
  virtual std::unique_ptr<Model> Clone() const = 0;

  /// Architecture name for logs, e.g. "mlp(64-32-10)".
  virtual std::string Name() const = 0;

  /// Length of the flat parameter vector.
  virtual size_t NumParameters() const = 0;

  /// Copy of the flat parameter vector.
  virtual std::vector<float> GetParameters() const = 0;

  /// Replaces all parameters; `params` must have NumParameters() entries.
  virtual Status SetParameters(const std::vector<float>& params) = 0;

  /// Draws fresh initial parameters (e.g. scaled Gaussians).
  virtual void InitializeParameters(Rng& rng) = 0;

  /// Computes the average loss over the given rows of `data` and
  /// accumulates d(avg loss)/d(params) into `grad` (which the callee
  /// resizes/zeroes). Returns the average loss.
  ///
  /// This is the *reference* gradient path: one example at a time,
  /// scalar loops. It stays the ground truth that the batched path is
  /// tested against.
  virtual double ComputeGradient(const Dataset& data,
                                 const std::vector<size_t>& batch,
                                 std::vector<float>& grad) const = 0;

  /// Batched-kernel twin of ComputeGradient: same contract (average loss
  /// returned, averaged gradient in `grad`), computed by gathering the
  /// batch into a contiguous matrix and running the blocked kernels of
  /// ml/matrix.h over the whole minibatch at once. Results match
  /// ComputeGradient within the kernel tolerance contract documented in
  /// ml/matrix.h (not bitwise: batched kernels reassociate sums).
  ///
  /// The default forwards to ComputeGradient so models without a batched
  /// implementation keep working; the four trainable models override it.
  virtual double ComputeGradientBatched(const Dataset& data,
                                        const std::vector<size_t>& batch,
                                        std::vector<float>& grad) const {
    return ComputeGradient(data, batch, grad);
  }

  /// Model output for a single example: per-class scores for classifiers
  /// (argmax = prediction), a single value for regressors.
  virtual void Predict(const float* features,
                       std::vector<float>& output) const = 0;

  /// Fused multi-model scoring capability. When the model's per-example
  /// scores are an affine map logits = W*x + b — with W a NumOutputs() x
  /// num-features row-major block followed by the NumOutputs() biases,
  /// and any final activation monotone per row so argmax over the logits
  /// equals argmax over Predict()'s output — returns the W block and sets
  /// `*bias` to the bias block. Callers can then stack several models'
  /// W^T side by side and score them all with one GEMM dispatch (see
  /// FedAvgUtility::EvaluateBatchFused). Returns nullptr for models
  /// without an affine scoring head (the default); callers fall back to
  /// per-example Predict. Pointers are valid until the parameters change.
  virtual const float* AffineScorer(const float** bias) const {
    (void)bias;
    return nullptr;
  }

  /// Average loss over an entire dataset (no gradient returned). Runs
  /// ComputeGradientBatched in bounded-size chunks, so its scratch stays
  /// O(chunk), not O(dataset).
  virtual double Loss(const Dataset& data) const;

  /// Number of model outputs (classes, or 1 for regression).
  virtual int NumOutputs() const = 0;

  /// Number of input features each example must carry.
  virtual int NumFeatures() const = 0;
};

/// Copies the selected rows of `data` into one contiguous row-major
/// batch x num_features() matrix (`out` is resized, 64-byte-aligned so
/// the SIMD kernel backends load it without split cache lines). The
/// gather step every batched gradient path starts with.
void GatherRows(const Dataset& data, const std::vector<size_t>& batch,
                AlignedFloats& out);

/// GatherRows that also fills `cols` with the batch's transpose, a
/// num_features() x batch feature-major matrix, in the same pass: each
/// source column is read once and its transposed row written
/// contiguously. Runs as a kernel-backend body (AVX2 gathers 8 batch
/// rows per load); a pure copy, so bit-identical on every backend.
void GatherRowsAndColumns(const Dataset& data,
                          const std::vector<size_t>& batch,
                          AlignedFloats& rows, AlignedFloats& cols);

/// Numerically estimates d(loss)/d(params) by central differences; used by
/// the gradient-check tests. O(NumParameters) loss evaluations — test-sized
/// models only.
std::vector<float> NumericalGradient(Model& model, const Dataset& data,
                                     const std::vector<size_t>& batch,
                                     float epsilon = 1e-3f);

}  // namespace fedshap

#endif  // FEDSHAP_ML_MODEL_H_
