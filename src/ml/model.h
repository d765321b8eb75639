#ifndef FEDSHAP_ML_MODEL_H_
#define FEDSHAP_ML_MODEL_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "ml/matrix.h"
#include "util/random.h"
#include "util/status.h"

namespace fedshap {

/// Base class of every gradient-trainable FL model (linear/logistic
/// regression, MLP, CNN).
///
/// The FedAvg substrate only needs four capabilities: flat parameter access
/// (to ship models between server and clients), minibatch gradients (for
/// local SGD), a batched forward pass (for utility evaluation) and cloning
/// (to train an independent model per coalition from the same
/// initialization).
///
/// The base class owns the parameters as one flat float vector; the layout
/// is model-internal but stable for a given architecture, which is what
/// FedAvg aggregation requires. Subclasses size it in their constructor
/// and read it in their gradient and forward passes.
class Model {
 public:
  virtual ~Model() = default;

  /// Deep copy, preserving current parameters.
  virtual std::unique_ptr<Model> Clone() const = 0;

  /// Architecture name for logs, e.g. "mlp(64-32-10)".
  virtual std::string Name() const = 0;

  /// Length of the flat parameter vector.
  size_t NumParameters() const { return params_.size(); }

  /// Copy of the flat parameter vector.
  std::vector<float> GetParameters() const { return params_; }

  /// Replaces all parameters; `params` must have NumParameters() entries.
  Status SetParameters(const std::vector<float>& params);

  /// The parameters themselves, for optimizers that update them in place
  /// (TrainSgd).
  std::span<float> MutableParameters() { return params_; }

  /// Draws fresh initial parameters (e.g. scaled Gaussians).
  virtual void InitializeParameters(Rng& rng) = 0;

  /// Writes d(avg loss)/d(params) over the given rows of `data` into
  /// `grad` (resized to NumParameters(); all zeros for an empty batch).
  /// The loss itself is not computed: Loss is its one definition.
  ///
  /// This is the *reference* gradient path: one example at a time,
  /// scalar loops. It stays the ground truth that the batched path is
  /// tested against.
  virtual void ComputeGradient(const Dataset& data,
                               const std::vector<size_t>& batch,
                               std::vector<float>& grad) const = 0;

  /// Batched-kernel twin of ComputeGradient, the path TrainSgd runs: same
  /// contract, computed by gathering the batch into a contiguous matrix
  /// and running the blocked kernels of ml/matrix.h over the whole
  /// minibatch at once. Results match ComputeGradient within the kernel
  /// tolerance contract documented in ml/matrix.h (not bitwise: batched
  /// kernels reassociate sums).
  virtual void ComputeGradientBatched(const Dataset& data,
                                      const std::vector<size_t>& batch,
                                      std::vector<float>& grad) const = 0;

  /// The model's outputs for `n` gathered rows: `rows` is a row-major
  /// n x NumFeatures() matrix (GatherRows), `out` receives n x
  /// NumOutputs() values, the pre-softmax logits of a classifier
  /// (NumOutputs() > 1) or the prediction of a regressor. Runs the
  /// batched kernels ComputeGradientBatched runs; n may be 0.
  virtual void ForwardBatch(const float* rows, size_t n,
                            float* out) const = 0;

  /// Average loss over `data` (ScoreRows with RowScore::kLoss): 0 for an
  /// empty dataset. `data` must fit the model (CheckDatasetFitsModel);
  /// anything else is a fatal error.
  double Loss(const Dataset& data) const;

  /// Number of model outputs (classes, or 1 for regression).
  virtual int NumOutputs() const = 0;

  /// Number of input features each example must carry.
  virtual int NumFeatures() const = 0;

 protected:
  /// The flat parameter vector, in the subclass's layout.
  std::vector<float> params_;
};

/// OK when every row of `data` is a valid input to `model`: the feature
/// count matches NumFeatures(), the dataset has no more classes than the
/// model has outputs, and a classifier (NumOutputs() > 1) gets
/// classification data. InvalidArgument otherwise. Training, scoring and
/// Loss all index the model's inputs and outputs by the dataset's
/// shape, so callers check once before handing a dataset over.
Status CheckDatasetFitsModel(const Dataset& data, const Model& model);

/// What ScoreRows averages over a dataset's rows: the two model-quality
/// metrics a utility reports (fl/utility.h UtilityMetric).
enum class RowScore {
  /// 1 when the argmax of the row's outputs is its class label, else 0.
  kCorrect,
  /// Cross-entropy for classifiers, log-sum-exp of the logits minus the
  /// label's logit; 0.5 * (prediction - target)^2 for regressors.
  kLoss,
};

/// Mean of `score` over the rows of `data`, 0 for an empty dataset. The
/// one way a trained model is scored: the rows are gathered in chunks
/// of 256 and run through Model::ForwardBatch. `data` must fit the model
/// (CheckDatasetFitsModel); anything else is a fatal error.
double ScoreRows(const Model& model, const Dataset& data, RowScore score);

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

/// Numerically estimates d(Loss)/d(params) over the given rows of `data`
/// by central differences; used by the gradient-check tests.
/// O(NumParameters) loss evaluations — test-sized models only.
std::vector<float> NumericalGradient(Model& model, const Dataset& data,
                                     const std::vector<size_t>& batch,
                                     float epsilon = 1e-3f);

}  // namespace fedshap

#endif  // FEDSHAP_ML_MODEL_H_
