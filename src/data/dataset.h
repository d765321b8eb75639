#ifndef FEDSHAP_DATA_DATASET_H_
#define FEDSHAP_DATA_DATASET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/aligned.h"
#include "util/random.h"
#include "util/status.h"

namespace fedshap {

/// In-memory dense dataset: column-major float features plus one target
/// per row.
///
/// Features are stored one 64-byte-aligned buffer *per column* (see
/// util/aligned.h). Column-major layout is what both hot consumers
/// actually want: the GBDT split search scans one feature across many
/// rows (now a contiguous walk instead of a strided gather), and a
/// DatasetView can compose a coalition's column as zero-copy slices of
/// the member datasets' columns. Row-oriented consumers copy a row out
/// with `CopyRow` (the values are identical to the historical row-major
/// storage, so training results are bit-identical).
///
/// Serves both classification (targets are class ids stored as float;
/// `num_classes() > 0`) and regression (`num_classes() == 0`). This is the
/// unit a FL client owns (the D_i of the paper) and what FedAvg trains on.
class Dataset {
 public:
  /// Creates an empty dataset with the given schema. `num_classes == 0`
  /// denotes a regression target.
  static Result<Dataset> Create(int num_features, int num_classes);

  /// Creates an empty 0-feature dataset (assign a real one over it).
  Dataset() = default;

  /// Feature dimension of every row.
  int num_features() const { return num_features_; }
  /// Number of classes (0 for regression targets).
  int num_classes() const { return num_classes_; }
  /// Number of rows.
  size_t size() const { return labels_.size(); }
  /// True when the dataset has no rows.
  bool empty() const { return labels_.empty(); }

  /// Pre-allocates storage for `rows` additional rows.
  void Reserve(size_t rows);

  /// Appends one example. `features` must contain num_features() values.
  /// A classification target must round to a class id in
  /// [0, num_classes()); anything else is a fatal error.
  void Append(const float* features, float target);
  /// Appends one example from a vector of num_features() values.
  void Append(const std::vector<float>& features, float target);

  /// Pointer to column f's storage: size() contiguous, 64-byte-aligned
  /// floats — `Column(f)[i]` is row i's value of feature f.
  const float* Column(int f) const { return columns_[f].data(); }

  /// Row i's value of feature f.
  float Value(size_t i, int f) const { return columns_[f][i]; }

  /// Overwrites row i's value of feature f.
  void SetValue(size_t i, int f, float value) { columns_[f][i] = value; }

  /// Copies row i's features into `out[0 .. num_features())` — the
  /// bridge for row-oriented consumers (per-example gradient paths,
  /// Model::Predict).
  void CopyRow(size_t i, float* out) const;

  /// Target value of row i (class id as float, or regression value).
  float Target(size_t i) const { return labels_[i]; }
  /// Overwrites the target value of row i, under Append's check.
  void SetTarget(size_t i, float target);

  /// Class id of row i (its target rounded half away from zero, as
  /// std::lround does); only valid for classification datasets. Always in
  /// [0, num_classes()): Append and SetTarget admit no other target.
  int ClassLabel(size_t i) const;

  /// Contiguous target storage (size() floats).
  const std::vector<float>& targets() const { return labels_; }

  /// New dataset holding the selected rows (copies data).
  Dataset Subset(const std::vector<size_t>& indices) const;

  /// Returns the first `count` rows as a new dataset.
  Dataset Head(size_t count) const;

  /// Concatenates datasets with identical schemas. Null entries and empty
  /// datasets are allowed (they contribute nothing); this is how the FL
  /// server materializes the coalition dataset D_S = union of D_i.
  static Result<Dataset> Merge(const std::vector<const Dataset*>& parts);

  /// Randomly permutes the rows in place.
  void Shuffle(Rng& rng);

  /// Splits into (train, test) with `train_fraction` of rows (rounded down)
  /// in the first part, after an in-place shuffle of the copy.
  std::pair<Dataset, Dataset> Split(double train_fraction, Rng& rng) const;

  /// Per-class row counts (classification only).
  std::vector<size_t> ClassHistogram() const;

  /// One-line human-readable summary (schema + row count).
  std::string DebugString() const;

  /// 64-bit content fingerprint: the schema and row count through
  /// Hasher64, then the BulkHash64 digest of each feature column and of
  /// the targets. Datasets holding the same rows in the same order under
  /// the same schema fingerprint equal; any other difference (a flipped
  /// bit, a row swap, -0 for +0) changes it except by a 64-bit hash
  /// collision. Used to content-address persisted utility values: a
  /// utility cached on disk is only valid for the exact client datasets
  /// it was trained on.
  uint64_t Fingerprint() const;

 private:
  /// Fails fatally unless `target` is a regression value or rounds to a
  /// class id in [0, num_classes_).
  void CheckTarget(float target) const;

  Dataset(int num_features, int num_classes)
      : num_features_(num_features), num_classes_(num_classes),
        columns_(static_cast<size_t>(num_features)) {}

  int num_features_ = 0;
  int num_classes_ = 0;
  /// One aligned buffer per feature; columns_[f][i] = feature f of row i.
  std::vector<AlignedFloats> columns_;
  std::vector<float> labels_;
};

/// A read-only, non-owning view over one or more Datasets with a shared
/// schema: the coalition dataset D_S = union of D_i *without*
/// materializing it. Gathering stores one part/row index pair (8 bytes)
/// and one target (4 bytes) per row instead of copying `num_features`
/// floats — this is how GbdtUtility assembles each evaluated coalition's
/// training set, turning the former per-coalition Dataset::Merge copy
/// into an index gather. Column access composes the member datasets'
/// columns zero-copy (`ColumnSlices`): a coalition's feature column is
/// the concatenation of its members' aligned column buffers. Rows appear
/// in part order then row order, exactly the order Dataset::Merge would
/// have concatenated them, so consumers see bit-identical data.
///
/// The viewed datasets must outlive the view and must not be mutated
/// (column slices alias their storage).
class DatasetView {
 public:
  /// A zero-copy run of one member dataset's column: `data[0 .. size)`
  /// are consecutive view rows' values of the sliced feature.
  struct ColumnSlice {
    /// First value of the run (aliases the member dataset's column).
    const float* data = nullptr;
    /// Number of rows in the run.
    size_t size = 0;
  };

  /// An empty view (0 rows, regression schema).
  DatasetView() = default;

  /// Builds a view over `parts` (null/empty entries contribute nothing,
  /// as in Dataset::Merge). Fails when non-empty parts disagree on
  /// schema. All parts empty yields an empty view.
  static Result<DatasetView> Gather(const std::vector<const Dataset*>& parts);

  /// A view of one whole dataset.
  static DatasetView Of(const Dataset& data);

  /// Feature dimension of every row.
  int num_features() const { return num_features_; }
  /// Number of classes (0 for regression targets).
  int num_classes() const { return num_classes_; }
  /// Number of rows.
  size_t size() const { return targets_.size(); }
  /// True when the view has no rows.
  bool empty() const { return targets_.empty(); }

  /// Row i's value of feature f (row indices span all parts, in part
  /// order then row order).
  float Value(size_t i, int f) const {
    const RowRef& ref = rows_[i];
    return parts_[ref.part]->Column(f)[ref.row];
  }

  /// Copies row i's features into `out[0 .. num_features())`.
  void CopyRow(size_t i, float* out) const;

  /// Column f of the viewed union as zero-copy per-part slices, in view
  /// row order; concatenated they equal the merged dataset's column f.
  /// Slices alias the viewed datasets' storage.
  std::vector<ColumnSlice> ColumnSlices(int f) const;

  /// Target value of row i.
  float Target(size_t i) const { return targets_[i]; }
  /// Class id of row i; only valid for classification schemas.
  int ClassLabel(size_t i) const;

 private:
  /// Which part a view row lives in, and where.
  struct RowRef {
    uint32_t part = 0;
    uint32_t row = 0;
  };

  int num_features_ = 0;
  int num_classes_ = 0;
  std::vector<const Dataset*> parts_;
  std::vector<RowRef> rows_;
  std::vector<float> targets_;
};

}  // namespace fedshap

#endif  // FEDSHAP_DATA_DATASET_H_
