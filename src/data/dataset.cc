#include "data/dataset.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "util/logging.h"
#include "util/serialization.h"

namespace fedshap {

Result<Dataset> Dataset::Create(int num_features, int num_classes) {
  if (num_features <= 0) {
    return Status::InvalidArgument("num_features must be positive");
  }
  if (num_classes < 0) {
    return Status::InvalidArgument("num_classes must be >= 0");
  }
  return Dataset(num_features, num_classes);
}

void Dataset::Reserve(size_t rows) {
  for (AlignedFloats& column : columns_) {
    column.reserve(column.size() + rows);
  }
  labels_.reserve(labels_.size() + rows);
}

void Dataset::CheckTarget(float target) const {
  if (num_classes_ == 0) return;
  // std::lround maps exactly (-0.5, n - 0.5) into [0, n); NaN fails both
  // comparisons.
  const double t = target;
  FEDSHAP_CHECK(t > -0.5 && t < num_classes_ - 0.5);
}

void Dataset::Append(const float* features, float target) {
  FEDSHAP_CHECK(num_features_ > 0);
  CheckTarget(target);
  for (int f = 0; f < num_features_; ++f) {
    columns_[f].push_back(features[f]);
  }
  labels_.push_back(target);
}

void Dataset::Append(const std::vector<float>& features, float target) {
  FEDSHAP_CHECK(static_cast<int>(features.size()) == num_features_);
  Append(features.data(), target);
}

void Dataset::CopyRow(size_t i, float* out) const {
  for (int f = 0; f < num_features_; ++f) out[f] = columns_[f][i];
}

void Dataset::SetTarget(size_t i, float target) {
  CheckTarget(target);
  labels_[i] = target;
}

int Dataset::ClassLabel(size_t i) const {
  FEDSHAP_CHECK(num_classes_ > 0);
  // Every target lies in (-0.5, num_classes_ - 0.5) (CheckTarget), where
  // truncating target + 0.5, exact in double, is std::lround without the
  // libm call.
  return static_cast<int>(static_cast<double>(labels_[i]) + 0.5);
}

Dataset Dataset::Subset(const std::vector<size_t>& indices) const {
  for (size_t idx : indices) FEDSHAP_CHECK(idx < size());
  Dataset out(num_features_, num_classes_);
  // Column-wise gather: each destination column is filled in one pass
  // over one contiguous source column.
  for (int f = 0; f < num_features_; ++f) {
    const AlignedFloats& src = columns_[f];
    AlignedFloats& dst = out.columns_[f];
    dst.reserve(indices.size());
    for (size_t idx : indices) dst.push_back(src[idx]);
  }
  out.labels_.reserve(indices.size());
  for (size_t idx : indices) out.labels_.push_back(labels_[idx]);
  return out;
}

Dataset Dataset::Head(size_t count) const {
  count = std::min(count, size());
  Dataset out(num_features_, num_classes_);
  for (int f = 0; f < num_features_; ++f) {
    out.columns_[f].assign(columns_[f].begin(),
                           columns_[f].begin() + count);
  }
  out.labels_.assign(labels_.begin(), labels_.begin() + count);
  return out;
}

Result<Dataset> Dataset::Merge(const std::vector<const Dataset*>& parts) {
  int num_features = 0;
  int num_classes = 0;
  size_t total = 0;
  for (const Dataset* part : parts) {
    if (part == nullptr || part->empty()) continue;
    if (num_features == 0) {
      num_features = part->num_features();
      num_classes = part->num_classes();
    } else if (part->num_features() != num_features ||
               part->num_classes() != num_classes) {
      return Status::InvalidArgument(
          "cannot merge datasets with different schemas");
    }
    total += part->size();
  }
  if (num_features == 0) {
    // All parts empty: produce an empty 1-feature dataset so callers can
    // still ask for size()==0. Schema is irrelevant for an empty set.
    return Dataset(1, 0);
  }
  Dataset out(num_features, num_classes);
  out.Reserve(total);
  // Column-wise concatenation: each output column is the parts' columns
  // back to back, so the merged rows appear in part order then row order.
  for (int f = 0; f < num_features; ++f) {
    AlignedFloats& dst = out.columns_[f];
    for (const Dataset* part : parts) {
      if (part == nullptr || part->empty()) continue;
      const float* src = part->Column(f);
      dst.insert(dst.end(), src, src + part->size());
    }
  }
  for (const Dataset* part : parts) {
    if (part == nullptr || part->empty()) continue;
    out.labels_.insert(out.labels_.end(), part->targets().begin(),
                       part->targets().end());
  }
  return out;
}

void Dataset::Shuffle(Rng& rng) {
  std::vector<size_t> order(size());
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);
  *this = Subset(order);
}

std::pair<Dataset, Dataset> Dataset::Split(double train_fraction,
                                           Rng& rng) const {
  FEDSHAP_CHECK(train_fraction >= 0.0 && train_fraction <= 1.0);
  std::vector<size_t> order(size());
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);
  size_t train_rows = static_cast<size_t>(train_fraction * size());
  std::vector<size_t> train_idx(order.begin(), order.begin() + train_rows);
  std::vector<size_t> test_idx(order.begin() + train_rows, order.end());
  return {Subset(train_idx), Subset(test_idx)};
}

std::vector<size_t> Dataset::ClassHistogram() const {
  FEDSHAP_CHECK(num_classes_ > 0);
  std::vector<size_t> histogram(num_classes_, 0);
  for (size_t i = 0; i < size(); ++i) ++histogram[ClassLabel(i)];
  return histogram;
}

std::string Dataset::DebugString() const {
  std::ostringstream os;
  os << "Dataset(rows=" << size() << ", features=" << num_features_
     << ", classes=" << num_classes_ << ")";
  return os.str();
}

uint64_t Dataset::Fingerprint() const {
  Hasher64 hasher;
  hasher.MixU64(static_cast<uint64_t>(num_features_))
      .MixU64(static_cast<uint64_t>(num_classes_))
      .MixU64(size());
  // Each column and the targets are contiguous: one bulk digest each.
  const size_t bytes = size() * sizeof(float);
  for (const AlignedFloats& column : columns_) {
    hasher.MixU64(BulkHash64(column.data(), bytes));
  }
  hasher.MixU64(BulkHash64(labels_.data(), bytes));
  return hasher.digest();
}

Result<DatasetView> DatasetView::Gather(
    const std::vector<const Dataset*>& parts) {
  DatasetView view;
  size_t total = 0;
  for (const Dataset* part : parts) {
    if (part == nullptr || part->empty()) continue;
    if (view.num_features_ == 0) {
      view.num_features_ = part->num_features();
      view.num_classes_ = part->num_classes();
    } else if (part->num_features() != view.num_features_ ||
               part->num_classes() != view.num_classes_) {
      return Status::InvalidArgument(
          "cannot gather datasets with different schemas");
    }
    total += part->size();
  }
  view.rows_.reserve(total);
  view.targets_.reserve(total);
  for (const Dataset* part : parts) {
    if (part == nullptr || part->empty()) continue;
    FEDSHAP_CHECK(part->size() <= UINT32_MAX);
    const uint32_t part_index = static_cast<uint32_t>(view.parts_.size());
    view.parts_.push_back(part);
    for (size_t i = 0; i < part->size(); ++i) {
      view.rows_.push_back(RowRef{part_index, static_cast<uint32_t>(i)});
      view.targets_.push_back(part->Target(i));
    }
  }
  return view;
}

DatasetView DatasetView::Of(const Dataset& data) {
  Result<DatasetView> view = Gather({&data});
  FEDSHAP_CHECK(view.ok());  // a single dataset cannot schema-conflict
  return std::move(view).value();
}

void DatasetView::CopyRow(size_t i, float* out) const {
  const RowRef& ref = rows_[i];
  parts_[ref.part]->CopyRow(ref.row, out);
}

std::vector<DatasetView::ColumnSlice> DatasetView::ColumnSlices(
    int f) const {
  std::vector<ColumnSlice> slices;
  slices.reserve(parts_.size());
  for (const Dataset* part : parts_) {
    slices.push_back(ColumnSlice{part->Column(f), part->size()});
  }
  return slices;
}

int DatasetView::ClassLabel(size_t i) const {
  FEDSHAP_CHECK(num_classes_ > 0);
  int label = static_cast<int>(std::lround(targets_[i]));
  FEDSHAP_DCHECK(label >= 0 && label < num_classes_);
  return label;
}

}  // namespace fedshap
