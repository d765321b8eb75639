#include "data/dataset.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

namespace fedshap {
namespace {

Dataset MakeToy(int rows = 5, int features = 3, int classes = 2) {
  Result<Dataset> data = Dataset::Create(features, classes);
  EXPECT_TRUE(data.ok());
  Dataset d = std::move(data).value();
  std::vector<float> row(features);
  for (int i = 0; i < rows; ++i) {
    for (int f = 0; f < features; ++f) {
      row[f] = static_cast<float>(i * 10 + f);
    }
    d.Append(row.data(), static_cast<float>(i % classes));
  }
  return d;
}

TEST(DatasetTest, CreateValidatesSchema) {
  EXPECT_FALSE(Dataset::Create(0, 2).ok());
  EXPECT_FALSE(Dataset::Create(-1, 2).ok());
  EXPECT_FALSE(Dataset::Create(3, -1).ok());
  EXPECT_TRUE(Dataset::Create(3, 0).ok());  // regression
  EXPECT_TRUE(Dataset::Create(3, 10).ok());
}

TEST(DatasetTest, AppendAndAccess) {
  Dataset d = MakeToy(4, 3, 2);
  EXPECT_EQ(d.size(), 4u);
  EXPECT_EQ(d.num_features(), 3);
  EXPECT_EQ(d.num_classes(), 2);
  EXPECT_FLOAT_EQ(d.Value(2, 1), 21.0f);
  EXPECT_FLOAT_EQ(d.Target(3), 1.0f);
  EXPECT_EQ(d.ClassLabel(3), 1);
}

TEST(DatasetTest, AppendVectorChecksWidth) {
  Result<Dataset> d = Dataset::Create(2, 2);
  ASSERT_TRUE(d.ok());
  d->Append({1.0f, 2.0f}, 0.0f);
  EXPECT_EQ(d->size(), 1u);
}

TEST(DatasetTest, ClassLabelsOutsideTheClassesAreFatal) {
  // ClassLabel indexes per-class arrays (ClassHistogram, the partitions,
  // a model's probabilities), so Append and SetTarget admit only targets
  // that round to a class id: -0.4 and 2.4 do, -0.5, 2.5 and NaN do not.
  Dataset d = MakeToy(2, 1, 3);
  d.Append({0.0f}, -0.4f);
  d.Append({0.0f}, 2.4f);
  EXPECT_EQ(d.ClassLabel(2), 0);
  EXPECT_EQ(d.ClassLabel(3), 2);
  EXPECT_DEATH(d.Append({0.0f}, -0.5f), "num_classes_");
  EXPECT_DEATH(d.Append({0.0f}, 2.5f), "num_classes_");
  EXPECT_DEATH(d.Append({0.0f}, 10.0f), "num_classes_");
  EXPECT_DEATH(d.Append({0.0f}, std::nanf("")), "num_classes_");
  EXPECT_DEATH(d.SetTarget(0, 3.0f), "num_classes_");
  d.SetTarget(0, 1.0f);
  EXPECT_EQ(d.ClassLabel(0), 1);

  // A regression target may be anything.
  Result<Dataset> regression = Dataset::Create(1, 0);
  ASSERT_TRUE(regression.ok());
  regression->Append({0.0f}, -7.5f);
  regression->SetTarget(0, 1e9f);
  EXPECT_EQ(regression->Target(0), 1e9f);
}

TEST(DatasetTest, SubsetCopiesSelectedRows) {
  Dataset d = MakeToy(6);
  Dataset sub = d.Subset({5, 0, 2});
  ASSERT_EQ(sub.size(), 3u);
  EXPECT_FLOAT_EQ(sub.Value(0, 0), 50.0f);
  EXPECT_FLOAT_EQ(sub.Value(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(sub.Value(2, 0), 20.0f);
}

TEST(DatasetTest, HeadClampsToSize) {
  Dataset d = MakeToy(4);
  EXPECT_EQ(d.Head(2).size(), 2u);
  EXPECT_EQ(d.Head(100).size(), 4u);
  EXPECT_EQ(d.Head(0).size(), 0u);
}

TEST(DatasetTest, MergeConcatenates) {
  Dataset a = MakeToy(2);
  Dataset b = MakeToy(3);
  Result<Dataset> merged = Dataset::Merge({&a, &b});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->size(), 5u);
  EXPECT_FLOAT_EQ(merged->Value(2, 0), 0.0f);  // b's first row
}

TEST(DatasetTest, MergeSkipsNullAndEmpty) {
  Dataset a = MakeToy(2);
  Result<Dataset> empty = Dataset::Create(3, 2);
  ASSERT_TRUE(empty.ok());
  Result<Dataset> merged = Dataset::Merge({nullptr, &a, &empty.value()});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->size(), 2u);
}

TEST(DatasetTest, MergeAllEmptyYieldsEmpty) {
  Result<Dataset> merged = Dataset::Merge({});
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(merged->empty());
}

TEST(DatasetTest, MergeRejectsSchemaMismatch) {
  Dataset a = MakeToy(2, 3, 2);
  Dataset b = MakeToy(2, 4, 2);
  EXPECT_FALSE(Dataset::Merge({&a, &b}).ok());
  Dataset c = MakeToy(2, 3, 5);
  EXPECT_FALSE(Dataset::Merge({&a, &c}).ok());
}

TEST(DatasetViewTest, GatherMatchesMergeRowForRow) {
  Dataset a = MakeToy(2);
  Dataset b = MakeToy(3);
  Result<Dataset> merged = Dataset::Merge({&a, &b});
  ASSERT_TRUE(merged.ok());
  Result<DatasetView> view = DatasetView::Gather({&a, &b});
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->size(), merged->size());
  EXPECT_EQ(view->num_features(), merged->num_features());
  EXPECT_EQ(view->num_classes(), merged->num_classes());
  for (size_t i = 0; i < view->size(); ++i) {
    EXPECT_EQ(view->Target(i), merged->Target(i)) << "row " << i;
    EXPECT_EQ(view->ClassLabel(i), merged->ClassLabel(i)) << "row " << i;
    for (int f = 0; f < view->num_features(); ++f) {
      EXPECT_EQ(view->Value(i, f), merged->Value(i, f))
          << "row " << i << " feature " << f;
    }
  }
}

TEST(DatasetViewTest, ColumnSlicesAliasTheViewedStorageNoCopies) {
  Dataset a = MakeToy(3);
  Result<DatasetView> view = DatasetView::Gather({&a});
  ASSERT_TRUE(view.ok());
  for (int f = 0; f < view->num_features(); ++f) {
    std::vector<DatasetView::ColumnSlice> slices = view->ColumnSlices(f);
    ASSERT_EQ(slices.size(), 1u) << "feature " << f;
    EXPECT_EQ(slices[0].data, a.Column(f)) << "column pointer " << f;
    EXPECT_EQ(slices[0].size, a.size()) << "column size " << f;
  }
}

TEST(DatasetViewTest, ColumnSlicesSpanAllParts) {
  Dataset a = MakeToy(2);
  Dataset b = MakeToy(3);
  Result<DatasetView> view = DatasetView::Gather({&a, &b});
  ASSERT_TRUE(view.ok());
  std::vector<DatasetView::ColumnSlice> slices = view->ColumnSlices(1);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0].data, a.Column(1));
  EXPECT_EQ(slices[0].size, a.size());
  EXPECT_EQ(slices[1].data, b.Column(1));
  EXPECT_EQ(slices[1].size, b.size());
}

TEST(DatasetViewTest, GatherSkipsNullAndEmptyParts) {
  Dataset a = MakeToy(2);
  Result<Dataset> empty = Dataset::Create(3, 2);
  ASSERT_TRUE(empty.ok());
  Result<DatasetView> view =
      DatasetView::Gather({nullptr, &a, &empty.value()});
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->size(), 2u);
}

TEST(DatasetViewTest, GatherAllEmptyYieldsEmptyView) {
  Result<DatasetView> view = DatasetView::Gather({});
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view->empty());
  EXPECT_EQ(view->size(), 0u);
}

TEST(DatasetViewTest, GatherRejectsSchemaMismatch) {
  Dataset a = MakeToy(2, 3, 2);
  Dataset b = MakeToy(2, 4, 2);
  EXPECT_FALSE(DatasetView::Gather({&a, &b}).ok());
  Dataset c = MakeToy(2, 3, 5);
  EXPECT_FALSE(DatasetView::Gather({&a, &c}).ok());
}

TEST(DatasetViewTest, OfViewsWholeDataset) {
  Dataset a = MakeToy(4);
  DatasetView view = DatasetView::Of(a);
  ASSERT_EQ(view.size(), a.size());
  EXPECT_EQ(view.Value(0, 0), a.Value(0, 0));
  EXPECT_EQ(view.Target(3), a.Target(3));
}

TEST(DatasetTest, ShuffleKeepsRowIntegrity) {
  Dataset d = MakeToy(20);
  Rng rng(1);
  Dataset shuffled = d;
  shuffled.Shuffle(rng);
  ASSERT_EQ(shuffled.size(), d.size());
  // Every row must still have features consistent with its own pattern
  // (feature f = row_id * 10 + f), i.e. rows moved as units.
  for (size_t i = 0; i < shuffled.size(); ++i) {
    const float base = shuffled.Value(i, 0);
    EXPECT_FLOAT_EQ(shuffled.Value(i, 1), base + 1);
    EXPECT_FLOAT_EQ(shuffled.Value(i, 2), base + 2);
  }
}

TEST(DatasetTest, SplitPartitionsAllRows) {
  Dataset d = MakeToy(10);
  Rng rng(2);
  auto [train, test] = d.Split(0.7, rng);
  EXPECT_EQ(train.size(), 7u);
  EXPECT_EQ(test.size(), 3u);
}

TEST(DatasetTest, SplitExtremes) {
  Dataset d = MakeToy(4);
  Rng rng(3);
  auto [all, none] = d.Split(1.0, rng);
  EXPECT_EQ(all.size(), 4u);
  EXPECT_EQ(none.size(), 0u);
  auto [empty, everything] = d.Split(0.0, rng);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(everything.size(), 4u);
}

TEST(DatasetTest, ClassHistogramCounts) {
  Dataset d = MakeToy(7, 3, 2);  // labels alternate 0,1,0,1,...
  std::vector<size_t> histogram = d.ClassHistogram();
  ASSERT_EQ(histogram.size(), 2u);
  EXPECT_EQ(histogram[0], 4u);
  EXPECT_EQ(histogram[1], 3u);
}

TEST(DatasetTest, DebugStringMentionsShape) {
  Dataset d = MakeToy(3, 2, 2);
  const std::string s = d.DebugString();
  EXPECT_NE(s.find("rows=3"), std::string::npos);
  EXPECT_NE(s.find("features=2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fingerprint: schema and row count through Hasher64, then one bulk digest
// per column and one of the targets.

/// `data` with bit `bit` of row i's feature f flipped.
Dataset FlipBit(const Dataset& data, size_t i, int f, int bit) {
  Dataset flipped = data;
  const uint32_t bits = std::bit_cast<uint32_t>(data.Value(i, f));
  flipped.SetValue(i, f, std::bit_cast<float>(bits ^ (uint32_t{1} << bit)));
  return flipped;
}

TEST(DatasetFingerprintTest, AFlippedBitInAnEdgeCellChangesIt) {
  // Columns of 4, 28, 32, 36 and 132 bytes: a half-word tail alone, words
  // and a half word, one whole stripe, a stripe and a half word, and four
  // stripes and a half word.
  for (int rows : {1, 7, 8, 9, 33}) {
    const Dataset data = MakeToy(rows, 4, 2);
    const uint64_t original = data.Fingerprint();
    for (int f : {0, 3}) {
      for (size_t i : {size_t{0}, static_cast<size_t>(rows - 1)}) {
        for (int bit : {0, 22, 31}) {
          SCOPED_TRACE(::testing::Message() << "rows=" << rows << " f=" << f
                                            << " i=" << i << " bit=" << bit);
          EXPECT_NE(FlipBit(data, i, f, bit).Fingerprint(), original);
        }
      }
    }
  }
}

TEST(DatasetFingerprintTest, ARowSwapChangesIt) {
  const Dataset data = MakeToy(9, 3, 2);
  EXPECT_NE(data.Subset({1, 0, 2, 3, 4, 5, 6, 7, 8}).Fingerprint(),
            data.Fingerprint());
  EXPECT_NE(data.Subset({0, 1, 2, 3, 4, 5, 6, 8, 7}).Fingerprint(),
            data.Fingerprint());
}

TEST(DatasetFingerprintTest, ALabelChangeChangesIt) {
  const Dataset data = MakeToy(9, 3, 3);
  for (size_t i : {size_t{0}, size_t{8}}) {
    Dataset relabeled = data;
    relabeled.SetTarget(i, static_cast<float>((data.ClassLabel(i) + 1) % 3));
    EXPECT_NE(relabeled.Fingerprint(), data.Fingerprint()) << "row " << i;
  }
}

TEST(DatasetFingerprintTest, NegativeZeroDiffersFromPositiveZero) {
  Dataset positive = MakeToy(9, 3, 2);
  positive.SetValue(4, 1, 0.0f);
  Dataset negative = positive;
  negative.SetValue(4, 1, -0.0f);
  EXPECT_NE(negative.Fingerprint(), positive.Fingerprint());
  // A regression target too.
  Dataset target_positive = Dataset::Create(3, 0).value();
  for (int i = 0; i < 9; ++i) {
    target_positive.Append({1.0f * i, 2.0f * i, 3.0f * i}, 0.5f * i);
  }
  target_positive.SetTarget(4, 0.0f);
  Dataset target_negative = target_positive;
  target_negative.SetTarget(4, -0.0f);
  EXPECT_NE(target_negative.Fingerprint(), target_positive.Fingerprint());
}

/// A dataset whose columns, then targets, are `stream` back to back:
/// rows = stream.size() / (features + 1).
Dataset FromColumnStream(const std::vector<float>& stream, int features,
                         int classes) {
  const size_t rows = stream.size() / static_cast<size_t>(features + 1);
  Dataset data = Dataset::Create(features, classes).value();
  std::vector<float> row(static_cast<size_t>(features));
  for (size_t i = 0; i < rows; ++i) {
    for (int f = 0; f < features; ++f) row[f] = stream[f * rows + i];
    data.Append(row, stream[features * rows + i]);
  }
  return data;
}

TEST(DatasetFingerprintTest, TheSameFloatsUnderAnotherSchemaDiffer) {
  // 18 floats, all valid class ids of 2 or more classes: 2 features x 6
  // rows + 6 targets, or 5 features x 3 rows + 3 targets.
  std::vector<float> stream(18);
  for (size_t i = 0; i < stream.size(); ++i) {
    stream[i] = static_cast<float>(i * 7 % 2);
  }
  const uint64_t wide = FromColumnStream(stream, 5, 2).Fingerprint();
  EXPECT_NE(FromColumnStream(stream, 2, 2).Fingerprint(), wide);
  EXPECT_NE(FromColumnStream(stream, 5, 3).Fingerprint(), wide);
  EXPECT_NE(FromColumnStream(stream, 5, 0).Fingerprint(), wide);
}

TEST(DatasetFingerprintTest, IdenticalCopiesFingerprintEqual) {
  const Dataset data = MakeToy(33, 4, 3);
  const uint64_t original = data.Fingerprint();
  EXPECT_EQ(MakeToy(33, 4, 3).Fingerprint(), original);
  std::vector<size_t> all(data.size());
  std::iota(all.begin(), all.end(), 0);
  EXPECT_EQ(data.Subset(all).Fingerprint(), original);
  EXPECT_EQ(data.Head(data.size()).Fingerprint(), original);
  EXPECT_EQ(Dataset::Merge({&data}).value().Fingerprint(), original);
  // Split into a head and a tail, then merged back with empty parts.
  const Dataset head = data.Head(20);
  std::vector<size_t> rest(data.size() - 20);
  std::iota(rest.begin(), rest.end(), 20);
  const Dataset tail = data.Subset(rest);
  const Dataset empty = Dataset::Create(4, 3).value();
  EXPECT_EQ(Dataset::Merge({&head, nullptr, &empty, &tail})
                .value()
                .Fingerprint(),
            original);
}

}  // namespace
}  // namespace fedshap
