#include "ml/metrics.h"

#include "util/logging.h"

namespace fedshap {

double EvaluateAccuracy(const Model& model, const Dataset& data) {
  if (data.empty()) return 0.0;
  FEDSHAP_CHECK(data.num_classes() > 0);
  return ScoreRows(model, data, RowScore::kCorrect);
}

double MseBetween(const std::vector<double>& a,
                  const std::vector<double>& b) {
  FEDSHAP_CHECK(a.size() == b.size());
  if (a.empty()) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double diff = a[i] - b[i];
    total += diff * diff;
  }
  return total / static_cast<double>(a.size());
}

}  // namespace fedshap
