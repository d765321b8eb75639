#ifndef FEDSHAP_TESTS_TEST_UTIL_H_
#define FEDSHAP_TESTS_TEST_UTIL_H_

#include <cmath>
#include <vector>

#include "fl/utility.h"
#include "ml/kernel_backend.h"
#include "util/logging.h"
#include "util/random.h"

namespace fedshap {
namespace testing_util {

/// The paper's Table I (three hospitals), 0-indexed: client i here is the
/// paper's client i+1. Exact SV: (0.22, 0.32, 0.32).
inline TableUtility PaperTableOne() {
  Result<TableUtility> table = TableUtility::FromValues(
      3, {0.10, 0.50, 0.70, 0.80, 0.60, 0.90, 0.90, 0.96});
  FEDSHAP_CHECK(table.ok());
  return std::move(table).value();
}

/// Random bounded utility table; exercises scheme-equivalence properties.
inline TableUtility RandomTable(int n, uint64_t seed) {
  Rng rng(seed);
  Result<TableUtility> table = TableUtility::FromFunction(
      n, [&rng](const Coalition&) { return rng.Uniform(-1.0, 1.0); });
  FEDSHAP_CHECK(table.ok());
  return std::move(table).value();
}

/// Monotone diminishing-returns utility resembling FL accuracy curves:
/// U(S) = cap * (1 - exp(-sum of per-client strengths)). Client strengths
/// decay with index so values are distinct. The default strength makes the
/// curve saturate after 1-2 clients, like test accuracy in the paper's
/// key-combinations experiments (Fig. 3/4).
inline TableUtility MonotoneTable(int n, double cap = 0.9,
                                  double strength = 5.0) {
  Result<TableUtility> table =
      TableUtility::FromFunction(n, [cap, strength](const Coalition& s) {
        double mass = 0.0;
        s.ForEach([&](int i) {
          mass += strength / (1.0 + i);
        });
        return cap * (1.0 - std::exp(-mass));
      });
  FEDSHAP_CHECK(table.ok());
  return std::move(table).value();
}

/// Every kernel backend compiled into this binary that the CPU can
/// execute.
inline std::vector<KernelBackend> ExecutableBackends() {
  std::vector<KernelBackend> backends;
  for (KernelBackend backend :
       {KernelBackend::kScalar, KernelBackend::kAvx2}) {
    if (KernelBackendAvailable(backend)) backends.push_back(backend);
  }
  return backends;
}

/// Max absolute difference between two valuations.
inline double MaxAbsDiff(const std::vector<double>& a,
                         const std::vector<double>& b) {
  FEDSHAP_CHECK(a.size() == b.size());
  double max_diff = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a[i] - b[i]));
  }
  return max_diff;
}

}  // namespace testing_util
}  // namespace fedshap

#endif  // FEDSHAP_TESTS_TEST_UTIL_H_
