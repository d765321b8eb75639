#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "e2e.h"

namespace fedshap::e2e {

namespace {

/// Nearest rank (1-based) of percentile `per_10k` among `count` samples:
/// ceil(per_10k * count / 10000), in integers so p90 of 100 is rank 90.
size_t NearestRank(size_t count, int per_10k) {
  const uint64_t scaled = static_cast<uint64_t>(per_10k) * count;
  return std::max<size_t>(1, static_cast<size_t>((scaled + 9999) / 10000));
}

constexpr int kCandidatePercentiles[] = {9999, 9990, 9900, 9000, 5000};

int64_t CoveredWithin(const Interval& parent, std::vector<Interval> children) {
  for (Interval& child : children) {
    child.start = std::max(child.start, parent.start);
    child.end = std::min(child.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  int64_t covered = 0;
  int64_t reach = parent.start;  // End of the union merged so far.
  for (const Interval& child : children) {
    if (child.end <= child.start) continue;
    const int64_t from = std::max(child.start, reach);
    if (child.end > from) covered += child.end - from;
    reach = std::max(reach, child.end);
  }
  return covered;
}

}  // namespace

double Percentile(std::vector<double> samples, int per_10k) {
  if (samples.empty()) return 0.0;
  const size_t rank = NearestRank(samples.size(), per_10k);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t count, int per_10k) {
  if (count == 0) return 0;
  return count - NearestRank(count, per_10k);
}

int HighestResolvedPercentile(size_t count) {
  for (int per_10k : kCandidatePercentiles) {
    if (SamplesBeyond(count, per_10k) >= 10) return per_10k;
  }
  return 0;
}

std::string PercentileLabel(int per_10k) {
  char buffer[16];
  if (per_10k % 100 == 0) {
    std::snprintf(buffer, sizeof(buffer), "p%d", per_10k / 100);
  } else if (per_10k % 10 == 0) {
    std::snprintf(buffer, sizeof(buffer), "p%d.%d", per_10k / 100,
                  (per_10k % 100) / 10);
  } else {
    std::snprintf(buffer, sizeof(buffer), "p%d.%02d", per_10k / 100,
                  per_10k % 100);
  }
  return buffer;
}

int64_t SelfTime(const Interval& parent,
                 const std::vector<Interval>& children) {
  return (parent.end - parent.start) - CoveredWithin(parent, children);
}

const std::vector<MetricDef>& EndToEndMetrics() {
  // Bounds are what a 2-vCPU shared host allows: the same run repeated
  // a minute later moves throughput and latency by 10-20% (README.md,
  // "Noise"), so 0.25 is the tightest share the spread check passes.
  // setup_s is microseconds to milliseconds, so its share gets a 10 ms
  // floor: scheduler noise alone moves a 2 ms set-up by more than 25%.
  static const std::vector<MetricDef> metrics = {
      {"setup_s", "s", true, 0.25, 0.010},
      {"jobs_per_s", "jobs/s", false, 0.25, 0.0},
      {"job_p50_s", "s", true, 0.25, 0.0},
      {"job_p90_s", "s", true, 0.25, 0.0},
      {"trainings_per_s", "trainings/s", false, 0.25, 0.0},
      {"evals_per_s", "evals/s", false, 0.25, 0.0},
      {"peak_rss_mb", "MiB", true, 0.10, 0.0},
  };
  return metrics;
}

double AllowedWorsening(const MetricDef& def, double parent_median) {
  return std::max(def.bound * std::fabs(parent_median), def.floor);
}

bool IsRegression(const MetricDef& def, double parent_median,
                  double change_median) {
  const double worse = def.lower_is_better ? change_median - parent_median
                                           : parent_median - change_median;
  return worse > AllowedWorsening(def, parent_median);
}

uint64_t HashValues(const std::vector<double>& values) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (double value : values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    for (int byte = 0; byte < 8; ++byte) {
      hash = (hash ^ ((bits >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  return hash;
}

double PeakRssMiB() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

}  // namespace fedshap::e2e
