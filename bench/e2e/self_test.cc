#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "e2e.h"

namespace fedshap::e2e {

namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

const MetricDef& Def(const char* name) {
  for (const MetricDef& def : EndToEndMetrics()) {
    if (std::string(def.name) == name) return def;
  }
  std::printf("FAIL no metric %s\n", name);
  std::abort();
}

std::vector<std::string> JobLines(const std::string& name, uint64_t seed,
                                  size_t count) {
  std::vector<std::string> lines;
  Result<Workload> workload = MakeWorkload(name, seed);
  if (!workload.ok()) return lines;
  for (const JobSpec& spec : workload->prepared) lines.push_back(spec.ToLine());
  for (size_t i = 0; i < count; ++i) {
    lines.push_back(MakeJob(*workload, seed, i).ToLine());
  }
  return lines;
}

}  // namespace

int RunSelfTest() {
  // The percentile rule: nearest rank in integers, reported only with at
  // least ten samples beyond it.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Check(Percentile(hundred, 5000) == 50, "p50 of 1..100 is 50");
  Check(Percentile(hundred, 9000) == 90, "p90 of 1..100 is 90");
  Check(SamplesBeyond(100, 9000) == 10, "p90 of 100 leaves 10 beyond");
  Check(SamplesBeyond(99, 9000) == 9, "p90 of 99 leaves 9 beyond");
  Check(HighestResolvedPercentile(100) == 9000, "100 samples resolve p90");
  Check(HighestResolvedPercentile(99) == 5000, "99 samples resolve only p50");
  Check(HighestResolvedPercentile(1000) == 9900, "1000 samples resolve p99");
  Check(HighestResolvedPercentile(10000) == 9990,
        "10000 samples resolve p99.9");
  Check(HighestResolvedPercentile(19) == 0, "19 samples resolve nothing");
  Check(HighestResolvedPercentile(20) == 5000, "20 samples resolve p50");
  Check(PercentileLabel(9990) == "p99.9" && PercentileLabel(9000) == "p90" &&
            PercentileLabel(9999) == "p99.99",
        "percentile labels");
  Check(Percentile({}, 5000) == 0, "percentile of nothing is 0");

  // Self time: children clipped to the parent, overlaps counted once.
  const Interval parent{0, 100};
  Check(SelfTime(parent, {}) == 100, "self time without children");
  Check(SelfTime(parent, {{10, 20}, {30, 40}}) == 80,
        "self time with disjoint children");
  Check(SelfTime(parent, {{10, 40}, {15, 20}}) == 70,
        "self time with a nested child");
  Check(SelfTime(parent, {{10, 30}, {20, 50}, {45, 60}}) == 50,
        "self time with overlapping children");
  Check(SelfTime(parent, {{-20, 10}, {90, 130}, {200, 300}}) == 80,
        "self time with children past the parent");
  Check(SelfTime(parent, {{0, 100}, {10, 20}}) == 0,
        "self time of a fully covered span");

  // Bound arithmetic, with the setup_s floor.
  const MetricDef& setup = Def("setup_s");
  Check(std::fabs(AllowedWorsening(setup, 0.002) - 0.010) < 1e-12,
        "setup_s floor: 2 ms may worsen by 10 ms");
  Check(!IsRegression(setup, 0.002, 0.0119), "setup_s 2 -> 11.9 ms passes");
  Check(IsRegression(setup, 0.002, 0.0121), "setup_s 2 -> 12.1 ms regresses");
  Check(!IsRegression(setup, 1.0, 1.24) && IsRegression(setup, 1.0, 1.26),
        "setup_s above the floor uses its share");
  const MetricDef& jobs = Def("jobs_per_s");
  Check(!IsRegression(jobs, 100, 76) && IsRegression(jobs, 100, 74),
        "jobs_per_s may fall by 25%");
  Check(!IsRegression(jobs, 100, 150), "a higher jobs_per_s never regresses");
  const MetricDef& p90 = Def("job_p90_s");
  Check(!IsRegression(p90, 1.0, 1.24) && IsRegression(p90, 1.0, 1.26),
        "job_p90_s may rise by 25%");
  Check(!IsRegression(p90, 1.0, 0.5), "a lower job_p90_s never regresses");
  const MetricDef& rss = Def("peak_rss_mb");
  Check(!IsRegression(rss, 100, 109) && IsRegression(rss, 100, 111),
        "peak_rss_mb may rise by 10%");

  // Seed -> job list: a pure function of the seed.
  for (const std::string& name : WorkloadNames()) {
    const std::vector<std::string> first = JobLines(name, 7, 300);
    Check(!first.empty() && first == JobLines(name, 7, 300),
          name + ": the same seed gives the same job list");
    Check(first != JobLines(name, 8, 300),
          name + ": another seed gives another job list");
  }

  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace fedshap::e2e
