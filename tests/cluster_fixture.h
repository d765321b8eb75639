#ifndef FEDSHAP_TESTS_CLUSTER_FIXTURE_H_
#define FEDSHAP_TESTS_CLUSTER_FIXTURE_H_

// Test sugar over LocalCluster + ValuationService: one object that
// stands up a coordinator service with N sharded workers (threads by
// default, fork()ed subprocesses on request), runs job specs through
// it, and tears everything down in the right order (service before
// cluster — the dispatcher must outlive the service that evaluates
// through it). The fault-injection suites pass per-worker
// FaultInjector specs straight through to LocalClusterOptions.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/valuation_result.h"
#include "service/cluster.h"
#include "service/cluster_worker.h"
#include "service/job_spec.h"
#include "service/valuation_service.h"

namespace fedshap {

class ClusterFixture {
 public:
  struct Options {
    int num_workers = 2;
    bool fork_workers = false;
    /// kSocketPair or kTcp: the same suites run over both transports —
    /// the framed protocol is transport-agnostic, and the tests prove it.
    ClusterTransport transport = ClusterTransport::kSocketPair;
    int service_workers = 1;
    std::string state_dir;   ///< Coordinator state dir ("" = in-memory).
    std::string store_dir;   ///< Worker store tier root ("" = memory).
    /// Per-worker fault specs, FaultInjector::Parse syntax.
    std::vector<std::string> fault_specs;
    /// Dispatcher knobs; heartbeat kept tight so worker-death tests
    /// converge in milliseconds instead of the production 10s.
    ClusterDispatcher::Options dispatcher{.heartbeat_timeout_ms = 2000};
    /// TCP reconnect schedule (kTcp only); tight so partition tests heal
    /// in milliseconds.
    int reconnect_base_ms = 25;
    int reconnect_cap_ms = 400;
    size_t max_slices = 0;  ///< Service halt hook (coordinator-kill tests).
  };

  static std::unique_ptr<ClusterFixture> Start(const Options& options) {
    LocalClusterOptions cluster_options;
    cluster_options.num_workers = options.num_workers;
    cluster_options.fork_workers = options.fork_workers;
    cluster_options.transport = options.transport;
    cluster_options.store_dir = options.store_dir;
    cluster_options.fault_specs = options.fault_specs;
    cluster_options.reconnect_base_ms = options.reconnect_base_ms;
    cluster_options.reconnect_cap_ms = options.reconnect_cap_ms;
    cluster_options.dispatcher = options.dispatcher;
    Result<std::unique_ptr<LocalCluster>> cluster =
        LocalCluster::Start(cluster_options);
    EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
    if (!cluster.ok()) return nullptr;

    auto fixture = std::unique_ptr<ClusterFixture>(new ClusterFixture());
    fixture->cluster_ = std::move(cluster).value();
    ServiceConfig config;
    config.workers = options.service_workers;
    config.state_dir = options.state_dir;
    config.max_slices = options.max_slices;
    config.cluster = fixture->cluster_->dispatcher();
    fixture->service_ = std::make_unique<ValuationService>(config);
    return fixture;
  }

  ~ClusterFixture() {
    service_.reset();  // joins service workers before the dispatcher dies
    if (cluster_ != nullptr) cluster_->Shutdown();
  }

  ValuationService& service() { return *service_; }
  LocalCluster& cluster() { return *cluster_; }
  ClusterStats cluster_stats() const { return cluster_->dispatcher()->stats(); }

  void KillWorker(int index) { cluster_->KillWorker(index); }

  /// Submits `spec` and blocks for its result.
  Result<ValuationResult> Run(const JobSpec& spec) {
    Status submitted = service_->Submit(spec);
    if (!submitted.ok()) return submitted;
    return service_->Wait(spec.name);
  }

 private:
  ClusterFixture() = default;

  std::unique_ptr<LocalCluster> cluster_;
  std::unique_ptr<ValuationService> service_;
};

/// Asserts two results carry bit-identical values and exact matching
/// training accounting — the cluster invariance the harness exists to
/// check. (Plain function, not a macro: gtest failure locations point
/// here, the message names the topology under test.)
inline void ExpectBitIdentical(const ValuationResult& reference,
                               const ValuationResult& actual,
                               const std::string& topology) {
  ASSERT_EQ(reference.values.size(), actual.values.size()) << topology;
  for (size_t i = 0; i < reference.values.size(); ++i) {
    // Bitwise: EXPECT_EQ on doubles, not EXPECT_DOUBLE_EQ.
    EXPECT_EQ(reference.values[i], actual.values[i])
        << topology << ": client " << i;
  }
  EXPECT_EQ(reference.num_evaluations, actual.num_evaluations) << topology;
  EXPECT_EQ(reference.num_trainings, actual.num_trainings) << topology;
  EXPECT_EQ(reference.num_fresh_trainings, actual.num_fresh_trainings)
      << topology;
}

}  // namespace fedshap

#endif  // FEDSHAP_TESTS_CLUSTER_FIXTURE_H_
