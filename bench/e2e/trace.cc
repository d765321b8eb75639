#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "e2e.h"

namespace fedshap::e2e {

namespace {

/// Spans one thread recorded. Only its own thread writes it; CollectSpans
/// reads it after the recording threads have been joined.
struct ThreadBuffer {
  uint32_t thread = 0;
  uint64_t job = 0;
  std::vector<uint64_t> open;  ///< Ids of the spans open on this thread.
  std::vector<Span> spans;
};

std::mutex g_buffers_mutex;
std::vector<std::shared_ptr<ThreadBuffer>> g_buffers;  // Guarded.
std::atomic<uint64_t> g_next_span{1};

ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto created = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    created->thread = static_cast<uint32_t>(g_buffers.size());
    g_buffers.push_back(created);
    return created;
  }();
  return *buffer;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kClient:
      return "client";
    case Layer::kJob:
      return "job";
    case Layer::kLookup:
      return "service.lookup";
    case Layer::kBuild:
      return "setup.build";
    case Layer::kStoreOpen:
      return "fl.store.open";
    case Layer::kPlan:
      return "core.plan";
    case Layer::kStep:
      return "core.step";
    case Layer::kFinish:
      return "core.finish";
    case Layer::kOneShot:
      return "core.oneshot";
    case Layer::kCheckpoint:
      return "service.checkpoint";
    case Layer::kEvaluate:
      return "fl.evaluate";
    case Layer::kClusterEvaluate:
      return "cluster.evaluate";
  }
  return "unknown";
}

ScopedSpan::ScopedSpan(Layer layer) {
  ThreadBuffer& buffer = LocalBuffer();
  span_.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  span_.parent = buffer.open.empty() ? 0 : buffer.open.back();
  span_.job = buffer.job;
  span_.layer = layer;
  span_.thread = buffer.thread;
  buffer.open.push_back(span_.id);
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  span_.end_ns = NowNs();
  ThreadBuffer& buffer = LocalBuffer();
  buffer.open.pop_back();
  buffer.spans.push_back(span_);
}

void SetCurrentJob(uint64_t job) { LocalBuffer().job = job; }

std::vector<Span> CollectSpans() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::vector<Span> spans;
  for (const auto& buffer : g_buffers) {
    spans.insert(spans.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return spans;
}

Status WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::Internal("cannot write " + path);
  std::fprintf(out, "{\"unit\": \"ns\", \"spans\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::fprintf(out,
                 "  {\"id\": %llu, \"parent\": %llu, \"job\": %llu, "
                 "\"name\": \"%s\", \"thread\": %u, \"start\": %lld, "
                 "\"end\": %lld}%s\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.job),
                 LayerName(span.layer), span.thread,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0 ? Status::OK()
                               : Status::Internal("cannot write " + path);
}

LayerTimes SummarizeSpans(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<Interval>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].push_back({span.start_ns, span.end_ns});
    }
  }
  LayerTimes times;
  for (const Span& span : spans) {
    const int layer = static_cast<int>(span.layer);
    times.duration_ms[layer].push_back((span.end_ns - span.start_ns) / 1e6);
    times.busy_s[layer] += (span.end_ns - span.start_ns) / 1e9;
    auto it = children.find(span.id);
    const int64_t self =
        it == children.end()
            ? span.end_ns - span.start_ns
            : SelfTime({span.start_ns, span.end_ns}, it->second);
    times.self_s[layer] += self / 1e9;
  }
  return times;
}

}  // namespace fedshap::e2e
