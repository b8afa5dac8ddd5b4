#include "obs/trace.h"

#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "common/env.h"
#include "common/str_util.h"
#include "obs/metrics.h"

namespace qfcard::obs {

namespace internal {

std::atomic<int> g_trace_mode{-1};

bool ResolveTraceMode() {
  const bool on = common::GetEnvInt("QFCARD_TRACE", 0) != 0;
  int expected = -1;
  g_trace_mode.compare_exchange_strong(expected, on ? 1 : 0,
                                       std::memory_order_relaxed);
  return g_trace_mode.load(std::memory_order_relaxed) != 0;
}

}  // namespace internal

void SetTraceEnabled(bool enabled) {
  internal::g_trace_mode.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Per-thread state
// ---------------------------------------------------------------------------

namespace {

// Innermost open span on this thread and the trace it belongs to; new spans
// parent under the pair. Spans are strictly scope-nested per thread (RAII),
// so plain per-thread variables suffice — no synchronization needed. A
// cross-thread re-attach (TraceSpan(name, ctx), ScopedTraceContext) saves
// and restores both.
thread_local uint64_t tls_current_span = 0;
thread_local uint64_t tls_current_trace = 0;

std::atomic<uint32_t> g_next_thread_index{0};
thread_local uint32_t tls_thread_index = ~0u;

}  // namespace

uint32_t CurrentThreadIndex() {
  if (tls_thread_index == ~0u) {
    tls_thread_index = g_next_thread_index.fetch_add(1, std::memory_order_relaxed);
  }
  return tls_thread_index;
}

TraceContext CurrentTraceContext() {
  return TraceContext{tls_current_trace, tls_current_span};
}

ScopedTraceContext::ScopedTraceContext(const TraceContext& ctx)
    : prev_(CurrentTraceContext()) {
  tls_current_trace = ctx.trace_id;
  tls_current_span = ctx.parent_span_id;
}

ScopedTraceContext::~ScopedTraceContext() {
  tls_current_trace = prev_.trace_id;
  tls_current_span = prev_.parent_span_id;
}

// ---------------------------------------------------------------------------
// TraceBuffer
// ---------------------------------------------------------------------------

TraceBuffer& TraceBuffer::Global() {
  static TraceBuffer* buffer = new TraceBuffer();  // leaked: outlives statics
  return *buffer;
}

TraceBuffer::TraceBuffer(size_t capacity)
    : ring_(capacity), epoch_(Now()) {}

bool TraceBuffer::IsKept(uint64_t trace_id) const {
  return kept_traces_.count(trace_id) != 0;
}

void TraceBuffer::KeepTrace(uint64_t trace_id) {
  if (kept_traces_.count(trace_id) != 0) return;
  kept_traces_.insert(trace_id);
  kept_order_.push_back(trace_id);
  ++tail_sampled_;
  // Bounded memory of kept traces: forget the oldest. Its spans already in
  // the side store stay there; it just loses future eviction protection.
  while (kept_traces_.size() > tail_.max_kept_traces && !kept_order_.empty()) {
    kept_traces_.erase(kept_order_.front());
    kept_order_.pop_front();
  }
}

void TraceBuffer::Record(SpanRecord span, Clock::time_point start) {
  common::MutexLock lock(&mu_);
  span.start_s = SecondsBetween(epoch_, start);
  // Keep-decision at trace-root close (the root is recorded last, after its
  // children): a slow or errored request marks its whole trace kept, so the
  // eviction path below rescues the trace's spans from the ring.
  if (tail_.enabled && span.trace_id != 0 && span.id == span.trace_id) {
    const bool slow = span.duration_s >= tail_.latency_threshold_seconds;
    if (slow || span.error) KeepTrace(span.trace_id);
  }
  // A full ring overwrites its oldest span; a victim that belongs to a
  // tail-sampled trace is rescued into the bounded side store.
  std::optional<SpanRecord> victim = ring_.Push(std::move(span));
  if (victim && tail_.enabled && victim->trace_id != 0 &&
      IsKept(victim->trace_id)) {
    if (retained_.size() < tail_.retained_capacity) {
      retained_.push_back(std::move(*victim));
    } else {
      ++tail_dropped_;
    }
  }
}

std::vector<SpanRecord> TraceBuffer::Snapshot() const {
  common::MutexLock lock(&mu_);
  // Retainees were evicted from the ring, so they predate everything in it.
  std::vector<SpanRecord> out = retained_;
  for (SpanRecord& span : ring_.Snapshot()) out.push_back(std::move(span));
  return out;
}

uint64_t TraceBuffer::Dropped() const {
  common::MutexLock lock(&mu_);
  const uint64_t held = ring_.size() + retained_.size();
  return ring_.pushed() > held ? ring_.pushed() - held : 0;
}

uint64_t TraceBuffer::Recorded() const {
  common::MutexLock lock(&mu_);
  return ring_.pushed();
}

size_t TraceBuffer::capacity() const {
  common::MutexLock lock(&mu_);
  return ring_.capacity();
}

void TraceBuffer::SetTailSampling(const TailSamplingOptions& options) {
  common::MutexLock lock(&mu_);
  tail_ = options;
  if (tail_.max_kept_traces == 0) tail_.max_kept_traces = 1;
}

TailSamplingOptions TraceBuffer::tail_sampling() const {
  common::MutexLock lock(&mu_);
  return tail_;
}

uint64_t TraceBuffer::TailSampledTraces() const {
  common::MutexLock lock(&mu_);
  return tail_sampled_;
}

uint64_t TraceBuffer::TailDroppedSpans() const {
  common::MutexLock lock(&mu_);
  return tail_dropped_;
}

size_t TraceBuffer::RetainedSpans() const {
  common::MutexLock lock(&mu_);
  return retained_.size();
}

void TraceBuffer::Reset() {
  common::MutexLock lock(&mu_);
  ring_.Reset(ring_.capacity());
  next_id_.store(1, std::memory_order_relaxed);
  epoch_ = Now();
  retained_.clear();
  kept_traces_.clear();
  kept_order_.clear();
  tail_sampled_ = 0;
  tail_dropped_ = 0;
}

void TraceBuffer::ResetWithCapacity(size_t capacity) {
  Reset();
  common::MutexLock lock(&mu_);
  ring_.Reset(capacity);
}

// ---------------------------------------------------------------------------
// TraceSpan
// ---------------------------------------------------------------------------

void TraceSpan::Open(const char* name, uint64_t parent, uint64_t trace) {
  name_ = name;
  TraceBuffer& buffer = TraceBuffer::Global();
  id_ = buffer.NextId();
  parent_id_ = parent;
  // A span opening with no surrounding trace starts one: the trace id IS
  // the root span's id, so links to a trace resolve to a concrete span.
  trace_id_ = trace == 0 ? id_ : trace;
  prev_span_ = tls_current_span;
  prev_trace_ = tls_current_trace;
  tls_current_span = id_;
  tls_current_trace = trace_id_;
  owner_thread_ = CurrentThreadIndex();
  start_ = Now();
  active_ = true;
}

TraceSpan::TraceSpan(const char* name) : name_(name) {
  if (!TraceEnabled()) return;
  Open(name, tls_current_span, tls_current_trace);
}

TraceSpan::TraceSpan(const char* name, const TraceContext& ctx) : name_(name) {
  if (!TraceEnabled()) return;
  if (ctx.valid()) {
    Open(name, ctx.parent_span_id, ctx.trace_id);
  } else {
    Open(name, tls_current_span, tls_current_trace);
  }
}

TraceSpan::~TraceSpan() { End(); }

void TraceSpan::AddLink(uint64_t trace_id) {
  if (!active_ || trace_id == 0 || trace_id == trace_id_) return;
  links_.push_back(trace_id);
}

void TraceSpan::MarkError() {
  if (active_) error_ = true;
}

void TraceSpan::SetRoute(uint64_t route) {
  if (active_) route_ = route;
}

void TraceSpan::End() {
  if (!active_) return;
  active_ = false;
  // Restore the chain only on the thread that opened the span: if the span
  // object migrated (e.g. destroyed by whoever joined a worker), writing the
  // saved values into the destroyer's thread-locals would corrupt ITS chain.
  if (CurrentThreadIndex() == owner_thread_) {
    tls_current_span = prev_span_;
    tls_current_trace = prev_trace_;
  }
  TraceBuffer& buffer = TraceBuffer::Global();
  SpanRecord span;
  span.id = id_;
  span.parent_id = parent_id_;
  span.trace_id = trace_id_;
  span.route = route_;
  span.thread_index = owner_thread_;
  span.error = error_;
  span.name = name_;
  span.duration_s = SecondsBetween(start_, Now());
  span.links = std::move(links_);
  buffer.Record(std::move(span), start_);
}

uint64_t RecordSpan(const char* name, const TraceContext& ctx,
                    Clock::time_point start, Clock::time_point end,
                    uint64_t route) {
  if (!TraceEnabled()) return 0;
  TraceBuffer& buffer = TraceBuffer::Global();
  SpanRecord span;
  const uint64_t id = buffer.NextId();
  span.id = id;
  span.parent_id = ctx.parent_span_id;
  span.trace_id = ctx.trace_id;
  span.route = route;
  span.thread_index = CurrentThreadIndex();
  span.name = name;
  span.duration_s = SecondsBetween(start, end);
  buffer.Record(std::move(span), start);
  return id;
}

void RecordTraceRoot(const char* name, uint64_t trace_id,
                     Clock::time_point start, Clock::time_point end,
                     uint64_t route, bool error) {
  if (!TraceEnabled() || trace_id == 0) return;
  TraceBuffer& buffer = TraceBuffer::Global();
  SpanRecord span;
  span.id = trace_id;
  span.parent_id = 0;
  span.trace_id = trace_id;
  span.route = route;
  span.thread_index = CurrentThreadIndex();
  span.error = error;
  span.name = name;
  span.duration_s = SecondsBetween(start, end);
  buffer.Record(std::move(span), start);
}

uint64_t MintTraceId() {
  if (!TraceEnabled()) return 0;
  return TraceBuffer::Global().NextId();
}

// ---------------------------------------------------------------------------
// StageCapture
// ---------------------------------------------------------------------------

namespace {
thread_local StageCapture* tls_stage_capture = nullptr;
}  // namespace

StageCapture::StageCapture() : prev_(tls_stage_capture) {
  tls_stage_capture = this;
}

StageCapture::~StageCapture() { tls_stage_capture = prev_; }

void StageCapture::Report(Stage stage, double seconds) {
  StageCapture* capture = tls_stage_capture;
  if (capture == nullptr) return;
  capture->seconds_[static_cast<int>(stage)] += seconds;
}

// ---------------------------------------------------------------------------
// Exports
// ---------------------------------------------------------------------------

namespace {

// Dense pid lane per serving route: Perfetto groups tracks by process, so
// each route renders as its own swim-lane group. Route 0 (spans recorded
// outside any serving route) gets pid 1.
std::map<uint64_t, int> RoutePids(const std::vector<SpanRecord>& spans) {
  std::map<uint64_t, int> pids;
  pids[0] = 1;
  for (const SpanRecord& s : spans) pids.emplace(s.route, 0);
  int next = 1;
  for (auto& entry : pids) entry.second = next++;
  return pids;
}

}  // namespace

bool WriteTraceEventJson(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<SpanRecord> spans = TraceBuffer::Global().Snapshot();
  const std::map<uint64_t, int> pids = RoutePids(spans);
  // Root spans by trace id, for drawing follow-from flow arrows.
  std::map<uint64_t, const SpanRecord*> roots;
  for (const SpanRecord& s : spans) {
    if (s.trace_id != 0 && s.id == s.trace_id) roots[s.id] = &s;
  }
  std::ostringstream events;
  bool first = true;
  auto comma = [&events, &first]() {
    if (!first) events << ",\n";
    first = false;
  };
  // Process metadata: name each route lane.
  for (const auto& [route, pid] : pids) {
    comma();
    const std::string label =
        route == 0 ? std::string("qfcard (unrouted)")
                   : "route 0x" + common::StrFormat(
                         "%016llx", static_cast<unsigned long long>(route));
    events << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
           << ",\"tid\":0,\"args\":{\"name\":\""
           << internal::JsonEscape(label) << "\"}}";
  }
  // Thread metadata: one per (route lane, thread) pair that recorded spans.
  std::set<std::pair<int, uint32_t>> named_threads;
  for (const SpanRecord& s : spans) {
    const int pid = pids.at(s.route);
    if (!named_threads.insert({pid, s.thread_index}).second) continue;
    comma();
    events << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
           << ",\"tid\":" << s.thread_index << ",\"args\":{\"name\":\"thread "
           << s.thread_index << "\"}}";
  }
  for (const SpanRecord& s : spans) {
    const int pid = pids.at(s.route);
    comma();
    events << "{\"name\":\"" << internal::JsonEscape(s.name)
           << "\",\"cat\":\"qfcard\",\"ph\":\"X\",\"ts\":"
           << common::StrFormat("%.3f", s.start_s * 1e6)
           << ",\"dur\":" << common::StrFormat("%.3f", s.duration_s * 1e6)
           << ",\"pid\":" << pid << ",\"tid\":" << s.thread_index
           << ",\"args\":{\"span\":" << s.id << ",\"parent\":" << s.parent_id
           << ",\"trace\":" << s.trace_id
           << ",\"error\":" << (s.error ? "true" : "false");
    if (!s.links.empty()) {
      events << ",\"links\":[";
      for (size_t i = 0; i < s.links.size(); ++i) {
        if (i > 0) events << ",";
        events << s.links[i];
      }
      events << "]";
    }
    events << "}}";
    // Follow-from links render as flow arrows: linked trace root -> here.
    for (const uint64_t link : s.links) {
      const auto root_it = roots.find(link);
      if (root_it == roots.end()) continue;
      const SpanRecord& r = *root_it->second;
      comma();
      events << "{\"name\":\"request\",\"cat\":\"qfcard.flow\",\"ph\":\"s\","
             << "\"id\":" << link << ",\"pid\":" << pids.at(r.route)
             << ",\"tid\":" << r.thread_index
             << ",\"ts\":" << common::StrFormat("%.3f", r.start_s * 1e6)
             << "}";
      comma();
      events << "{\"name\":\"request\",\"cat\":\"qfcard.flow\",\"ph\":\"f\","
             << "\"bp\":\"e\",\"id\":" << link << ",\"pid\":" << pid
             << ",\"tid\":" << s.thread_index
             << ",\"ts\":" << common::StrFormat("%.3f", s.start_s * 1e6)
             << "}";
    }
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      << events.str() << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace qfcard::obs
