// In-memory spans for the traced run. The harness records them around
// its own calls into the ORB's public functions (client side) and inside
// the benchmark's servants (server side); nothing inside the ORB is
// instrumented. Spans are kept in memory and written out when the run
// ends; self times are computed from them afterwards.
//
// Span tree of one logical call:
//   call ─┬─ marshal     Orb::NewRequest + Call::Put* / Orb::PutObject
//         ├─ invoke ──── exec ──── callback   (servant side, joined later)
//         └─ unmarshal   Call::Get* on the reply
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "calls.h"

namespace perfbench {

int64_t NowNs();

struct SpanRec {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: root (or not yet joined, for exec spans)
  uint64_t call = 0;    // id of the root `call` span
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  Op op = Op::kP;
  uint32_t tag = 0;  // client spans: the Spec tag; servant: from arguments
};

class SpanStore {
 public:
  explicit SpanStore(size_t capacity);

  uint64_t NextId();
  void Add(const SpanRec& rec);  // dropped (and counted) once full
  std::vector<SpanRec> Take();
  uint64_t Dropped() const;

 private:
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRec> spans_;
  size_t capacity_;
  uint64_t dropped_ = 0;
};

// The store servants record into; null outside the traced phase.
SpanStore* ActiveSpans();
void SetActiveSpans(SpanStore* store);

// Servant-side span: records [construction, destruction) into the active
// store, if any. Spans nest per thread: a span opened inside another one
// on the same thread becomes its child (callback inside exec).
class ScopedSpan {
 public:
  ScopedSpan(const char* name, Op op, uint32_t tag);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // For arguments that reveal the call's tag only once dereferenced.
  void SetTag(uint32_t tag) { rec_.tag = tag; }

 private:
  SpanStore* store_;
  SpanRec rec_;
  uint64_t outer_ = 0;
};

// What the traced run derives from its spans.
struct SpanAnalysis {
  std::vector<double> marshal_ns, invoke_ns, unmarshal_ns;
  std::vector<double> exec_ns, callback_ns, residual_ns;
  // invoke − exec of twoway calls whose exec span was joined, keyed by
  // the call's Spec tag (for subtracting the network floor per frame).
  std::vector<std::pair<uint32_t, double>> invoke_minus_exec_ns;
  uint64_t calls = 0;
  uint64_t unjoined_exec = 0;  // servant spans no invoke span could claim
  uint64_t nesting_errors = 0;  // children + self != call duration
};

// Joins servant spans to their invoke spans, computes self times (written
// back into `self_ns`, parallel to `spans`) and collects the per-layer
// durations.
SpanAnalysis AnalyzeSpans(std::vector<SpanRec>& spans,
                          std::vector<int64_t>& self_ns);

// One JSON object per line. Returns false on I/O failure.
bool WriteSpansJsonl(const std::string& path, const std::vector<SpanRec>& spans,
                     const std::vector<int64_t>& self_ns);

}  // namespace perfbench
