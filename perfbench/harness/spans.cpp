#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>

namespace perfbench {
namespace {

std::atomic<SpanStore*> g_active{nullptr};
thread_local uint64_t t_open_span = 0;  // innermost ScopedSpan on this thread

bool Is(const SpanRec& s, const char* name) {
  return std::strcmp(s.name, name) == 0;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanStore::SpanStore(size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity);
}

uint64_t SpanStore::NextId() {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

void SpanStore::Add(const SpanRec& rec) {
  std::lock_guard lock(mutex_);
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back(rec);
}

std::vector<SpanRec> SpanStore::Take() {
  std::lock_guard lock(mutex_);
  return std::move(spans_);
}

uint64_t SpanStore::Dropped() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

SpanStore* ActiveSpans() { return g_active.load(std::memory_order_acquire); }
void SetActiveSpans(SpanStore* store) {
  g_active.store(store, std::memory_order_release);
}

ScopedSpan::ScopedSpan(const char* name, Op op, uint32_t tag)
    : store_(ActiveSpans()) {
  if (store_ == nullptr) return;
  rec_.name = name;
  rec_.id = store_->NextId();
  rec_.parent = t_open_span;
  rec_.op = op;
  rec_.tag = tag;
  outer_ = t_open_span;
  t_open_span = rec_.id;
  rec_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (store_ == nullptr) return;
  rec_.end_ns = NowNs();
  t_open_span = outer_;
  store_->Add(rec_);
}

SpanAnalysis AnalyzeSpans(std::vector<SpanRec>& spans,
                          std::vector<int64_t>& self_ns) {
  SpanAnalysis out;
  uint64_t max_id = 0;
  for (const SpanRec& s : spans) max_id = std::max(max_id, s.id);
  std::vector<int64_t> index_of(max_id + 1, -1);
  for (size_t i = 0; i < spans.size(); ++i) {
    index_of[spans[i].id] = static_cast<int64_t>(i);
  }

  // Join each servant exec span to the invoke span that caused it: same
  // operation, same tag when the arguments carried one, started no later
  // than the exec span, and (twoway) still open when it ended. The latest
  // such invoke wins; callers are few, so a short backward scan suffices.
  std::vector<size_t> invokes;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (Is(spans[i], "invoke")) invokes.push_back(i);
  }
  std::sort(invokes.begin(), invokes.end(), [&](size_t x, size_t y) {
    return spans[x].start_ns < spans[y].start_ns;
  });
  constexpr size_t kScan = 256;
  for (SpanRec& exec : spans) {
    if (!Is(exec, "exec")) continue;
    auto upper = std::upper_bound(
        invokes.begin(), invokes.end(), exec.start_ns,
        [&](int64_t t, size_t i) { return t < spans[i].start_ns; });
    const SpanRec* owner = nullptr;
    for (size_t scanned = 0; upper != invokes.begin() && scanned < kScan;
         ++scanned) {
      const SpanRec& inv = spans[*--upper];
      if (inv.op != exec.op) continue;
      if (exec.tag != 0 && exec.tag != inv.tag) continue;
      if (!IsOneway(inv.op) && exec.end_ns > inv.end_ns) continue;
      owner = &inv;
      break;
    }
    if (owner == nullptr) {
      ++out.unjoined_exec;
      continue;
    }
    exec.parent = owner->id;
    exec.call = owner->call;
  }
  // Callback spans inherit their call from the exec span they nest in.
  for (SpanRec& s : spans) {
    if (Is(s, "callback") && s.parent != 0 && s.parent <= max_id &&
        index_of[s.parent] >= 0) {
      s.call = spans[index_of[s.parent]].call;
    }
  }

  // Self time: duration minus the union of the children's intervals,
  // clipped to the parent (a oneway's exec may outlive its invoke).
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    uint64_t p = spans[i].parent;
    if (p != 0 && p <= max_id && index_of[p] >= 0) {
      children[index_of[p]].push_back(i);
    }
  }
  self_ns.assign(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    std::vector<std::pair<int64_t, int64_t>> iv;
    int64_t child_sum = 0;
    for (size_t c : children[i]) {
      int64_t lo = std::max(s.start_ns, spans[c].start_ns);
      int64_t hi = std::min(s.end_ns, spans[c].end_ns);
      if (hi > lo) iv.emplace_back(lo, hi);
      child_sum += spans[c].end_ns - spans[c].start_ns;
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t reach = s.start_ns;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, reach);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    int64_t duration = s.end_ns - s.start_ns;
    self_ns[i] = duration - covered;
    if (Is(s, "call")) {
      ++out.calls;
      out.residual_ns.push_back(static_cast<double>(self_ns[i]));
      if (child_sum + self_ns[i] != duration) ++out.nesting_errors;
    }
  }

  for (const SpanRec& s : spans) {
    double d = static_cast<double>(s.end_ns - s.start_ns);
    if (Is(s, "marshal")) out.marshal_ns.push_back(d);
    if (Is(s, "invoke")) out.invoke_ns.push_back(d);
    if (Is(s, "unmarshal")) out.unmarshal_ns.push_back(d);
    if (Is(s, "callback")) out.callback_ns.push_back(d);
    if (Is(s, "exec")) {
      out.exec_ns.push_back(d);
      if (s.parent != 0 && !IsOneway(s.op)) {
        const SpanRec& inv = spans[index_of[s.parent]];
        out.invoke_minus_exec_ns.emplace_back(
            inv.tag, static_cast<double>(inv.end_ns - inv.start_ns) - d);
      }
    }
  }
  return out;
}

bool WriteSpansJsonl(const std::string& path, const std::vector<SpanRec>& spans,
                     const std::vector<int64_t>& self_ns) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"call\":%llu,"
                 "\"op\":\"%s\",\"tag\":%u,\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"self_ns\":%lld}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.call), OpName(s.op), s.tag,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self_ns[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
