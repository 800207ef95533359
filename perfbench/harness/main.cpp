// perfbench — the repository's end-to-end benchmark.
//
// Runs one closed-loop workload against a real client Orb and server Orb
// in this process, talking over TCP loopback, and prints one JSON line:
// the end-to-end metrics of an untraced run, or (--trace 1) the
// per-layer metrics of a traced run. Every call goes through the
// generated stubs (the traced run mirrors their bodies by hand so it can
// put spans around each step) and every reply is checked.
//
//   perfbench --workload control|bulk|fanin --seed N --seconds S
//             [--trace 0|1] [--spans-out FILE] [--corrupt-every N]
//             [--dump-calls]
//
// perfbench/run.py builds this binary and turns its line into the
// benchmark's result; see perfbench/README.md for the metrics.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "calls.h"
#include "demo/demo.h"
#include "heap_count.h"
#include "host.h"
#include "latency.h"
#include "obs/tracer.h"
#include "orb/orb.h"
#include "probes.h"
#include "servants.h"
#include "spans.h"

namespace perfbench {
namespace {

namespace bytes = heidi::bytes;
namespace obs = heidi::obs;
namespace wire = heidi::wire;
using heidi::orb::HdStub;
using heidi::orb::ObjectRef;
using heidi::orb::Orb;
using heidi::orb::OrbOptions;
using heidi::orb::OrbStats;

constexpr size_t kPayloadBytes = 2u << 20;  // shared bulk payload buffer
constexpr double kMinBlob = 4096, kMaxBlob = 1 << 20;
constexpr int kSetupRepeats = 21;
constexpr int kWindows = 10;  // end-to-end figures are medians over windows
constexpr int64_t kTracedCallBudget = 20000;
constexpr size_t kSpanCapacity = 200000;

// --- options -----------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int corrupt_every = 0;  // self-test: corrupt every Nth checked reply
  bool dump_calls = false;
  std::string spans_out;
};

enum class Kind { kControl, kBulk, kFanin };

struct Workload {
  Kind kind;
  const char* name;
  const char* protocol;
  int callers;
  size_t sequence;  // generated calls per caller, replayed cyclically
};

bool ParseWorkload(const std::string& name, Workload* out) {
  // At most nproc - 1 caller threads, so the orbs keep a core.
  int fanin_callers = std::clamp(Nproc() - 1, 1, 3);
  if (name == "control") *out = {Kind::kControl, "control", "text", 1, 8192};
  else if (name == "bulk") *out = {Kind::kBulk, "bulk", "hiop", 1, 4096};
  else if (name == "fanin")
    *out = {Kind::kFanin, "fanin", "hiop", fanin_callers, 8192};
  else return false;
  return true;
}

// --- generated inputs ----------------------------------------------------------

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {  // SplitMix64: portable and fully determined by seed
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t n) { return Next() % n; }
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[Below(i)]);
  }

 private:
  uint64_t state_;
};

// Exactly `pct` percent of `n` calls per operation, in seeded order, so
// every seed runs the same mix.
std::vector<Op> ExactMix(std::initializer_list<std::pair<Op, int>> mix,
                         size_t n, Rng& rng) {
  std::vector<Op> ops;
  for (auto [op, pct] : mix) ops.insert(ops.end(), n * pct / 100, op);
  ops.resize(n, mix.begin()->first);
  rng.Shuffle(ops);
  return ops;
}

struct Inputs {
  std::vector<std::vector<Spec>> per_caller;
  std::string payload;  // bulk: the windows echo/blob send
};

Inputs Generate(const Workload& w, uint64_t seed) {
  Inputs in;
  const uint64_t base = seed * 0x9E3779B97F4A7C15ull ^
                        Fnv1a(w.name, std::strlen(w.name));
  if (w.kind == Kind::kBulk) {
    Rng rng(base ^ 0xB10B);
    in.payload.resize(kPayloadBytes);
    for (size_t i = 0; i < kPayloadBytes; i += 8) {
      uint64_t v = rng.Next();
      std::memcpy(in.payload.data() + i, &v, 8);
    }
  }
  for (int c = 0; c < w.callers; ++c) {
    Rng rng(base + static_cast<uint64_t>(c) * 0x632BE59BD9B4E019ull);
    std::vector<Op> ops;
    switch (w.kind) {
      case Kind::kControl:
        ops = ExactMix({{Op::kP, 30}, {Op::kQ, 15}, {Op::kS, 10},
                        {Op::kButton, 20}, {Op::kPing, 10}, {Op::kG, 8},
                        {Op::kT, 4}, {Op::kF, 3}},
                       w.sequence, rng);
        break;
      case Kind::kBulk:
        ops = ExactMix({{Op::kEcho, 50}, {Op::kBlob, 50}}, w.sequence, rng);
        break;
      case Kind::kFanin:
        ops = ExactMix({{Op::kAdd, 80}, {Op::kFlip, 10}, {Op::kPost, 10}},
                       w.sequence, rng);
        break;
    }
    // Bulk sizes: log-uniform over [4 KiB, 1 MiB), stratified so that
    // every seed sends the same size distribution in a different order.
    std::vector<uint32_t> sizes;
    if (w.kind == Kind::kBulk) {
      for (size_t i = 0; i < w.sequence; ++i) {
        double u = (static_cast<double>(i) + rng.Uniform()) /
                   static_cast<double>(w.sequence);
        sizes.push_back(static_cast<uint32_t>(
            kMinBlob * std::pow(kMaxBlob / kMinBlob, u)));
      }
      rng.Shuffle(sizes);
    }
    std::vector<Spec>& specs = in.per_caller.emplace_back();
    for (size_t i = 0; i < w.sequence; ++i) {
      Spec s;
      s.op = ops[i];
      s.tag = MakeTag(c, static_cast<uint32_t>(i));
      switch (s.op) {
        case Op::kQ:
        case Op::kS:
        case Op::kFlip: s.a = static_cast<int32_t>(rng.Below(2)); break;
        case Op::kAdd:
          s.a = static_cast<int32_t>(s.tag);
          s.b = static_cast<int32_t>(rng.Below(1u << 21)) - (1 << 20);
          break;
        case Op::kEcho:
        case Op::kBlob:
          s.length = sizes[i];
          s.offset = static_cast<uint32_t>(
              rng.Below(kPayloadBytes - s.length + 1));
          if (s.op == Op::kBlob) {
            s.checksum = Fnv1a(in.payload.data() + s.offset, s.length);
          }
          break;
        default: break;
      }
      specs.push_back(s);
    }
  }
  return in;
}

uint64_t Digest(const Inputs& in) {
  uint64_t h = Fnv1a(in.payload.data(), in.payload.size());
  for (const auto& specs : in.per_caller) {
    for (const Spec& s : specs) {
      uint64_t fields[] = {static_cast<uint64_t>(s.op),
                           static_cast<uint32_t>(s.a),
                           static_cast<uint32_t>(s.b),
                           s.offset,
                           s.length,
                           s.checksum,
                           s.tag};
      h ^= Fnv1a(reinterpret_cast<const char*>(fields), sizeof(fields));
      h *= 1099511628211ull;
    }
  }
  return h;
}

// Useful payload bytes of a call, both directions, without framing or
// object references: argument and result values, and callback results.
uint64_t PayloadBytes(const Spec& s) {
  switch (s.op) {
    case Op::kP:
    case Op::kQ:
    case Op::kButton:
    case Op::kG:
    case Op::kF: return 4;
    case Op::kS: return 1;
    case Op::kT: return 12;
    case Op::kEcho: return 2ull * s.length;
    case Op::kBlob: return s.length + 16ull;
    case Op::kAdd: return 12;
    case Op::kFlip: return 2;
    case Op::kPost: return 8;
    default: return 0;
  }
}

// Which calls the latency metrics cover: every twoway, except in fanin,
// where only `add` counts, so head-of-line blocking behind slow calls
// shows in its tail.
bool TimesLatency(const Workload& w, Op op) {
  return w.kind == Kind::kFanin ? op == Op::kAdd : !IsOneway(op);
}

// --- the orbs ----------------------------------------------------------------

// One client orb and one server orb with the workload's servant exported
// and resolved. Declaration order is teardown order in reverse: stubs,
// then the orbs (client first), then the objects they served.
struct Rig {
  ControlServant control;
  EchoServant echo;
  std::atomic<long> callback_tag{0};
  Monitor monitor{&callback_tag};
  Element elements[3]{{&callback_tag, 0}, {&callback_tag, 1},
                      {&callback_tag, 2}};
  heidi::demo::SerializableS value_obj;
  HdSSequence sequence;
  std::unique_ptr<Orb> server;
  std::unique_ptr<Orb> client;
  std::shared_ptr<HdA> a;
  std::shared_ptr<HdEcho> e;
  ObjectRef target;
};

std::unique_ptr<Rig> MakeRig(const Workload& w,
                             std::shared_ptr<obs::Tracer> tracer) {
  auto rig = std::make_unique<Rig>();
  OrbOptions options;
  options.protocol = w.protocol;
  options.tracer = std::move(tracer);
  options.call_timeout_ms = 30000;  // a hang fails the call, not the run
  rig->server = std::make_unique<Orb>(options);
  rig->server->ListenTcp();
  rig->client = std::make_unique<Orb>(options);
  if (w.kind == Kind::kControl) {
    ObjectRef ref = rig->server->ExportObject(&rig->control, "IDL:Heidi/A:1.0");
    rig->client->ListenTcp();  // the controller is called back by f and t
    rig->a = rig->client->ResolveAs<HdA>(ref.ToString());
    rig->target = std::dynamic_pointer_cast<HdStub>(rig->a)->Ref();
    for (Element& el : rig->elements) rig->sequence.Append(&el);
  } else {
    ObjectRef ref = rig->server->ExportObject(&rig->echo, "IDL:Heidi/Echo:1.0");
    rig->e = rig->client->ResolveAs<HdEcho>(ref.ToString());
    rig->target = std::dynamic_pointer_cast<HdStub>(rig->e)->Ref();
  }
  return rig;
}

// --- callers -----------------------------------------------------------------

struct Caller {
  const std::vector<Spec>* specs = nullptr;
  size_t next = 0;
  // What the servants must have counted, accumulated as calls are issued.
  ControlServant::Totals want_control;
  EchoServant::Totals want_echo;
  HdStatus button = Start;  // GetButton must answer the last q sent
  uint64_t attempted = 0, failed = 0, checked = 0, corrupted = 0;
  // Per measurement window: wall time of the timed calls.
  std::vector<LatencyHist> latency;
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> payload_bytes{0};
};

using Callers = std::deque<Caller>;

struct Result {
  int64_t num = 0;
  std::string text;
};

// Publishes what the servant will read back through callbacks and
// by-value copies, and records what it must have seen.
void Prepare(Rig& rig, Caller& c, const Spec& s) {
  ControlServant::Totals& a = c.want_control;
  EchoServant::Totals& e = c.want_echo;
  switch (s.op) {
    case Op::kP:
      ++a.p_calls;
      a.p_sum += s.tag;
      break;
    case Op::kQ:
      ++a.q_calls;
      a.q_stops += s.a != 0;
      c.button = s.a != 0 ? Stop : Start;
      break;
    case Op::kS:
      ++a.s_calls;
      a.s_trues += s.a != 0;
      break;
    case Op::kPing: ++a.pings; break;
    case Op::kG:
      ++a.g_calls;
      a.g_sum += s.tag;
      rig.value_obj.SetValue(s.tag);
      break;
    case Op::kT:
      ++a.t_calls;
      a.callbacks += 3;
      rig.callback_tag.store(s.tag);
      break;
    case Op::kF:
      ++a.f_calls;
      ++a.callbacks;
      rig.callback_tag.store(s.tag);
      break;
    case Op::kEcho: ++e.echo_calls; break;
    case Op::kBlob: ++e.blob_calls; break;
    case Op::kAdd: ++e.add_calls; break;
    case Op::kFlip: ++e.flip_calls; break;
    case Op::kPost:
      ++e.posts;
      e.post_tag_sum += s.tag;
      break;
    default: break;
  }
}

bool CheckResult(const Caller& c, const Spec& s, const std::string& payload,
                 const Result& r) {
  switch (s.op) {
    case Op::kButton: return r.num == c.button;
    case Op::kEcho: return r.text == PayloadWindow(payload, s);
    case Op::kBlob: return r.text == ChecksumText(s.checksum);
    case Op::kAdd: return r.num == static_cast<int64_t>(s.a) + s.b;
    case Op::kFlip: return r.num == (s.a == 0 ? 1 : 0);
    default: return true;
  }
}

// Checks a reply, first spoiling every Nth one when the self-test asks
// for it (the harness must then count that call as failed).
bool Check(Caller& c, const Spec& s, const std::string& payload, Result& r,
           int corrupt_every) {
  if (!HasResult(s.op)) return true;
  if (corrupt_every > 0 && ++c.checked % corrupt_every == 0) {
    ++c.corrupted;
    r.num ^= 1;
    if (r.text.empty()) r.text = "x";
    r.text[0] ^= 1;
  }
  return CheckResult(c, s, payload, r);
}

// One call through the generated stubs, the way an application calls.
bool CallViaStub(Rig& rig, Caller& c, const Spec& s, const std::string& payload,
                 int corrupt_every) {
  Prepare(rig, c, s);
  Result r;
  char tag_buf[16];
  try {
    switch (s.op) {
      case Op::kP: rig.a->p(s.tag); break;
      case Op::kQ: rig.a->q(s.a != 0 ? Stop : Start); break;
      case Op::kS: rig.a->s(XBool(s.a != 0)); break;
      case Op::kButton: r.num = rig.a->GetButton(); break;
      case Op::kPing: rig.a->ping(); break;
      case Op::kG: rig.a->g(&rig.value_obj); break;
      case Op::kT: rig.a->t(&rig.sequence); break;
      case Op::kF: rig.a->f(&rig.monitor); break;
      case Op::kEcho: r.text = rig.e->echo(PayloadWindow(payload, s)); break;
      case Op::kBlob: r.text = rig.e->blob(PayloadWindow(payload, s)); break;
      case Op::kAdd: r.num = rig.e->add(s.a, s.b); break;
      case Op::kFlip: r.num = static_cast<bool>(rig.e->flip(XBool(s.a != 0))); break;
      case Op::kPost: rig.e->post(TagText(s.tag, tag_buf)); break;
      default: break;
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", OpName(s.op), ex.what());
    return false;
  }
  return Check(c, s, payload, r, corrupt_every);
}

// The same call with the stub's body spelled out, so each step gets a
// span: marshal (NewRequest + Put*/PutObject), invoke, unmarshal (Get*).
bool CallTraced(Rig& rig, Caller& c, const Spec& s, const std::string& payload,
                int corrupt_every, SpanStore& store) {
  Orb& orb = *rig.client;
  SpanRec call{"call", store.NextId(), 0, 0, NowNs(), 0, s.op, s.tag};
  call.call = call.id;
  auto child = [&](const char* name, int64_t start, int64_t end) {
    store.Add({name, store.NextId(), call.id, call.id, start, end, s.op, s.tag});
  };
  Prepare(rig, c, s);
  Result r;
  bool ok = true;
  char tag_buf[16];
  try {
    int64_t m0 = NowNs();
    auto request = orb.NewRequest(rig.target, OpName(s.op), IsOneway(s.op));
    wire::Call& q = *request;
    switch (s.op) {
      case Op::kP: q.PutLong(static_cast<int32_t>(s.tag)); break;
      case Op::kQ: q.PutEnum(s.a != 0 ? Stop : Start); break;
      case Op::kS:
      case Op::kFlip: q.PutBoolean(s.a != 0); break;
      case Op::kG:
        orb.PutObject(q, &rig.value_obj, "IDL:Heidi/S:1.0", /*incopy=*/true);
        break;
      case Op::kT:
        q.Begin("seq");
        q.PutLength(3);
        for (Element& el : rig.elements) {
          orb.PutObject(q, &el, "IDL:Heidi/S:1.0");
        }
        q.End();
        break;
      case Op::kF: orb.PutObject(q, &rig.monitor, "IDL:Heidi/A:1.0"); break;
      case Op::kEcho: q.PutString(PayloadWindow(payload, s)); break;
      case Op::kBlob: q.PutBytes(PayloadWindow(payload, s)); break;
      case Op::kAdd:
        q.PutLong(s.a);
        q.PutLong(s.b);
        break;
      case Op::kPost: q.PutString(TagText(s.tag, tag_buf)); break;
      default: break;
    }
    int64_t m1 = NowNs();
    child("marshal", m0, m1);
    std::unique_ptr<wire::Call> reply;
    int64_t i0 = NowNs();
    if (IsOneway(s.op)) {
      orb.InvokeOneway(rig.target, q);
    } else {
      reply = orb.Invoke(rig.target, q);
    }
    int64_t i1 = NowNs();
    child("invoke", i0, i1);
    if (HasResult(s.op)) {
      int64_t u0 = NowNs();
      switch (s.op) {
        case Op::kButton: r.num = reply->GetEnum(); break;
        case Op::kEcho: r.text = reply->GetString(); break;
        case Op::kBlob: r.text = reply->GetBytes(); break;
        case Op::kAdd: r.num = reply->GetLong(); break;
        case Op::kFlip: r.num = reply->GetBoolean(); break;
        default: break;
      }
      child("unmarshal", u0, NowNs());
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", OpName(s.op), ex.what());
    ok = false;
  }
  ok = ok && Check(c, s, payload, r, corrupt_every);
  call.end_ns = NowNs();
  store.Add(call);
  return ok;
}

// --- measurement -------------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t k = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  k = std::clamp<size_t>(k, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Host CPU stolen by other guests above this share marks a window as
// disturbed by a neighbour; quiet windows stay under ~2% on the machine
// the benchmark was sized on, neighbour bursts read 8-11%.
constexpr double kNoisyStealPct = 4.0;
constexpr int kQuietWaitSlices = 30;

struct Window {
  double calls_per_s = 0, cpu_us_per_call = 0, heap_per_call = 0,
         payload_mbps = 0, p50_us = 0, p99_us = 0;
  double steal_pct = 0;
  bool has_calls = false;
};

struct Phase {
  std::vector<Window> windows;
  LatencyHist latency;  // every timed call of the phase
  uint64_t calls = 0;
  Usage usage;  // deltas over the phase
  HostCpu host;
  bytes::IoBufPool::Stats pool_before, pool_after;
  uint64_t pool_bytes_peak = 0;
  int threads_peak = 0;
};

struct Traced {
  SpanStore* store = nullptr;
  std::atomic<int64_t>* budget = nullptr;  // calls left
};

// Runs the callers for `seconds`, split into `windows` equal windows, and
// samples the process between them. With `traced`, callers take the
// hand-marshalled path and stop early once the call budget is spent.
Phase Measure(Rig& rig, Callers& callers, const Workload& w,
              const Inputs& in, const Options& opt, double seconds,
              int windows, Traced traced = {}) {
  Phase ph;
  for (Caller& c : callers) c.latency.assign(windows, {});
  const int64_t window_ns = static_cast<int64_t>(seconds * 1e9 / windows);
  std::atomic<bool> stop{false};
  std::atomic<int> running{static_cast<int>(callers.size())};

  auto snapshot = [&] {
    struct Snap {
      int64_t t;
      uint64_t calls, payload, heap;
      Usage usage;
      HostCpu host;
    } s{NowNs(), 0, 0, HeapAllocs(), ReadUsage(), ReadHostCpu()};
    for (const Caller& c : callers) {
      s.calls += c.completed.load(std::memory_order_relaxed);
      s.payload += c.payload_bytes.load(std::memory_order_relaxed);
    }
    return s;
  };
  auto sample = [&] {
    ph.threads_peak = std::max(ph.threads_peak, ThreadCount());
    ph.pool_bytes_peak =
        std::max(ph.pool_bytes_peak,
                 bytes::IoBufPool::Global().GetStats().outstanding_bytes);
  };

  ph.pool_before = bytes::IoBufPool::Global().GetStats();
  ph.windows.resize(windows);
  auto first = snapshot();
  const int64_t t0 = first.t;
  std::vector<std::thread> threads;
  for (size_t i = 0; i < callers.size(); ++i) {
    threads.emplace_back([&, i] {
      Caller& c = callers[i];
      const std::vector<Spec>& specs = *c.specs;
      while (!stop.load(std::memory_order_relaxed)) {
        if (traced.budget != nullptr &&
            traced.budget->fetch_sub(1, std::memory_order_relaxed) <= 0) {
          break;
        }
        const Spec& s = specs[c.next++ % specs.size()];
        int64_t start = NowNs();
        bool ok = traced.store != nullptr
                      ? CallTraced(rig, c, s, in.payload, opt.corrupt_every,
                                   *traced.store)
                      : CallViaStub(rig, c, s, in.payload, opt.corrupt_every);
        int64_t end = NowNs();
        ++c.attempted;
        if (!ok) ++c.failed;
        if (TimesLatency(w, s.op)) {
          int win = static_cast<int>(std::min<int64_t>(
              (end - t0) / window_ns, windows - 1));
          c.latency[win].Record(static_cast<uint64_t>(end - start));
        }
        c.payload_bytes.fetch_add(PayloadBytes(s), std::memory_order_relaxed);
        c.completed.fetch_add(1, std::memory_order_relaxed);
      }
      running.fetch_sub(1);
    });
  }

  auto prev = first;
  for (int win = 1; win <= windows; ++win) {
    const int64_t boundary = t0 + win * window_ns;
    while (NowNs() < boundary && running.load() > 0) {
      int64_t left = boundary - NowNs();
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::clamp<int64_t>(left, 0, 5000000)));
      sample();
    }
    auto now = snapshot();
    Window& wf = ph.windows[win - 1];
    double secs = static_cast<double>(now.t - prev.t) / 1e9;
    double calls = static_cast<double>(now.calls - prev.calls);
    if (calls > 0 && secs > 0) {
      wf.has_calls = true;
      wf.calls_per_s = calls / secs;
      wf.cpu_us_per_call = (now.usage.cpu_s - prev.usage.cpu_s) * 1e6 / calls;
      wf.heap_per_call = static_cast<double>(now.heap - prev.heap) / calls;
      wf.payload_mbps =
          static_cast<double>(now.payload - prev.payload) / secs / 1e6;
    }
    uint64_t ticks = now.host.total - prev.host.total;
    wf.steal_pct = ticks == 0 ? 0
                              : 100.0 *
                                    static_cast<double>(now.host.steal -
                                                        prev.host.steal) /
                                    static_cast<double>(ticks);
    prev = now;
    if (running.load() == 0) break;
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  // Latency per window, read only now that no caller is recording.
  for (int win = 0; win < windows; ++win) {
    LatencyHist merged;
    for (const Caller& c : callers) merged.Merge(c.latency[win]);
    ph.windows[win].p50_us = merged.Quantile(0.50) / 1e3;
    ph.windows[win].p99_us = merged.Quantile(0.99) / 1e3;
    ph.latency.Merge(merged);
  }
  sample();
  auto last = snapshot();
  ph.calls = last.calls - first.calls;
  ph.usage.cpu_s = last.usage.cpu_s - first.usage.cpu_s;
  ph.usage.vol_cs = last.usage.vol_cs - first.usage.vol_cs;
  ph.usage.invol_cs = last.usage.invol_cs - first.usage.invol_cs;
  ph.host.total = last.host.total - first.host.total;
  ph.host.steal = last.host.steal - first.host.steal;
  ph.host.iowait = last.host.iowait - first.host.iowait;
  ph.pool_after = bytes::IoBufPool::Global().GetStats();
  return ph;
}

// The windows the end-to-end figures are medians over: those a neighbour
// did not disturb, when they are at least half of the run; otherwise all
// of them, and the host line flags the run as noisy.
std::vector<Window> SteadyWindows(const Phase& ph) {
  std::vector<Window> quiet;
  for (const Window& wf : ph.windows) {
    if (wf.has_calls && wf.steal_pct < kNoisyStealPct) quiet.push_back(wf);
  }
  return 2 * quiet.size() >= ph.windows.size() ? quiet : ph.windows;
}

double MedianOf(const std::vector<Window>& windows, double Window::*field) {
  std::vector<double> v;
  for (const Window& wf : windows) v.push_back(wf.*field);
  return Median(v);
}

// --- checks at the end of a run ----------------------------------------------

struct Verdict {
  uint64_t failed = 0;  // calls the servant-side totals prove wrong
  void Want(const char* what, uint64_t want, uint64_t got) {
    if (want == got) return;
    std::fprintf(stderr, "perfbench: %s: expected %llu, servant saw %llu\n",
                 what, static_cast<unsigned long long>(want),
                 static_cast<unsigned long long>(got));
    failed += want > got ? want - got : got - want;
  }
};

// Field-by-field comparison of what the callers issued against what the
// servant counted; every field not raised by a call (g_by_ref,
// callback_errors) must have stayed 0.
template <typename Totals, size_t N>
void CompareTotals(Verdict& v, const Callers& callers,
                   Totals Caller::*want,
                   const std::pair<const char*, uint64_t Totals::*> (&fields)[N],
                   const Totals& got) {
  for (auto [what, field] : fields) {
    uint64_t sum = 0;
    for (const Caller& c : callers) sum += (c.*want).*field;
    v.Want(what, sum, got.*field);
  }
}

uint64_t VerifyServants(Rig& rig, const Workload& w, const Callers& callers) {
  using C = ControlServant::Totals;
  using E = EchoServant::Totals;
  static constexpr std::pair<const char*, uint64_t C::*> kControl[] = {
      {"ping calls", &C::pings},
      {"p calls", &C::p_calls},
      {"p argument sum", &C::p_sum},
      {"q calls", &C::q_calls},
      {"q Stop arguments", &C::q_stops},
      {"s calls", &C::s_calls},
      {"s true arguments", &C::s_trues},
      {"g calls", &C::g_calls},
      {"g by-value state sum", &C::g_sum},
      {"g arguments passed by reference", &C::g_by_ref},
      {"f calls", &C::f_calls},
      {"t calls", &C::t_calls},
      {"servant callbacks", &C::callbacks},
      {"callbacks with a wrong answer", &C::callback_errors}};
  static constexpr std::pair<const char*, uint64_t E::*> kEcho[] = {
      {"echo calls", &E::echo_calls},
      {"blob calls", &E::blob_calls},
      {"add calls", &E::add_calls},
      {"flip calls", &E::flip_calls},
      {"oneway posts delivered", &E::posts},
      {"post tag sum", &E::post_tag_sum}};
  Verdict v;
  if (w.kind == Kind::kControl) {
    CompareTotals(v, callers, &Caller::want_control, kControl,
                  rig.control.Snapshot());
    const C& want = callers.front().want_control;
    v.Want("monitor callbacks received", want.f_calls,
           rig.monitor.Callbacks());
    for (const Element& el : rig.elements) {
      v.Want("sequence element callbacks received", want.t_calls,
             el.Callbacks());
    }
  } else {
    // Oneway posts may still be queued on the shard loop; wait for them.
    uint64_t posts = 0;
    for (const Caller& c : callers) posts += c.want_echo.posts;
    for (int i = 0; i < 5000 && rig.echo.Snapshot().posts < posts; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    CompareTotals(v, callers, &Caller::want_echo, kEcho, rig.echo.Snapshot());
  }
  return v.failed;
}

// --- output ------------------------------------------------------------------

class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  void Note(const std::string& name, double value) {
    notes_.push_back({name, value, ""});
  }
  void Host(const std::string& name, double value) {
    host_.push_back({name, value, ""});
  }

  void Print(const Options& opt, bool correct, uint64_t attempted,
             uint64_t failed, const std::string& spans_file) const {
    std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
                "\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":{",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\":{\"value\":%.12g,\"unit\":\"%s\"}", i ? "," : "",
                  metrics_[i].name.c_str(), metrics_[i].value,
                  metrics_[i].unit);
    }
    std::printf("},\"notes\":{");
    PrintPlain(notes_);
    std::printf("},\"host\":{");
    PrintPlain(host_);
    std::printf("},\"spans_file\":\"%s\"}\n", spans_file.c_str());
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  static void PrintPlain(const std::vector<Entry>& entries) {
    for (size_t i = 0; i < entries.size(); ++i) {
      std::printf("%s\"%s\":%.12g", i ? "," : "", entries[i].name.c_str(),
                  entries[i].value);
    }
  }
  std::vector<Entry> metrics_, notes_, host_;
};

void ReportHost(Report& rep, const HostCpu& cpu) {
  double total = cpu.total > 0 ? static_cast<double>(cpu.total) : 1;
  double steal = 100.0 * static_cast<double>(cpu.steal) / total;
  double iowait = 100.0 * static_cast<double>(cpu.iowait) / total;
  double load = LoadAvg1();
  rep.Host("nproc", Nproc());
  rep.Host("cpus_allowed", AllowedCpus());
  rep.Host("steal_pct", steal);
  rep.Host("iowait_pct", iowait);
  rep.Host("loadavg_1m", load);
  // A neighbour taking the CPU shows up as steal, or as more runnable
  // threads than cores; such a run is flagged, not silently averaged in.
  rep.Host("noisy",
           steal > kNoisyStealPct || iowait > 10 || load > Nproc() + 1 ? 1 : 0);
}

// The call a fresh rig answers first: part of setup_s.
Spec FirstCall(const Workload& w) {
  Spec s;
  s.tag = MakeTag(0, 0xFFFF);
  switch (w.kind) {
    case Kind::kControl: s.op = Op::kButton; break;
    case Kind::kBulk:
      s.op = Op::kEcho;
      s.length = 64;
      break;
    case Kind::kFanin:
      s.op = Op::kAdd;
      s.a = 1;
      s.b = 2;
      break;
  }
  return s;
}

Callers MakeCallers(const Workload& w, const Inputs& in) {
  Callers callers(static_cast<size_t>(w.callers));
  for (size_t i = 0; i < callers.size(); ++i) {
    callers[i].specs = &in.per_caller[i];
  }
  return callers;
}

struct Tally {
  uint64_t attempted = 0, failed = 0, corrupted = 0;
  void Add(const Callers& callers, uint64_t servant_failures) {
    for (const Caller& c : callers) {
      attempted += c.attempted;
      failed += c.failed;
      corrupted += c.corrupted;
    }
    failed += servant_failures;
  }
};

// A rig that has answered its first call, plus the callers bound to it.
struct Session {
  std::unique_ptr<Rig> rig;
  Callers callers;
};

Session StartSession(const Workload& w, const Inputs& in,
                     std::shared_ptr<obs::Tracer> tracer) {
  Session s{MakeRig(w, std::move(tracer)), MakeCallers(w, in)};
  Caller& c = s.callers.front();
  Spec first = FirstCall(w);
  ++c.attempted;
  if (!CallViaStub(*s.rig, c, first, in.payload, 0)) ++c.failed;
  return s;
}

double WarmupSeconds(const Options& opt) {
  return std::clamp(opt.seconds * 0.08, 0.2, 1.0);
}

// --- the untraced run: end-to-end metrics ------------------------------------

int RunEndToEnd(const Options& opt, const Workload& w, const Inputs& in) {
  Report rep;
  Tally tally;
  int threads_peak = ThreadCount();

  // Set-up, repeated; the last session is the one measured.
  std::vector<double> setup_s;
  Session session;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (session.rig != nullptr) {
      tally.Add(session.callers, VerifyServants(*session.rig, w, session.callers));
      session = {};
    }
    int64_t t0 = NowNs();
    session = StartSession(w, in, nullptr);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    threads_peak = std::max(threads_peak, ThreadCount());
  }
  Rig& rig = *session.rig;

  Measure(rig, session.callers, w, in, opt, WarmupSeconds(opt), 1);
  // Keep warming up while a neighbour is stealing the host, for at most
  // kQuietWaitSlices half seconds; a run measured in a noisy spell anyway
  // is flagged in the host line.
  int quiet_wait_slices = 0;
  while (quiet_wait_slices < kQuietWaitSlices &&
         Measure(rig, session.callers, w, in, opt, 0.5, 1).windows[0].steal_pct >=
             kNoisyStealPct) {
    ++quiet_wait_slices;
  }

  // A phase without calls must count no allocations.
  uint64_t idle0 = HeapAllocs();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  uint64_t idle_allocs = HeapAllocs() - idle0;

  Phase ph = Measure(rig, session.callers, w, in, opt, opt.seconds, kWindows);
  double rss = PeakRssMb();
  threads_peak = std::max(threads_peak, ph.threads_peak);
  tally.Add(session.callers, VerifyServants(rig, w, session.callers));

  rep.Metric("setup_s", Median(setup_s), "s");
  std::vector<Window> steady = SteadyWindows(ph);
  rep.Metric("calls_per_s", MedianOf(steady, &Window::calls_per_s), "1/s");
  rep.Metric("latency_p50_us", MedianOf(steady, &Window::p50_us), "us");
  rep.Metric("latency_p99_us", MedianOf(steady, &Window::p99_us), "us");
  rep.Metric("payload_MBps", MedianOf(steady, &Window::payload_mbps), "MB/s");
  rep.Metric("cpu_us_per_call", MedianOf(steady, &Window::cpu_us_per_call),
             "us");
  rep.Metric("heap_allocs_per_call", MedianOf(steady, &Window::heap_per_call),
             "count");
  rep.Metric("threads_peak", threads_peak, "count");
  rep.Metric("rss_peak_mb", rss, "MiB");
  rep.Metric("failed_ratio",
             tally.attempted ? static_cast<double>(tally.failed) /
                                   static_cast<double>(tally.attempted)
                             : 1.0,
             "ratio");
  rep.Note("latency_samples", static_cast<double>(ph.latency.Count()));
  rep.Note("measured_calls", static_cast<double>(ph.calls));
  rep.Note("callers", w.callers);
  rep.Note("windows", static_cast<double>(ph.windows.size()));
  rep.Note("windows_used", static_cast<double>(steady.size()));
  rep.Note("quiet_wait_s", quiet_wait_slices * 0.5);
  rep.Note("setup_repeats", kSetupRepeats);
  rep.Note("heap_allocs_idle_phase", static_cast<double>(idle_allocs));
  rep.Note("replies_corrupted", static_cast<double>(tally.corrupted));
  ReportHost(rep, ph.host);
  bool every_window_called =
      std::all_of(ph.windows.begin(), ph.windows.end(),
                  [](const Window& wf) { return wf.has_calls; });
  bool correct = tally.failed == 0 && idle_allocs == 0 && every_window_called;
  rep.Print(opt, correct, tally.attempted, tally.failed, "");
  return 0;
}

// --- the traced run: per-layer metrics -----------------------------------------

// Bucket counts of an always-on stage histogram, to take deltas from.
std::vector<uint64_t> Snap(const obs::LatencyHistogram& h) {
  std::vector<uint64_t> counts;
  for (int i = 0; i < obs::LatencyHistogram::kBucketCount; ++i) {
    counts.push_back(h.BucketCountAt(i));
  }
  return counts;
}

// p-th percentile (bucket midpoint) of what `h` recorded since `before`.
double DeltaPercentile(const obs::LatencyHistogram& h,
                       const std::vector<uint64_t>& before,
                       double pct) {
  using H = obs::LatencyHistogram;
  std::vector<uint64_t> d(H::kBucketCount);
  uint64_t total = 0;
  for (int i = 0; i < H::kBucketCount; ++i) {
    d[i] = h.BucketCountAt(i) - before[i];
    total += d[i];
  }
  if (total == 0) return 0;
  uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(pct / 100.0 * static_cast<double>(total)));
  uint64_t seen = 0;
  for (int i = 0; i < H::kBucketCount; ++i) {
    seen += d[i];
    if (seen >= rank) {
      return static_cast<double>(H::BucketLow(i)) +
             static_cast<double>(H::BucketHigh(i) - H::BucketLow(i)) / 2;
    }
  }
  return 0;
}

int RunTraced(const Options& opt, const Workload& w, const Inputs& in) {
  Report rep;
  Tally tally;
  const double phase_s = opt.seconds * 0.35;
  const double probe_s = opt.seconds * 0.1;

  // 1. Untraced reference phase: the counters, and the latency the
  //    traced phase is compared with.
  Phase ref;
  OrbStats c0, c1, s0, s1;
  {
    Session session = StartSession(w, in, nullptr);
    Rig& rig = *session.rig;
    Measure(rig, session.callers, w, in, opt, WarmupSeconds(opt), 1);
    c0 = rig.client->Stats();
    s0 = rig.server->Stats();
    ref = Measure(rig, session.callers, w, in, opt, phase_s, 3);
    c1 = rig.client->Stats();
    s1 = rig.server->Stats();
    tally.Add(session.callers, VerifyServants(rig, w, session.callers));
  }

  // 2. Traced phase: spans around every step, and the ORB's own stage
  //    histograms from a tracer that samples no timelines.
  obs::TracerOptions topts;
  topts.mode = obs::SampleMode::kNever;
  auto tracer = std::make_shared<obs::Tracer>(topts);
  static const char* const kStages[] = {
      "stage.client.acquire", "stage.client.send",  "stage.client.wait",
      "stage.client.unmarshal", "stage.server.queue", "stage.server.exec",
      "stage.server.reply"};
  std::vector<std::vector<uint64_t>> stage0;
  SpanStore store(kSpanCapacity);
  Phase traced;
  WireRefs refs;
  {
    Session session = StartSession(w, in, tracer);
    Rig& rig = *session.rig;
    Measure(rig, session.callers, w, in, opt, WarmupSeconds(opt), 1);
    for (const char* key : kStages) {
      stage0.push_back(Snap(*tracer->Metrics().Histogram(key)));
    }
    std::atomic<int64_t> budget{kTracedCallBudget};
    SetActiveSpans(&store);
    traced = Measure(rig, session.callers, w, in, opt, phase_s, 1,
                     Traced{&store, &budget});
    tally.Add(session.callers, VerifyServants(rig, w, session.callers));
    SetActiveSpans(nullptr);
    refs.target = rig.target.ToString();
    refs.callback_ref =
        w.kind == Kind::kControl
            ? rig.client->ExportObject(&rig.monitor, "IDL:Heidi/A:1.0")
                  .ToString()
            : refs.target;
  }

  // 3. The wire and the network alone, on the same calls' frames.
  const wire::Protocol* protocol = wire::FindProtocol(w.protocol);
  WireProbe wp = RunWireProbe(*protocol, in.per_caller[0], in.payload, refs,
                              probe_s);
  NetProbe np = RunNetProbe(wp.frames, probe_s);

  // 4. Spans: join, self times, write-out.
  std::vector<SpanRec> spans = store.Take();
  std::vector<int64_t> self_ns;
  SpanAnalysis sa = AnalyzeSpans(spans, self_ns);
  bool spans_written = opt.spans_out.empty() ||
                       WriteSpansJsonl(opt.spans_out, spans, self_ns);

  // orb.overhead_us: invoke − exec − the network round trip of the same
  // frames (by tag where the net probe covered that call, else the median).
  std::vector<double> rtts;
  for (double r : np.rtt_ns) {
    if (r > 0) rtts.push_back(r);
  }
  double rtt_p50 = Median(rtts);
  std::vector<double> overhead;
  for (auto [tag, ns] : sa.invoke_minus_exec_ns) {
    uint32_t caller = (tag - 1) >> 16, index = (tag - 1) & 0xFFFF;
    double rtt = caller == 0 && index < np.rtt_ns.size() && np.rtt_ns[index] > 0
                     ? np.rtt_ns[index]
                     : rtt_p50;
    overhead.push_back(ns - rtt);
  }

  double calls = std::max<double>(1, static_cast<double>(ref.calls));
  auto per_call = [&](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before) / calls;
  };
  rep.Metric("orb.marshal_ns", Median(sa.marshal_ns), "ns");
  rep.Metric("orb.invoke_p50_us", Quantile(sa.invoke_ns, 0.5) / 1e3, "us");
  rep.Metric("orb.invoke_p99_us", Quantile(sa.invoke_ns, 0.99) / 1e3, "us");
  rep.Metric("orb.unmarshal_ns", Median(sa.unmarshal_ns), "ns");
  rep.Metric("orb.overhead_us", Median(overhead) / 1e3, "us");
  rep.Metric("orb.mux_wakeups_per_call",
             per_call(c1.mux_wakeups + s1.mux_wakeups,
                      c0.mux_wakeups + s0.mux_wakeups),
             "count");
  rep.Metric("orb.reactor_epoll_wakeups_per_call",
             per_call(c1.reactor_epoll_wakeups + s1.reactor_epoll_wakeups,
                      c0.reactor_epoll_wakeups + s0.reactor_epoll_wakeups),
             "count");
  rep.Metric("orb.reactor_eventfd_wakeups_per_call",
             per_call(c1.reactor_eventfd_wakeups + s1.reactor_eventfd_wakeups,
                      c0.reactor_eventfd_wakeups + s0.reactor_eventfd_wakeups),
             "count");
  rep.Metric("orb.inflight_highwater",
             std::max(c1.inflight_highwater, s1.inflight_highwater), "count");
  rep.Metric("orb.dispatch_queue_highwater",
             std::max(c1.dispatch_queue_highwater,
                      s1.dispatch_queue_highwater),
             "count");
  rep.Metric("orb.stubs_created", c1.stubs_created + s1.stubs_created,
             "count");
  rep.Metric("orb.skeletons_created",
             c1.skeletons_created + s1.skeletons_created, "count");
  rep.Metric("orb.connections_opened",
             c1.connections_opened + s1.connections_opened, "count");
  rep.Metric("orb.reactor_backpressure_suspends",
             c1.reactor_backpressure_suspends + s1.reactor_backpressure_suspends,
             "count");
  for (size_t i = 0; i < std::size(kStages); ++i) {
    rep.Metric(std::string(kStages[i]) + "_p50_ns",
               DeltaPercentile(*tracer->Metrics().Histogram(kStages[i]),
                               stage0[i], 50),
               "ns");
  }
  rep.Metric("proc.vol_ctx_switches_per_call",
             static_cast<double>(ref.usage.vol_cs) / calls, "count");
  rep.Metric("proc.invol_ctx_switches_per_call",
             static_cast<double>(ref.usage.invol_cs) / calls, "count");
  rep.Metric("servant.exec_us", Median(sa.exec_ns) / 1e3, "us");
  rep.Metric("wire.encode_ns", Median(wp.encode_ns), "ns");
  rep.Metric("wire.decode_ns", Median(wp.decode_ns), "ns");
  std::vector<double> frame_bytes;
  for (const Frame& f : wp.frames) {
    frame_bytes.push_back(static_cast<double>(f.request_bytes));
  }
  rep.Metric("wire.frame_bytes", Median(frame_bytes), "B");
  rep.Metric("wire.encode_ns_per_KiB", wp.encode_ns_per_kib, "ns");
  rep.Metric("wire.decode_ns_per_KiB", wp.decode_ns_per_kib, "ns");
  rep.Metric("net.rtt_p50_us", rtt_p50 / 1e3, "us");
  rep.Metric("net.MBps", np.mbps, "MB/s");
  rep.Metric("support.pool_hits_per_call",
             per_call(ref.pool_after.hits, ref.pool_before.hits), "count");
  rep.Metric("support.pool_misses_per_call",
             per_call(ref.pool_after.misses, ref.pool_before.misses), "count");
  rep.Metric("support.bytes_retained_peak",
             static_cast<double>(ref.pool_bytes_peak), "B");
  double ref_p50 = MedianOf(SteadyWindows(ref), &Window::p50_us);
  double traced_p50 = traced.latency.Quantile(0.5) / 1e3;
  rep.Metric("trace.overhead_pct",
             ref_p50 > 0 ? (traced_p50 - ref_p50) / ref_p50 * 100 : 0, "%");
  rep.Metric("trace.residual_us", Median(sa.residual_ns) / 1e3, "us");
  if (w.kind == Kind::kControl) {
    rep.Metric("orb.callback_us", Median(sa.callback_ns) / 1e3, "us");
  }

  rep.Note("traced_calls", static_cast<double>(sa.calls));
  rep.Note("spans", static_cast<double>(spans.size()));
  rep.Note("spans_dropped", static_cast<double>(store.Dropped()));
  rep.Note("trace.unjoined_exec", static_cast<double>(sa.unjoined_exec));
  rep.Note("trace.nesting_errors", static_cast<double>(sa.nesting_errors));
  rep.Note("orb.stubs_created_in_phase",
           static_cast<double>(c1.stubs_created + s1.stubs_created -
                               c0.stubs_created - s0.stubs_created));
  rep.Note("orb.skeletons_created_in_phase",
           static_cast<double>(c1.skeletons_created + s1.skeletons_created -
                               c0.skeletons_created - s0.skeletons_created));
  rep.Note("orb.connections_opened_in_phase",
           static_cast<double>(c1.connections_opened + s1.connections_opened -
                               c0.connections_opened - s0.connections_opened));
  rep.Note("wire.probed_calls", static_cast<double>(wp.encode_ns.size()));
  rep.Note("wire.mismatches", static_cast<double>(wp.mismatches));
  rep.Note("latency_p50_us_untraced", ref_p50);
  rep.Note("latency_p50_us_traced", traced_p50);
  ReportHost(rep, ref.host);
  bool correct = tally.failed == 0 && wp.mismatches == 0 &&
                 sa.nesting_errors == 0 && spans_written && sa.calls > 0;
  rep.Print(opt, correct, tally.attempted, tally.failed, opt.spans_out);
  return 0;
}

// --- command line ------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--dump-calls") {
      opt->dump_calls = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    if (arg == "--workload") opt->workload = v;
    else if (arg == "--seed") opt->seed = std::strtoull(v, nullptr, 10);
    else if (arg == "--seconds") opt->seconds = std::strtod(v, nullptr);
    else if (arg == "--trace") opt->trace = std::strcmp(v, "1") == 0;
    else if (arg == "--corrupt-every") opt->corrupt_every = std::atoi(v);
    else if (arg == "--spans-out") opt->spans_out = v;
    else return false;
  }
  return !opt->workload.empty() && opt->seconds > 0;
}

int Main(int argc, char** argv) {
  Options opt;
  Workload w{};
  if (!ParseArgs(argc, argv, &opt) || !ParseWorkload(opt.workload, &w)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload control|bulk|fanin --seed N "
                 "--seconds S [--trace 0|1] [--spans-out FILE] "
                 "[--corrupt-every N] [--dump-calls]\n");
    return 2;
  }
  heidi::demo::ForceDemoRegistration();
  Inputs in = Generate(w, opt.seed);
  if (opt.dump_calls) {
    std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"callers\":%d,"
                "\"calls\":%zu,\"digest\":\"%016llx\"}\n",
                w.name, static_cast<unsigned long long>(opt.seed), w.callers,
                in.per_caller[0].size(),
                static_cast<unsigned long long>(Digest(in)));
    return 0;
  }
  return opt.trace ? RunTraced(opt, w, in) : RunEndToEnd(opt, w, in);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
