#include "servants.h"

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "orb/stub.h"
#include "spans.h"

HD_DEFINE_TYPE(perfbench::ControlServant, "IDL:PerfBench/ControlServant:1.0",
               &HdA::TypeInfo())
HD_DEFINE_TYPE(perfbench::EchoServant, "IDL:PerfBench/EchoServant:1.0",
               &HdEcho::TypeInfo())
HD_DEFINE_TYPE(perfbench::Monitor, "IDL:PerfBench/Monitor:1.0",
               &HdA::TypeInfo())
HD_DEFINE_TYPE(perfbench::Element, "IDL:PerfBench/Element:1.0",
               &HdS::TypeInfo())

namespace perfbench {

constexpr auto kRelaxed = std::memory_order_relaxed;

const char* OpName(Op op) {
  static const char* const kNames[] = {"p",    "q",    "s",   "_get_button",
                                       "ping", "g",    "t",   "f",
                                       "echo", "blob", "add", "flip",
                                       "post"};
  auto i = static_cast<size_t>(op);
  return i < sizeof(kNames) / sizeof(kNames[0]) ? kNames[i] : "?";
}

uint64_t Fnv1a(const char* data, uint64_t n) {
  uint64_t h = 1469598103934665603ull;
  for (uint64_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

HdString ChecksumText(uint64_t checksum) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(checksum));
  return HdString(hex, 16);
}

// --- ControlServant ----------------------------------------------------------

void ControlServant::ping() {
  ScopedSpan exec("exec", Op::kPing, 0);
  pings_.fetch_add(1, kRelaxed);
}

void ControlServant::f(HdA* a) {
  ScopedSpan exec("exec", Op::kF, 0);
  f_calls_.fetch_add(1, kRelaxed);
  if (a == nullptr) {
    callback_errors_.fetch_add(1, kRelaxed);
    return;
  }
  long tag;
  {
    ScopedSpan callback("callback", Op::kF, 0);
    tag = a->value();
  }
  exec.SetTag(static_cast<uint32_t>(tag));
  callbacks_.fetch_add(1, kRelaxed);
  if (tag <= 0) callback_errors_.fetch_add(1, kRelaxed);
}

void ControlServant::g(HdS* s) {
  ScopedSpan exec("exec", Op::kG, 0);
  g_calls_.fetch_add(1, kRelaxed);
  if (s == nullptr) return;
  // incopy: a by-value copy arrives, never a stub calling back.
  if (dynamic_cast<heidi::orb::HdStub*>(s) != nullptr) {
    g_by_ref_.fetch_add(1, kRelaxed);
  }
  long v = s->value();
  exec.SetTag(static_cast<uint32_t>(v));
  g_sum_.fetch_add(static_cast<uint64_t>(v), kRelaxed);
}

void ControlServant::p(long l) {
  ScopedSpan exec("exec", Op::kP, static_cast<uint32_t>(l));
  p_calls_.fetch_add(1, kRelaxed);
  p_sum_.fetch_add(static_cast<uint64_t>(l), kRelaxed);
}

void ControlServant::q(HdStatus s) {
  ScopedSpan exec("exec", Op::kQ, 0);
  q_calls_.fetch_add(1, kRelaxed);
  if (s == Stop) q_stops_.fetch_add(1, kRelaxed);
  button_.store(s, kRelaxed);
}

void ControlServant::s(XBool b) {
  ScopedSpan exec("exec", Op::kS, 0);
  s_calls_.fetch_add(1, kRelaxed);
  if (static_cast<bool>(b)) s_trues_.fetch_add(1, kRelaxed);
}

void ControlServant::t(HdSSequence* seq) {
  ScopedSpan exec("exec", Op::kT, 0);
  t_calls_.fetch_add(1, kRelaxed);
  if (seq == nullptr) {
    callback_errors_.fetch_add(1, kRelaxed);
    return;
  }
  // Element k answers tag + k; anything else is a misrouted callback.
  long first = 0;
  long k = 0;
  bool ok = true;
  {
    ScopedSpan callback("callback", Op::kT, 0);
    for (HdS* element : *seq) {
      long v = element == nullptr ? -1 : element->value();
      if (k == 0) first = v;
      ok = ok && v == first + k;
      ++k;
    }
  }
  exec.SetTag(static_cast<uint32_t>(first));
  callbacks_.fetch_add(static_cast<uint64_t>(k), kRelaxed);
  if (!ok || first <= 0) callback_errors_.fetch_add(1, kRelaxed);
}

HdStatus ControlServant::GetButton() {
  ScopedSpan exec("exec", Op::kButton, 0);
  return static_cast<HdStatus>(button_.load(kRelaxed));
}

ControlServant::Totals ControlServant::Snapshot() const {
  Totals t;
  t.pings = pings_.load();
  t.p_calls = p_calls_.load();
  t.q_calls = q_calls_.load();
  t.q_stops = q_stops_.load();
  t.s_calls = s_calls_.load();
  t.s_trues = s_trues_.load();
  t.g_calls = g_calls_.load();
  t.g_by_ref = g_by_ref_.load();
  t.f_calls = f_calls_.load();
  t.t_calls = t_calls_.load();
  t.callbacks = callbacks_.load();
  t.callback_errors = callback_errors_.load();
  t.p_sum = p_sum_.load();
  t.g_sum = g_sum_.load();
  return t;
}

// --- EchoServant -------------------------------------------------------------

HdString EchoServant::echo(HdStringView msg) {
  ScopedSpan exec("exec", Op::kEcho, 0);
  echo_calls_.fetch_add(1, kRelaxed);
  return HdString(msg);
}

long EchoServant::add(long a, long b) {
  ScopedSpan exec("exec", Op::kAdd, static_cast<uint32_t>(a));
  add_calls_.fetch_add(1, kRelaxed);
  return a + b;
}

double EchoServant::norm(double x, double y) { return std::hypot(x, y); }

XBool EchoServant::flip(XBool b) {
  ScopedSpan exec("exec", Op::kFlip, 0);
  std::this_thread::sleep_for(std::chrono::microseconds(200));
  flip_calls_.fetch_add(1, kRelaxed);
  return XBool(!static_cast<bool>(b));
}

void EchoServant::post(HdStringView event) {
  uint32_t tag = 0;
  std::from_chars(event.data(), event.data() + event.size(), tag);
  ScopedSpan exec("exec", Op::kPost, tag);
  post_tag_sum_.fetch_add(tag, kRelaxed);
  posts_.fetch_add(1, std::memory_order_release);
}

HdString EchoServant::blob(HdBytesView data) {
  ScopedSpan exec("exec", Op::kBlob, 0);
  blob_calls_.fetch_add(1, kRelaxed);
  return ChecksumText(Fnv1a(data.data(), data.size()));
}

EchoServant::Totals EchoServant::Snapshot() const {
  Totals t;
  t.echo_calls = echo_calls_.load();
  t.blob_calls = blob_calls_.load();
  t.add_calls = add_calls_.load();
  t.flip_calls = flip_calls_.load();
  t.posts = posts_.load(std::memory_order_acquire);
  t.post_tag_sum = post_tag_sum_.load();
  return t;
}

// --- callback targets ----------------------------------------------------------

long Monitor::value() {
  callbacks_.fetch_add(1, kRelaxed);
  return tag_->load(kRelaxed);
}

long Element::value() {
  callbacks_.fetch_add(1, kRelaxed);
  return tag_->load(kRelaxed) + offset_;
}

}  // namespace perfbench
