// The benchmark's own implementation objects. Unlike the demo's AImpl and
// EchoImpl, which append every argument they see to vectors for tests to
// inspect, these keep only counters and sums, so a long run's memory and
// servant time stay flat and rss_peak_mb measures the ORB, not the demo.
// The counters are what the end-of-run checks compare against the calls
// the callers issued.
#pragma once

#include <atomic>
#include <cstdint>

#include "calls.h"
#include "demo/interfaces.h"

namespace perfbench {

// Server side of `control`.
class ControlServant : public virtual HdA {
 public:
  HD_DECLARE_TYPE();

  void ping() override;
  long value() override { return 0; }
  void f(HdA* a) override;
  void g(HdS* s) override;
  void p(long l) override;
  void q(HdStatus s) override;
  void s(XBool b) override;
  void t(HdSSequence* seq) override;
  HdStatus GetButton() override;

  // Sums wrap modulo 2^64; they are only ever compared for equality.
  struct Totals {
    uint64_t pings = 0, p_calls = 0, p_sum = 0, q_calls = 0, q_stops = 0,
             s_calls = 0, s_trues = 0, g_calls = 0, g_sum = 0, g_by_ref = 0,
             f_calls = 0, t_calls = 0, callbacks = 0, callback_errors = 0;
  };
  Totals Snapshot() const;

 private:
  std::atomic<uint64_t> pings_{0}, p_calls_{0}, p_sum_{0}, q_calls_{0},
      q_stops_{0}, s_calls_{0}, s_trues_{0}, g_calls_{0}, g_sum_{0},
      g_by_ref_{0}, f_calls_{0}, t_calls_{0}, callbacks_{0},
      callback_errors_{0};
  std::atomic<int> button_{Start};
};

// Server side of `bulk` and `fanin`.
class EchoServant : public virtual HdEcho {
 public:
  HD_DECLARE_TYPE();

  HdString echo(HdStringView msg) override;
  long add(long a, long b) override;
  double norm(double x, double y) override;
  XBool flip(XBool b) override;  // waits 200 us, a stand-in downstream wait
  void post(HdStringView event) override;
  HdString blob(HdBytesView data) override;  // FNV-1a as 16 hex digits

  struct Totals {
    uint64_t echo_calls = 0, blob_calls = 0, add_calls = 0, flip_calls = 0,
             posts = 0, post_tag_sum = 0;
  };
  Totals Snapshot() const;

 private:
  std::atomic<uint64_t> echo_calls_{0}, blob_calls_{0}, add_calls_{0},
      flip_calls_{0}, posts_{0}, post_tag_sum_{0};
};

// The controller's callback targets, exported by the client orb the first
// time they are passed. value() answers the tag the controller published
// for the call in flight (plus the element's offset), so the servant can
// name the call and the harness can count the callbacks.
class Monitor : public virtual HdA {
 public:
  HD_DECLARE_TYPE();
  explicit Monitor(const std::atomic<long>* tag) : tag_(tag) {}

  void ping() override {}
  long value() override;
  void f(HdA*) override {}
  void g(HdS*) override {}
  void p(long) override {}
  void q(HdStatus) override {}
  void s(XBool) override {}
  void t(HdSSequence*) override {}
  HdStatus GetButton() override { return Start; }

  uint64_t Callbacks() const { return callbacks_.load(); }

 private:
  const std::atomic<long>* tag_;
  std::atomic<uint64_t> callbacks_{0};
};

class Element : public virtual HdS {
 public:
  HD_DECLARE_TYPE();
  Element(const std::atomic<long>* tag, long offset)
      : tag_(tag), offset_(offset) {}

  void ping() override {}
  long value() override;

  uint64_t Callbacks() const { return callbacks_.load(); }

 private:
  const std::atomic<long>* tag_;
  long offset_;
  std::atomic<uint64_t> callbacks_{0};
};

// The blob reply: a checksum as 16 hex digits.
HdString ChecksumText(uint64_t checksum);

}  // namespace perfbench
