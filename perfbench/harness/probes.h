// Layer probes of the traced run, each on the workload's own generated
// calls: the wire layer alone (encode and decode through the workload's
// wire::Protocol, no orb, no socket) and the network alone (a TCP
// loopback pair with a blocking echo thread, moving frames of the very
// sizes those calls encode to).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "calls.h"
#include "wire/protocol.h"

namespace perfbench {

// Encoded sizes of one call. reply_bytes is 0 for oneways.
struct Frame {
  size_t request_bytes = 0;
  size_t reply_bytes = 0;
};

struct WireProbe {
  std::vector<double> encode_ns;  // NewCall + Put* + EncodeCall
  std::vector<double> decode_ns;  // TryParseFrame + Get*
  std::vector<Frame> frames;      // parallel to the probed specs
  double encode_ns_per_kib = 0;
  double decode_ns_per_kib = 0;
  uint64_t mismatches = 0;  // decoded arguments differing from the spec
};

// Strings the wire probe marshals where the orb would marshal object
// references; take them from the live rig so sizes match.
struct WireRefs {
  std::string target;        // stringified target reference
  std::string callback_ref;  // a client-side object passed by reference
};

// Probes specs[0..) in order until `budget_s` elapses or every spec was
// probed once.
WireProbe RunWireProbe(const heidi::wire::Protocol& protocol,
                       const std::vector<Spec>& specs,
                       const std::string& payload, const WireRefs& refs,
                       double budget_s);

struct NetProbe {
  std::vector<double> rtt_ns;  // parallel to the probed frames; 0 = oneway
  double mbps = 0;             // frame bytes both ways / round-trip time
};

// One round trip per twoway frame, in order, until `budget_s` elapses.
NetProbe RunNetProbe(const std::vector<Frame>& frames, double budget_s);

}  // namespace perfbench
