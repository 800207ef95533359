// The generated call sequences: one Spec per logical call, made from the
// seed before the measured phase and replayed cyclically by the callers.
#pragma once

#include <charconv>
#include <cstdint>
#include <string_view>

namespace perfbench {

enum class Op : uint8_t {
  // control (HdA over the text protocol)
  kP,       // p(long)
  kQ,       // q(enum)
  kS,       // s(XBool)
  kButton,  // GetButton()
  kPing,    // ping(), delegated to the S skeleton
  kG,       // g(incopy SerializableS), by value
  kT,       // t(sequence of 3 refs); the servant calls back value() on each
  kF,       // f(monitor); the servant calls back into the controller
  // bulk and fanin (HdEcho over hiop)
  kEcho,  // echo(string): payload both ways
  kBlob,  // blob(octets): upload, short checksum back
  kAdd,   // add(long, long)
  kFlip,  // flip(boolean); the servant waits 200 us
  kPost,  // oneway post(string)
};

// The operation's name on the wire ("_get_button" for GetButton).
const char* OpName(Op op);
inline bool IsOneway(Op op) { return op == Op::kPost; }
inline bool HasResult(Op op) {
  return op == Op::kButton || op == Op::kEcho || op == Op::kBlob ||
         op == Op::kAdd || op == Op::kFlip;
}

// One generated call. `tag` identifies the call within its caller's
// sequence ((caller << 16 | index) + 1); operations whose arguments can
// carry it (p, g, t, f, add, post) send it, so servant-side spans can
// name the call they belong to.
struct Spec {
  Op op = Op::kP;
  int32_t a = 0;         // p/g/add argument; q/s/flip value
  int32_t b = 0;         // add second argument
  uint32_t offset = 0;   // echo/blob payload window in the shared buffer
  uint32_t length = 0;
  uint64_t checksum = 0;  // blob: FNV-1a of the payload window
  uint32_t tag = 0;
};

inline uint32_t MakeTag(int caller, uint32_t index) {
  return (static_cast<uint32_t>(caller) << 16 | index) + 1;
}

// 64-bit FNV-1a, the blob servant's reply (as 16 hex digits).
uint64_t Fnv1a(const char* data, uint64_t n);

// The bytes an echo/blob call sends: its window of the shared payload.
inline std::string_view PayloadWindow(std::string_view payload, const Spec& s) {
  return payload.substr(s.offset, s.length);
}

// post's event string: the tag in decimal, formatted into `buf`.
inline std::string_view TagText(uint32_t tag, char (&buf)[16]) {
  auto end = std::to_chars(buf, buf + sizeof(buf), tag).ptr;
  return std::string_view(buf, static_cast<size_t>(end - buf));
}

}  // namespace perfbench
