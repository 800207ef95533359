#include "probes.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <thread>

#include "net/inbound.h"
#include "net/tcp.h"
#include "spans.h"
#include "support/error.h"

namespace perfbench {

namespace bytes = heidi::bytes;
namespace net = heidi::net;
namespace wire = heidi::wire;

namespace {

constexpr std::string_view kValueRepoId = "IDL:Heidi/SerializableS:1.0";

// The arguments exactly as the stub (or, for object parameters,
// Orb::PutObject) puts them on the wire.
void PutArgs(wire::Call& c, const Spec& s, std::string_view window,
             const WireRefs& refs) {
  char tag_buf[16];
  switch (s.op) {
    case Op::kP: c.PutLong(static_cast<int32_t>(s.tag)); break;
    case Op::kQ: c.PutEnum(s.a); break;
    case Op::kS:
    case Op::kFlip: c.PutBoolean(s.a != 0); break;
    case Op::kG:
      c.PutString("V");
      c.PutString(kValueRepoId);
      c.Begin("val");
      c.PutLong(static_cast<int32_t>(s.tag));
      c.End();
      break;
    case Op::kT:
      c.Begin("seq");
      c.PutLength(3);
      for (int i = 0; i < 3; ++i) {
        c.PutString("R");
        c.PutString(refs.callback_ref);
      }
      c.End();
      break;
    case Op::kF:
      c.PutString("R");
      c.PutString(refs.callback_ref);
      break;
    case Op::kEcho: c.PutString(window); break;
    case Op::kBlob: c.PutBytes(window); break;
    case Op::kAdd:
      c.PutLong(s.a);
      c.PutLong(s.b);
      break;
    case Op::kPost: c.PutString(TagText(s.tag, tag_buf)); break;
    default: break;
  }
}

// Reads the arguments back as the skeleton does; false on a mismatch.
bool GetArgs(wire::Call& c, const Spec& s, std::string_view window,
             const WireRefs& refs) {
  char tag_buf[16];
  auto ref_param = [&] {
    return c.GetString() == "R" && c.GetString() == refs.callback_ref;
  };
  switch (s.op) {
    case Op::kP: return c.GetLong() == static_cast<int32_t>(s.tag);
    case Op::kQ: return c.GetEnum() == s.a;
    case Op::kS:
    case Op::kFlip: return c.GetBoolean() == (s.a != 0);
    case Op::kG: {
      bool ok = c.GetString() == "V" && c.GetString() == kValueRepoId;
      c.Begin("val");
      ok = ok && c.GetLong() == static_cast<int32_t>(s.tag);
      c.End();
      return ok;
    }
    case Op::kT: {
      c.Begin("seq");
      bool ok = c.GetLength() == 3;
      for (int i = 0; ok && i < 3; ++i) ok = ref_param();
      c.End();
      return ok;
    }
    case Op::kF: return ref_param();
    case Op::kEcho: return c.GetStringView() == window;
    case Op::kBlob: return c.GetBytesView() == window;
    case Op::kAdd: return c.GetLong() == s.a && c.GetLong() == s.b;
    case Op::kPost: return c.GetStringView() == TagText(s.tag, tag_buf);
    default: return true;
  }
}

void PutResult(wire::Call& c, const Spec& s, std::string_view window) {
  switch (s.op) {
    case Op::kButton: c.PutEnum(0); break;
    case Op::kEcho: c.PutString(window); break;
    case Op::kBlob: c.PutString("0123456789abcdef"); break;
    case Op::kAdd: c.PutLong(s.a + s.b); break;
    case Op::kFlip: c.PutBoolean(s.a == 0); break;
    default: break;
  }
}

}  // namespace

WireProbe RunWireProbe(const wire::Protocol& protocol,
                       const std::vector<Spec>& specs,
                       const std::string& payload, const WireRefs& refs,
                       double budget_s) {
  WireProbe out;
  auto target = std::make_shared<const std::string>(refs.target);
  std::unique_ptr<wire::FrameDecoder> decoder = protocol.NewFrameDecoder();
  if (decoder == nullptr) throw heidi::HdError("protocol has no frame decoder");
  net::IncomingBuffer inbound;
  double encode_total = 0, decode_total = 0, kib_total = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  for (size_t i = 0; i < specs.size() && NowNs() < deadline; ++i) {
    const Spec& s = specs[i];
    std::string_view window = PayloadWindow(payload, s);

    int64_t t0 = NowNs();
    std::unique_ptr<wire::Call> call = protocol.NewCall();
    call->SetKind(wire::CallKind::kRequest);
    call->SetCallId(i + 1);
    call->SetTarget(target);
    call->SetOperation(std::string(OpName(s.op)));
    call->SetOneway(IsOneway(s.op));
    PutArgs(*call, s, window, refs);
    bytes::BufferChain frame;
    protocol.EncodeCall(frame, *call);
    int64_t t1 = NowNs();

    // Hand the frame to the decoder the way a socket read would.
    char* dst = inbound.WritePtr(frame.Size());
    frame.CopyTo(dst);
    inbound.CommitWrite(frame.Size());
    int64_t t2 = NowNs();
    std::unique_ptr<wire::Call> parsed = decoder->TryParseFrame(inbound);
    bool ok = parsed != nullptr && parsed->Operation() == OpName(s.op) &&
              GetArgs(*parsed, s, window, refs);
    int64_t t3 = NowNs();
    if (!ok) ++out.mismatches;

    Frame sizes;
    sizes.request_bytes = frame.Size();
    if (!IsOneway(s.op)) {
      std::unique_ptr<wire::Call> reply = protocol.NewCall();
      reply->SetKind(wire::CallKind::kReply);
      reply->SetCallId(i + 1);
      reply->SetStatus(wire::CallStatus::kOk);
      PutResult(*reply, s, window);
      bytes::BufferChain reply_frame;
      protocol.EncodeCall(reply_frame, *reply);
      sizes.reply_bytes = reply_frame.Size();
    }
    out.frames.push_back(sizes);
    out.encode_ns.push_back(static_cast<double>(t1 - t0));
    out.decode_ns.push_back(static_cast<double>(t3 - t2));
    encode_total += static_cast<double>(t1 - t0);
    decode_total += static_cast<double>(t3 - t2);
    kib_total += static_cast<double>(frame.Size()) / 1024.0;
  }
  if (kib_total > 0) {
    out.encode_ns_per_kib = encode_total / kib_total;
    out.decode_ns_per_kib = decode_total / kib_total;
  }
  return out;
}

NetProbe RunNetProbe(const std::vector<Frame>& frames, double budget_s) {
  NetProbe out;
  out.rtt_ns.assign(frames.size(), 0);
  net::TcpAcceptor acceptor(0);
  // Blocking echo peer: reads an 8-byte header (request and reply
  // lengths), the request body, and answers with a reply of that length.
  std::thread peer([&acceptor] {
    try {
      std::unique_ptr<net::ByteChannel> ch = acceptor.Accept();
      if (ch == nullptr) return;
      std::vector<char> buf;
      uint32_t hdr[2];
      while (net::ReadExact(*ch, reinterpret_cast<char*>(hdr), sizeof(hdr))) {
        buf.resize(std::max(hdr[0], hdr[1]));
        if (hdr[0] > 0 && !net::ReadExact(*ch, buf.data(), hdr[0])) break;
        ch->WriteAll(buf.data(), hdr[1]);
      }
    } catch (const heidi::HdError&) {
      // The client closed mid-frame; the probe is over either way.
    }
  });

  double moved = 0, seconds = 0;
  try {
    std::unique_ptr<net::ByteChannel> ch =
        net::TcpConnect("127.0.0.1", acceptor.Port());
    std::vector<char> out_buf, in_buf;
    const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
    for (size_t i = 0; i < frames.size() && NowNs() < deadline; ++i) {
      const Frame& f = frames[i];
      if (f.reply_bytes == 0) continue;  // oneway: no round trip
      uint32_t hdr[2] = {static_cast<uint32_t>(f.request_bytes),
                         static_cast<uint32_t>(f.reply_bytes)};
      out_buf.resize(sizeof(hdr) + f.request_bytes);
      std::memcpy(out_buf.data(), hdr, sizeof(hdr));
      in_buf.resize(f.reply_bytes);
      int64_t t0 = NowNs();
      ch->WriteAll(out_buf.data(), out_buf.size());
      net::ReadExact(*ch, in_buf.data(), in_buf.size());
      int64_t t1 = NowNs();
      out.rtt_ns[i] = static_cast<double>(t1 - t0);
      moved += static_cast<double>(f.request_bytes + f.reply_bytes);
      seconds += static_cast<double>(t1 - t0) / 1e9;
    }
    ch->Close();
  } catch (...) {
    acceptor.Close();
    peer.join();
    throw;
  }
  peer.join();
  acceptor.Close();
  out.mbps = seconds > 0 ? moved / seconds / 1e6 : 0;
  return out;
}

}  // namespace perfbench
