// Length-prefixed result frames over raw fds — the wire format of the TCP
// remote-worker transport (transport.hpp / remote.hpp).
//
// Frame layout (little-endian by codec.hpp's primitives):
//   [u8 kind][u64 point id][u32 payload length][payload bytes]
// kind 0 carries a serialized RunResult (result_codec.hpp), kinds 1/2
// carry an error message (invalid config / runtime error); the remote
// worker protocol layers further kinds on top (remote.hpp).
//
// All loops are EINTR-safe and tolerate arbitrarily short transfers —
// on TCP sockets partial reads/writes are the norm, not the exception, so
// every primitive loops until the full count moved or the stream died.
// Every failure (EOF, torn frame, EPIPE/ECONNRESET) returns false, and
// callers treat each one alike: the peer is gone. A write to a vanished
// peer fails with EPIPE instead of killing the process, because
// transport.hpp's ignore_sigpipe() disarms SIGPIPE.
#pragma once

#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "sdrmpi/sweep/codec.hpp"

namespace sdrmpi::sweep::frame {

inline constexpr std::uint8_t kFrameResult = 0;
inline constexpr std::uint8_t kFrameInvalidConfig = 1;
inline constexpr std::uint8_t kFrameRuntimeError = 2;

/// Largest payload the u32 length field can carry. A longer payload must
/// be rejected, never cast down: truncating the length tears the stream
/// for every frame that follows. Note this bounds what the *format* can
/// express, not what a reader should accept: frames whose kind implies a
/// small payload (handshake, heartbeats, work requests) are capped far
/// lower by the remote protocol (remote.cpp's kMaxControlPayload) so a
/// hostile header cannot make a reader thread allocate 4 GiB.
inline constexpr std::size_t kMaxFramePayload = 0xffffffffu;

/// The frame header, coded in the order of its field list.
struct FrameHeader {
  std::uint8_t kind = 0;
  std::uint64_t id = 0;
  std::uint32_t len = 0;
};
inline constexpr std::size_t kFrameHeaderBytes = 13;

template <class Io>
void fields(Io& io, FrameHeader& h) {
  io(h.kind, h.id, h.len);
}

inline bool write_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    // A zero or short write is legal on sockets; just keep going with
    // whatever the kernel accepted.
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

inline bool read_all(int fd, void* data, std::size_t n) {
  auto* p = static_cast<unsigned char*>(data);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // EOF
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

/// Writes one frame. A payload longer than kMaxFramePayload is NOT
/// truncated: the frame is replaced by a kFrameRuntimeError frame for the
/// same point id naming the oversize, so the stream stays intact and the
/// point surfaces as an explicit error instead of a torn store.
inline bool write_frame(int fd, std::uint8_t kind, std::uint64_t id,
                        const void* payload, std::size_t len) {
  if (len > kMaxFramePayload) {
    char msg[96];
    std::snprintf(msg, sizeof msg,
                  "sweep worker: encoded result of %llu bytes exceeds the "
                  "4 GiB frame limit",
                  static_cast<unsigned long long>(len));
    return write_frame(fd, kFrameRuntimeError, id, msg, std::strlen(msg));
  }
  ByteWriter header;
  header(FrameHeader{kind, id, static_cast<std::uint32_t>(len)});
  if (!write_all(fd, header.bytes().data(), header.bytes().size())) {
    return false;
  }
  return len == 0 || write_all(fd, payload, len);
}

/// Reads one frame header; false on EOF (clean or mid-header) or error.
inline bool read_frame_header(int fd, FrameHeader& out) {
  std::byte header[kFrameHeaderBytes];
  if (!read_all(fd, header, sizeof header)) return false;
  ByteReader r(header);
  r(out);
  return true;
}

}  // namespace sdrmpi::sweep::frame
