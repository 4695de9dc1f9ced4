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
// Failures report *why* through an optional IoError out-param: callers on
// socket transports map EPIPE/ECONNRESET-class errnos to a worker-lost
// condition instead of treating them like local I/O bugs (and instead of
// dying to SIGPIPE — see transport.hpp's ignore_sigpipe()).
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

/// Why a frame read/write stopped short. `eof` means the peer closed the
/// stream; `clean_close` narrows that to "closed exactly on a frame
/// boundary" (orderly shutdown, not a torn frame). Otherwise `err` holds
/// the errno of the failing syscall.
struct IoError {
  bool eof = false;
  bool clean_close = false;
  int err = 0;
};

/// Errnos that mean "the peer is gone", not "this process misused the
/// fd". On a worker transport these map to a worker-lost event that the
/// scheduler absorbs by re-dispatching the worker's leases — never to
/// process death (EPIPE's default SIGPIPE disposition is disarmed by
/// transport.hpp's ignore_sigpipe()).
inline constexpr bool is_connection_lost(const IoError& e) noexcept {
  return e.eof || e.err == EPIPE || e.err == ECONNRESET ||
         e.err == ECONNABORTED || e.err == ENOTCONN || e.err == ETIMEDOUT ||
         e.err == EHOSTUNREACH || e.err == ENETDOWN || e.err == ENETRESET;
}

inline bool write_all(int fd, const void* data, std::size_t n,
                      IoError* io_err = nullptr) {
  const auto* p = static_cast<const unsigned char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (io_err != nullptr) *io_err = IoError{.err = errno};
      return false;
    }
    // A zero or short write is legal on sockets; just keep going with
    // whatever the kernel accepted.
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

inline bool read_all(int fd, void* data, std::size_t n,
                     IoError* io_err = nullptr) {
  auto* p = static_cast<unsigned char*>(data);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (io_err != nullptr) *io_err = IoError{.err = errno};
      return false;
    }
    if (r == 0) {  // EOF mid-transfer: a torn frame, not an errno
      if (io_err != nullptr) *io_err = IoError{.eof = true};
      return false;
    }
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
                        const void* payload, std::size_t len,
                        IoError* io_err = nullptr) {
  if (len > kMaxFramePayload) {
    char msg[96];
    std::snprintf(msg, sizeof msg,
                  "sweep worker: encoded result of %llu bytes exceeds the "
                  "4 GiB frame limit",
                  static_cast<unsigned long long>(len));
    return write_frame(fd, kFrameRuntimeError, id, msg, std::strlen(msg),
                       io_err);
  }
  ByteWriter header;
  header(FrameHeader{kind, id, static_cast<std::uint32_t>(len)});
  if (!write_all(fd, header.bytes().data(), header.bytes().size(), io_err)) {
    return false;
  }
  return len == 0 || write_all(fd, payload, len, io_err);
}

/// Reads one frame header; false on EOF or error. io_err distinguishes a
/// clean close (EOF before any header byte — `clean_close`) from a torn
/// frame (EOF after 1..12 header bytes) and from errno failures.
inline bool read_frame_header(int fd, FrameHeader& out,
                              IoError* io_err = nullptr) {
  std::byte header[kFrameHeaderBytes];
  if (!read_all(fd, header, 1, io_err)) {
    if (io_err != nullptr && io_err->eof) io_err->clean_close = true;
    return false;
  }
  if (!read_all(fd, header + 1, sizeof header - 1, io_err)) return false;
  ByteReader r(header);
  r(out);
  return true;
}

}  // namespace sdrmpi::sweep::frame
