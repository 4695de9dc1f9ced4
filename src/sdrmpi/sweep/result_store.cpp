#include "sdrmpi/sweep/result_store.hpp"

#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "sdrmpi/sweep/codec.hpp"
#include "sdrmpi/sweep/result_codec.hpp"
#include "sdrmpi/util/hash.hpp"

namespace sdrmpi::sweep {
namespace {

constexpr std::uint32_t kStoreMagic = 0x53445253;  // "SDRS"
constexpr std::uint32_t kStoreVersion = 1;

// File: magic, version, then records of digest, payload length, payload
// fnv1a, payload bytes, all coded by codec.hpp. The checksum turns a torn
// tail append (process killed mid-write) into a detectable bad record
// instead of a silently wrong result.
constexpr std::size_t kStoreHeaderBytes = 8;

struct RecordHeader {
  std::uint64_t digest = 0;
  std::uint32_t length = 0;
  std::uint64_t payload_hash = 0;
};
constexpr std::size_t kRecordHeaderBytes = 20;

template <class Io>
void fields(Io& io, RecordHeader& h) {
  io(h.digest, h.length, h.payload_hash);
}

void write_bytes(std::FILE* f, std::span<const std::byte> bytes) {
  if (!bytes.empty() &&
      std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    throw std::runtime_error("result store: short write");
  }
}

/// Reads `N` bytes and decodes them into `vs`; false on a short read.
template <std::size_t N, class... Ts>
bool read_fields(std::FILE* f, Ts&... vs) {
  std::byte buf[N];
  if (std::fread(buf, 1, N, f) != N) return false;
  ByteReader r(buf);
  r(vs...);
  return true;
}

// Exclusive inter-process (and inter-handle) advisory lock on the store
// file. Two sweeps appending to one --cache path would interleave their
// record bytes and corrupt the log, so a busy store is an error, not a
// wait: a sweep should fail fast rather than block on another sweep of
// unknown length. flock() locks the open file description, so two
// ResultStore instances in ONE process conflict too (the regression test
// relies on this). The lock lives as long as the FILE* and is released by
// fclose.
void lock_store_file(std::FILE*& f, const std::string& path) {
  if (::flock(::fileno(f), LOCK_EX | LOCK_NB) != 0) {
    const int err = errno;
    std::fclose(f);
    f = nullptr;
    if (err == EWOULDBLOCK || err == EAGAIN) {
      throw std::runtime_error(
          "result store: '" + path +
          "' is busy (locked by another sweep); wait for it to finish or "
          "use a different --cache path");
    }
    throw std::runtime_error("result store: cannot lock '" + path +
                             "': " + std::strerror(err));
  }
}

}  // namespace

ResultStore::ResultStore() = default;

ResultStore::ResultStore(const std::string& path) : path_(path) {
  if (path_.empty()) return;
  // "a+b": reads scan from wherever we seek, writes always append —
  // exactly the replay-then-extend lifecycle (repair truncation below
  // reopens in "r+b" when a torn tail must be cut).
  file_ = std::fopen(path_.c_str(), "a+b");
  if (file_ == nullptr) {
    throw std::runtime_error("result store: cannot open '" + path_ +
                             "': " + std::strerror(errno));
  }
  lock_store_file(file_, path_);
  load_and_repair();
}

ResultStore::~ResultStore() {
  if (file_ != nullptr) std::fclose(file_);
}

void ResultStore::load_and_repair() {
  std::fseek(file_, 0, SEEK_END);
  const long file_size = std::ftell(file_);
  std::fseek(file_, 0, SEEK_SET);

  if (file_size == 0) {
    ByteWriter w;
    w(kStoreMagic, kStoreVersion);
    write_bytes(file_, w.bytes());
    std::fflush(file_);
    return;
  }

  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  if (!read_fields<kStoreHeaderBytes>(file_, magic, version) ||
      magic != kStoreMagic) {
    throw std::runtime_error("result store: '" + path_ +
                             "' is not a sweep result store");
  }
  if (version != kStoreVersion) {
    throw std::runtime_error(
        "result store: '" + path_ + "' has format version " +
        std::to_string(version) + ", expected " +
        std::to_string(kStoreVersion) + " (delete the stale cache)");
  }

  long good_end = std::ftell(file_);
  for (;;) {
    RecordHeader h;
    if (!read_fields<kRecordHeaderBytes>(file_, h)) {
      break;  // clean EOF or torn header
    }
    if (h.length > file_size - std::ftell(file_)) {
      break;  // torn payload; do not allocate what the length claims
    }
    std::vector<std::byte> payload(h.length);
    if (h.length > 0 &&
        std::fread(payload.data(), 1, h.length, file_) != h.length) {
      break;  // torn payload
    }
    if (util::fnv1a(payload) != h.payload_hash) break;  // corrupt payload
    try {
      core::RunResult result = decode_result(payload);
      index_.insert_or_assign(h.digest, std::move(result));
    } catch (const CodecError&) {
      break;
    }
    good_end = std::ftell(file_);
    ++loaded_;
  }

  if (good_end < file_size) {
    // Cut the torn tail so future appends start on a record boundary.
    std::fclose(file_);
    file_ = nullptr;
    if (::truncate(path_.c_str(), good_end) != 0) {
      throw std::runtime_error("result store: cannot repair '" + path_ +
                               "': " + std::strerror(errno));
    }
    file_ = std::fopen(path_.c_str(), "a+b");
    if (file_ == nullptr) {
      throw std::runtime_error("result store: cannot reopen '" + path_ +
                               "': " + std::strerror(errno));
    }
    // The close above dropped the advisory lock; re-take it on the fresh
    // descriptor before appending anything past the repaired tail.
    lock_store_file(file_, path_);
  }
  std::fseek(file_, 0, SEEK_END);
}

std::optional<core::RunResult> ResultStore::lookup(
    std::uint64_t digest) const {
  auto it = index_.find(digest);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

void ResultStore::put(std::uint64_t digest, const core::RunResult& result) {
  if (index_.count(digest) > 0) return;
  if (file_ != nullptr) {
    const auto payload = encode_result(result);
    ByteWriter w;
    w(RecordHeader{digest, static_cast<std::uint32_t>(payload.size()),
                   util::fnv1a(payload)});
    write_bytes(file_, w.bytes());
    write_bytes(file_, payload);
    std::fflush(file_);
  }
  index_.emplace(digest, result);
}

}  // namespace sdrmpi::sweep
