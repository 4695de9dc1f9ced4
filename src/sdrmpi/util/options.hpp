// Minimal command-line option parser for benchmark and example binaries.
//
// Supported forms: --key=value, --key value, --flag (boolean true).
// Unknown positional arguments are collected in positional().
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace sdrmpi::util {

class Options {
 public:
  Options() = default;
  Options(int argc, const char* const* argv);

  /// True if --key was present (with or without a value).
  [[nodiscard]] bool has(const std::string& key) const;

  // The typed getters return `fallback` when --key is absent or has no
  // value, and throw std::invalid_argument naming --key=value when the
  // value is not wholly one of their type ("8x", "eight", "ture").

  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  /// --key, --key=true/1/yes/on → true; --key=false/0/no/off → false.
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// Comma-separated list of integers, e.g. --sizes=1,8,64; an empty
  /// element ("1,,8") is malformed.
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      const std::string& key, const std::vector<std::int64_t>& fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Program name (argv[0]) if constructed from argc/argv.
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

  /// For tests: inject a key/value pair.
  void set(const std::string& key, const std::string& value);

  /// Validates that every --flag on the command line is one of `accepted`;
  /// throws std::invalid_argument naming the offending flag and listing
  /// the accepted keys otherwise. Binaries call this once, right after
  /// declaring their full flag set — a typo'd --pol=8 used to be silently
  /// ignored and the bench ran on the wrong pool size.
  void expect(const std::vector<std::string>& accepted) const;

 private:
  [[nodiscard]] std::optional<std::string> raw(const std::string& key) const;

  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace sdrmpi::util
