#include "sdrmpi/util/options.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

namespace sdrmpi::util {
namespace {

bool looks_like_option(const std::string& s) {
  return s.size() > 2 && s[0] == '-' && s[1] == '-';
}

[[noreturn]] void malformed(const std::string& key, const std::string& value,
                            const char* want) {
  throw std::invalid_argument("option --" + key + "=" + value + ": not " +
                              want);
}

/// Parses all of `token` as a T; throws naming --key=value otherwise.
template <class T>
T parse_whole(const std::string& key, const std::string& value,
              const std::string& token, const char* want) {
  T out{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  if (ec != std::errc{} || ptr != end) malformed(key, value, want);
  return out;
}

}  // namespace

Options::Options(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!looks_like_option(arg)) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--key value" form: consume the next token if it is not an option.
    if (i + 1 < argc && !looks_like_option(argv[i + 1])) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "";  // bare flag
    }
  }
}

bool Options::has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::optional<std::string> Options::raw(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Options::get_string(const std::string& key,
                                const std::string& fallback) const {
  auto v = raw(key);
  return v.has_value() && !v->empty() ? *v : fallback;
}

std::int64_t Options::get_int(const std::string& key,
                              std::int64_t fallback) const {
  auto v = raw(key);
  if (!v.has_value() || v->empty()) return fallback;
  return parse_whole<std::int64_t>(key, *v, *v, "an integer");
}

double Options::get_double(const std::string& key, double fallback) const {
  auto v = raw(key);
  if (!v.has_value() || v->empty()) return fallback;
  return parse_whole<double>(key, *v, *v, "a number");
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  auto v = raw(key);
  if (!v.has_value()) return fallback;
  if (v->empty() || *v == "true" || *v == "1" || *v == "yes" || *v == "on")
    return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  malformed(key, *v, "a boolean (true/1/yes/on or false/0/no/off)");
}

std::vector<std::int64_t> Options::get_int_list(
    const std::string& key, const std::vector<std::int64_t>& fallback) const {
  auto v = raw(key);
  if (!v.has_value() || v->empty()) return fallback;
  std::vector<std::int64_t> out;
  std::size_t start = 0;
  while (start <= v->size()) {
    const auto comma = v->find(',', start);
    const std::string token = v->substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    out.push_back(
        parse_whole<std::int64_t>(key, *v, token, "a list of integers"));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

void Options::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

void Options::expect(const std::vector<std::string>& accepted) const {
  for (const auto& [key, value] : values_) {
    if (std::find(accepted.begin(), accepted.end(), key) != accepted.end()) {
      continue;
    }
    std::string msg = "unknown option --" + key + " (accepted:";
    for (const auto& a : accepted) msg += " --" + a;
    msg += ")";
    throw std::invalid_argument(msg);
  }
}

}  // namespace sdrmpi::util
