#include "trace.hpp"

#include <fstream>
#include <iomanip>
#include <stdexcept>
#include <string_view>

#include "host.hpp"

namespace perfbench {

int Tracer::begin(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_;
  s.rep = rep_;
  s.start = now_s();
  spans_.push_back(s);
  open_ = static_cast<int>(spans_.size()) - 1;
  return open_;
}

void Tracer::end(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = now_s();
  open_ = s.parent;
}

std::map<std::string, double> Tracer::self_seconds(int rep) const {
  std::vector<double> children(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.rep != rep) continue;
    bool under_oracle = false;
    for (int p = s.parent; p >= 0 && !under_oracle;
         p = spans_[static_cast<std::size_t>(p)].parent) {
      under_oracle = std::string_view(spans_[static_cast<std::size_t>(p)].name)
                         .starts_with("oracle.");
    }
    const std::string key =
        under_oracle ? std::string("oracle:") + s.name : std::string(s.name);
    out[key] += (s.end - s.start) - children[i];
  }
  return out;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write span file " + path);
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  os << std::fixed << std::setprecision(3)
     << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string_view name(s.name);
    os << "  {\"name\": \"" << name << "\", \"cat\": \""
       << name.substr(0, name.find('.')) << "\", \"ph\": \"X\", \"pid\": 1, "
       << "\"tid\": 1, \"ts\": " << (s.start - t0) * 1e6
       << ", \"dur\": " << (s.end - s.start) * 1e6 << ", \"args\": {\"id\": "
       << i << ", \"parent\": " << s.parent << ", \"rep\": " << s.rep << "}}"
       << (i + 1 < spans_.size() ? "," : "") << "\n";
  }
  os << "]}\n";
}

}  // namespace perfbench
