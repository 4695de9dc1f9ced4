// In-memory span recorder for the traced benchmark run.
//
// A span wraps one call sdrbench makes into a public sdrmpi function: its
// name, start, end, the span open when it began (its parent) and the
// repetition it belongs to. Spans stay in memory and are written once, as
// Chrome trace-event JSON (viewable in Perfetto), when the run ends. A
// layer's self time is its span minus the part its child spans cover. With
// tracing off, span() is one branch around the call.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    double start = 0.0;
    double end = 0.0;
    int parent = -1;  ///< index into spans(); -1 for a root span
    int rep = -1;     ///< benchmark repetition that recorded it
  };

  void set_enabled(bool on) { enabled_ = on; }
  void set_rep(int rep) { rep_ = rep; }

  /// Runs `fn`, recording a span named `name` around it when enabled.
  template <class Fn>
  decltype(auto) span(const char* name, Fn&& fn) {
    if (!enabled_) return fn();
    Scope scope(*this, name);
    return fn();
  }

  /// Self seconds per span name, summed over repetition `rep`. Spans with
  /// an "oracle." ancestor are keyed "oracle:<name>": calls a correctness
  /// check makes stay apart from the same layer's calls on the measured path.
  [[nodiscard]] std::map<std::string, double> self_seconds(int rep) const;

  /// Writes every span as a Chrome trace-event ("ph": "X") JSON file.
  void write_chrome_trace(const std::string& path) const;

 private:
  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_;
  };

  int begin(const char* name);
  void end(int id);

  bool enabled_ = false;
  int rep_ = -1;
  int open_ = -1;
  std::vector<Span> spans_;
};

}  // namespace perfbench
