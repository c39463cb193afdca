// Shared pieces of the served-traffic benchmark: clocks, process usage, the
// in-memory span log of the traced run, and the metric sink.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Process-wide CPU time and context switches (all threads).
struct Usage {
  double cpu_s = 0;
  long ctx_switches = 0;  // voluntary + involuntary

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                         ru.ru_stime.tv_usec);
    u.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
    return u;
  }
};

// Current resident set (MB), read from /proc/self/statm; 0 if unreadable.
double rss_mb();

// One timed call into a layer's public function. `parent` indexes the span
// that caused it (-1 for roots); `batch` is the fixed-size batch the call
// belongs to, shared by every span of that batch's requests.
struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint32_t batch = 0;
  std::uint16_t name = 0;  // index into SpanLog::names
  std::uint64_t dur() const { return end_ns - start_ns; }
};

// Spans are kept in memory while the traced run executes and written out
// once, at the end (write_csv), so file I/O never lands inside a span.
class SpanLog {
 public:
  std::uint16_t intern(const std::string& name) {
    for (std::size_t i = 0; i < names_.size(); ++i)
      if (names_[i] == name) return static_cast<std::uint16_t>(i);
    names_.push_back(name);
    return static_cast<std::uint16_t>(names_.size() - 1);
  }
  void reserve(std::size_t n) { spans_.reserve(n); }

  std::int32_t open(std::uint16_t name, std::uint32_t batch,
                    std::int32_t parent = -1) {
    Span s;
    s.name = name;
    s.batch = batch;
    s.parent = parent;
    s.start_ns = now_ns();
    spans_.push_back(s);
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t id) { spans_[id].end_ns = now_ns(); }
  void add(const Span& s) { spans_.push_back(s); }

  // Total duration (ns) of every span with this name.
  std::uint64_t total_ns(const std::string& name) const;
  // Total duration of spans with this name whose batch is in [lo, hi).
  std::uint64_t total_ns(const std::string& name, std::uint32_t lo,
                         std::uint32_t hi) const;
  // Sum over spans with this name of (duration - covered by child spans).
  std::uint64_t self_ns(const std::string& name) const;
  std::size_t size() const { return spans_.size(); }

  // Gzip-compressed CSV: id,name,parent,batch,start_ns,end_ns (times in ns
  // since `origin`, the process's start).
  bool write_csv_gz(const std::string& path, std::uint64_t origin) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

// RAII span.
class Scope {
 public:
  Scope(SpanLog& log, std::uint16_t name, std::uint32_t batch,
        std::int32_t parent = -1)
      : log_(log), id_(log.open(name, batch, parent)) {}
  ~Scope() { log_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int32_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::int32_t id_;
};

// name -> (value, unit), printed in the final JSON line.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

}  // namespace perfbench
