#include <unistd.h>

#include <zlib.h>

#include <cstdio>
#include <vector>

#include "common.hpp"

namespace perfbench {

double rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (!f) return 0;
  unsigned long long size = 0, resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

namespace {
constexpr std::uint16_t kNoName = 0xffff;
}

std::uint64_t SpanLog::total_ns(const std::string& name) const {
  return total_ns(name, 0, 0xffffffffu);
}

std::uint64_t SpanLog::total_ns(const std::string& name, std::uint32_t lo,
                                std::uint32_t hi) const {
  std::uint16_t id = kNoName;
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) id = static_cast<std::uint16_t>(i);
  std::uint64_t t = 0;
  if (id == kNoName) return 0;
  for (const Span& s : spans_)
    if (s.name == id && s.batch >= lo && s.batch < hi) t += s.dur();
  return t;
}

std::uint64_t SpanLog::self_ns(const std::string& name) const {
  std::uint16_t id = kNoName;
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) id = static_cast<std::uint16_t>(i);
  if (id == kNoName) return 0;
  // Children of one span run one after another, so the part of the parent
  // they cover is the sum of their durations.
  std::vector<std::uint64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0) covered[static_cast<std::size_t>(s.parent)] += s.dur();
  std::uint64_t t = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == id) t += spans_[i].dur() - covered[i];
  return t;
}

bool SpanLog::write_csv_gz(const std::string& path,
                           std::uint64_t origin) const {
  gzFile f = gzopen(path.c_str(), "wb1");
  if (!f) return false;
  bool ok = gzputs(f, "id,name,parent,batch,start_ns,end_ns\n") > 0;
  for (std::size_t i = 0; i < spans_.size() && ok; ++i) {
    const Span& s = spans_[i];
    ok = gzprintf(f, "%zu,%s,%d,%u,%llu,%llu\n", i, names_[s.name].c_str(),
                  s.parent, s.batch,
                  static_cast<unsigned long long>(s.start_ns - origin),
                  static_cast<unsigned long long>(s.end_ns - origin)) > 0;
  }
  return gzclose(f) == Z_OK && ok;
}

}  // namespace perfbench
