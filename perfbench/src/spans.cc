#include "spans.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <utility>

namespace perfbench {

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNow() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

int Tracer::Begin(const std::string& name, bool with_cpu) {
  const double cpu = with_cpu ? CpuNow() : 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.with_cpu = with_cpu;
  s.cpu_start = cpu;
  s.start = WallNow();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int id) {
  const double now = WallNow();
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = now;
  if (s.with_cpu) s.cpu_end = CpuNow();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::Add(const std::string& name, double start, double end) {
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start = start;
  s.end = end;
  spans_.push_back(std::move(s));
}

double Tracer::SelfTime(int id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  std::vector<std::pair<double, double>> kids;
  for (const Span& c : spans_) {
    if (c.parent == id) {
      kids.emplace_back(std::max(c.start, s.start), std::min(c.end, s.end));
    }
  }
  std::sort(kids.begin(), kids.end());
  double covered = 0.0;
  double reach = s.start;
  for (const auto& [a, b] : kids) {
    const double from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return s.wall() - covered;
}

double Tracer::TotalWall(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.wall();
  }
  return total;
}

double Tracer::TotalCpu(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.cpu();
  }
  return total;
}

double Tracer::TotalSelf(const std::string& name) const {
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) total += SelfTime(static_cast<int>(i));
  }
  return total;
}

const Span* Tracer::Find(const std::string& name) const {
  for (const Span& s : spans_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

void Tracer::WriteTraceEvents(std::ostream& out, int pid, bool& first) const {
  if (spans_.empty()) return;
  const double origin = spans_.front().start;
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"id\": %zu, \"parent\": %d, \"self_s\": %.9f}}",
                  first ? "" : ",\n", s.name.c_str(), pid,
                  (s.start - origin) * 1e6, s.wall() * 1e6, i, s.parent,
                  SelfTime(static_cast<int>(i)));
    out << buf;
    first = false;
  }
}

}  // namespace perfbench
