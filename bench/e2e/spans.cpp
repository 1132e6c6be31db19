#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "e2e.hpp"

namespace aft::e2e {

const char* span_name(Span span) noexcept {
  switch (span) {
    case Span::kMemRead: return "mem.read";
    case Span::kMemWrite: return "mem.write";
    case Span::kInject: return "hw.inject";
    case Span::kPublish: return "arch.bus.publish";
    case Span::kFlush: return "obs.flush";
    case Span::kCount: break;
  }
  return "?";
}

Spans::Spans() : origin_(Clock::now()) {
  // The cost of the two timestamps around an empty span, as a median so a
  // preemption during calibration cannot skew it.
  std::vector<double> empty(4001);
  for (double& ns : empty) {
    const Clock::time_point t0 = Clock::now();
    ns = ns_between(t0, Clock::now());
  }
  std::nth_element(empty.begin(), empty.begin() + 2000, empty.end());
  timer_ns_ = empty[2000];
  raw_.reserve(kKeep);
}

void Spans::add(Span span, Clock::time_point t0, Clock::time_point t1) {
  const double dur = std::max(0.0, ns_between(t0, t1) - timer_ns_);
  ++count_[index(span)];
  total_ns_[index(span)] += dur;
  if (raw_.size() < kKeep) {
    raw_.push_back(Raw{span, rep_, ns_between(origin_, t0), dur});
  }
}

double Spans::mean_ns(Span span) const noexcept {
  const std::uint64_t n = count_[index(span)];
  return n == 0 ? 0.0 : total_ns_[index(span)] / static_cast<double>(n);
}

void Spans::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "span\trep\tstart_ns\tduration_ns\n";
  for (const Raw& r : raw_) {
    out << span_name(r.span) << '\t' << r.rep << '\t' << r.start_ns << '\t'
        << r.dur_ns << '\n';
  }
}

}  // namespace aft::e2e
