#include "obs/slo.hpp"

#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"

namespace aft::obs {

SloTracker::SloTracker(std::string name, SloPolicy policy)
    : name_(std::move(name)), policy_(policy) {
  if (policy_.window_ticks == 0) {
    throw std::invalid_argument("SloTracker: window_ticks must be > 0");
  }
  if (policy_.budget_permille == 0) {
    throw std::invalid_argument("SloTracker: budget_permille must be > 0");
  }
}

void SloTracker::record(std::uint64_t t, std::uint64_t latency_ticks) {
  const std::uint64_t w = t / policy_.window_ticks;
  if (!window_open_) {
    // Reopening after a flush(): windows that passed in between saw no
    // traffic, so a breached tracker must recover over them exactly as it
    // would across an in-stream gap (pre-fix, this leg skipped the gap
    // collapse entirely and a breached-then-flushed tracker stayed
    // breached across an arbitrarily long idle stretch).
    if (w > window_index_ && breached_) {
      apply(0);
      if (!breached_) publish(0, 0, 0);
    }
    window_open_ = true;
    window_index_ = w;
  } else if (w > window_index_) {
    close_windows(w);
    window_index_ = w;
  }
  ++total_;
  if (latency_ticks > policy_.threshold_ticks) ++over_;
}

void SloTracker::flush(std::uint64_t t) {
  if (!window_open_) return;
  const std::uint64_t w = t / policy_.window_ticks;
  close_windows(w > window_index_ ? w : window_index_ + 1);
  window_open_ = false;
  window_index_ = w;
}

void SloTracker::close_windows(std::uint64_t w) {
  // burn = (over/total) / (budget/1000), carried in permille so the
  // comparison is a pure integer one.  over <= total <= window sample
  // count keeps over * 1'000'000 far from overflow for sim-scale windows.
  const std::uint64_t burn_permille =
      total_ == 0 ? 0
                  : over_ * 1000000u / (total_ * policy_.budget_permille);
  const std::uint64_t over = over_;
  const std::uint64_t total = total_;
  over_ = 0;
  total_ = 0;
  const bool was_breached = breached_;
  apply(burn_permille);
  std::uint64_t last_burn = burn_permille;
  std::uint64_t last_over = over;
  std::uint64_t last_total = total;
  // Windows between the accumulated one and `w` saw no traffic: they burn
  // nothing, and zero-burn windows can only move the hysteresis toward
  // recovery, so one idle verdict covers them all.
  if (w > window_index_ + 1 && breached_) {
    apply(0);
    last_burn = 0;
    last_over = 0;
    last_total = 0;
  }
  // Net transition only: a breach that both fired and cleared inside this
  // batch was never the tracker's state while anyone could observe it, and
  // publishing the pair here — at traffic resumption, arbitrarily after the
  // fact — would raise redundancy against an overload that already ended
  // (the pre-fix bug this module's PR regression-tests).
  if (breached_ != was_breached) publish(last_burn, last_over, last_total);
}

void SloTracker::apply(std::uint64_t burn_permille) noexcept {
  if (!breached_ && burn_permille >= policy_.burn_alert_permille) {
    breached_ = true;
  } else if (breached_ && burn_permille < policy_.burn_clear_permille) {
    breached_ = false;
  }
}

void SloTracker::publish(std::uint64_t burn_permille, std::uint64_t over,
                         std::uint64_t total) {
  const bool breach = breached_;
  if (breach) {
    ++breaches_;
    AFT_METRIC_ADD("obs.slo.breaches", 1);
  } else {
    ++recoveries_;
    AFT_METRIC_ADD("obs.slo.recoveries", 1);
  }
  // The transition record is a chain link: it inherits the current cause
  // (the slow RPC completion this record() call sits inside), and becomes
  // the cause of whatever the publisher triggers — so a switchboard raise
  // walks back through the breach to the slow wire.
  const CauseScope cause("obs.slo", breach ? Name("breach") : Name("recover"),
                         {{"slo", name_},
                          {"window", window_index_},
                          {"burn_permille", burn_permille},
                          {"over", over},
                          {"total", total}});
  if (publisher_) publisher_(breach);
}

}  // namespace aft::obs
