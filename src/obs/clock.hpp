// The obs logical clock: the one time every observability record is
// stamped with.  Trace records, metrics timeline windows, the dispatch-time
// reads of instrumented code (vote.farm.round_gap, mem.scrub.sweep_ticks)
// and flight-recorder notes all read it; the sim kernel stores it once per
// dispatched event (AFT_OBS_SET_TIME), benches without a kernel set it from
// their step counter, and ScopedObs starts it at 0 for the scope it opens.
//
// Like the rest of the obs state it is thread_local, and constant-
// initialised so a read is one TLS load with no init guard.  It exists in
// -DAFT_OBS=OFF builds too, where only the AFT_OBS_SET_TIME sites fold
// away: a TraceSink used directly (tests, tools) still stamps its records.
#pragma once

#include <cstdint>

namespace aft::obs {

namespace detail {
inline constinit thread_local std::uint64_t t_obs_time = 0;
}  // namespace detail

[[nodiscard]] inline std::uint64_t obs_time() noexcept {
  return detail::t_obs_time;
}
inline void set_obs_time(std::uint64_t t) noexcept { detail::t_obs_time = t; }

}  // namespace aft::obs
