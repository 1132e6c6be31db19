#include "obs/obs.hpp"

#if !defined(AFT_OBS_DISABLED)

namespace aft::obs {

void set_obs_time(std::uint64_t t) noexcept {
  if (TraceSink* const sink = trace(); sink != nullptr) sink->set_time(t);
  if (MetricsRegistry* const reg = metrics(); reg != nullptr) reg->set_time(t);
  if (FlightRecorder* recorder = flight(); recorder != nullptr) {
    recorder->set_time(t);
  }
}

}  // namespace aft::obs

#endif  // !AFT_OBS_DISABLED
