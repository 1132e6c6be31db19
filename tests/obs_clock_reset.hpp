// Starts every test of the including binary on a fresh obs clock.
//
// The obs clock (obs/clock.hpp) is thread_local, so within one test binary
// a test that moves it leaves it moved for the next.  A test that builds a
// bare TraceSink and emits without setting the clock expects t=0, as
// under its own process (ctest runs each test alone); this listener gives
// it t=0 when the whole binary runs in one process too.
#pragma once

#include <gtest/gtest.h>

#include "obs/clock.hpp"

namespace aft_test {

class ObsClockReset : public ::testing::EmptyTestEventListener {
  void OnTestStart(const ::testing::TestInfo& /*info*/) override {
    aft::obs::set_obs_time(0);
  }
};

inline const bool kObsClockResetInstalled = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(new ObsClockReset);
  return true;
}();

}  // namespace aft_test
