// The abstracted memory access interface of Sect. 3.1.
//
// "First, we assume memory access is abstracted (for instance through
//  services, libraries, overloaded operators, or aspects).  This allows the
//  actual memory access methods to be specified in a second moment."
//
// Every fault-tolerant access method M0..M4 implements this interface; the
// MethodSelector binds one of them at compile/deployment time based on the
// platform's introspected failure semantics.
#pragma once

#include <cstdint>
#include <string_view>

#include "mem/failure_semantics.hpp"
#include "obs/name.hpp"

namespace aft::mem {

/// Abstract resource cost of a method, the input to the selector's cost
/// ordering ("ordered according to some cost function, e.g. proportional to
/// the expenditure of resources").
struct MethodCost {
  double storage_factor = 1.0;   ///< physical bits consumed per logical bit
  double read_cost = 1.0;        ///< abstract work units per read
  double write_cost = 1.0;       ///< abstract work units per write
  double maintenance_cost = 0.0; ///< background work units per scrub step

  /// Scalar used for ranking; weights chosen so storage dominates (spare
  /// DIMM capacity is the scarce resource on embedded platforms).
  [[nodiscard]] double total() const noexcept {
    return 4.0 * storage_factor + read_cost + write_cost + maintenance_cost;
  }
};

enum class ReadStatus : std::uint8_t {
  kOk,             ///< value returned, no error observed
  kCorrected,      ///< value returned after in-word ECC correction
  kRecovered,      ///< value returned after cross-device recovery (mirror/vote)
  kUncorrectable,  ///< data loss: error detected but not repairable
  kUnavailable,    ///< no device could complete the read
};

[[nodiscard]] const char* to_string(ReadStatus s) noexcept;

struct ReadResult {
  ReadStatus status = ReadStatus::kUnavailable;
  std::uint64_t value = 0;

  /// True when `value` is trustworthy.
  [[nodiscard]] bool ok() const noexcept {
    return status == ReadStatus::kOk || status == ReadStatus::kCorrected ||
           status == ReadStatus::kRecovered;
  }
};

/// Running counters every method maintains; benches report them.
struct MethodStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t corrected_singles = 0;  ///< ECC single-bit corrections
  std::uint64_t double_detected = 0;    ///< ECC double-bit detections
  std::uint64_t recoveries = 0;         ///< cross-device recoveries
  std::uint64_t remaps = 0;             ///< words remapped to spares
  std::uint64_t rebuilds = 0;           ///< whole-device rebuilds after SEL/SEFI
  std::uint64_t power_cycles = 0;       ///< device resets issued
  std::uint64_t data_losses = 0;        ///< reads that returned Uncorrectable/Unavailable
};

class IMemoryAccessMethod {
 public:
  virtual ~IMemoryAccessMethod() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual MethodCost cost() const noexcept = 0;

  /// Adequacy: can this method mask every fault mode `f` admits?
  [[nodiscard]] virtual bool tolerates(FailureSemantics f) const noexcept = 0;

  /// Number of logical 64-bit words this method exposes.
  [[nodiscard]] virtual std::size_t capacity_words() const noexcept = 0;

  virtual ReadResult read(std::size_t addr) = 0;

  /// Returns false when the write could not be made durable on any device.
  virtual bool write(std::size_t addr, std::uint64_t value) = 0;

  /// One increment of background maintenance (scrubbing); methods without
  /// maintenance ignore it.
  virtual void scrub_step() {}

  [[nodiscard]] virtual const MethodStats& stats() const noexcept = 0;
};

}  // namespace aft::mem
