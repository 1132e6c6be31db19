#include "core/assumption.hpp"

#include "obs/obs.hpp"

namespace aft::core {

std::string to_string(Subject s) {
  switch (s) {
    case Subject::kHardware: return "hardware";
    case Subject::kThirdPartySoftware: return "third-party-software";
    case Subject::kExecutionEnvironment: return "execution-environment";
    case Subject::kPhysicalEnvironment: return "physical-environment";
  }
  return "unknown";
}

const char* to_string(AssumptionState s) noexcept {
  switch (s) {
    case AssumptionState::kUnverified: return "unverified";
    case AssumptionState::kHolds: return "holds";
    case AssumptionState::kViolated: return "violated";
  }
  return "unknown";
}

AssumptionBase::AssumptionBase(std::string id, std::string statement,
                               Subject subject, Provenance provenance)
    : id_(std::move(id)),
      statement_(std::move(statement)),
      subject_(subject),
      provenance_(std::move(provenance)) {}

std::optional<Clash> AssumptionBase::verify(const Context& ctx) {
  ++verifications_;
  const Outcome outcome = evaluate(ctx);
  state_ = outcome.state;
  if (state_ != AssumptionState::kViolated) return std::nullopt;
  Clash clash{.assumption_id = id_,
              .statement = statement_,
              .observed = outcome.observed,
              .subject = subject_,
              .context_revision = ctx.revision()};
  AFT_METRIC_ADD("core.clashes", 1);
  if (obs::TraceSink* sink = obs::trace(); sink != nullptr) {
    // The clash record becomes the current cause: treatment set in motion
    // by this clash (diagnosis, reconfiguration, rejuvenation) chains to it.
    clash.trace_event =
        sink->emit("core.assumption", "clash",
                   {{"id", id_},
                    {"observed", outcome.observed},
                    {"subject", to_string(subject_)},
                    {"revision", ctx.revision()}});
    if (clash.trace_event != obs::kNoEvent) sink->set_cause(clash.trace_event);
  } else {
    obs::flight_note("core.assumption", "clash");
  }
  // Black-box trigger: a clash is exactly the incident the recorder exists
  // for — preserve the run-up before anything else reacts to it.
  obs::flight_dump("clash");
  return clash;
}

}  // namespace aft::core
