#include "core/syndrome.hpp"

#include "obs/obs.hpp"

namespace aft::core {

std::string to_string(Syndrome s) {
  switch (s) {
    case Syndrome::kHorning: return "Horning syndrome (S_H)";
    case Syndrome::kHiddenIntelligence: return "Hidden Intelligence syndrome (S_HI)";
    case Syndrome::kBoulding: return "Boulding syndrome (S_B)";
  }
  return "unknown";
}

Diagnosis diagnose_clash(const Clash& clash) {
  Diagnosis d;
  d.syndrome = Syndrome::kHorning;
  d.explanation = "assumption '" + clash.assumption_id + "' (" + clash.statement +
                  ") clashed with observed " + to_string(clash.subject) +
                  " truth: " + clash.observed;
  if (obs::TraceSink* sink = obs::trace(); sink != nullptr) {
    // Chain the diagnosis to the clash record it explains (the clash may
    // have been emitted earlier in the turn, so restore it as the cause
    // explicitly rather than relying on whatever is current).
    if (clash.trace_event != obs::kNoEvent) sink->set_cause(clash.trace_event);
    d.trace_event = sink->emit("core.syndrome", "diagnosis",
                               {{"syndrome", to_string(d.syndrome)},
                                {"assumption", clash.assumption_id}});
    if (d.trace_event != obs::kNoEvent) sink->set_cause(d.trace_event);
  } else {
    obs::flight_note("core.syndrome", "diagnosis");
  }
  return d;
}

bool audit_hidden_intelligence(const AssumptionBase& assumption) {
  const Provenance& p = assumption.provenance();
  return p.origin.empty() || p.rationale.empty();
}

Diagnosis diagnose_boulding(BouldingCategory system, BouldingCategory required) {
  Diagnosis d;
  d.syndrome = Syndrome::kBoulding;
  if (boulding_clash(system, required)) {
    d.explanation = "system category " + to_string(system) +
                    " is below the environment's required category " +
                    to_string(required) + ": 'sitting duck' to change";
  } else {
    d.explanation = "no Boulding clash: " + to_string(system) +
                    " meets required " + to_string(required);
  }
  return d;
}

}  // namespace aft::core
