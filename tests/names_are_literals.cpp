// Negative-compile check: obs names are literals by type (obs/name.hpp).
//
// ctest compiles this file once per AFT_NAME_CASE with -fsyntax-only.  Case
// 0 is the control: every site with literal names, which must compile.
// Every other case passes a runtime string where obs takes an obs::Name —
// component, event, field key or metric name — and must not compile.
#include <string>
#include <string_view>

#include "obs/obs.hpp"

namespace obs = aft::obs;

void sites(obs::TraceSink& sink, obs::MetricsRegistry& reg,
           const std::string& runtime) {
  [[maybe_unused]] const std::string_view view = runtime;
  [[maybe_unused]] const char* const pointer = runtime.c_str();
  obs::MetricsRegistry::CounterSite site;
#if AFT_NAME_CASE == 0
  sink.emit("c", "e", {{"k", runtime}});
  AFT_TRACE("c", true ? obs::Name("e") : obs::Name("f"), {{"k", view}});
  const obs::CauseScope scope("c", "e", {{"k", 1}});
  const obs::SpanGuard span("c", runtime);  // a span's name is a value
  obs::flight_note("c", "e");
  AFT_METRIC_ADD("m", 1);
  AFT_METRIC_OBSERVE("m", 1.0);
  AFT_METRIC_GAUGE("m", 1.0);
  reg.add(site, "m", 1);
  reg.add(runtime, 1);  // the by-name API takes any string
#elif AFT_NAME_CASE == 1
  sink.emit(runtime, "e");
#elif AFT_NAME_CASE == 2
  sink.emit("c", runtime);
#elif AFT_NAME_CASE == 3
  sink.emit("c", "e", {{runtime, 1}});
#elif AFT_NAME_CASE == 4
  AFT_TRACE(runtime, "e");
#elif AFT_NAME_CASE == 5
  const obs::CauseScope scope("c", runtime);
#elif AFT_NAME_CASE == 6
  const obs::SpanGuard span(runtime, "name");
#elif AFT_NAME_CASE == 7
  obs::flight_note(runtime, "e");
#elif AFT_NAME_CASE == 8
  AFT_METRIC_ADD(runtime, 1);
#elif AFT_NAME_CASE == 9
  AFT_METRIC_OBSERVE(runtime, 1.0);
#elif AFT_NAME_CASE == 10
  AFT_METRIC_GAUGE(runtime, 1.0);
#elif AFT_NAME_CASE == 11
  reg.add(site, runtime, 1);
#elif AFT_NAME_CASE == 12
  sink.emit(view, "e");  // a string_view is not a literal either
#elif AFT_NAME_CASE == 13
  sink.emit(pointer, "e");  // nor is a pointer
#else
#error "unknown AFT_NAME_CASE"
#endif
}
