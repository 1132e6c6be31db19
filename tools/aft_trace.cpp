// aft_trace: post-mortem analysis of obs::TraceSink traces.  Trace
// arguments may be JSONL or "AFTB" binary files (the format is sniffed),
// and the two decode identically — `diff` across formats is clean.
//
//   aft_trace why <seq> <trace>     causal chain ending at <seq>
//   aft_trace summary <trace>       event census + chain counts
//   aft_trace latency <trace>       inject->detect->repair latencies
//   aft_trace slo <trace>           rpc call latency quantiles + worst chain
//   aft_trace timeline <trace> [w]  per-window event census (w ticks/window)
//   aft_trace diff <a> <b>          structural diff (exit 1 on diff)
//   aft_trace chrome <trace> [out]  Chrome trace-event JSON export
//
// "-" reads the trace from stdin.  Exit codes: 0 success, 1 semantic
// difference / unknown seq, 2 usage or parse error.

#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "trace_analysis.hpp"
#include "trace_reader.hpp"

namespace {

int usage(std::ostream& out, int code) {
  out << "usage: aft_trace <command> ...  (traces may be jsonl or AFTB bin)\n"
         "  why <seq> <trace>          causal chain from root to <seq>\n"
         "  summary <trace>            event census and chain counts\n"
         "  latency <trace>            inject->detect/repair latency stats\n"
         "  slo <trace>                rpc call latency quantiles, worst chain\n"
         "  timeline <trace> [window]  per-window event census\n"
         "  diff <a> <b>               compare two traces (exit 1 if differ)\n"
         "  chrome <trace> [out.json]  export for chrome://tracing\n";
  return code;
}

std::optional<aft::tools::Trace> load_or_complain(const std::string& path) {
  std::string error;
  std::optional<aft::tools::Trace> trace = aft::tools::load_trace(path, error);
  if (!trace) std::cerr << "aft_trace: " << path << ": " << error << "\n";
  return trace;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(std::cerr, 2);
  const std::string_view cmd = argv[1];

  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    return usage(std::cout, 0);
  }

  if (cmd == "why") {
    if (argc != 4) return usage(std::cerr, 2);
    const std::string_view seq_arg = argv[2];
    std::uint64_t seq = 0;
    if (!aft::tools::parse_int(seq_arg, seq)) {
      std::cerr << "aft_trace: '" << seq_arg << "' is not a sequence number\n";
      return 2;
    }
    const auto trace = load_or_complain(argv[3]);
    if (!trace) return 2;
    if (trace->by_seq(seq) == nullptr) {
      std::cerr << "aft_trace: no event with seq " << seq << "\n";
      return 1;
    }
    std::cout << aft::tools::render_why(*trace, seq);
    return 0;
  }

  if (cmd == "summary" || cmd == "latency" || cmd == "slo") {
    if (argc != 3) return usage(std::cerr, 2);
    const auto trace = load_or_complain(argv[2]);
    if (!trace) return 2;
    std::cout << (cmd == "summary"   ? aft::tools::render_summary(*trace)
                  : cmd == "latency" ? aft::tools::render_latency(*trace)
                                     : aft::tools::render_slo(*trace));
    return 0;
  }

  if (cmd == "timeline") {
    if (argc != 3 && argc != 4) return usage(std::cerr, 2);
    std::uint64_t window = 0;
    if (argc == 4) {
      const std::string_view w_arg = argv[3];
      if (!aft::tools::parse_int(w_arg, window) || window == 0) {
        std::cerr << "aft_trace: '" << w_arg
                  << "' is not a window width in ticks\n";
        return 2;
      }
    }
    const auto trace = load_or_complain(argv[2]);
    if (!trace) return 2;
    std::cout << aft::tools::render_timeline(*trace, window);
    return 0;
  }

  if (cmd == "diff") {
    if (argc != 4) return usage(std::cerr, 2);
    const auto a = load_or_complain(argv[2]);
    if (!a) return 2;
    const auto b = load_or_complain(argv[3]);
    if (!b) return 2;
    const aft::tools::DiffResult result =
        aft::tools::diff_traces(*a, *b, argv[2], argv[3]);
    std::cout << result.report;
    return result.identical ? 0 : 1;
  }

  if (cmd == "chrome") {
    if (argc != 3 && argc != 4) return usage(std::cerr, 2);
    const auto trace = load_or_complain(argv[2]);
    if (!trace) return 2;
    const std::string json = aft::tools::to_chrome_trace(*trace);
    if (argc == 4) {
      std::ofstream out(argv[3]);
      if (!out) {
        std::cerr << "aft_trace: cannot open '" << argv[3] << "'\n";
        return 2;
      }
      out << json;
      std::cerr << "aft_trace: wrote " << trace->events.size()
                << " events -> " << argv[3] << "\n";
    } else {
      std::cout << json;
    }
    return 0;
  }

  std::cerr << "aft_trace: unknown command '" << cmd << "'\n";
  return usage(std::cerr, 2);
}
