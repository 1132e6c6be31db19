// Umbrella header: the full public surface of the aft library.
//
// Fine-grained includes are preferred inside the library itself; this
// header exists for downstream applications that want everything at once
// (all of it together is still a small dependency).
#pragma once

// util — deterministic RNG, statistics, rendering helpers
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/series.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

// sim — deterministic discrete-event kernel
#include "sim/simulator.hpp"

// hw — simulated platform: SPD introspection, fault models, injectors
#include "hw/fault_injector.hpp"
#include "hw/machine.hpp"
#include "hw/memory_chip.hpp"
#include "hw/spd.hpp"

// mem — Sect. 3.1: failure semantics, methods M0..M4, selector, adaptation
#include "mem/access_method.hpp"
#include "mem/adaptive.hpp"
#include "mem/ecc.hpp"
#include "mem/failure_semantics.hpp"
#include "mem/knowledge_base.hpp"
#include "mem/method_ecc.hpp"
#include "mem/method_mirror.hpp"
#include "mem/method_raw.hpp"
#include "mem/method_remap.hpp"
#include "mem/method_tmr.hpp"
#include "mem/scrubber.hpp"
#include "mem/selector.hpp"

// core — the assumption framework
#include "core/assumption.hpp"
#include "core/binding.hpp"
#include "core/boulding.hpp"
#include "core/context.hpp"
#include "core/executive.hpp"
#include "core/gestalt.hpp"
#include "core/guard.hpp"
#include "core/monitor.hpp"
#include "core/registry.hpp"
#include "core/syndrome.hpp"
#include "core/variable.hpp"
#include "core/web.hpp"

// detect — count-and-threshold oracles, watchdogs, heartbeats
#include "detect/alpha_count.hpp"
#include "detect/discriminator.hpp"
#include "detect/dual_threshold.hpp"
#include "detect/heartbeat.hpp"
#include "detect/watchdog.hpp"

// arch — ACCADA-like reflective component middleware
#include "arch/component.hpp"
#include "arch/dag.hpp"
#include "arch/event_bus.hpp"
#include "arch/middleware.hpp"
#include "arch/stateful.hpp"

// contract / manifest / env — Sect. 4 technologies, operationalized
#include "contract/clause.hpp"
#include "contract/contracted_component.hpp"
#include "contract/service_contract.hpp"
#include "env/platform.hpp"
#include "manifest/deployment.hpp"
#include "manifest/manifest.hpp"

// ftpat — fault-tolerance design patterns + the Sect. 3.2 switcher
#include "ftpat/checkpoint.hpp"
#include "ftpat/nversion.hpp"
#include "ftpat/pattern_switcher.hpp"
#include "ftpat/reconfiguration.hpp"
#include "ftpat/recovery_blocks.hpp"
#include "ftpat/redoing.hpp"
#include "ftpat/time_redundancy.hpp"

// vote / autonomic — Sect. 3.3: restoring organ + reflective switchboards
#include "autonomic/estimator.hpp"
#include "autonomic/experiment.hpp"
#include "autonomic/organ.hpp"
#include "autonomic/secure_message.hpp"
#include "autonomic/service.hpp"
#include "autonomic/switchboard.hpp"
#include "vote/dtof.hpp"
#include "vote/voter.hpp"
#include "vote/voting_farm.hpp"
#include "vote/weighted.hpp"

// tune — the FFTW/mplayer comparison case (performance-directed binding)
#include "tune/fft.hpp"
