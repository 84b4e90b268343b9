// Outside-in layer trace for the MoVR benchmark.
//
// The traced driver links trace.cpp, whose __wrap_ functions sit between
// the library's modules (the linker's --wrap redirects every cross-object
// reference to a wrapped symbol; see wrapped_symbols.txt). Each wrapper
// opens a span for its layer, calls the real function and closes the span.
// The timing driver links trace_off.cpp instead: enabled() is false and
// nothing is counted. src/ is compiled the same way for both.
//
// Only calls that cross an object-file boundary can be intercepted; calls
// inside one translation unit (Scene::direct_snr -> its own helpers,
// PhasedArray::gain -> field) stay inside their caller's span. Event
// handler bodies that run from the simulator's queue without crossing a
// wrapped symbol land in the `sim` span's self time.
#pragma once

#include <cstdint>

namespace movrbench::trace {

enum Layer : int {
  kArenaInterference,  // arena::sinr_penalty_db
  kArenaLease,         // ReflectorArbiter::{acquire,renew,release}
  kArenaAdmission,     // AdmissionController::on_window
  kPhyLink,            // phy::{received_power,wideband_power,link_snr}
  kChannelOracle,      // ChannelOracle::{paths_view,query_batch}
  kChannelSolver,      // PathSolver::{solve,solve_batch}
  kCoreGainControl,    // GainController::run
  kCoreLinkManager,    // LinkManager::on_frame
  kNetTransport,       // Transport::on_frame
  kSim,                // Simulator::run_until
  kLogRecorder,        // Recorder::{record,record_at}
  kLayerCount,
};

/// Metric-name prefix of each layer, indexed by Layer.
inline constexpr const char* kLayerNames[kLayerCount] = {
    "arena.interference", "arena.lease",        "arena.admission",
    "phy.link",           "channel.oracle",     "channel.solver",
    "core.gain_control",  "core.link_manager",  "net.transport",
    "sim",                "log.recorder",
};

struct LayerTotals {
  std::uint64_t calls{0};
  /// Span time minus the time of spans opened inside it.
  double self_s{0.0};
  /// Span time including nested spans (re-entry into the same layer is
  /// counted once).
  double inclusive_s{0.0};
};

struct Totals {
  LayerTotals layer[kLayerCount];
  /// rf::PhasedArray::field calls from other modules (counted, not timed).
  std::uint64_t rf_field_calls{0};
  /// phy.link calls made while an arena.interference span was open.
  std::uint64_t interference_link_evals{0};
  std::uint64_t lease_acquires{0};
  std::uint64_t lease_denials{0};
  /// Endpoint pairs asked of the oracle (paths_view = 1, query_batch = its
  /// batch size) and the pairs it had to hand to the solver.
  std::uint64_t oracle_pairs{0};
  std::uint64_t oracle_miss_pairs{0};
  /// Endpoint pairs the solver was asked for (solve = 1, solve_batch = its
  /// batch size).
  std::uint64_t solver_pairs{0};
};

/// True in the traced driver.
bool enabled();
/// Zeroes every counter, on every thread.
void reset();
/// Counters merged across the calling thread and every thread that ended.
Totals collect();

}  // namespace movrbench::trace
