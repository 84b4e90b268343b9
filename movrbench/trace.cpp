// Traced build: link-time wrappers around the library's layer boundaries.
//
// Each __wrap_X below is declared with the mangled name the linker expects
// (GCC asm labels) and calls __real_X, which --wrap binds to the original
// definition. A member function is declared as a free function taking the
// object pointer first, which is how the Itanium C++ ABI passes `this`.
// The parameter and return types are the library's own, so the calling
// convention matches by construction; a wrong name fails the link.
#include <chrono>
#include <complex>
#include <cstddef>
#include <initializer_list>
#include <mutex>
#include <span>
#include <vector>

#include <arena/admission.hpp>
#include <arena/interference.hpp>
#include <arena/lease.hpp>
#include <channel/path_batch.hpp>
#include <channel/path_solver.hpp>
#include <core/channel_oracle.hpp>
#include <core/gain_control.hpp>
#include <core/link_manager.hpp>
#include <log/recorder.hpp>
#include <net/transport.hpp>
#include <phy/link.hpp>
#include <rf/phased_array.hpp>
#include <sim/simulator.hpp>

#include "trace.hpp"

namespace movrbench::trace {

namespace {

constexpr int kMaxDepth = 64;

struct Raw {
  std::uint64_t calls[kLayerCount]{};
  std::int64_t self_ns[kLayerCount]{};
  std::int64_t inclusive_ns[kLayerCount]{};
  std::uint64_t rf_field_calls{0};
  std::uint64_t interference_link_evals{0};
  std::uint64_t lease_acquires{0};
  std::uint64_t lease_denials{0};
  std::uint64_t oracle_pairs{0};
  std::uint64_t oracle_miss_pairs{0};
  std::uint64_t solver_pairs{0};

  void add(const Raw& o) {
    for (int l = 0; l < kLayerCount; ++l) {
      calls[l] += o.calls[l];
      self_ns[l] += o.self_ns[l];
      inclusive_ns[l] += o.inclusive_ns[l];
    }
    rf_field_calls += o.rf_field_calls;
    interference_link_evals += o.interference_link_evals;
    lease_acquires += o.lease_acquires;
    lease_denials += o.lease_denials;
    oracle_pairs += o.oracle_pairs;
    oracle_miss_pairs += o.oracle_miss_pairs;
    solver_pairs += o.solver_pairs;
  }
};

// Counters of threads that have ended (parallel_for workers).
std::mutex g_mutex;
Raw g_retired;

struct ThreadState {
  struct Frame {
    int layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  Frame stack[kMaxDepth];
  int depth{0};
  int open[kLayerCount]{};
  Raw raw;

  ThreadState() = default;
  ThreadState(const ThreadState&) = delete;
  ThreadState& operator=(const ThreadState&) = delete;
  ~ThreadState() {
    const std::scoped_lock lock{g_mutex};
    g_retired.add(raw);
  }
};

thread_local ThreadState t_state;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One layer span on the calling thread's stack.
class Span {
 public:
  explicit Span(Layer layer) : state_{t_state}, layer_{layer} {
    ++state_.raw.calls[layer_];
    ++state_.open[layer_];
    if (state_.depth < kMaxDepth) {
      state_.stack[state_.depth++] = {layer_, now_ns(), 0};
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    --state_.open[layer_];
    if (state_.depth == 0) {
      return;
    }
    const ThreadState::Frame frame = state_.stack[--state_.depth];
    const std::int64_t elapsed = now_ns() - frame.start_ns;
    state_.raw.self_ns[layer_] += elapsed - frame.child_ns;
    if (state_.open[layer_] == 0) {
      state_.raw.inclusive_ns[layer_] += elapsed;
    }
    if (state_.depth > 0) {
      state_.stack[state_.depth - 1].child_ns += elapsed;
    }
  }

 private:
  ThreadState& state_;
  Layer layer_;
};

Raw& raw() { return t_state.raw; }
bool inside(Layer layer) { return t_state.open[layer] > 0; }

}  // namespace

bool enabled() { return true; }

void reset() {
  const std::scoped_lock lock{g_mutex};
  g_retired = Raw{};
  t_state.raw = Raw{};
}

Totals collect() {
  Raw merged;
  {
    const std::scoped_lock lock{g_mutex};
    merged = g_retired;
  }
  merged.add(t_state.raw);
  Totals out;
  for (int l = 0; l < kLayerCount; ++l) {
    out.layer[l].calls = merged.calls[l];
    out.layer[l].self_s = static_cast<double>(merged.self_ns[l]) * 1e-9;
    out.layer[l].inclusive_s =
        static_cast<double>(merged.inclusive_ns[l]) * 1e-9;
  }
  out.rf_field_calls = merged.rf_field_calls;
  out.interference_link_evals = merged.interference_link_evals;
  out.lease_acquires = merged.lease_acquires;
  out.lease_denials = merged.lease_denials;
  out.oracle_pairs = merged.oracle_pairs;
  out.oracle_miss_pairs = merged.oracle_miss_pairs;
  out.solver_pairs = merged.solver_pairs;
  return out;
}

}  // namespace movrbench::trace

// ---------------------------------------------------------------------------
// The wrappers. Each pair is (__real_ declaration, __wrap_ definition).

using movrbench::trace::Layer;
using movrbench::trace::Span;
using namespace movr;
using Gen = std::mt19937_64;

#define MOVRBENCH_REAL(sym) __asm__("__real_" sym)
#define MOVRBENCH_WRAP(sym) __asm__("__wrap_" sym)

// arena.interference ---------------------------------------------------------
#define SYM_SINR                                                         \
  "_ZN4movr5arena15sinr_penalty_dbERKNS_4core5SceneESt4spanIKNS0_"      \
  "10InterfererELm18446744073709551615EERKNS0_18InterferenceConfigE"
double real_sinr(const core::Scene&, std::span<const arena::Interferer>,
                 const arena::InterferenceConfig&) MOVRBENCH_REAL(SYM_SINR);
double wrap_sinr(const core::Scene&, std::span<const arena::Interferer>,
                 const arena::InterferenceConfig&) MOVRBENCH_WRAP(SYM_SINR);
double wrap_sinr(const core::Scene& victim,
                 std::span<const arena::Interferer> aggressors,
                 const arena::InterferenceConfig& config) {
  const Span span{Layer::kArenaInterference};
  return real_sinr(victim, aggressors, config);
}

// arena.lease ----------------------------------------------------------------
#define SYM_ACQUIRE                                                       \
  "_ZN4movr5arena16ReflectorArbiter7acquireEmmNSt6chrono8durationIlSt5"  \
  "ratioILl1ELl1000000000EEEE"
#define SYM_RENEW                                                         \
  "_ZN4movr5arena16ReflectorArbiter5renewEmmNSt6chrono8durationIlSt5"    \
  "ratioILl1ELl1000000000EEEE"
#define SYM_RELEASE                                                       \
  "_ZN4movr5arena16ReflectorArbiter7releaseEmmNSt6chrono8durationIlSt5"  \
  "ratioILl1ELl1000000000EEEE"
bool real_acquire(arena::ReflectorArbiter*, std::size_t, std::size_t,
                  sim::TimePoint) MOVRBENCH_REAL(SYM_ACQUIRE);
bool wrap_acquire(arena::ReflectorArbiter*, std::size_t, std::size_t,
                  sim::TimePoint) MOVRBENCH_WRAP(SYM_ACQUIRE);
bool wrap_acquire(arena::ReflectorArbiter* self, std::size_t user,
                  std::size_t r, sim::TimePoint now) {
  const Span span{Layer::kArenaLease};
  const bool granted = real_acquire(self, user, r, now);
  auto& raw = movrbench::trace::raw();
  ++raw.lease_acquires;
  raw.lease_denials += granted ? 0 : 1;
  return granted;
}
bool real_renew(arena::ReflectorArbiter*, std::size_t, std::size_t,
                sim::TimePoint) MOVRBENCH_REAL(SYM_RENEW);
bool wrap_renew(arena::ReflectorArbiter*, std::size_t, std::size_t,
                sim::TimePoint) MOVRBENCH_WRAP(SYM_RENEW);
bool wrap_renew(arena::ReflectorArbiter* self, std::size_t user,
                std::size_t r, sim::TimePoint now) {
  const Span span{Layer::kArenaLease};
  return real_renew(self, user, r, now);
}
void real_release(arena::ReflectorArbiter*, std::size_t, std::size_t,
                  sim::TimePoint) MOVRBENCH_REAL(SYM_RELEASE);
void wrap_release(arena::ReflectorArbiter*, std::size_t, std::size_t,
                  sim::TimePoint) MOVRBENCH_WRAP(SYM_RELEASE);
void wrap_release(arena::ReflectorArbiter* self, std::size_t user,
                  std::size_t r, sim::TimePoint now) {
  const Span span{Layer::kArenaLease};
  real_release(self, user, r, now);
}

// arena.admission ------------------------------------------------------------
#define SYM_ON_WINDOW                                                     \
  "_ZN4movr5arena19AdmissionController9on_windowESt4spanIKNS1_6Sample"   \
  "ELm18446744073709551615EENSt6chrono8durationIlSt5ratioILl1ELl"        \
  "1000000000EEEE"
void real_on_window(arena::AdmissionController*,
                    std::span<const arena::AdmissionController::Sample>,
                    sim::TimePoint) MOVRBENCH_REAL(SYM_ON_WINDOW);
void wrap_on_window(arena::AdmissionController*,
                    std::span<const arena::AdmissionController::Sample>,
                    sim::TimePoint) MOVRBENCH_WRAP(SYM_ON_WINDOW);
void wrap_on_window(arena::AdmissionController* self,
                    std::span<const arena::AdmissionController::Sample> samples,
                    sim::TimePoint now) {
  const Span span{Layer::kArenaAdmission};
  real_on_window(self, samples, now);
}

// phy.link -------------------------------------------------------------------
#define SYM_RECEIVED_POWER                                                \
  "_ZN4movr3phy14received_powerERKNS0_9RadioNodeES3_St4spanIKNS_7"       \
  "channel4PathELm18446744073709551615EERKNS0_10LinkConfigE"
#define SYM_WIDEBAND_POWER                                                \
  "_ZN4movr3phy14wideband_powerESt4spanIKNS0_13PathComponentELm"         \
  "18446744073709551615EERKNS0_10LinkConfigENS_2rf8DecibelsE"
#define SYM_LINK_SNR                                                      \
  "_ZN4movr3phy8link_snrERKNS0_9RadioNodeES3_St4spanIKNS_7channel4Path"  \
  "ELm18446744073709551615EERKNS0_10LinkConfigE"

namespace {
void note_link_eval() {
  if (movrbench::trace::inside(Layer::kArenaInterference)) {
    ++movrbench::trace::raw().interference_link_evals;
  }
}
}  // namespace

rf::DbmPower real_received_power(const phy::RadioNode&, const phy::RadioNode&,
                                 std::span<const channel::Path>,
                                 const phy::LinkConfig&)
    MOVRBENCH_REAL(SYM_RECEIVED_POWER);
rf::DbmPower wrap_received_power(const phy::RadioNode&, const phy::RadioNode&,
                                 std::span<const channel::Path>,
                                 const phy::LinkConfig&)
    MOVRBENCH_WRAP(SYM_RECEIVED_POWER);
rf::DbmPower wrap_received_power(const phy::RadioNode& tx,
                                 const phy::RadioNode& rx,
                                 std::span<const channel::Path> paths,
                                 const phy::LinkConfig& config) {
  note_link_eval();
  const Span span{Layer::kPhyLink};
  return real_received_power(tx, rx, paths, config);
}
rf::DbmPower real_wideband_power(std::span<const phy::PathComponent>,
                                 const phy::LinkConfig&, rf::Decibels)
    MOVRBENCH_REAL(SYM_WIDEBAND_POWER);
rf::DbmPower wrap_wideband_power(std::span<const phy::PathComponent>,
                                 const phy::LinkConfig&, rf::Decibels)
    MOVRBENCH_WRAP(SYM_WIDEBAND_POWER);
rf::DbmPower wrap_wideband_power(std::span<const phy::PathComponent> components,
                                 const phy::LinkConfig& config,
                                 rf::Decibels extra_loss) {
  note_link_eval();
  const Span span{Layer::kPhyLink};
  return real_wideband_power(components, config, extra_loss);
}
rf::Decibels real_link_snr(const phy::RadioNode&, const phy::RadioNode&,
                           std::span<const channel::Path>,
                           const phy::LinkConfig&) MOVRBENCH_REAL(SYM_LINK_SNR);
rf::Decibels wrap_link_snr(const phy::RadioNode&, const phy::RadioNode&,
                           std::span<const channel::Path>,
                           const phy::LinkConfig&) MOVRBENCH_WRAP(SYM_LINK_SNR);
rf::Decibels wrap_link_snr(const phy::RadioNode& tx, const phy::RadioNode& rx,
                           std::span<const channel::Path> paths,
                           const phy::LinkConfig& config) {
  note_link_eval();
  const Span span{Layer::kPhyLink};
  return real_link_snr(tx, rx, paths, config);
}

// rf.field (counted only: ~10^7 calls per run, too hot to time) ---------------
#define SYM_FIELD "_ZNK4movr2rf11PhasedArray5fieldEd"
std::complex<double> real_field(const rf::PhasedArray*, double)
    MOVRBENCH_REAL(SYM_FIELD);
std::complex<double> wrap_field(const rf::PhasedArray*, double)
    MOVRBENCH_WRAP(SYM_FIELD);
std::complex<double> wrap_field(const rf::PhasedArray* self, double angle) {
  ++movrbench::trace::raw().rf_field_calls;
  return real_field(self, angle);
}

// channel.oracle -------------------------------------------------------------
#define SYM_PATHS_VIEW \
  "_ZNK4movr4core13ChannelOracle10paths_viewENS_4geom4Vec2ES3_"
#define SYM_QUERY_BATCH                                                    \
  "_ZNK4movr4core13ChannelOracle11query_batchERKNS_7channel13Endpoint"    \
  "BatchERSt6vectorISt10shared_ptrIKS6_INS2_4PathESaIS8_EEESaISC_EE"
core::ChannelOracle::PathsView real_paths_view(const core::ChannelOracle*,
                                               geom::Vec2, geom::Vec2)
    MOVRBENCH_REAL(SYM_PATHS_VIEW);
core::ChannelOracle::PathsView wrap_paths_view(const core::ChannelOracle*,
                                               geom::Vec2, geom::Vec2)
    MOVRBENCH_WRAP(SYM_PATHS_VIEW);
core::ChannelOracle::PathsView wrap_paths_view(const core::ChannelOracle* self,
                                               geom::Vec2 a, geom::Vec2 b) {
  const Span span{Layer::kChannelOracle};
  ++movrbench::trace::raw().oracle_pairs;
  return real_paths_view(self, a, b);
}
void real_query_batch(const core::ChannelOracle*,
                      const channel::EndpointBatch&,
                      std::vector<core::ChannelOracle::PathsView>&)
    MOVRBENCH_REAL(SYM_QUERY_BATCH);
void wrap_query_batch(const core::ChannelOracle*,
                      const channel::EndpointBatch&,
                      std::vector<core::ChannelOracle::PathsView>&)
    MOVRBENCH_WRAP(SYM_QUERY_BATCH);
void wrap_query_batch(const core::ChannelOracle* self,
                      const channel::EndpointBatch& batch,
                      std::vector<core::ChannelOracle::PathsView>& out) {
  const Span span{Layer::kChannelOracle};
  movrbench::trace::raw().oracle_pairs += batch.size();
  real_query_batch(self, batch, out);
}

// channel.solver -------------------------------------------------------------
#define SYM_SOLVE "_ZNK4movr7channel10PathSolver5solveENS_4geom4Vec2ES3_"
#define SYM_SOLVE_BATCH                                                   \
  "_ZNK4movr7channel10PathSolver11solve_batchERKNS0_13EndpointBatchERNS0" \
  "_9PathBatchERNS1_14BatchWorkspaceE"

namespace {
void note_solved(std::size_t pairs) {
  auto& raw = movrbench::trace::raw();
  raw.solver_pairs += pairs;
  if (movrbench::trace::inside(Layer::kChannelOracle)) {
    raw.oracle_miss_pairs += pairs;
  }
}
}  // namespace

std::vector<channel::Path> real_solve(const channel::PathSolver*, geom::Vec2,
                                      geom::Vec2) MOVRBENCH_REAL(SYM_SOLVE);
std::vector<channel::Path> wrap_solve(const channel::PathSolver*, geom::Vec2,
                                      geom::Vec2) MOVRBENCH_WRAP(SYM_SOLVE);
std::vector<channel::Path> wrap_solve(const channel::PathSolver* self,
                                      geom::Vec2 a, geom::Vec2 b) {
  note_solved(1);
  const Span span{Layer::kChannelSolver};
  return real_solve(self, a, b);
}
void real_solve_batch(const channel::PathSolver*,
                      const channel::EndpointBatch&, channel::PathBatch&,
                      channel::PathSolver::BatchWorkspace&)
    MOVRBENCH_REAL(SYM_SOLVE_BATCH);
void wrap_solve_batch(const channel::PathSolver*,
                      const channel::EndpointBatch&, channel::PathBatch&,
                      channel::PathSolver::BatchWorkspace&)
    MOVRBENCH_WRAP(SYM_SOLVE_BATCH);
void wrap_solve_batch(const channel::PathSolver* self,
                      const channel::EndpointBatch& batch,
                      channel::PathBatch& out,
                      channel::PathSolver::BatchWorkspace& workspace) {
  note_solved(batch.size());
  const Span span{Layer::kChannelSolver};
  real_solve_batch(self, batch, out, workspace);
}

// core.gain_control ----------------------------------------------------------
#define SYM_GAIN_RUN                                                        \
  "_ZN4movr4core14GainController3runERNS_2hw17ReflectorFrontEndENS_2rf8"   \
  "DbmPowerERSt23mersenne_twister_engineImLm64ELm312ELm156ELm31ELm"        \
  "13043109905998158313ELm29ELm6148914691236517205ELm17ELm"                \
  "8202884508482404352ELm37ELm18444473444759240704ELm43ELm"                \
  "6364136223846793005EERKNS1_6ConfigE"
core::GainController::Result real_gain_run(hw::ReflectorFrontEnd&,
                                           rf::DbmPower, Gen&,
                                           const core::GainController::Config&)
    MOVRBENCH_REAL(SYM_GAIN_RUN);
core::GainController::Result wrap_gain_run(hw::ReflectorFrontEnd&,
                                           rf::DbmPower, Gen&,
                                           const core::GainController::Config&)
    MOVRBENCH_WRAP(SYM_GAIN_RUN);
core::GainController::Result wrap_gain_run(
    hw::ReflectorFrontEnd& front_end, rf::DbmPower input, Gen& rng,
    const core::GainController::Config& config) {
  const Span span{Layer::kCoreGainControl};
  return real_gain_run(front_end, input, rng, config);
}

// core.link_manager ----------------------------------------------------------
#define SYM_LM_ON_FRAME "_ZN4movr4core11LinkManager8on_frameEv"
rf::Decibels real_lm_on_frame(core::LinkManager*)
    MOVRBENCH_REAL(SYM_LM_ON_FRAME);
rf::Decibels wrap_lm_on_frame(core::LinkManager*)
    MOVRBENCH_WRAP(SYM_LM_ON_FRAME);
rf::Decibels wrap_lm_on_frame(core::LinkManager* self) {
  const Span span{Layer::kCoreLinkManager};
  return real_lm_on_frame(self);
}

// net.transport --------------------------------------------------------------
#define SYM_TX_ON_FRAME \
  "_ZN4movr3net9Transport8on_frameENS0_12ChannelStateE"
void real_tx_on_frame(net::Transport*, net::ChannelState)
    MOVRBENCH_REAL(SYM_TX_ON_FRAME);
void wrap_tx_on_frame(net::Transport*, net::ChannelState)
    MOVRBENCH_WRAP(SYM_TX_ON_FRAME);
void wrap_tx_on_frame(net::Transport* self, net::ChannelState channel) {
  const Span span{Layer::kNetTransport};
  real_tx_on_frame(self, channel);
}

// sim ------------------------------------------------------------------------
#define SYM_RUN_UNTIL                                                     \
  "_ZN4movr3sim9Simulator9run_untilENSt6chrono8durationIlSt5ratioILl1EL" \
  "l1000000000EEEE"
void real_run_until(sim::Simulator*, sim::TimePoint)
    MOVRBENCH_REAL(SYM_RUN_UNTIL);
void wrap_run_until(sim::Simulator*, sim::TimePoint)
    MOVRBENCH_WRAP(SYM_RUN_UNTIL);
void wrap_run_until(sim::Simulator* self, sim::TimePoint deadline) {
  const Span span{Layer::kSim};
  real_run_until(self, deadline);
}

// log.recorder ---------------------------------------------------------------
#define SYM_RECORD                                                        \
  "_ZN4movr3log8Recorder6recordENS0_9EventKindESt16initializer_listINS0" \
  "_10EventFieldEE"
#define SYM_RECORD_AT                                                     \
  "_ZN4movr3log8Recorder9record_atENSt6chrono8durationIlSt5ratioILl1EL"  \
  "l1000000000EEEENS0_9EventKindESt16initializer_listINS0_10EventField"  \
  "EE"
void real_record(log::Recorder*, log::EventKind,
                 std::initializer_list<log::EventField>)
    MOVRBENCH_REAL(SYM_RECORD);
void wrap_record(log::Recorder*, log::EventKind,
                 std::initializer_list<log::EventField>)
    MOVRBENCH_WRAP(SYM_RECORD);
void wrap_record(log::Recorder* self, log::EventKind kind,
                 std::initializer_list<log::EventField> fields) {
  const Span span{Layer::kLogRecorder};
  real_record(self, kind, fields);
}
void real_record_at(log::Recorder*, sim::TimePoint, log::EventKind,
                    std::initializer_list<log::EventField>)
    MOVRBENCH_REAL(SYM_RECORD_AT);
void wrap_record_at(log::Recorder*, sim::TimePoint, log::EventKind,
                    std::initializer_list<log::EventField>)
    MOVRBENCH_WRAP(SYM_RECORD_AT);
void wrap_record_at(log::Recorder* self, sim::TimePoint at,
                    log::EventKind kind,
                    std::initializer_list<log::EventField> fields) {
  const Span span{Layer::kLogRecorder};
  real_record_at(self, at, kind, fields);
}
