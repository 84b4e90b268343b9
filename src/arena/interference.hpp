// Mutual interference between concurrent beams in a shared room.
//
// N users on K APs means up to K concurrent transmissions (same-AP users
// are airtime-multiplexed, not concurrent — that is what
// ChannelState::airtime_share models). Each foreign AP's beam, and each
// leased reflector's re-radiated beam, leaks some power into a victim
// headset's aperture; narrow 60 GHz beams make that leakage small but
// angle-dependent — a victim whose boresight happens to sweep past an
// aggressor eats orders of magnitude more than one pointed away.
//
// No new RF model: aggressor emissions reuse the scene's own array-factor
// and multipath machinery (phy::received_power / phy::path_power over the
// victim room's ray paths), exactly as the in-band signal does. The sum of
// interference powers is folded into an SNR penalty,
//
//     penalty_dB = 10 log10(1 + I / N0),
//
// i.e. the dB gap between SNR and SINR, which the session subtracts from
// the strategy's true SNR before rate selection — the existing
// ChannelState path carries it from there.
#pragma once

#include <span>

#include <core/scene.hpp>

namespace movr::arena {

/// One concurrently transmitting user, as seen from a victim.
struct Interferer {
  /// The aggressor's world: its AP position/steering/power, and — when it
  /// rides a reflector — that reflector's authoritative register state
  /// (the lease makes the holder's clone the physical truth).
  const core::Scene* scene{nullptr};
  /// Set while the aggressor's link is via a reflector: the reflector's
  /// TX array re-radiates amplified power into the room, and the AP's
  /// beam is pointed at the reflector rather than its own headset.
  bool via_reflector{false};
  std::size_t reflector{0};
};

struct InterferenceConfig {
  /// AP positions closer than this are the same physical AP — same-AP
  /// users share airtime instead of interfering.
  double same_ap_epsilon_m{0.05};
};

/// Total interference power arriving at the victim's headset from every
/// aggressor (foreign APs + their leased reflectors), over the victim
/// room's ray paths at the victim's current steering. The victim-side work
/// (path set, headset response per path, the AP array's Look per path,
/// band phasors) is done once per foreign AP and shared by the aggressors
/// on it; the result equals the per-aggressor sum of phy::received_power
/// and the reflector's phy::path_power term, bit for bit.
rf::DbmPower interference_at_headset(const core::Scene& victim,
                                     std::span<const Interferer> aggressors,
                                     const InterferenceConfig& config);

/// The SNR -> SINR gap in dB (>= 0) for that interference level.
double sinr_penalty_db(const core::Scene& victim,
                       std::span<const Interferer> aggressors,
                       const InterferenceConfig& config);

}  // namespace movr::arena
