// Bit-flip fuzz of the reflector's control-payload surface.
//
// The control link can deliver a payload whose bit flip the CRC missed:
// sim::ControlChannel::corrupt flips one of bits 0-54 and zeroes a
// non-finite result. Every valid payload of every topic the firmware
// accepts goes through MovrReflector::handle and
// ReflectorConfigAgent::handle in each such form, and as NaN, +-inf and
// +-1e308. Property: the write lands in range, or the payload is dropped —
// and counted, where the handler counts rejects. In range means steering
// finite with |angle| < 64, gain code <= the DAC's max_code(), and
// modulation exactly the commanded 0 or 1.
#include <core/config_epoch.hpp>
#include <core/reflector.hpp>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include <geom/angle.hpp>
#include <sim/control_channel.hpp>
#include <sim/simulator.hpp>

namespace movr::core {
namespace {

constexpr std::uint64_t kSeed = 20161109;
constexpr const char* kLegacyTopics[] = {"rx_angle", "tx_angle",
                                         "both_angles", "gain_code",
                                         "modulate"};
constexpr const char* kConfigTopics[] = {"cfg_rx", "cfg_tx", "cfg_gain",
                                         "cfg_commit"};

/// Every corrupted form of `value` the link can deliver, plus the extremes
/// no single flip reaches.
std::vector<double> corrupted_forms(double value) {
  std::vector<double> forms;
  for (int bit = 0; bit <= 54; ++bit) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    bits ^= std::uint64_t{1} << bit;
    double garbled = 0.0;
    std::memcpy(&garbled, &bits, sizeof(garbled));
    forms.push_back(std::isfinite(garbled) ? garbled : 0.0);
  }
  const double inf = std::numeric_limits<double>::infinity();
  for (const double extreme : {std::numeric_limits<double>::quiet_NaN(), inf,
                               -inf, 1e308, -1e308}) {
    forms.push_back(extreme);
  }
  return forms;
}

/// A seeded sample of the payloads the AP really sends on `topic`.
std::vector<double> valid_payloads(std::string_view topic,
                                   std::uint32_t max_code,
                                   std::mt19937_64& rng) {
  if (topic == "modulate") {
    return {0.0, 1.0};
  }
  if (topic == "cfg_commit") {
    return {0.0};
  }
  std::vector<double> payloads;
  if (topic == "gain_code" || topic == "cfg_gain") {
    payloads = {0.0, static_cast<double>(max_code)};
    std::uniform_int_distribution<std::uint32_t> code{0, max_code};
    for (int i = 0; i < 6; ++i) {
      payloads.push_back(static_cast<double>(code(rng)));
    }
    return payloads;
  }
  payloads = {0.0, geom::kPi / 2.0};
  std::uniform_real_distribution<double> angle{0.0, geom::kTwoPi};
  for (int i = 0; i < 6; ++i) {
    payloads.push_back(angle(rng));
  }
  return payloads;
}

struct Registers {
  double rx{0.0};
  double tx{0.0};
  std::uint32_t gain{0};
  bool modulating{false};

  bool operator==(const Registers&) const = default;
};

Registers read(const MovrReflector& reflector) {
  const auto& fe = reflector.front_end();
  return {fe.rx_array().steering(), fe.tx_array().steering(), fe.gain_code(),
          fe.modulating()};
}

void expect_in_range(const MovrReflector& reflector) {
  const Registers regs = read(reflector);
  EXPECT_TRUE(std::isfinite(regs.rx) && std::abs(regs.rx) < 64.0) << regs.rx;
  EXPECT_TRUE(std::isfinite(regs.tx) && std::abs(regs.tx) < 64.0) << regs.tx;
  EXPECT_LE(regs.gain, reflector.front_end().max_gain_code());
}

/// Sends every corrupted form of every valid legacy payload through
/// `handle` and checks the property after each message.
template <typename Handle>
void fuzz_legacy_topics(MovrReflector& reflector, Handle&& handle) {
  std::mt19937_64 rng{kSeed};
  for (const std::string_view topic : kLegacyTopics) {
    for (const double sent : valid_payloads(
             topic, reflector.front_end().max_gain_code(), rng)) {
      for (const double received : corrupted_forms(sent)) {
        SCOPED_TRACE(::testing::Message()
                     << topic << " sent " << sent << " received " << received);
        // Start opposite to the modulate command, so a wrong write shows.
        reflector.front_end().set_modulating(sent == 0.0);
        const Registers before = read(reflector);
        const std::uint64_t rejected = reflector.rejected_messages();
        handle(sim::ControlMessage{std::string{topic}, received, 0, 0});
        expect_in_range(reflector);
        if (reflector.rejected_messages() != rejected) {
          EXPECT_EQ(reflector.rejected_messages(), rejected + 1);
          EXPECT_EQ(read(reflector), before)
              << "a rejected payload touched a register";
        } else if (topic == "modulate") {
          EXPECT_EQ(reflector.front_end().modulating(), sent == 1.0)
              << "modulation is not the commanded value";
        }
      }
    }
  }
}

TEST(ControlPayloadFuzz, ReflectorHandlerKeepsRegistersInRange) {
  MovrReflector reflector{{0.0, 0.0}, 0.0};
  fuzz_legacy_topics(reflector, [&](const sim::ControlMessage& message) {
    reflector.handle(message);
  });
}

TEST(ControlPayloadFuzz, ConfigAgentKeepsRegistersInRange) {
  sim::Simulator simulator;
  sim::ControlChannel channel{simulator, {}, std::mt19937_64{1}};
  MovrReflector reflector{{0.0, 0.0}, 0.0};
  reflector.set_control_name("r0");
  ReflectorConfigAgent agent{simulator, channel, reflector, {},
                             std::mt19937_64{2}};

  // The legacy vocabulary is forwarded to the firmware dispatcher.
  fuzz_legacy_topics(reflector, [&](const sim::ControlMessage& message) {
    agent.handle(message);
  });

  // Config topics: one whole epoch per case, with only the topic under
  // test corrupted. A dropped field leaves the epoch unapplied.
  std::mt19937_64 rng{kSeed};
  const std::uint32_t max_code = reflector.front_end().max_gain_code();
  std::uint64_t seq = agent.applied_seq();
  for (const std::string_view topic : kConfigTopics) {
    for (const double sent : valid_payloads(topic, max_code, rng)) {
      for (const double received : corrupted_forms(sent)) {
        SCOPED_TRACE(::testing::Message()
                     << topic << " sent " << sent << " received " << received);
        const auto value = [&](std::string_view field, double valid) {
          return field == topic ? received : valid;
        };
        ++seq;
        const Registers before = read(reflector);
        agent.handle({"cfg_rx", value("cfg_rx", 1.2), 0, seq});
        agent.handle({"cfg_tx", value("cfg_tx", 2.3), 0, seq});
        agent.handle({"cfg_gain", value("cfg_gain", 40.0), 0, seq});
        agent.handle({"cfg_commit", value("cfg_commit", 0.0), 0, seq});
        expect_in_range(reflector);
        if (agent.applied_seq() != seq) {
          EXPECT_EQ(read(reflector), before)
              << "a dropped epoch touched a register";
        }
      }
    }
  }
}

}  // namespace
}  // namespace movr::core
