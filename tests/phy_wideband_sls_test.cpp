#include <gtest/gtest.h>

#include <complex>
#include <numbers>
#include <vector>

#include <phy/link.hpp>
#include <phy/sls.hpp>
#include <rf/band.hpp>
#include <rf/propagation.hpp>

namespace movr::phy {
namespace {

TEST(Wideband, SinglePathUnaffectedByAveraging) {
  const std::vector<PathComponent> one{{std::complex<double>{1e-3, 0.0}, 4.0}};
  LinkConfig narrow;
  narrow.frequency_samples = 1;
  LinkConfig wide;
  wide.frequency_samples = 16;
  const double a =
      wideband_power(one, narrow, rf::Decibels{0.0}).value();
  const double b = wideband_power(one, wide, rf::Decibels{0.0}).value();
  EXPECT_NEAR(a, b, 1e-9);
}

TEST(Wideband, TwoPathFadeSmoothed) {
  // Two equal paths 0.8 m apart: a narrowband tone can land in a null;
  // the wideband average must sit near the incoherent sum (+3 dB over one
  // path), far above the null.
  std::vector<PathComponent> paths{
      {std::complex<double>{1e-3, 0.0}, 4.0},
      {std::complex<double>{1e-3, 0.0}, 4.8},
  };
  LinkConfig wide;
  wide.frequency_samples = 32;
  const double avg = wideband_power(paths, wide, rf::Decibels{0.0}).value();
  const double one_path =
      wideband_power({paths.begin(), paths.begin() + 1}, wide,
                     rf::Decibels{0.0})
          .value();
  EXPECT_NEAR(avg - one_path, 3.0, 1.5);

  // And a narrowband evaluation at the worst frequency dips far below.
  LinkConfig narrow;
  narrow.frequency_samples = 1;
  double deepest = 1e9;
  for (double offset = -1.0e9; offset <= 1.0e9; offset += 1e7) {
    LinkConfig probe = narrow;
    probe.carrier_hz += offset;
    deepest = std::min(
        deepest, wideband_power(paths, probe, rf::Decibels{0.0}).value());
  }
  EXPECT_LT(deepest, avg - 10.0);
}

TEST(Wideband, ExtraLossSubtracts) {
  const std::vector<PathComponent> one{{std::complex<double>{1e-3, 0.0}, 4.0}};
  const LinkConfig config;
  const double base =
      wideband_power(one, config, rf::Decibels{0.0}).value();
  const double lossy =
      wideband_power(one, config, rf::Decibels{7.5}).value();
  EXPECT_NEAR(base - lossy, 7.5, 1e-9);
}

TEST(Wideband, EmptyPathsIsNoSignal) {
  const LinkConfig config;
  EXPECT_LT(wideband_power({}, config, rf::Decibels{0.0}).value(), -250.0);
}

TEST(Wideband, BandPhasorsMatchPerPointPolar) {
  // band_phasors steps each path's phasor across the evenly spaced points;
  // the reference evaluates every point's phase directly.
  std::vector<PathComponent> paths;
  for (double length = 0.0; length <= 120.0; length += 0.731) {
    paths.push_back({std::complex<double>{}, length});
  }
  paths.push_back({std::complex<double>{}, 120.0});
  for (const int samples : {1, 2, 8, 64}) {
    for (const double carrier : {24.0e9, 60.48e9}) {
      LinkConfig config;
      config.carrier_hz = carrier;
      config.frequency_samples = samples;
      std::vector<std::complex<double>> phasors(band_samples(config) *
                                                paths.size());
      band_phasors(paths, config, phasors);
      for (std::size_t k = 0; k < band_samples(config); ++k) {
        const double offset =
            samples == 1 ? 0.0
                         : ((static_cast<double>(k) + 0.5) / samples - 0.5) *
                               config.bandwidth_hz;
        const double lambda = rf::wavelength(config.carrier_hz + offset);
        for (std::size_t p = 0; p < paths.size(); ++p) {
          const std::complex<double> reference = std::polar(
              1.0, -2.0 * std::numbers::pi * paths[p].length_m / lambda);
          EXPECT_LE(std::abs(phasors[k * paths.size() + p] - reference),
                    1e-10)
              << samples << " samples at " << carrier << " Hz, point " << k
              << ", path of " << paths[p].length_m << " m";
        }
      }
    }
  }
}

TEST(Band, Presets) {
  EXPECT_NEAR(rf::k24GhzPrototype.carrier_hz, 24.125e9, 1.0);
  EXPECT_NEAR(rf::k60GhzWigig.carrier_hz, 60.48e9, 1.0);
  EXPECT_EQ(rf::k24GhzPrototype.bandwidth_hz, rf::k60GhzWigig.bandwidth_hz);
}

TEST(Band, OxygenAbsorptionPeaksAt60GHz) {
  const double at24 = rf::atmospheric_absorption(1000.0, 24.0e9).value();
  const double at60 = rf::atmospheric_absorption(1000.0, 60.0e9).value();
  const double at73 = rf::atmospheric_absorption(1000.0, 73.0e9).value();
  EXPECT_NEAR(at24, 0.1, 0.05);
  EXPECT_NEAR(at60, 15.0, 1.0);
  EXPECT_LT(at73, 1.0);
  // Room scale: negligible everywhere.
  EXPECT_LT(rf::atmospheric_absorption(10.0, 60.0e9).value(), 0.2);
}

TEST(Band, AbsorptionMonotoneInDistance) {
  EXPECT_GT(rf::atmospheric_absorption(200.0, 60.0e9).value(),
            rf::atmospheric_absorption(100.0, 60.0e9).value());
  EXPECT_EQ(rf::atmospheric_absorption(0.0, 60.0e9).value(), 0.0);
}

TEST(Sls, DurationArithmetic) {
  SlsConfig config;
  config.initiator_sectors = 32;
  config.responder_sectors = 32;
  // 64 sectors x 17 us + 50 us feedback = 1138 us.
  EXPECT_NEAR(sim::to_microseconds(sls_duration(config)), 1138.0, 1.0);
}

TEST(Sls, SectorsForCoverage) {
  EXPECT_EQ(sectors_for_coverage(160.0, 10.0), 16);
  EXPECT_EQ(sectors_for_coverage(160.0, 15.0), 11);
  EXPECT_EQ(sectors_for_coverage(10.0, 15.0), 1);
  EXPECT_EQ(sectors_for_coverage(90.0, 0.0), 1);
}

TEST(Sls, StandardTrainingIsSubMillisecond) {
  // The point of the comparison: the standard's own training is ~1 ms of
  // airtime, while MoVR's reflector search is Bluetooth-paced (~1 s). The
  // reflector simply cannot run SLS — it has no receiver.
  SlsConfig config;
  config.initiator_sectors = sectors_for_coverage(160.0, 10.0);
  config.responder_sectors = config.initiator_sectors;
  EXPECT_LT(sim::to_milliseconds(sls_duration(config)), 2.0);
}

}  // namespace
}  // namespace movr::phy
