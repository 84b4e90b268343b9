#include <rf/measurement.hpp>

#include <algorithm>
#include <cmath>

namespace movr::rf {

Decibels estimate_snr(Decibels true_snr, int symbols, std::mt19937_64& rng) {
  const int n = std::max(symbols, 1);
  // Error std: ~2 dB for a single symbol at moderate SNR, shrinking with
  // sqrt(n); below 0 dB SNR the estimator degrades roughly linearly.
  const double low_snr_penalty =
      true_snr.value() < 0.0 ? (1.0 - true_snr.value() * 0.1) : 1.0;
  const double sigma = 2.0 * low_snr_penalty / std::sqrt(static_cast<double>(n));
  std::normal_distribution<double> err{0.0, sigma};
  return Decibels{true_snr.value() + err(rng)};
}

DbmPower measure_power(DbmPower true_power, double sigma_db,
                       DbmPower sensitivity, std::mt19937_64& rng) {
  // A noiseless meter draws nothing: std::normal_distribution needs a
  // positive sigma.
  const double err =
      sigma_db > 0.0 ? std::normal_distribution<double>{0.0, sigma_db}(rng)
                     : 0.0;
  const double reading = true_power.value() + err;
  return DbmPower{std::max(reading, sensitivity.value())};
}

}  // namespace movr::rf
