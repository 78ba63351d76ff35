// MLE fitter round-trips over a parameter grid (sample from known
// parameters, fit, recover), plus model-selection checks.
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/stats/fitting.h"
#include "src/util/error.h"
#include "src/util/rng.h"

namespace fa::stats {
namespace {

std::vector<double> draw(const Distribution& dist, int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(static_cast<std::size_t>(n));
  for (double& x : xs) x = dist.sample(rng);
  return xs;
}

// ---- parameterized round-trip over two-parameter grids ----

struct RoundTrip {
  std::string label;
  double p1, p2;  // family-specific parameters
};

void PrintTo(const RoundTrip& r, std::ostream* os) { *os << r.label; }

class GammaRoundTrip : public ::testing::TestWithParam<RoundTrip> {};

TEST_P(GammaRoundTrip, RecoversParameters) {
  const auto [label, shape, scale] = GetParam();
  const GammaDist truth(shape, scale);
  const auto xs = draw(truth, 50000, 7);
  const GammaDist fitted = fit_gamma(xs);
  EXPECT_NEAR(fitted.shape(), shape, 0.06 * shape);
  EXPECT_NEAR(fitted.scale(), scale, 0.08 * scale);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GammaRoundTrip,
    ::testing::Values(RoundTrip{"sub_exponential", 0.5, 30.0},
                      RoundTrip{"near_exponential", 1.1, 5.0},
                      RoundTrip{"peaked", 4.0, 2.0},
                      RoundTrip{"paper_vm_interfailure", 0.6, 62.0}),
    [](const auto& info) { return info.param.label; });

class WeibullRoundTrip : public ::testing::TestWithParam<RoundTrip> {};

TEST_P(WeibullRoundTrip, RecoversParameters) {
  const auto [label, shape, scale] = GetParam();
  const Weibull truth(shape, scale);
  const auto xs = draw(truth, 50000, 11);
  const Weibull fitted = fit_weibull(xs);
  EXPECT_NEAR(fitted.shape(), shape, 0.05 * shape);
  EXPECT_NEAR(fitted.scale(), scale, 0.05 * scale);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WeibullRoundTrip,
    ::testing::Values(RoundTrip{"decreasing_hazard", 0.7, 20.0},
                      RoundTrip{"exponential_like", 1.0, 8.0},
                      RoundTrip{"increasing_hazard", 2.2, 50.0}),
    [](const auto& info) { return info.param.label; });

class LogNormalRoundTrip : public ::testing::TestWithParam<RoundTrip> {};

TEST_P(LogNormalRoundTrip, RecoversParameters) {
  const auto [label, mu, sigma] = GetParam();
  const LogNormal truth(mu, sigma);
  const auto xs = draw(truth, 50000, 13);
  const LogNormal fitted = fit_lognormal(xs);
  EXPECT_NEAR(fitted.mu(), mu, 0.05 * std::fabs(mu) + 0.02);
  EXPECT_NEAR(fitted.sigma(), sigma, 0.05 * sigma);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LogNormalRoundTrip,
    ::testing::Values(RoundTrip{"narrow", 1.0, 0.4},
                      RoundTrip{"paper_hw_repair", 2.11, 2.13},
                      RoundTrip{"wide", 3.0, 1.8}),
    [](const auto& info) { return info.param.label; });

TEST(Fitting, ExponentialRecoversRate) {
  const Exponential truth(0.2);
  const auto xs = draw(truth, 50000, 17);
  EXPECT_NEAR(fit_exponential(xs).rate(), 0.2, 0.01);
}

// ---- model selection ----

TEST(Fitting, SelectsGammaForGammaData) {
  const GammaDist truth(0.6, 40.0);
  const auto xs = draw(truth, 20000, 19);
  const auto best = fit_best(xs);
  EXPECT_EQ(best.dist->name(), "gamma");
}

TEST(Fitting, SelectsLogNormalForLogNormalData) {
  const LogNormal truth(2.0, 1.5);
  const auto xs = draw(truth, 20000, 23);
  const auto best = fit_best(xs);
  EXPECT_EQ(best.dist->name(), "lognormal");
}

TEST(Fitting, SelectsWeibullForPeakedWeibullData) {
  const Weibull truth(3.0, 10.0);
  const auto xs = draw(truth, 20000, 29);
  const auto best = fit_best(xs);
  EXPECT_EQ(best.dist->name(), "weibull");
}

TEST(Fitting, CandidatesSortedByLikelihoodAndIncludeAicKs) {
  const GammaDist truth(2.0, 3.0);
  const auto xs = draw(truth, 5000, 31);
  const auto results = fit_candidates(xs);
  ASSERT_GE(results.size(), 3u);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i - 1].log_likelihood, results[i].log_likelihood);
  }
  for (const auto& r : results) {
    EXPECT_GT(r.ks_statistic, 0.0);
    EXPECT_LE(r.ks_statistic, 1.0);
    EXPECT_TRUE(std::isfinite(r.aic));
  }
}

TEST(Fitting, RejectsInvalidSamples) {
  const std::vector<double> with_zero = {1.0, 0.0, 2.0};
  const std::vector<double> negative = {1.0, -2.0};
  const std::vector<double> single = {1.0};
  EXPECT_THROW(fit_gamma(with_zero), Error);
  EXPECT_THROW(fit_weibull(negative), Error);
  EXPECT_THROW(fit_lognormal(single), Error);
  EXPECT_THROW(fit_exponential(single), Error);
}

TEST(Fitting, NonPositiveSampleMessageNamesTheFit) {
  const std::vector<double> negative = {1.0, -2.0};
  try {
    fit_weibull(negative);
    FAIL() << "fit_weibull accepted a negative sample";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "fit_weibull: samples must be positive");
  }
}

TEST(Fitting, DegenerateSampleStillFitsExponential) {
  const std::vector<double> constant(100, 5.0);
  const auto results = fit_candidates(constant);
  ASSERT_FALSE(results.empty());
  // At minimum the exponential family must be present.
  bool has_exponential = false;
  for (const auto& r : results) {
    has_exponential |= r.dist->name() == "exponential";
  }
  EXPECT_TRUE(has_exponential);
}

TEST(Fitting, FittedMeanTracksSampleMean) {
  const GammaDist truth(0.8, 50.0);
  const auto xs = draw(truth, 30000, 37);
  double sum = 0.0;
  for (double x : xs) sum += x;
  const double sample_mean = sum / static_cast<double>(xs.size());
  // Gamma MLE preserves the sample mean exactly (shape * scale = mean).
  const GammaDist fitted = fit_gamma(xs);
  EXPECT_NEAR(fitted.mean(), sample_mean, 1e-8 * sample_mean);
}

}  // namespace
}  // namespace fa::stats
