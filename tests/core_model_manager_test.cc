#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/core/model_manager.h"
#include "src/util/random.h"

namespace pnw::core {
namespace {

/// Values drawn from two obvious byte-level groups: all-low vs all-high.
std::vector<std::vector<uint8_t>> TwoGroupSamples(size_t per_group,
                                                  size_t bytes) {
  Rng rng(11);
  std::vector<std::vector<uint8_t>> samples;
  for (size_t g = 0; g < 2; ++g) {
    for (size_t i = 0; i < per_group; ++i) {
      std::vector<uint8_t> v(bytes, g == 0 ? 0x00 : 0xff);
      v[rng.NextBelow(bytes)] ^= 0x01;  // tiny churn
      samples.push_back(std::move(v));
    }
  }
  return samples;
}

PnwOptions SmallOptions() {
  PnwOptions options;
  options.value_bytes = 16;
  options.num_clusters = 2;
  options.max_features = 0;
  return options;
}

TEST(ModelManagerTest, TrainRejectsEmptySamples) {
  EXPECT_TRUE(
      TrainValueModel(SmallOptions(), {}).status().IsInvalidArgument());
}

TEST(ModelManagerTest, TrainedModelSeparatesGroups) {
  auto model =
      TrainValueModel(SmallOptions(), TwoGroupSamples(32, 16)).value();
  ASSERT_EQ(model->k(), 2u);
  const std::vector<uint8_t> low(16, 0x00);
  const std::vector<uint8_t> high(16, 0xff);
  EXPECT_NE(model->Predict(low), model->Predict(high));
}

TEST(ModelManagerTest, RankClustersPutsPredictedFirst) {
  auto model =
      TrainValueModel(SmallOptions(), TwoGroupSamples(32, 16)).value();
  const std::vector<uint8_t> low(16, 0x00);
  auto ranked = model->RankClusters(low);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0], model->Predict(low));
}

TEST(ModelManagerTest, PcaPipelinePredictsConsistently) {
  PnwOptions options = SmallOptions();
  options.pca_components = 4;
  auto model = TrainValueModel(options, TwoGroupSamples(32, 16)).value();
  EXPECT_TRUE(model->uses_pca());
  const std::vector<uint8_t> low(16, 0x00);
  const std::vector<uint8_t> high(16, 0xff);
  EXPECT_NE(model->Predict(low), model->Predict(high));
}

TEST(ModelManagerTest, RankPredictedEqualsRankClustersOfThePredictedValue) {
  Rng rng(23);
  const auto random_value = [&rng] {
    std::vector<uint8_t> v(32);
    for (auto& byte : v) {
      byte = static_cast<uint8_t>(rng.Next());
    }
    return v;
  };
  std::vector<std::vector<uint8_t>> samples;
  for (int i = 0; i < 64; ++i) {
    samples.push_back(random_value());
  }
  for (const size_t pca_components : {size_t{0}, size_t{4}}) {
    PnwOptions options = SmallOptions();
    options.value_bytes = 32;
    options.num_clusters = 5;
    options.pca_components = pca_components;
    auto model = TrainValueModel(options, samples).value();
    ASSERT_EQ(model->uses_pca(), pca_components > 0);
    FeatureScratch scratch;
    for (int i = 0; i < 100; ++i) {
      const std::vector<uint8_t> v = random_value();
      const size_t label = model->Predict(v, scratch);
      const std::vector<size_t> ranked = model->RankPredicted(scratch);
      EXPECT_EQ(ranked, model->RankClusters(v)) << "pca " << pca_components;
      EXPECT_EQ(ranked.front(), label);
    }
  }
}

TEST(ModelManagerTest, TrainRejectsMismatchedSampleSizes) {
  // Samples shorter than value_bytes would be zero-padded by the encoder
  // and train on garbage; training must reject them instead.
  std::vector<std::vector<uint8_t>> bad(8, std::vector<uint8_t>(4, 0xab));
  EXPECT_TRUE(
      TrainValueModel(SmallOptions(), bad).status().IsInvalidArgument());
}

}  // namespace
}  // namespace pnw::core
