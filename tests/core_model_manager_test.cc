#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
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

ModelTrainingConfig SmallConfig() {
  ModelTrainingConfig config;
  config.value_bytes = 16;
  config.num_clusters = 2;
  config.max_features = 0;
  return config;
}

TEST(ModelManagerTest, TrainRejectsEmptySamples) {
  ModelManager manager(SmallConfig());
  EXPECT_TRUE(manager.Train({}).status().IsInvalidArgument());
}

TEST(ModelManagerTest, TrainedModelSeparatesGroups) {
  ModelManager manager(SmallConfig());
  auto model = manager.Train(TwoGroupSamples(32, 16)).value();
  ASSERT_EQ(model->k(), 2u);
  const std::vector<uint8_t> low(16, 0x00);
  const std::vector<uint8_t> high(16, 0xff);
  EXPECT_NE(model->Predict(low), model->Predict(high));
}

TEST(ModelManagerTest, RankClustersPutsPredictedFirst) {
  ModelManager manager(SmallConfig());
  auto model = manager.Train(TwoGroupSamples(32, 16)).value();
  const std::vector<uint8_t> low(16, 0x00);
  auto ranked = model->RankClusters(low);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0], model->Predict(low));
}

TEST(ModelManagerTest, PcaPipelinePredictsConsistently) {
  ModelTrainingConfig config = SmallConfig();
  config.pca_components = 4;
  ModelManager manager(config);
  auto model = manager.Train(TwoGroupSamples(32, 16)).value();
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
    ModelTrainingConfig config = SmallConfig();
    config.value_bytes = 32;
    config.num_clusters = 5;
    config.pca_components = pca_components;
    ModelManager manager(config);
    auto model = manager.Train(samples).value();
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

TEST(ModelManagerTest, RecordsTrainingTime) {
  ModelManager manager(SmallConfig());
  ASSERT_TRUE(manager.Train(TwoGroupSamples(64, 16)).ok());
  EXPECT_GT(manager.last_training_seconds(), 0.0);
}

TEST(ModelManagerTest, BackgroundTrainingDeliversModel) {
  ModelManager manager(SmallConfig());
  ASSERT_TRUE(manager.StartBackgroundTrain(TwoGroupSamples(64, 16)));
  // Second start while in flight is refused (single trainer).
  // (It may already have finished on a fast machine; only assert refusal
  // while in_progress is observed.)
  if (manager.background_training_in_progress()) {
    EXPECT_FALSE(manager.StartBackgroundTrain(TwoGroupSamples(8, 16)));
  }
  std::shared_ptr<const ValueModel> model;
  for (int spin = 0; spin < 500 && model == nullptr; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    model = manager.TakeTrainedModel();
  }
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->k(), 2u);
  // A taken model is not delivered twice.
  EXPECT_EQ(manager.TakeTrainedModel(), nullptr);
}

TEST(ModelManagerTest, TrainRejectsMismatchedSampleSizes) {
  ModelManager manager(SmallConfig());
  // Samples shorter than value_bytes would be zero-padded by the encoder
  // and train on garbage; the manager must reject them instead.
  std::vector<std::vector<uint8_t>> bad(8, std::vector<uint8_t>(4, 0xab));
  EXPECT_TRUE(manager.Train(bad).status().IsInvalidArgument());
}

TEST(ModelManagerTest, BackgroundTrainingFailureIsRecorded) {
  ModelManager manager(SmallConfig());
  EXPECT_TRUE(manager.last_background_status().ok());
  EXPECT_EQ(manager.background_failures(), 0u);

  // Force a failing background run: mismatched sample sizes.
  std::vector<std::vector<uint8_t>> bad(8, std::vector<uint8_t>(4, 0xab));
  ASSERT_TRUE(manager.StartBackgroundTrain(bad));
  for (int spin = 0; spin < 500 && manager.background_training_in_progress();
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_FALSE(manager.background_training_in_progress());

  // The failed run delivered no model but left its status behind.
  EXPECT_EQ(manager.TakeTrainedModel(), nullptr);
  EXPECT_TRUE(manager.last_background_status().IsInvalidArgument());
  EXPECT_EQ(manager.background_failures(), 1u);

  // A later successful run clears the status but the counter sticks.
  ASSERT_TRUE(manager.StartBackgroundTrain(TwoGroupSamples(16, 16)));
  std::shared_ptr<const ValueModel> model;
  for (int spin = 0; spin < 500 && model == nullptr; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    model = manager.TakeTrainedModel();
  }
  ASSERT_NE(model, nullptr);
  EXPECT_TRUE(manager.last_background_status().ok());
  EXPECT_EQ(manager.background_failures(), 1u);
}

TEST(ModelManagerTest, BackgroundTrainingRestartableAfterCompletion) {
  ModelManager manager(SmallConfig());
  ASSERT_TRUE(manager.StartBackgroundTrain(TwoGroupSamples(16, 16)));
  std::shared_ptr<const ValueModel> model;
  for (int spin = 0; spin < 500 && model == nullptr; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    model = manager.TakeTrainedModel();
  }
  ASSERT_NE(model, nullptr);
  EXPECT_TRUE(manager.StartBackgroundTrain(TwoGroupSamples(16, 16)));
}

}  // namespace
}  // namespace pnw::core
