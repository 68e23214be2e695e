// Golden end-to-end regression fixtures.
//
// tests/data/ holds a committed deterministic checkpoint (SAU-FNO-micro,
// full architecture: spectral convs + U-Net + attention), a raw input
// batch, and the kelvin predictions the seed of this test produced for
// them. The tests pin Trainer::predict and the InferenceEngine serving path
// to those stored values, so a spectral or runtime refactor that drifts the
// physics fails HERE with a worst-element report instead of silently
// shifting every downstream number.
//
// Regenerate after an INTENTIONAL numerical change with
//   SAUFNO_REGEN_GOLDEN=1 ./build/test_golden
// and commit the refreshed files (see README "Testing").

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/normalizer.h"
#include "obs/metrics.h"
#include "plan/runner.h"
#include "runtime/inference_engine.h"
#include "testing.h"
#include "train/model_zoo.h"
#include "train/rollout.h"
#include "train/trainer.h"

#ifndef SAUFNO_TEST_DATA_DIR
#define SAUFNO_TEST_DATA_DIR "tests/data"
#endif

namespace saufno {
namespace {

// The fixtures' provenance, fully deterministic: our own Rng drives both
// the weight init and the input draw, so regeneration on any platform
// produces identical bytes — only the model OUTPUT depends on float
// arithmetic, which is exactly what the tolerance guards.
constexpr std::uint64_t kModelSeed = 77;
constexpr std::uint64_t kInputSeed = 123;
constexpr int64_t kRes = 12;
constexpr int64_t kBatch = 2;
// "Tolerance 1e-6": relative, so ~3e-4 K on a ~320 K field — tight enough
// to catch any algorithmic drift, loose enough for compiler-to-compiler
// float reassociation.
constexpr float kRtol = 1e-6f;
constexpr float kAtol = 1e-6f;

std::string fixture(const char* name) {
  return std::string(SAUFNO_TEST_DATA_DIR) + "/" + name;
}

data::Normalizer golden_norm() {
  return data::Normalizer::from_stats(/*ambient=*/318.0, /*power_scale=*/2.5,
                                      /*temp_scale=*/7.25,
                                      /*n_power_channels=*/1);
}

std::shared_ptr<nn::Module> golden_model() {
  return train::make_model("SAU-FNO-micro", /*in_channels=*/3,
                           /*out_channels=*/1, kModelSeed);
}

Tensor golden_input() {
  Rng rng(kInputSeed);
  return Tensor::rand_uniform({kBatch, 3, kRes, kRes}, rng, 0.f, 5.f);
}

bool regen_requested() {
  const char* v = std::getenv("SAUFNO_REGEN_GOLDEN");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

TEST(Golden, RegenerateFixturesWhenRequested) {
  if (!regen_requested()) {
    GTEST_SKIP() << "set SAUFNO_REGEN_GOLDEN=1 to rewrite tests/data/";
  }
  auto model = golden_model();
  const auto norm = golden_norm();
  train::save_deployable(*model, "SAU-FNO-micro", 3, 1, norm,
                         fixture("golden.ckpt"));
  const Tensor input = golden_input();
  testing::write_tensor_file(input, fixture("golden_input.bin"));
  train::Trainer trainer(*model, norm);
  testing::write_tensor_file(trainer.predict(input),
                             fixture("golden_output.bin"));
  std::printf("rewrote golden fixtures under %s\n", SAUFNO_TEST_DATA_DIR);
}

TEST(Golden, CheckpointWeightsMatchDeterministicInit) {
  // The committed checkpoint must BIT-match a fresh deterministic build of
  // the same model: catches accidental drift in the Rng stream or the init
  // rules, which the tolerance-based output checks below would ascribe to
  // numerics.
  auto fresh = golden_model();
  const auto loaded = train::load_deployable(fixture("golden.ckpt"));
  EXPECT_EQ(loaded.meta.model_name, "SAU-FNO-micro");
  const auto a = nn::state_dict(*fresh);
  const auto b = nn::state_dict(*loaded.model);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [name, t] : a) {
    const auto it = b.find(name);
    ASSERT_NE(it, b.end()) << name;
    ASSERT_EQ(it->second.shape(), t.shape()) << name;
    EXPECT_EQ(std::memcmp(it->second.data(), t.data(),
                          sizeof(float) * static_cast<std::size_t>(t.numel())),
              0)
        << "parameter " << name
        << " differs from the deterministic init (Rng or init-rule drift?)";
  }
}

TEST(Golden, TrainerPredictMatchesFixture) {
  const auto loaded = train::load_deployable(fixture("golden.ckpt"));
  ASSERT_TRUE(loaded.meta.has_normalizer);
  const Tensor input = testing::read_tensor_file(fixture("golden_input.bin"));
  const Tensor want = testing::read_tensor_file(fixture("golden_output.bin"));
  ASSERT_EQ(input.shape(), (Shape{kBatch, 3, kRes, kRes}));
  train::Trainer trainer(*loaded.model, loaded.meta.normalizer);
  const Tensor got = trainer.predict(input);
  testing::expect_allclose(got, want, kRtol, kAtol,
                           "Trainer::predict kelvin field");
}

TEST(Golden, CommittedInputMatchesDeterministicDraw) {
  // Same rationale as the weights check: the input file must equal the
  // seeded draw bit-for-bit, so fixture staleness is distinguishable from
  // numeric drift.
  const Tensor stored = testing::read_tensor_file(fixture("golden_input.bin"));
  const Tensor drawn = golden_input();
  ASSERT_EQ(stored.shape(), drawn.shape());
  EXPECT_EQ(std::memcmp(stored.data(), drawn.data(),
                        sizeof(float) *
                            static_cast<std::size_t>(drawn.numel())),
            0);
}

TEST(Golden, InferenceEngineServesFixtureKelvin) {
  // The serving path on the same artifact: raw power maps in, kelvin out,
  // within the golden tolerance of the stored predictions (and therefore
  // bit-identical to Trainer::predict, which PR 2's equivalence test pins).
  // The batch is served twice on one engine: a shape's first forward is
  // the interpreted recording, so only the second round runs the plan.
  runtime::InferenceEngine::Config cfg;
  cfg.max_batch = kBatch;
  cfg.max_wait_us = 60'000'000;  // each round ships as one full batch
  auto engine =
      runtime::InferenceEngine::from_checkpoint(fixture("golden.ckpt"), cfg);
  ASSERT_TRUE(engine->has_normalizer());
  const Tensor input = testing::read_tensor_file(fixture("golden_input.bin"));
  const Tensor want = testing::read_tensor_file(fixture("golden_output.bin"));
  const int64_t sample = 3 * kRes * kRes;
  const int64_t out_sample = kRes * kRes;
  obs::Counter& plan_runs = obs::counter("plan.runs");
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const int64_t runs_before = plan_runs.value();
    std::vector<std::future<Tensor>> futs;
    for (int64_t i = 0; i < kBatch; ++i) {
      Tensor one({3, kRes, kRes});
      std::memcpy(one.data(), input.data() + i * sample,
                  sizeof(float) * static_cast<std::size_t>(sample));
      futs.push_back(engine->submit(std::move(one)));
    }
    for (int64_t i = 0; i < kBatch; ++i) {
      const Tensor got = futs[static_cast<std::size_t>(i)].get();
      ASSERT_EQ(got.shape(), (Shape{1, kRes, kRes}));
      Tensor expect({1, kRes, kRes});
      std::memcpy(expect.data(), want.data() + i * out_sample,
                  sizeof(float) * static_cast<std::size_t>(out_sample));
      testing::expect_allclose(got, expect, kRtol, kAtol,
                               "engine kelvin sample " + std::to_string(i));
    }
    if (round == 1 && engine->plan_runner().mode() == plan::Mode::kOn) {
      EXPECT_EQ(plan_runs.value() - runs_before, 1)
          << "the second round did not run the compiled plan";
    }
  }
}

}  // namespace
}  // namespace saufno
