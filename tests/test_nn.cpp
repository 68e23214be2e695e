#include "nn/module.h"

#include <cstdio>
#include <cstring>
#include <filesystem>

#include <gtest/gtest.h>

#include "testing.h"
#include "nn/activation.h"
#include "nn/conv.h"
#include "nn/linear.h"
#include "nn/pool.h"
#include "nn/serialize.h"
#include "tensor/tensor_ops.h"

namespace saufno {
namespace {

TEST(Linear, ShapeAndAffine) {
  Rng rng(1);
  nn::Linear lin(4, 3, rng);
  Var x(Tensor::randn({5, 4}, rng), false);
  Var y = lin.forward(x);
  EXPECT_EQ(y.shape(), (Shape{5, 3}));
  // Leading dims flatten through.
  Var x3(Tensor::randn({2, 5, 4}, rng), false);
  EXPECT_EQ(lin.forward(x3).shape(), (Shape{2, 5, 3}));
}

TEST(Linear, ZeroInputGivesBias) {
  Rng rng(2);
  nn::Linear lin(3, 2, rng);
  Var x(Tensor::zeros({1, 3}), false);
  Var y = lin.forward(x);
  auto named = lin.named_parameters();
  Tensor bias;
  for (auto& [n, v] : named) {
    if (n == "bias") bias = v.value();
  }
  EXPECT_TRUE(y.value().reshape({2}).allclose(bias));
}

TEST(Linear, WrongLastDimThrows) {
  Rng rng(3);
  nn::Linear lin(3, 2, rng);
  Var x(Tensor::zeros({2, 4}), false);
  EXPECT_THROW(lin.forward(x), std::runtime_error);
}

TEST(Linear, NoBiasOption) {
  Rng rng(4);
  nn::Linear lin(3, 2, rng, /*bias=*/false);
  EXPECT_EQ(lin.parameters().size(), 1u);
  Var x(Tensor::zeros({1, 3}), false);
  EXPECT_TRUE(lin.forward(x).value().allclose(Tensor::zeros({1, 2})));
}

TEST(PointwiseConv, ActsPerPixel) {
  Rng rng(5);
  nn::PointwiseConv pw(2, 3, rng);
  Var x(Tensor::randn({2, 2, 4, 4}, rng), false);
  Var y = pw.forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 3, 4, 4}));
  // Per-pixel property: permuting spatial positions commutes with the op.
  Tensor xp = permute(x.value(), {0, 1, 3, 2});  // transpose H/W
  Var yp = pw.forward(Var(xp, false));
  Tensor y_t = permute(y.value(), {0, 1, 3, 2});
  EXPECT_TRUE(yp.value().allclose(y_t, 1e-4f, 1e-5f));
}

TEST(PointwiseConv, GradFlowsToWeights) {
  Rng rng(6);
  nn::PointwiseConv pw(2, 2, rng);
  Var x(Tensor::randn({1, 2, 3, 3}, rng), false);
  Var loss = ops::sum_all(ops::square(pw.forward(x)));
  loss.backward();
  for (auto& p : pw.parameters()) {
    EXPECT_GT(sum_all(abs(p.grad())), 0.f);
  }
}

TEST(PointwiseConv, BitIdenticalToChannelsLastMatmul) {
  // The NCHW bmm form W^T x X must reproduce the channels-last form it
  // replaced (permute to NHWC, x W + b, permute back) bit for bit, with and
  // without bias.
  for (bool bias : {true, false}) {
    SCOPED_TRACE(bias ? "bias" : "no bias");
    Rng rng(9);
    nn::PointwiseConv pw(5, 7, rng, bias);
    auto params = pw.named_parameters();
    Tensor w, b;
    for (auto& [name, p] : params) {
      if (name == "weight") w = p.value();
      if (name == "bias") {
        // A zero bias would hide an indexing bug in the broadcast add.
        b = p.value();
        const Tensor r = Tensor::randn(b.shape(), rng);
        for (int64_t i = 0; i < b.numel(); ++i) b.at(i) = r.at(i);
      }
    }
    Tensor x = Tensor::randn({2, 5, 3, 6}, rng);
    Tensor t = permute(x, {0, 2, 3, 1}).reshape({2 * 3 * 6, 5});
    t = matmul(t, w);
    if (bias) t = add(t, b);
    Tensor want = permute(t.reshape({2, 3, 6, 7}), {0, 3, 1, 2});
    Tensor got = pw.forward(Var(x, false)).value();
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             sizeof(float) *
                                 static_cast<std::size_t>(want.numel())));
  }
}

TEST(Conv2dModule, EndToEndGradcheck) {
  Rng rng(7);
  nn::Conv2d conv(2, 2, 3, rng, 1, 1);
  Var x(Tensor::randn({1, 2, 4, 4}, rng), true);
  auto params = conv.parameters();
  std::vector<Var> leaves = {x};
  for (auto& p : params) leaves.push_back(p);
  testing::expect_gradients_match(
      [&conv](std::vector<Var>& ls) {
        return ops::sum_all(ops::square(conv.forward(ls[0])));
      },
      leaves);
}

TEST(ModuleTree, NamedParametersDottedPaths) {
  Rng rng(8);
  auto seq = std::make_shared<nn::Sequential>();
  seq->append(std::make_shared<nn::Linear>(4, 8, rng));
  seq->append(std::make_shared<nn::ReLU>());
  seq->append(std::make_shared<nn::Linear>(8, 2, rng));
  auto named = seq->named_parameters();
  ASSERT_EQ(named.size(), 4u);
  EXPECT_EQ(named[0].first, "0.weight");
  EXPECT_EQ(named[1].first, "0.bias");
  EXPECT_EQ(named[2].first, "2.weight");
  EXPECT_EQ(named[3].first, "2.bias");
  EXPECT_EQ(seq->num_parameters(), 4 * 8 + 8 + 8 * 2 + 2);
}

TEST(ModuleTree, ZeroGradClearsAll) {
  Rng rng(9);
  nn::Linear lin(3, 3, rng);
  Var x(Tensor::randn({2, 3}, rng), false);
  ops::sum_all(lin.forward(x)).backward();
  bool any_nonzero = false;
  for (auto& p : lin.parameters()) {
    if (sum_all(abs(p.grad())) > 0) any_nonzero = true;
  }
  EXPECT_TRUE(any_nonzero);
  lin.zero_grad();
  for (auto& p : lin.parameters()) {
    EXPECT_EQ(sum_all(abs(p.grad())), 0.f);
  }
}

TEST(Sequential, AppliesInOrder) {
  Rng rng(10);
  auto seq = std::make_shared<nn::Sequential>();
  seq->append(std::make_shared<nn::Lambda>(
      [](const Var& v) { return ops::mul_scalar(v, 2.f); }));
  seq->append(std::make_shared<nn::Lambda>(
      [](const Var& v) { return ops::add_scalar(v, 1.f); }));
  Var x(Tensor::ones({2}), false);
  // (1*2)+1 = 3, not (1+1)*2 = 4.
  EXPECT_TRUE(seq->forward(x).value().allclose(Tensor::full({2}, 3.f)));
}

TEST(Pooling, MaxPoolModuleAndUpsample) {
  Rng rng(11);
  nn::MaxPool2d pool(2);
  nn::UpsampleBilinear up(2);
  Var x(Tensor::randn({1, 2, 4, 4}, rng), false);
  EXPECT_EQ(pool.forward(x).shape(), (Shape{1, 2, 2, 2}));
  EXPECT_EQ(up.forward(x).shape(), (Shape{1, 2, 8, 8}));
}

TEST(Activations, Modules) {
  Var x(Tensor({3}, {-1.f, 0.f, 1.f}), false);
  nn::ReLU relu;
  nn::GELU gelu_m;
  nn::Tanh tanh_m;
  EXPECT_TRUE(relu.forward(x).value().allclose(Tensor({3}, {0.f, 0.f, 1.f})));
  EXPECT_NEAR(gelu_m.forward(x).value().at(2), 0.841345f, 1e-4f);
  EXPECT_NEAR(tanh_m.forward(x).value().at(0), -0.76159f, 1e-4f);
}

TEST(StateDict, RoundTripThroughMap) {
  Rng rng(12);
  nn::Linear a(4, 4, rng);
  nn::Linear b(4, 4, rng);
  Var x(Tensor::randn({2, 4}, rng), false);
  // Different init -> different outputs.
  EXPECT_FALSE(a.forward(x).value().allclose(b.forward(x).value()));
  nn::load_state_dict(b, nn::state_dict(a));
  EXPECT_TRUE(a.forward(x).value().allclose(b.forward(x).value()));
}

TEST(StateDict, StrictMissingThrowsLooseIgnores) {
  Rng rng(13);
  nn::Linear a(4, 4, rng);
  std::map<std::string, Tensor> empty;
  EXPECT_THROW(nn::load_state_dict(a, empty, /*strict=*/true),
               std::runtime_error);
  nn::load_state_dict(a, empty, /*strict=*/false);  // no-op, no throw
}

TEST(StateDict, ShapeMismatchThrows) {
  Rng rng(14);
  nn::Linear a(4, 4, rng);
  std::map<std::string, Tensor> bad;
  bad.emplace("weight", Tensor::zeros({2, 2}));
  bad.emplace("bias", Tensor::zeros({4}));
  EXPECT_THROW(nn::load_state_dict(a, bad), std::runtime_error);
}

TEST(Checkpoint, SaveLoadPreservesForward) {
  Rng rng(15);
  auto seq = std::make_shared<nn::Sequential>();
  seq->append(std::make_shared<nn::Linear>(6, 10, rng));
  seq->append(std::make_shared<nn::GELU>());
  seq->append(std::make_shared<nn::Linear>(10, 2, rng));
  Var x(Tensor::randn({3, 6}, rng), false);
  Tensor before = seq->forward(x).value().clone();

  const std::string path = ::testing::TempDir() + "/saufno_ckpt.bin";
  nn::save_checkpoint(*seq, path);

  auto seq2 = std::make_shared<nn::Sequential>();
  Rng rng2(999);
  seq2->append(std::make_shared<nn::Linear>(6, 10, rng2));
  seq2->append(std::make_shared<nn::GELU>());
  seq2->append(std::make_shared<nn::Linear>(10, 2, rng2));
  nn::load_checkpoint(*seq2, path);
  EXPECT_TRUE(seq2->forward(x).value().allclose(before));
  std::remove(path.c_str());
}

TEST(Checkpoint, CorruptFileThrows) {
  const std::string path = ::testing::TempDir() + "/saufno_bad.bin";
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a checkpoint", f);
    std::fclose(f);
  }
  Rng rng(16);
  nn::Linear lin(2, 2, rng);
  EXPECT_THROW(nn::load_checkpoint(lin, path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace saufno
