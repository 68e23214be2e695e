#include "core/attention.h"

#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "runtime/thread_pool.h"
#include "testing.h"
#include "tensor/tensor_ops.h"

namespace saufno {
namespace {

TEST(Attention, PreservesShape) {
  Rng rng(1);
  core::SelfAttentionBlock attn(6, 4, rng);
  Var x(Tensor::randn({2, 6, 5, 5}, rng), false);
  EXPECT_EQ(attn.forward(x).shape(), (Shape{2, 6, 5, 5}));
}

TEST(Attention, MeshInvariantAcrossResolutions) {
  // The same parameter set must accept any spatial size (1x1 convs only).
  Rng rng(2);
  core::SelfAttentionBlock attn(4, 4, rng);
  for (int64_t n : {4, 7, 12, 16}) {
    Var x(Tensor::randn({1, 4, n, n}, rng), false);
    EXPECT_EQ(attn.forward(x).shape(), (Shape{1, 4, n, n}));
  }
}

TEST(Attention, ResidualPathDominatesAtZeroOutputWeight) {
  // Zeroing W_o turns the block into the identity (residual only).
  Rng rng(3);
  core::SelfAttentionBlock attn(4, 4, rng);
  for (auto& [name, p] : attn.named_parameters()) {
    if (name.rfind("wo", 0) == 0) p.value().fill_(0.f);
  }
  Var x(Tensor::randn({1, 4, 6, 6}, rng), false);
  EXPECT_TRUE(attn.forward(x).value().allclose(x.value(), 1e-5f, 1e-6f));
}

TEST(Attention, UniformFieldStaysUniform) {
  // On a spatially constant field every position attends identically, so
  // the output must also be spatially constant per channel.
  Rng rng(4);
  core::SelfAttentionBlock attn(3, 3, rng);
  Tensor x({1, 3, 4, 4});
  for (int64_t c = 0; c < 3; ++c) {
    for (int64_t i = 0; i < 16; ++i) x.at(c * 16 + i) = 1.f + 0.5f * c;
  }
  Tensor y = attn.forward(Var(x, false)).value();
  for (int64_t c = 0; c < 3; ++c) {
    const float first = y.at(c * 16);
    for (int64_t i = 1; i < 16; ++i) {
      EXPECT_NEAR(y.at(c * 16 + i), first, 1e-4f);
    }
  }
}

TEST(Attention, BatchItemsIndependent) {
  // Attention must not mix information across the batch dimension.
  Rng rng(5);
  core::SelfAttentionBlock attn(3, 3, rng);
  Rng dr(6);
  Tensor a = Tensor::randn({1, 3, 4, 4}, dr);
  Tensor b = Tensor::randn({1, 3, 4, 4}, dr);
  Tensor both = cat({a, b}, 0);
  Tensor y_both = attn.forward(Var(both, false)).value();
  Tensor y_a = attn.forward(Var(a, false)).value();
  Tensor y_b = attn.forward(Var(b, false)).value();
  EXPECT_TRUE(slice(y_both, 0, 0, 1).allclose(y_a, 1e-4f, 1e-5f));
  EXPECT_TRUE(slice(y_both, 0, 1, 1).allclose(y_b, 1e-4f, 1e-5f));
}

TEST(Attention, GradientsFlowToAllProjections) {
  Rng rng(7);
  core::SelfAttentionBlock attn(4, 3, rng);
  Var x(Tensor::randn({1, 4, 4, 4}, rng), false);
  ops::sum_all(ops::square(attn.forward(x))).backward();
  for (auto& [name, p] : attn.named_parameters()) {
    EXPECT_GT(sum_all(abs(p.grad())), 0.f) << "no grad reached " << name;
  }
}

TEST(Attention, GradcheckSmall) {
  Rng rng(8);
  core::SelfAttentionBlock attn(2, 2, rng);
  Var x(Tensor::randn({1, 2, 3, 3}, rng), true);
  testing::expect_gradients_match(
      [&attn](std::vector<Var>& ls) {
        return ops::sum_all(ops::square(attn.forward(ls[0])));
      },
      {x}, /*eps=*/1e-2f, /*rtol=*/4e-2f, /*atol=*/4e-3f);
}

// The op chain the attention block ran before ops::attention: the full
// [B, N, N] score tensor, scaled, softmaxed and transposed.
Tensor composed_attention(const Tensor& q, const Tensor& k, const Tensor& v,
                          float scale) {
  Tensor scores = bmm(permute(q, {0, 2, 1}), k);
  Tensor p = softmax_lastdim(mul_scalar(scores, scale));
  return bmm(v, permute(p, {0, 2, 1}));
}

TEST(AttentionOp, BitIdenticalToComposedChainAtAnyThreadCount) {
  // Row blocks are 64 query positions: cover N % 64 != 0, N < 64, B = 1,
  // d != C, and N > 512 so the output gemm crosses a K-block.
  const struct { int64_t b, d, c, n; } cases[] = {
      {2, 4, 6, 100}, {1, 3, 5, 20}, {3, 8, 8, 128}, {1, 16, 12, 600}};
  runtime::ThreadPool& pool = runtime::ThreadPool::instance();
  const int ambient = pool.num_threads();
  for (const auto& c : cases) {
    SCOPED_TRACE("B=" + std::to_string(c.b) + " d=" + std::to_string(c.d) +
                 " C=" + std::to_string(c.c) + " N=" + std::to_string(c.n));
    Rng rng(0xA77EULL + static_cast<std::uint64_t>(c.n));
    Tensor q = Tensor::randn({c.b, c.d, c.n}, rng);
    Tensor k = Tensor::randn({c.b, c.d, c.n}, rng);
    Tensor v = Tensor::randn({c.b, c.c, c.n}, rng);
    const float scale = 1.f / std::sqrt(static_cast<float>(c.d));
    pool.resize(1);
    const Tensor want = composed_attention(q, k, v, scale);
    for (int threads : {1, 2, 8}) {
      pool.resize(threads);
      const Tensor got = attention(q, k, v, scale);
      ASSERT_EQ(got.shape(), want.shape());
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                               sizeof(float) *
                                   static_cast<std::size_t>(want.numel())))
          << "threads=" << threads;
    }
  }
  pool.resize(ambient);
}

TEST(AttentionOp, RejectsMismatchedOperands) {
  Tensor q({1, 2, 5}), k({1, 2, 4}), v({1, 3, 5});
  EXPECT_THROW(attention(q, k, v, 1.f), std::runtime_error);
  EXPECT_THROW(attention(q, q, Tensor({2, 3, 5}), 1.f), std::runtime_error);
}

}  // namespace
}  // namespace saufno
