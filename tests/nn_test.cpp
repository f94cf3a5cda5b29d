// Neural-network substrate tests. The load-bearing ones are the numerical
// gradient checks: every layer's analytic backward pass is validated
// against central finite differences, so the training dynamics the whole
// evaluation rests on are trustworthy.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/layers.hpp"
#include "nn/mlp_classifier.hpp"
#include "nn/model_profile.hpp"
#include "nn/optimizer.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"

namespace spider::nn {
namespace {

/// Scalar loss of a forward pass: mean softmax cross-entropy.
double loss_of(Sequential& net, Linear& head, const tensor::Matrix& x,
               std::span<const std::uint32_t> labels) {
    tensor::Matrix hidden;
    net.forward(x, hidden);
    tensor::Matrix logits;
    head.forward(hidden, logits);
    tensor::Matrix probs;
    tensor::softmax_rows(logits, probs);
    return tensor::cross_entropy(probs, labels);
}

TEST(Linear, ForwardMatchesManualComputation) {
    util::Rng rng{3};
    Linear layer{2, 2, rng};
    layer.weight().flat()[0] = 1.0F;  // W = [[1, 2], [3, 4]]
    layer.weight().flat()[1] = 2.0F;
    layer.weight().flat()[2] = 3.0F;
    layer.weight().flat()[3] = 4.0F;
    layer.bias().flat()[0] = 0.5F;
    layer.bias().flat()[1] = -0.5F;

    tensor::Matrix x{1, 2};
    x.at(0, 0) = 1.0F;
    x.at(0, 1) = 1.0F;
    tensor::Matrix y;
    layer.forward(x, y);
    EXPECT_FLOAT_EQ(y.at(0, 0), 4.5F);   // 1+3+0.5
    EXPECT_FLOAT_EQ(y.at(0, 1), 5.5F);   // 2+4-0.5
}

TEST(GradientCheck, FullNetworkNumericalGradients) {
    util::Rng rng{11};
    Sequential net;
    net.add(std::make_unique<Linear>(4, 6, rng));
    net.add(std::make_unique<Relu>());
    net.add(std::make_unique<Linear>(6, 5, rng));
    net.add(std::make_unique<Relu>());
    Linear head{5, 3, rng};

    tensor::Matrix x{3, 4};
    x.randomize_normal(rng, 0.0F, 1.0F);
    const std::vector<std::uint32_t> labels = {0, 2, 1};

    // Analytic gradients.
    net.zero_grad();
    head.zero_grad();
    tensor::Matrix hidden;
    net.forward(x, hidden);
    tensor::Matrix logits;
    head.forward(hidden, logits);
    tensor::Matrix probs;
    tensor::softmax_rows(logits, probs);
    tensor::Matrix dlogits;
    tensor::softmax_cross_entropy_backward(probs, labels, dlogits);
    tensor::Matrix dhidden;
    head.backward(dlogits, dhidden);
    tensor::Matrix dx;
    net.backward(dhidden, dx);

    // Finite differences on every parameter of every layer.
    const float eps = 1e-3F;
    auto check_params = [&](Layer& layer, const char* tag) {
        for (ParamRef ref : layer.params()) {
            for (std::size_t i = 0; i < ref.value->size(); ++i) {
                float& w = ref.value->flat()[i];
                const float original = w;
                w = original + eps;
                const double up = loss_of(net, head, x, labels);
                w = original - eps;
                const double down = loss_of(net, head, x, labels);
                w = original;
                const double numeric = (up - down) / (2.0 * eps);
                const double analytic = ref.grad->flat()[i];
                EXPECT_NEAR(analytic, numeric, 2e-2)
                    << tag << " param index " << i;
            }
        }
    };
    check_params(net, "trunk");
    check_params(head, "head");
}

TEST(Sequential, ActivationExposesIntermediate) {
    util::Rng rng{13};
    Sequential net;
    net.add(std::make_unique<Linear>(3, 4, rng));
    net.add(std::make_unique<Relu>());
    tensor::Matrix x{2, 3};
    x.randomize_normal(rng, 0.0F, 1.0F);
    tensor::Matrix out;
    net.forward(x, out);
    // Output equals the last activation; the pre-ReLU is also accessible.
    const tensor::Matrix& relu_out = net.activation(1);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_FLOAT_EQ(out.flat()[i], relu_out.flat()[i]);
        EXPECT_GE(relu_out.flat()[i], 0.0F);
    }
}

TEST(Sequential, ThrowsWhenEmpty) {
    Sequential net;
    tensor::Matrix x{1, 1};
    tensor::Matrix y;
    EXPECT_THROW(net.forward(x, y), std::logic_error);
}

TEST(Sgd, StepMovesAgainstGradient) {
    util::Rng rng{17};
    Linear layer{2, 2, rng};
    layer.zero_grad();
    const float before = layer.weight().flat()[0];
    // Gradient of +1 on one weight.
    layer.params()[0].grad->flat()[0] = 1.0F;
    SgdConfig config;
    config.learning_rate = 0.1F;
    config.momentum = 0.0F;
    config.weight_decay = 0.0F;
    SgdOptimizer opt{layer.params(), config};
    opt.step();
    EXPECT_NEAR(layer.weight().flat()[0], before - 0.1F, 1e-6);
    // Gradients were consumed.
    EXPECT_FLOAT_EQ(layer.params()[0].grad->flat()[0], 0.0F);
}

TEST(Sgd, MomentumAccumulates) {
    util::Rng rng{19};
    Linear layer{1, 1, rng};
    layer.weight().flat()[0] = 0.0F;
    SgdConfig config;
    config.learning_rate = 1.0F;
    config.momentum = 0.5F;
    config.weight_decay = 0.0F;
    SgdOptimizer opt{layer.params(), config};
    // Two steps of unit gradient: v1 = 1, v2 = 1.5.
    layer.params()[0].grad->flat()[0] = 1.0F;
    opt.step();
    EXPECT_NEAR(layer.weight().flat()[0], -1.0F, 1e-6);
    layer.params()[0].grad->flat()[0] = 1.0F;
    opt.step();
    EXPECT_NEAR(layer.weight().flat()[0], -2.5F, 1e-6);
}

TEST(Sgd, WeightDecayShrinksWeights) {
    util::Rng rng{23};
    Linear layer{1, 1, rng};
    layer.weight().flat()[0] = 10.0F;
    SgdConfig config;
    config.learning_rate = 0.1F;
    config.momentum = 0.0F;
    config.weight_decay = 0.5F;
    SgdOptimizer opt{layer.params(), config};
    layer.params()[0].grad->flat()[0] = 0.0F;
    opt.step();
    EXPECT_NEAR(layer.weight().flat()[0], 10.0F - 0.1F * 0.5F * 10.0F, 1e-5);
}

TEST(CosineLr, EndpointsAndMonotonicity) {
    EXPECT_FLOAT_EQ(cosine_lr(0.1F, 0.001F, 0, 100), 0.1F);
    EXPECT_NEAR(cosine_lr(0.1F, 0.001F, 99, 100), 0.001F, 1e-6);
    float prev = 1.0F;
    for (std::size_t e = 0; e < 50; ++e) {
        const float lr = cosine_lr(0.1F, 0.001F, e, 50);
        EXPECT_LE(lr, prev);
        prev = lr;
    }
    EXPECT_FLOAT_EQ(cosine_lr(0.1F, 0.001F, 0, 1), 0.1F);
}

TEST(MlpClassifier, LearnsLinearlySeparableData) {
    MlpConfig config;
    config.input_dim = 2;
    config.hidden_dims = {8, 4};
    config.num_classes = 2;
    config.seed = 29;
    config.sgd.learning_rate = 0.1F;
    MlpClassifier model{config};

    util::Rng rng{31};
    tensor::Matrix x{64, 2};
    std::vector<std::uint32_t> labels(64);
    auto fill = [&] {
        for (std::size_t i = 0; i < 64; ++i) {
            const std::uint32_t cls = i % 2;
            x.at(i, 0) = static_cast<float>(rng.normal(cls ? 2.0 : -2.0, 0.5));
            x.at(i, 1) = static_cast<float>(rng.normal(cls ? -2.0 : 2.0, 0.5));
            labels[i] = cls;
        }
    };

    double first_loss = 0.0;
    double last_loss = 0.0;
    for (int step = 0; step < 60; ++step) {
        fill();
        const ForwardResult fwd = model.forward(x, labels);
        if (step == 0) first_loss = fwd.mean_loss;
        last_loss = fwd.mean_loss;
        model.backward_and_step(labels);
    }
    EXPECT_LT(last_loss, first_loss * 0.2);
    fill();
    EXPECT_GT(model.evaluate(x, labels), 0.95);
}

TEST(MlpClassifier, EmbeddingDimensionsMatchConfig) {
    MlpConfig config;
    config.input_dim = 5;
    config.hidden_dims = {16, 7};
    config.num_classes = 3;
    MlpClassifier model{config};
    EXPECT_EQ(model.embedding_dim(), 7U);

    tensor::Matrix x{4, 5};
    const std::vector<std::uint32_t> labels = {0, 1, 2, 0};
    const ForwardResult fwd = model.forward(x, labels);
    EXPECT_EQ(fwd.embeddings.rows(), 4U);
    EXPECT_EQ(fwd.embeddings.cols(), 7U);
    EXPECT_EQ(fwd.per_sample_loss.size(), 4U);
    EXPECT_EQ(fwd.predictions.size(), 4U);
}

TEST(MlpClassifier, TrainMaskBlocksUpdatesForMaskedRows) {
    MlpConfig config;
    config.input_dim = 2;
    config.hidden_dims = {4, 4};
    config.num_classes = 2;
    config.seed = 37;
    config.sgd.weight_decay = 0.0F;  // decay alone would move weights
    MlpClassifier model_masked{config};
    MlpClassifier model_reference{config};

    util::Rng rng{41};
    tensor::Matrix x{8, 2};
    x.randomize_normal(rng, 0.0F, 1.0F);
    const std::vector<std::uint32_t> labels = {0, 1, 0, 1, 0, 1, 0, 1};

    // Masking every row = no update at all: predictions stay identical to
    // an untrained clone.
    model_masked.forward(x, labels);
    const std::vector<std::uint8_t> none(8, 0);
    model_masked.backward_and_step(labels, none);

    const ForwardResult a = model_masked.forward(x, labels);
    const ForwardResult b = model_reference.forward(x, labels);
    for (std::size_t i = 0; i < a.per_sample_loss.size(); ++i) {
        EXPECT_NEAR(a.per_sample_loss[i], b.per_sample_loss[i], 1e-6);
    }
}

TEST(MlpClassifier, RejectsBadInputs) {
    MlpConfig config;
    config.input_dim = 3;
    config.hidden_dims = {4};
    config.num_classes = 2;
    MlpClassifier model{config};
    tensor::Matrix wrong{2, 5};
    const std::vector<std::uint32_t> labels = {0, 1};
    EXPECT_THROW(model.forward(wrong, labels), std::invalid_argument);
    EXPECT_THROW(model.backward_and_step(labels), std::logic_error);
}

// Bit-level fingerprint of a training trajectory: FNV-1a over the bit
// patterns, so a one-ulp drift anywhere changes the hash.
struct MlpTrace {
    std::uint64_t embeddings = 14695981039346656037ULL;
    std::uint64_t losses = 14695981039346656037ULL;
};

void fnv_mix(std::uint64_t& h, const void* data, std::size_t len) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h = (h ^ bytes[i]) * 1099511628211ULL;
    }
}

void record(const ForwardResult& fwd, MlpTrace& trace) {
    fnv_mix(trace.embeddings, fwd.embeddings.data(),
            fwd.embeddings.size() * sizeof(float));
    fnv_mix(trace.losses, fwd.per_sample_loss.data(),
            fwd.per_sample_loss.size() * sizeof(double));
}

// 20 SGD steps of the ResNet50-profile MLP (48 -> {96, 64, 48} -> 100
// classes, batch 128), with one ragged 77-row batch (the backward
// workspaces reshape down and back up) and one train_mask that zeroes
// every third row. Every step's embeddings and per-sample losses, plus a
// final probe forward that reads back the weights the run reached, are
// folded into the trace.
MlpTrace run_mlp_trace(double dropout) {
    constexpr std::size_t kInput = 48;
    constexpr std::uint64_t kClasses = 100;
    MlpConfig config;
    config.input_dim = kInput;
    config.hidden_dims = {96, 64, 48};
    config.num_classes = kClasses;
    config.dropout = dropout;
    config.seed = 53;
    MlpClassifier model{config};

    util::Rng rng{59};
    const auto batch = [&rng](std::size_t rows, tensor::Matrix& x,
                              std::vector<std::uint32_t>& labels) {
        x = tensor::Matrix{rows, kInput};
        x.randomize_normal(rng, 0.0F, 1.0F);
        labels.resize(rows);
        for (auto& label : labels) {
            label = static_cast<std::uint32_t>(rng.uniform_index(kClasses));
        }
    };
    MlpTrace trace;
    tensor::Matrix x;
    std::vector<std::uint32_t> labels;
    for (int step = 0; step < 20; ++step) {
        batch(step == 9 ? 77 : 128, x, labels);
        record(model.forward(x, labels), trace);
        std::vector<std::uint8_t> mask;
        if (step == 13) {
            mask.assign(labels.size(), 1);
            for (std::size_t i = 0; i < mask.size(); i += 3) mask[i] = 0;
        }
        model.backward_and_step(labels, mask);
    }
    batch(32, x, labels);
    record(model.forward(x, labels), trace);
    return trace;
}

// Whether the AVX2 `dot` rounds its scalar-tail products before adding
// them. GCC builds that tail `sum += a[i] * b[i]` either way: at -O2 it
// contracts each step into one FMA, at -O0 and -O3 (where it vectorizes
// the products first) it does not, so the AVX2 trajectory has one value
// per build flavour. The probe runs the head layer's shape (k = 100: a
// 4-float tail) with tail products -1 and (1 + 2^-12)^2, whose lowest bit
// (2^-24) only a fused add keeps.
bool avx2_tail_products_rounded() {
    std::vector<float> a(100, 0.0F);
    std::vector<float> b(100, 0.0F);
    a[96] = -1.0F;
    b[96] = 1.0F;
    a[97] = b[97] = 1.0F + 0x1p-12F;
    return tensor::simd::active_kernels().dot(a.data(), b.data(), 100) ==
           0x1p-11F;
}

// Pins the training trajectory bit for bit: the backward-pass rework
// (4-row dot kernel, skipped first-layer input gradient, reused
// workspaces) must leave every weight exactly where the plain path put
// it. Expected values were captured from the build before that rework:
// under SPIDER_SIMD=scalar (one value for every build), and under the
// AVX2 table from a Release build (tail products rounded, as at -O0)
// and a RelWithDebInfo build (fused tail, -O2).
TEST(MlpClassifier, TrajectoryMatchesParent) {
    struct Expected {
        double dropout;
        MlpTrace avx2_rounded_tail;
        MlpTrace avx2_fused_tail;
        MlpTrace portable;
    };
    const Expected cases[] = {
        {0.0,
         {1223921320443022401ULL, 9126380893571058578ULL},
         {8364232817240130186ULL, 14461891421090399219ULL},
         {8436912718385217589ULL, 13427971551754774038ULL}},
        {0.1,
         {273740450014479758ULL, 722097754696108315ULL},
         {8561310601751602453ULL, 5319666977816888262ULL},
         {12682223427817284125ULL, 8630704504495975775ULL}},
    };
    const bool avx2 = tensor::simd::avx2_active();
    const bool rounded = avx2_tail_products_rounded();
    for (const Expected& c : cases) {
        const MlpTrace got = run_mlp_trace(c.dropout);
        const MlpTrace& want = !avx2 ? c.portable
                               : rounded ? c.avx2_rounded_tail
                                         : c.avx2_fused_tail;
        EXPECT_EQ(got.embeddings, want.embeddings) << "dropout " << c.dropout;
        EXPECT_EQ(got.losses, want.losses) << "dropout " << c.dropout;
    }
}

TEST(ModelProfile, Table1ValuesPreserved) {
    const ModelProfile r18 = make_profile(ModelKind::kResNet18);
    EXPECT_EQ(r18.name, "ResNet18");
    EXPECT_DOUBLE_EQ(r18.table1_stage1_ms, 42.0);
    EXPECT_DOUBLE_EQ(r18.backward_ms, 35.0);
    EXPECT_DOUBLE_EQ(r18.is_ms, 16.0);
    EXPECT_FALSE(r18.long_is_pipeline);

    const ModelProfile alex = make_profile(ModelKind::kAlexNet);
    EXPECT_DOUBLE_EQ(alex.table1_stage1_ms, 62.0);
    EXPECT_DOUBLE_EQ(alex.is_ms, 35.0);
    EXPECT_TRUE(alex.long_is_pipeline);  // Fig. 12(b) model
}

TEST(ModelProfile, EvaluatedSetHasFourModels) {
    const auto models = evaluated_profiles();
    ASSERT_EQ(models.size(), 4U);
    EXPECT_EQ(models[0].name, "ResNet18");
    EXPECT_EQ(models[3].name, "Vgg16");
    EXPECT_EQ(all_profiles().size(), 6U);
}

TEST(ModelProfile, EmbeddingDimsTrackPaperOrdering) {
    // AlexNet/VGG16 have the largest embeddings (paper Section 5), hence
    // the longest IS stage.
    const auto r18 = make_profile(ModelKind::kResNet18);
    const auto alex = make_profile(ModelKind::kAlexNet);
    EXPECT_GT(alex.paper_embedding_dim, r18.paper_embedding_dim);
    EXPECT_GT(alex.is_ms, r18.is_ms);
}

}  // namespace
}  // namespace spider::nn
