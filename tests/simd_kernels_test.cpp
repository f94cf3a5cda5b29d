// Parity tests for the vectorized kernel dispatch (tensor/simd.hpp): the
// dispatched squared_l2 / GEMM / axpy paths must agree with the plain-loop
// *_scalar references to 1e-5 over random shapes, with special attention to
// ragged tails that are not multiples of the SIMD width (8/16 floats).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"
#include "util/rng.hpp"

namespace spider::tensor {
namespace {

Matrix random_matrix(util::Rng& rng, std::size_t rows, std::size_t cols) {
    Matrix m{rows, cols};
    m.randomize_normal(rng, 0.0F, 1.0F);
    return m;
}

std::vector<float> random_vec(util::Rng& rng, std::size_t n) {
    std::vector<float> v(n);
    for (float& x : v) x = static_cast<float>(rng.normal());
    return v;
}

void expect_matrix_near(const Matrix& got, const Matrix& want) {
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (std::size_t i = 0; i < got.rows(); ++i) {
        for (std::size_t j = 0; j < got.cols(); ++j) {
            const float w = want.at(i, j);
            const float tol = 1e-5F * std::max(1.0F, std::fabs(w));
            EXPECT_NEAR(got.at(i, j), w, tol)
                << "at (" << i << "," << j << ")";
        }
    }
}

// Dims straddling the 8- and 16-float vector widths, plus sub-width sizes.
const std::size_t kRaggedDims[] = {1,  2,  3,  7,  8,  9,  15, 16, 17,
                                   31, 32, 33, 63, 64, 65, 100, 127, 128, 129};

TEST(SimdDispatch, TablesAreWellFormed) {
    const simd::Kernels& active = simd::active_kernels();
    const simd::Kernels& portable = simd::portable_kernels();
    EXPECT_NE(active.name, nullptr);
    EXPECT_NE(portable.name, nullptr);
    EXPECT_NE(active.squared_l2, nullptr);
    EXPECT_NE(active.dot, nullptr);
    EXPECT_NE(active.dot4, nullptr);
    EXPECT_NE(active.axpy, nullptr);
    EXPECT_NE(active.gemm_acc, nullptr);
    // avx2_active() must agree with which table got picked.
    EXPECT_EQ(simd::avx2_active(),
              &active == simd::avx2_kernels_or_null());
}

TEST(SimdParity, SquaredL2RaggedTails) {
    util::Rng rng{11};
    for (const std::size_t dim : kRaggedDims) {
        const std::vector<float> a = random_vec(rng, dim);
        const std::vector<float> b = random_vec(rng, dim);
        const float ref = squared_l2_scalar(a, b);
        const float got = squared_l2(a, b);
        EXPECT_NEAR(got, ref, 1e-5F * std::max(1.0F, std::fabs(ref)))
            << "dim=" << dim;
    }
}

TEST(SimdParity, SquaredL2ZeroLengthAndIdentical) {
    const std::vector<float> empty;
    EXPECT_EQ(squared_l2(empty, empty), 0.0F);
    util::Rng rng{12};
    const std::vector<float> v = random_vec(rng, 33);
    EXPECT_EQ(squared_l2(v, v), 0.0F);
}

TEST(SimdParity, DotAgainstScalarReduction) {
    util::Rng rng{13};
    const auto dot = simd::active_kernels().dot;
    for (const std::size_t dim : kRaggedDims) {
        const std::vector<float> a = random_vec(rng, dim);
        const std::vector<float> b = random_vec(rng, dim);
        float ref = 0.0F;
        for (std::size_t i = 0; i < dim; ++i) ref += a[i] * b[i];
        const float got = dot(a.data(), b.data(), dim);
        EXPECT_NEAR(got, ref, 1e-5F * std::max(1.0F, std::fabs(ref)))
            << "dim=" << dim;
    }
}

TEST(SimdParity, MatmulRandomShapesIncludingRagged) {
    util::Rng rng{17};
    const std::size_t shapes[][3] = {{1, 1, 1},   {2, 3, 4},   {4, 16, 16},
                                     {5, 7, 13},  {8, 32, 10}, {13, 17, 19},
                                     {16, 64, 33}, {31, 33, 47}, {64, 64, 64}};
    for (const auto& s : shapes) {
        const Matrix a = random_matrix(rng, s[0], s[1]);
        const Matrix b = random_matrix(rng, s[1], s[2]);
        Matrix want;
        Matrix got;
        matmul_scalar(a, b, want);
        matmul(a, b, got);
        expect_matrix_near(got, want);
    }
}

TEST(SimdParity, MatmulAtBRandomShapesIncludingRagged) {
    util::Rng rng{19};
    const std::size_t shapes[][3] = {{1, 1, 1},  {3, 2, 5},   {7, 4, 9},
                                     {16, 8, 17}, {33, 5, 31}, {64, 13, 65}};
    for (const auto& s : shapes) {
        // a: [k, m], b: [k, n] -> out: [m, n]
        const Matrix a = random_matrix(rng, s[0], s[1]);
        const Matrix b = random_matrix(rng, s[0], s[2]);
        Matrix want;
        Matrix got;
        matmul_at_b_scalar(a, b, want);
        matmul_at_b(a, b, got);
        expect_matrix_near(got, want);
    }
}

TEST(SimdParity, MatmulABtRandomShapesIncludingRagged) {
    util::Rng rng{23};
    const std::size_t shapes[][3] = {{1, 1, 1},  {2, 5, 3},   {9, 7, 4},
                                     {17, 15, 8}, {31, 33, 5}, {65, 13, 64}};
    for (const auto& s : shapes) {
        // a: [m, k], b: [n, k] -> out: [m, n]
        const Matrix a = random_matrix(rng, s[0], s[1]);
        const Matrix b = random_matrix(rng, s[2], s[1]);
        Matrix want;
        Matrix got;
        matmul_a_bt_scalar(a, b, want);
        matmul_a_bt(a, b, got);
        expect_matrix_near(got, want);
    }
}

TEST(SimdParity, AxpyRaggedTails) {
    util::Rng rng{29};
    for (const std::size_t dim : kRaggedDims) {
        Matrix x = random_matrix(rng, 1, dim);
        Matrix y_ref = random_matrix(rng, 1, dim);
        Matrix y_got{1, dim};
        for (std::size_t j = 0; j < dim; ++j) y_got.at(0, j) = y_ref.at(0, j);
        axpy_scalar(0.37F, x, y_ref);
        axpy(0.37F, x, y_got);
        expect_matrix_near(y_got, y_ref);
    }
}

// The gradient path of nn/ runs entirely through matmul_at_b/matmul_a_bt;
// cross-check a full chain: numerical agreement of (a@b)@c computed with
// dispatched kernels vs. scalar ones compounds any kernel error.
TEST(SimdParity, ChainedGemmStaysWithinTolerance) {
    util::Rng rng{31};
    const Matrix a = random_matrix(rng, 21, 37);
    const Matrix b = random_matrix(rng, 37, 29);
    const Matrix c = random_matrix(rng, 29, 11);
    Matrix ab_ref;
    Matrix abc_ref;
    matmul_scalar(a, b, ab_ref);
    matmul_scalar(ab_ref, c, abc_ref);
    Matrix ab;
    Matrix abc;
    matmul(a, b, ab);
    matmul(ab, c, abc);
    for (std::size_t i = 0; i < abc.rows(); ++i) {
        for (std::size_t j = 0; j < abc.cols(); ++j) {
            const float w = abc_ref.at(i, j);
            EXPECT_NEAR(abc.at(i, j), w,
                        1e-4F * std::max(1.0F, std::fabs(w)));
        }
    }
}

std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

// dot4 against four dot calls of the same table, bit for bit, for every
// length across the 8/16-float step boundaries and several B row strides
// (tight, padded, odd); A and B start off vector alignment on purpose.
void expect_dot4_matches_dot(const simd::Kernels& kernels) {
    const std::size_t pads[] = {0, 1, 5, 16};
    util::Rng rng{37};
    for (std::size_t k = 1; k <= 130; ++k) {
        for (const std::size_t pad : pads) {
            const std::size_t ldb = k + pad;
            const std::vector<float> a = random_vec(rng, k + 1);
            const std::vector<float> b = random_vec(rng, 4 * ldb + 1);
            float got[4];
            kernels.dot4(a.data() + 1, b.data() + 1, ldb, k, got);
            for (std::size_t r = 0; r < 4; ++r) {
                const float want =
                    kernels.dot(a.data() + 1, b.data() + 1 + r * ldb, k);
                EXPECT_EQ(bits(got[r]), bits(want))
                    << kernels.name << " k=" << k << " ldb=" << ldb
                    << " row=" << r;
            }
        }
    }
}

TEST(SimdBitExact, Dot4EqualsFourDotsActiveTable) {
    expect_dot4_matches_dot(simd::active_kernels());
}

TEST(SimdBitExact, Dot4EqualsFourDotsPortableTable) {
    expect_dot4_matches_dot(simd::portable_kernels());
}

// matmul_a_bt drives dot4 over groups of four B rows and dot over the
// leftovers; n = 1..13 covers every remainder mod 4 several times, and
// each element must equal a plain dot of its row pair bit for bit.
TEST(SimdBitExact, MatmulABtEqualsPerElementDot) {
    util::Rng rng{41};
    const auto dot = simd::active_kernels().dot;
    const std::size_t depths[] = {1, 7, 8, 16, 33, 100};
    for (std::size_t n = 1; n <= 13; ++n) {
        for (const std::size_t k : depths) {
            const Matrix a = random_matrix(rng, 5, k);
            const Matrix b = random_matrix(rng, n, k);
            Matrix got;
            matmul_a_bt(a, b, got);
            ASSERT_EQ(got.rows(), 5U);
            ASSERT_EQ(got.cols(), n);
            for (std::size_t i = 0; i < a.rows(); ++i) {
                for (std::size_t j = 0; j < n; ++j) {
                    const float want = dot(a.row(i).data(), b.row(j).data(), k);
                    EXPECT_EQ(bits(got.at(i, j)), bits(want))
                        << "n=" << n << " k=" << k << " at (" << i << ","
                        << j << ")";
                }
            }
        }
    }
}

}  // namespace
}  // namespace spider::tensor
