#include "nn/gemm.hpp"

#include <algorithm>
#include <cstring>

#include "common/simd.hpp"

namespace nebula {

namespace {
constexpr int kBlock = 64;
} // namespace

NEBULA_HOT_ALIGNED void
gemm(int M, int N, int K, const float *A, const float *B, float *C,
     bool accumulate)
{
    if (!accumulate)
        std::memset(C, 0, sizeof(float) * static_cast<size_t>(M) * N);

    for (int i0 = 0; i0 < M; i0 += kBlock) {
        const int i1 = std::min(i0 + kBlock, M);
        for (int k0 = 0; k0 < K; k0 += kBlock) {
            const int k1 = std::min(k0 + kBlock, K);
            for (int i = i0; i < i1; ++i) {
                float *c = C + static_cast<size_t>(i) * N;
                const float *a = A + static_cast<size_t>(i) * K;
                for (int k = k0; k < k1; ++k) {
                    const float aik = a[k];
                    if (aik == 0.0f)
                        continue;
                    const float *b = B + static_cast<size_t>(k) * N;
                    for (int j = 0; j < N; ++j)
                        c[j] += aik * b[j];
                }
            }
        }
    }
}

NEBULA_HOT_ALIGNED void
gemmTransA(int M, int N, int K, const float *A, const float *B, float *C,
           bool accumulate)
{
    if (!accumulate)
        std::memset(C, 0, sizeof(float) * static_cast<size_t>(M) * N);

    // C[i][j] += sum_k A[k][i] * B[k][j]
    for (int k = 0; k < K; ++k) {
        const float *a = A + static_cast<size_t>(k) * M;
        const float *b = B + static_cast<size_t>(k) * N;
        for (int i = 0; i < M; ++i) {
            const float aki = a[i];
            if (aki == 0.0f)
                continue;
            float *c = C + static_cast<size_t>(i) * N;
            for (int j = 0; j < N; ++j)
                c[j] += aki * b[j];
        }
    }
}

NEBULA_HOT_ALIGNED void
gemmTransB(int M, int N, int K, const float *A, const float *B, float *C,
           bool accumulate)
{
    if (!accumulate)
        std::memset(C, 0, sizeof(float) * static_cast<size_t>(M) * N);

    // C[i][j] += sum_k A[i][k] * B[j][k]
    for (int i = 0; i < M; ++i) {
        const float *a = A + static_cast<size_t>(i) * K;
        float *c = C + static_cast<size_t>(i) * N;
        for (int j = 0; j < N; ++j) {
            const float *b = B + static_cast<size_t>(j) * K;
            double acc = c[j];
            for (int k = 0; k < K; ++k) {
                const float aik = a[k];
                if (aik == 0.0f)
                    continue;
                acc += static_cast<double>(aik) * b[k];
            }
            c[j] = static_cast<float>(acc);
        }
    }
}

} // namespace nebula
