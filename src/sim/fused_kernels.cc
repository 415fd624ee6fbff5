/**
 * @file
 * The two apply kernels of gate fusion (see sim/fusion.hh):
 * applyFused1 for a 2x2 operator and applyFused2 for a 4x4 one. Kept
 * in a separate translation unit so the build can give just these hot
 * loops tuned optimization flags (TRIQ_NATIVE_KERNELS) without changing
 * code generation for the per-gate baseline paths in statevector.cc —
 * benchmarks compare the two, so the baseline must keep the generic
 * build.
 *
 * The kernels work on the raw double representation of the amplitude
 * array instead of std::complex. GCC compiles std::complex operator*
 * with an inf/nan recovery branch into __muldc3, which dominates the
 * runtime at the small state dimensions typical after qubit compaction;
 * plain real/imaginary arithmetic keeps the inner loops branch- and
 * call-free. Unitary inputs are finite by construction, so the recovery
 * path is never needed.
 *
 * When the target supports AVX2+FMA (any recent x86 under the
 * TRIQ_NATIVE_KERNELS build) the dense kernels process two interleaved
 * complex amplitudes per 256-bit vector. The whole accumulate step
 * y += x * m for a vector of two amplitudes x and a scalar matrix
 * entry m is three instructions with no lane crossing:
 *
 *     acc = fmaddsub(x, mr, fmaddsub(swap(x), mi, acc))
 *
 * (the inner fmaddsub puts mi*x.im - acc.re in even lanes and
 * mi*x.re + acc.im in odd lanes; the outer one restores the signs
 * while adding the real-part products.) The innermost state stride
 * must cover at least two amplitudes for this layout, so when qubit 0
 * is an operand each kernel takes a stride-1 layout that splits one
 * loaded vector into broadcast halves. Builds without AVX2+FMA take the
 * scalar loops, which compute the same sums in a different association
 * order. Fused-path amplitudes were never
 * bit-identical to the per-gate path (only equivalent to ~1e-15 per
 * gate, locked by tests/test_fusion.cc), so the kernels are free to
 * pick the fastest association.
 *
 * Group structure: every dense kernel walks its flattened group space
 * — group index t is the basis index with the operand bits deleted, so
 * the whole pass is [0, dim >> nq). forSegments expands it back into
 * maximal contiguous runs of group base amplitudes, which the inner
 * bodies walk one group (or one two-amplitude vector unit) at a time.
 */

#include "sim/statevector.hh"

#include <algorithm>

#include "common/logging.hh"

#if defined(__AVX2__) && defined(__FMA__)
#define TRIQ_KERNELS_AVX2 1
#include <immintrin.h>
#endif

namespace triq
{

namespace
{

/**
 * Enumerate the `groups` group bases of a fused kernel as maximal
 * contiguous amplitude runs.
 *
 * Group index t is the basis index with the k operand bits deleted;
 * `strides` are the operand bit values in ascending order. Expanding t
 * back to the group's base amplitude index inserts a zero bit at each
 * stride position, so the strides[0] consecutive groups from each
 * multiple of strides[0] map to consecutive amplitudes, and each
 * callback fn(i, n) covers one run [i, i + n) with n = strides[0].
 * `groups` = dim >> k is a multiple of strides[0]: with k distinct
 * operands, the lowest sits at or below bit log2(dim) - k.
 */
template <typename Fn>
inline void
forSegments(uint64_t groups, const uint64_t *strides, int k, const Fn &fn)
{
    const uint64_t s0 = strides[0];
    for (uint64_t t = 0; t < groups; t += s0) {
        uint64_t i = t;
        for (int j = 0; j < k; ++j)
            i = ((i & ~(strides[j] - 1)) << 1) | (i & (strides[j] - 1));
        fn(i, s0);
    }
}

} // namespace

#ifdef TRIQ_KERNELS_AVX2

namespace
{

/**
 * acc + x * (mr, mi) on two interleaved complex lanes. fmaddsub
 * subtracts its addend in even lanes and adds it in odd lanes, so the
 * inner fmaddsub yields [im*mi - acc.re, re*mi + acc.im] and the outer
 * one restores both signs while adding the real-part products.
 */
inline __m256d
cmulAdd2(__m256d x, __m256d mr, __m256d mi, __m256d acc)
{
    __m256d xs = _mm256_permute_pd(x, 0x5); // [im, re] per lane
    return _mm256_fmaddsub_pd(x, mr, _mm256_fmaddsub_pd(xs, mi, acc));
}

/** x * (mr, mi) on two interleaved complex lanes. */
inline __m256d
cmul2(__m256d x, __m256d mr, __m256d mi)
{
    __m256d xs = _mm256_permute_pd(x, 0x5);
    return _mm256_fmaddsub_pd(x, mr, _mm256_mul_pd(xs, mi));
}

/**
 * Stride-1 applyFused2: when qubit 0 is an operand, amplitude pairs
 * (i, i|1) are adjacent, so one vector holds two *different* basis
 * states of the same group. Each loaded vector covers matrix columns
 * (h, h | c0) where c0 is qubit 0's column bit and h is 0 or the high
 * operand's column bit; each output vector covers the same pair of
 * rows. The matrix entries are pre-splatted into per-lane
 * coefficient vectors (lanes 0-1 = first row of the pair, lanes 2-3 =
 * second), so the inner loop is plain cmulAdd2 chains over the two
 * loaded vectors split into per-column broadcast halves.
 *
 * `m` is the 4x4 row-major matrix, `c0` qubit 0's column bit,
 * `hcol[g]`/`hoff[g]` the column bits and amplitude offset (doubles)
 * of high-operand value g, `stride` the high operand's amplitude
 * stride. One vector unit covers one group; the `groups` groups are
 * walked in halved-stride space (vector unit w holds amplitudes 2w and
 * 2w+1).
 */
inline void
applyStride1Dense2(double *ad, uint64_t groups, const Cplx *m, int c0,
                   const int *hcol, const uint64_t *hoff, uint64_t stride)
{
    constexpr int G = 2;           // high-bit values
    constexpr int NC = 4;          // matrix dimension
    __m256d cr[G][NC], ci[G][NC];  // per-lane coefficients
    for (int g = 0; g < G; ++g) {
        const int r0 = hcol[g], r1 = hcol[g] | c0;
        for (int c = 0; c < NC; ++c) {
            const Cplx a = m[r0 * NC + c], b = m[r1 * NC + c];
            cr[g][c] = _mm256_setr_pd(a.real(), a.real(), b.real(),
                                      b.real());
            ci[g][c] = _mm256_setr_pd(a.imag(), a.imag(), b.imag(),
                                      b.imag());
        }
    }
    const uint64_t vstride = stride >> 1;
    forSegments(groups, &vstride, 1, [&](uint64_t w0, uint64_t n) {
        for (uint64_t w = w0; w < w0 + n; ++w) {
            const uint64_t i = 2 * w;
            __m256d v[G], dup[NC];
            for (int g = 0; g < G; ++g) {
                v[g] = _mm256_loadu_pd(ad + 2 * i + hoff[g]);
                dup[hcol[g]] = _mm256_permute2f128_pd(v[g], v[g], 0x00);
                dup[hcol[g] | c0] =
                    _mm256_permute2f128_pd(v[g], v[g], 0x11);
            }
            for (int g = 0; g < G; ++g) {
                __m256d acc = cmul2(dup[0], cr[g][0], ci[g][0]);
                for (int c = 1; c < NC; ++c)
                    acc = cmulAdd2(dup[c], cr[g][c], ci[g][c], acc);
                _mm256_storeu_pd(ad + 2 * i + hoff[g], acc);
            }
        }
    });
}

} // namespace

#endif // TRIQ_KERNELS_AVX2

void
StateVector::applyFused1(const Cplx *m, int q)
{
    checkQubit(q);
    const uint64_t bit = uint64_t{1} << q;
    const uint64_t groups = dim() >> 1;
    const double m00r = m[0].real(), m00i = m[0].imag();
    const double m01r = m[1].real(), m01i = m[1].imag();
    const double m10r = m[2].real(), m10i = m[2].imag();
    const double m11r = m[3].real(), m11i = m[3].imag();
    double *ad = reinterpret_cast<double *>(amps_.data());
#ifdef TRIQ_KERNELS_AVX2
    if (bit == 1) {
        // Adjacent pairs: one vector holds both amplitudes of group t;
        // split it into broadcast halves and apply both matrix rows at
        // once.
        const __m256d ar = _mm256_setr_pd(m00r, m00r, m10r, m10r);
        const __m256d ai = _mm256_setr_pd(m00i, m00i, m10i, m10i);
        const __m256d br = _mm256_setr_pd(m01r, m01r, m11r, m11r);
        const __m256d bi = _mm256_setr_pd(m01i, m01i, m11i, m11i);
        for (uint64_t t = 0; t < groups; ++t) {
            __m256d v = _mm256_loadu_pd(ad + 4 * t);
            __m256d xlo = _mm256_permute2f128_pd(v, v, 0x00);
            __m256d xhi = _mm256_permute2f128_pd(v, v, 0x11);
            __m256d y = cmulAdd2(xhi, br, bi, cmul2(xlo, ar, ai));
            _mm256_storeu_pd(ad + 4 * t, y);
        }
        return;
    }
    {
        const __m256d r00 = _mm256_set1_pd(m00r), i00 = _mm256_set1_pd(m00i);
        const __m256d r01 = _mm256_set1_pd(m01r), i01 = _mm256_set1_pd(m01i);
        const __m256d r10 = _mm256_set1_pd(m10r), i10 = _mm256_set1_pd(m10i);
        const __m256d r11 = _mm256_set1_pd(m11r), i11 = _mm256_set1_pd(m11i);
        forSegments(groups, &bit, 1, [&](uint64_t i0, uint64_t n) {
            for (uint64_t i = i0; i < i0 + n; i += 2) {
                double *p0 = ad + 2 * i;
                double *p1 = ad + 2 * (i | bit);
                __m256d x0 = _mm256_loadu_pd(p0);
                __m256d x1 = _mm256_loadu_pd(p1);
                __m256d y0 = cmulAdd2(x1, r01, i01, cmul2(x0, r00, i00));
                __m256d y1 = cmulAdd2(x1, r11, i11, cmul2(x0, r10, i10));
                _mm256_storeu_pd(p0, y0);
                _mm256_storeu_pd(p1, y1);
            }
        });
        return;
    }
#else
    forSegments(groups, &bit, 1, [&](uint64_t i0, uint64_t n) {
        for (uint64_t i = i0; i < i0 + n; ++i) {
            double *p0 = ad + 2 * i;
            double *p1 = ad + 2 * (i | bit);
            const double x0 = p0[0], y0 = p0[1];
            const double x1 = p1[0], y1 = p1[1];
            p0[0] = m00r * x0 - m00i * y0 + m01r * x1 - m01i * y1;
            p0[1] = m00r * y0 + m00i * x0 + m01r * y1 + m01i * x1;
            p1[0] = m10r * x0 - m10i * y0 + m11r * x1 - m11i * y1;
            p1[1] = m10r * y0 + m10i * x0 + m11r * y1 + m11i * x1;
        }
    });
#endif
}

void
StateVector::applyFused2(const Cplx *m, int q0, int q1)
{
    checkQubit(q0);
    checkQubit(q1);
    if (q0 == q1)
        panic("applyFused2: identical qubits");
    const uint64_t b0 = uint64_t{1} << q0;
    const uint64_t b1 = uint64_t{1} << q1;
    const uint64_t bl = std::min(b0, b1);
    const uint64_t bh = std::max(b0, b1);
    const uint64_t strides[2] = {bl, bh};
    const uint64_t groups = dim() >> 2;
    const double *md = reinterpret_cast<const double *>(m);
    double *ad = reinterpret_cast<double *>(amps_.data());
#ifdef TRIQ_KERNELS_AVX2
    if (bl >= 2) {
        forSegments(groups, strides, 2, [&](uint64_t i0, uint64_t n) {
            for (uint64_t i = i0; i < i0 + n; i += 2) {
                double *p[4] = {ad + 2 * i, ad + 2 * (i | b0),
                                ad + 2 * (i | b1), ad + 2 * (i | b0 | b1)};
                __m256d x[4];
                for (int k = 0; k < 4; ++k)
                    x[k] = _mm256_loadu_pd(p[k]);
                for (int r = 0; r < 4; ++r) {
                    const double *row = md + 8 * r;
                    __m256d acc = cmul2(x[0], _mm256_set1_pd(row[0]),
                                        _mm256_set1_pd(row[1]));
                    for (int c = 1; c < 4; ++c)
                        acc = cmulAdd2(x[c], _mm256_set1_pd(row[2 * c]),
                                       _mm256_set1_pd(row[2 * c + 1]),
                                       acc);
                    _mm256_storeu_pd(p[r], acc);
                }
            }
        });
        return;
    }
    {
        // Qubit 0 is an operand: pairs (i, i|1) are adjacent.
        const int c0 = b0 == 1 ? 1 : 2;
        const int hcol[2] = {0, b0 == 1 ? 2 : 1};
        const uint64_t hoff[2] = {0, 2 * bh};
        applyStride1Dense2(ad, groups, m, c0, hcol, hoff, bh);
        return;
    }
#endif
    forSegments(groups, strides, 2, [&](uint64_t i0, uint64_t n) {
        for (uint64_t i = i0; i < i0 + n; ++i) {
            double *p[4] = {ad + 2 * i, ad + 2 * (i | b0), ad + 2 * (i | b1),
                            ad + 2 * (i | b0 | b1)};
            double xr[4], xi[4];
            for (int k = 0; k < 4; ++k) {
                xr[k] = p[k][0];
                xi[k] = p[k][1];
            }
            for (int r = 0; r < 4; ++r) {
                const double *row = md + 8 * r;
                double sr = 0.0, si = 0.0;
                for (int c = 0; c < 4; ++c) {
                    const double br = row[2 * c];
                    const double bi = row[2 * c + 1];
                    sr += br * xr[c] - bi * xi[c];
                    si += br * xi[c] + bi * xr[c];
                }
                p[r][0] = sr;
                p[r][1] = si;
            }
        }
    });
}

} // namespace triq
