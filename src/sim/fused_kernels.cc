/**
 * @file
 * Apply kernels for the gate-fusion pre-pass (see sim/fusion.hh). Kept
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
 * must cover at least
 * two amplitudes for this layout; stride-1 operand patterns and
 * non-x86 builds take the scalar loops, which compute the same sums in
 * a different association order. Fused-path amplitudes were never
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
#include <bit>

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
 * Stride-1 dense apply: when qubit 0 is an operand, amplitude pairs
 * (i, i|1) are adjacent, so one vector holds two *different* basis
 * states of the same group. Each loaded vector covers matrix columns
 * (h, h | c0) where c0 is qubit 0's column bit and h the column bits of
 * the k high operands; each output vector covers the same pair of rows.
 * The matrix entries are pre-splatted into per-lane coefficient vectors
 * (lanes 0-1 = first row of the pair, lanes 2-3 = second), so the inner
 * loop is plain cmulAdd2 chains over 2^k loaded vectors split into
 * per-column broadcast halves.
 *
 * `m` is the (2^{k+1})^2 row-major matrix, `c0` qubit 0's column bit,
 * `hcol[g]`/`hoff[g]` the column bits and amplitude offset (doubles) of
 * high-operand combination g, `strides` the high operands' amplitude
 * strides ascending. One vector unit covers one group; the `groups`
 * groups are walked in halved-stride space (vector unit w holds
 * amplitudes 2w and 2w+1).
 */
template <int K>
inline void
applyStride1Dense(double *ad, uint64_t groups, const Cplx *m, int c0,
                  const int *hcol, const uint64_t *hoff,
                  const uint64_t *strides)
{
    constexpr int G = 1 << K;      // high-bit combinations
    constexpr int NC = 2 * G;      // matrix dimension
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
    uint64_t vstrides[K];
    for (int j = 0; j < K; ++j)
        vstrides[j] = strides[j] >> 1;
    forSegments(groups, vstrides, K, [&](uint64_t w0, uint64_t n) {
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
        const uint64_t hstrides[1] = {bh};
        applyStride1Dense<1>(ad, groups, m, c0, hcol, hoff, hstrides);
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

void
StateVector::applyFused3(const Cplx *m, int q0, int q1, int q2)
{
    checkQubit(q0);
    checkQubit(q1);
    checkQubit(q2);
    if (q0 == q1 || q0 == q2 || q1 == q2)
        panic("applyFused3: identical qubits");
    const uint64_t b0 = uint64_t{1} << q0;
    const uint64_t b1 = uint64_t{1} << q1;
    const uint64_t b2 = uint64_t{1} << q2;
    uint64_t s0 = b0, s1 = b1, s2 = b2; // ascending copies
    if (s0 > s1)
        std::swap(s0, s1);
    if (s1 > s2)
        std::swap(s1, s2);
    if (s0 > s1)
        std::swap(s0, s1);
    const uint64_t strides[3] = {s0, s1, s2};
    const uint64_t groups = dim() >> 3;
    const double *md = reinterpret_cast<const double *>(m);
    double *ad = reinterpret_cast<double *>(amps_.data());
#ifdef TRIQ_KERNELS_AVX2
    if (s0 >= 2) {
        forSegments(groups, strides, 3, [&](uint64_t i0, uint64_t n) {
            for (uint64_t i = i0; i < i0 + n; i += 2) {
                double *p[8];
                __m256d x[8];
                for (int k = 0; k < 8; ++k) {
                    uint64_t j = i;
                    if (k & 1)
                        j |= b0;
                    if (k & 2)
                        j |= b1;
                    if (k & 4)
                        j |= b2;
                    p[k] = ad + 2 * j;
                    x[k] = _mm256_loadu_pd(p[k]);
                }
                for (int r = 0; r < 8; ++r) {
                    const double *row = md + 16 * r;
                    __m256d acc = cmul2(x[0], _mm256_set1_pd(row[0]),
                                        _mm256_set1_pd(row[1]));
                    for (int col = 1; col < 8; ++col)
                        acc = cmulAdd2(x[col], _mm256_set1_pd(row[2 * col]),
                                       _mm256_set1_pd(row[2 * col + 1]),
                                       acc);
                    _mm256_storeu_pd(p[r], acc);
                }
            }
        });
        return;
    }
    {
        // Qubit 0 is an operand: pairs (i, i|1) are adjacent. Column
        // bit k belongs to the operand with stride b_k; sort the two
        // high operands by stride for the iteration.
        const uint64_t bq[3] = {b0, b1, b2};
        int k0 = 0, ka = -1, kb = -1;
        for (int k = 0; k < 3; ++k) {
            if (bq[k] == 1)
                k0 = k;
            else if (ka == -1)
                ka = k;
            else
                kb = k;
        }
        if (bq[ka] > bq[kb])
            std::swap(ka, kb);
        const int c0 = 1 << k0, ca = 1 << ka, cb = 1 << kb;
        const uint64_t sa = bq[ka], sb = bq[kb];
        const int hcol[4] = {0, ca, cb, ca | cb};
        const uint64_t hoff[4] = {0, 2 * sa, 2 * sb, 2 * (sa | sb)};
        const uint64_t hstrides[2] = {sa, sb};
        applyStride1Dense<2>(ad, groups, m, c0, hcol, hoff, hstrides);
        return;
    }
#endif
    forSegments(groups, strides, 3, [&](uint64_t i0, uint64_t n) {
        for (uint64_t i = i0; i < i0 + n; ++i) {
            double *p[8];
            double xr[8], xi[8];
            for (int k = 0; k < 8; ++k) {
                uint64_t j = i;
                if (k & 1)
                    j |= b0;
                if (k & 2)
                    j |= b1;
                if (k & 4)
                    j |= b2;
                p[k] = ad + 2 * j;
                xr[k] = p[k][0];
                xi[k] = p[k][1];
            }
            for (int r = 0; r < 8; ++r) {
                const double *row = md + 16 * r;
                double sr = 0.0, si = 0.0;
                for (int col = 0; col < 8; ++col) {
                    const double br = row[2 * col];
                    const double bi = row[2 * col + 1];
                    sr += br * xr[col] - bi * xi[col];
                    si += br * xi[col] + bi * xr[col];
                }
                p[r][0] = sr;
                p[r][1] = si;
            }
        }
    });
}

void
StateVector::applyDiagonal(const Cplx *diag, const int *qubits,
                           int num_qubits)
{
    if (num_qubits < 1)
        panic("applyDiagonal: need at least one qubit");
    for (int k = 0; k < num_qubits; ++k)
        checkQubit(qubits[k]);
    const double *dd = reinterpret_cast<const double *>(diag);
    double *ad = reinterpret_cast<double *>(amps_.data());

    // Gathering the support bits per amplitude (a shift/or chain over
    // num_qubits) costs more than the complex multiply itself. Instead,
    // precompute the table-index contribution of the low and middle 8
    // basis bits once; per amplitude the local index is then two
    // lookups (plus a rare residual term for qubits above bit 15).
    uint32_t lo8[256], mid[256];
    uint32_t contrib_lo[8] = {}, contrib_mid[8] = {};
    bool has_mid = false, has_res = false;
    for (int k = 0; k < num_qubits; ++k) {
        const int q = qubits[k];
        if (q < 8) {
            contrib_lo[q] |= uint32_t{1} << k;
        } else if (q < 16) {
            contrib_mid[q - 8] |= uint32_t{1} << k;
            has_mid = true;
        } else {
            has_res = true;
        }
    }
    // Fill each table from its already-filled prefix: entry b extends
    // entry b with its lowest bit cleared.
    lo8[0] = 0;
    const uint64_t lo_n = std::min(dim(), uint64_t{256});
    for (uint64_t b = 1; b < lo_n; ++b) {
        const uint64_t low = b & (0 - b);
        lo8[b] = lo8[b ^ low] | contrib_lo[std::countr_zero(low)];
    }
    if (has_mid) {
        mid[0] = 0;
        const uint64_t mid_n = std::min(dim() >> 8, uint64_t{256});
        for (uint64_t b = 1; b < mid_n; ++b) {
            const uint64_t low = b & (0 - b);
            mid[b] = mid[b ^ low] | contrib_mid[std::countr_zero(low)];
        }
    }
    auto localIdx = [&](uint64_t i) -> uint32_t {
        uint32_t local = lo8[i & 255];
        if (has_mid)
            local |= mid[(i >> 8) & 255];
        if (has_res)
            for (int k = 0; k < num_qubits; ++k)
                if (qubits[k] >= 16)
                    local |= ((i >> qubits[k]) & 1) << k;
        return local;
    };

#ifdef TRIQ_KERNELS_AVX2
    for (uint64_t i = 0; i < dim(); i += 2) {
        const uint32_t l0 = localIdx(i), l1 = localIdx(i + 1);
        __m256d c = _mm256_set_m128d(_mm_loadu_pd(dd + 2 * l1),
                                     _mm_loadu_pd(dd + 2 * l0));
        __m256d x = _mm256_loadu_pd(ad + 2 * i);
        __m256d y = cmul2(x, _mm256_movedup_pd(c),
                          _mm256_permute_pd(c, 0xF));
        _mm256_storeu_pd(ad + 2 * i, y);
    }
#else
    for (uint64_t i = 0; i < dim(); ++i) {
        const uint32_t local = localIdx(i);
        const double br = dd[2 * local], bi = dd[2 * local + 1];
        const double xr = ad[2 * i], xi = ad[2 * i + 1];
        ad[2 * i] = br * xr - bi * xi;
        ad[2 * i + 1] = br * xi + bi * xr;
    }
#endif
}

} // namespace triq
