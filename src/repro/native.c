/*
 * Compiled GF(p) kernels, p = 2^64 - 2^32 + 1.
 *
 * Three entry points, loaded by repro.native through ctypes:
 *
 *   mul_reduce  elementwise a * b mod p (paper Eq. 4 reduction of the
 *               full 128-bit product);
 *   stage_dft   one plan stage diag(r) . F_R(w) . diag(c) along the
 *               radix axis of a (blocks, radix, tail) array, run as an
 *               in-place radix-2 FFT over precomputed powers of w;
 *   carry_rows  SSA carry recovery: each row of convolution
 *               coefficients carried into m-bit digits in one
 *               sequential pass (the paper's carry-recovery adder).
 *
 * The caller validates every pointer, shape and table in Python.  All
 * field results are canonical residues; inputs may be any uint64 (they
 * are reduced on load), so the kernels agree bit for bit with the
 * numpy paths on every input.
 */
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>

typedef uint64_t u64;
typedef unsigned __int128 u128;

#define P 0xFFFFFFFF00000001ULL
/* 2^64 mod p. */
#define EPSILON 0xFFFFFFFFULL
/* Columns per work tile: a radix-64 tile is 16 KiB, inside L1. */
#define TILE 32

/* Corrections that depend on data are masks, not branches: a carry
 * out of a random 64-bit sum is a coin flip, which a branch predictor
 * cannot learn. */
#define MASK(cond) ((u64)0 - (u64)(cond))

/* Eq. 4 on a 128-bit value hi*2^64 + lo, hi = h1*2^32 + h0:
 * lo - h1 + h0*(2^32 - 1) mod p.  Exact for every hi and lo. */
static inline u64 reduce_wide(u64 hi, u64 lo)
{
    u64 h0 = hi & EPSILON, h1 = hi >> 32;
    u64 t = lo - h1;
    if (__builtin_expect(lo < h1, 0))
        t -= EPSILON; /* borrow: -2^64 == -epsilon; t > epsilon here */
    u64 m = (h0 << 32) - h0;
    u64 s = t + m;
    s += EPSILON & MASK(s < m); /* carry: +2^64 == +epsilon, once */
    return s - (P & MASK(s >= P));
}

static inline u64 reduce128(u128 x)
{
    return reduce_wide((u64)(x >> 64), (u64)x);
}

static inline u64 mul_mod(u64 a, u64 b)
{
    return reduce128((u128)a * b);
}

/* a + b >= p exactly when a >= p - b; then a + b - p = a - (p - b). */
static inline u64 add_mod(u64 a, u64 b)
{
    u64 gap = P - b;
    return a - gap + (P & MASK(a < gap));
}

static inline u64 sub_mod(u64 a, u64 b)
{
    return a - b + (P & MASK(a < b));
}

/* out[i] = a[i] * b[i % period] mod p for i < n; n is a multiple of
 * period, and out may be a itself. */
void mul_reduce(const u64 *a, const u64 *b, u64 *out, size_t n, size_t period)
{
    if (period == 1) {
        u64 s = b[0];
        for (size_t i = 0; i < n; i++)
            out[i] = mul_mod(a[i], s);
        return;
    }
    for (size_t start = 0; start < n; start += period) {
        const u64 *x = a + start;
        u64 *y = out + start;
        for (size_t j = 0; j < period; j++)
            y[j] = mul_mod(x[j], b[j]);
    }
}

/* Radix-2 butterflies on rows u, v of a tile: (u, v) <- (u + w*v,
 * u - w*v), with w*v computed by TWIDDLED. */
#define BUTTERFLIES(TWIDDLED)                                               \
    for (size_t t = 0; t < width; t++) {                                    \
        u64 a = u[t], b = TWIDDLED;                                         \
        u[t] = add_mod(a, b);                                               \
        v[t] = sub_mod(a, b);                                               \
    }

/* In-place decimation-in-time FFT over the rows of a (radix, width)
 * tile held in bit-reversed row order; emits natural order. */
static inline void fft_tile(u64 *tile, size_t radix, size_t width,
                            const u64 *powers)
{
    for (size_t half = 1; half < radix; half <<= 1) {
        size_t stride = radix / (2 * half);
        for (size_t group = 0; group < radix; group += 2 * half) {
            for (size_t j = 0; j < half; j++) {
                u64 *restrict u = tile + (group + j) * width;
                u64 *restrict v = u + half * width;
                u64 w = powers[j * stride];
                if (j == 0) {
                    BUTTERFLIES(v[t])
                } else {
                    BUTTERFLIES(mul_mod(v[t], w))
                }
            }
        }
    }
}

/*
 * out[b, k, :] = r[k] * sum_i w^(k*i) * c[i] * x[b, i, :]  (mod p)
 *
 * x and out are C-contiguous (blocks, radix, tail) arrays that do not
 * overlap; radix is a power of two >= 2 and powers[j] = w^j for
 * j < radix/2.  c and r are NULL when they are all ones.
 *
 * Work goes through an L1-sized (radix, TILE) tile buffer: TILE
 * columns of one block when tail >= TILE, else whole tails of
 * TILE / tail blocks side by side, so every butterfly loop runs over a
 * contiguous row.  A tile is loaded in bit-reversed row order (scaled
 * by c), transformed in place and stored scaled by r.
 *
 * Returns 0, or -1 when the tile buffer cannot be allocated.
 */
int stage_dft(const u64 *x, u64 *out, size_t blocks, size_t radix,
              size_t tail, const u64 *powers, const u64 *c,
              const u64 *r)
{
    size_t bits = 0;
    while (((size_t)1 << bits) < radix)
        bits++;
    u64 *tile = malloc(radix * TILE * sizeof(u64));
    size_t *reversed = malloc(radix * sizeof(size_t));
    if (!tile || !reversed) {
        free(tile);
        free(reversed);
        return -1;
    }
    for (size_t i = 0; i < radix; i++) {
        size_t rev = 0;
        for (size_t b = 0, v = i; b < bits; b++, v >>= 1)
            rev = (rev << 1) | (v & 1);
        reversed[i] = rev;
    }
    size_t per_tile = tail >= TILE ? 1 : TILE / tail;
    for (size_t blk = 0; blk < blocks; blk += per_tile) {
        size_t count = blocks - blk < per_tile ? blocks - blk : per_tile;
        for (size_t col = 0; col < tail; col += TILE) {
            size_t span = tail - col < TILE ? tail - col : TILE;
            size_t width = count * span;
            for (size_t i = 0; i < radix; i++) {
                u64 *dst = tile + reversed[i] * width;
                u64 ci = c ? c[i] : 1;
                for (size_t g = 0; g < count; g++, dst += span) {
                    const u64 *src = x + ((blk + g) * radix + i) * tail + col;
                    if (c) {
                        for (size_t t = 0; t < span; t++)
                            dst[t] = mul_mod(src[t], ci);
                    } else {
                        for (size_t t = 0; t < span; t++)
                            dst[t] = src[t] - (P & MASK(src[t] >= P));
                    }
                }
            }
            fft_tile(tile, radix, width, powers);
            for (size_t k = 0; k < radix; k++) {
                const u64 *src = tile + k * width;
                u64 rk = r ? r[k] : 1;
                for (size_t g = 0; g < count; g++, src += span) {
                    u64 *dst = out + ((blk + g) * radix + k) * tail + col;
                    if (r) {
                        for (size_t t = 0; t < span; t++)
                            dst[t] = mul_mod(src[t], rk);
                    } else {
                        /* an identity on canonical values, written as
                         * a reduction so that compilers do not turn a
                         * few-word copy into a slow rep movs */
                        for (size_t t = 0; t < span; t++)
                            dst[t] = src[t] - (P & MASK(src[t] >= P));
                    }
                }
            }
        }
    }
    free(tile);
    free(reversed);
    return 0;
}

/*
 * out[b, :] = the low width m-bit digits of sum_j in[b, j] * 2^(m*j),
 * least significant first, for a C-contiguous (batch, n) input;
 * width >= n and 0 < m < 64.  Every digit of every row is written, so
 * out needs no zero-fill; width = n + ceil(64/m) + 1 holds the whole
 * row value.
 *
 * The running carry stays below 2^64 (it is at most (carry + 2^64) /
 * 2^m), but carry + in[b, j] takes 65 bits, hence 128-bit arithmetic.
 */
void carry_rows(const u64 *in, u64 *out, size_t batch, size_t n,
                size_t width, unsigned m)
{
    u64 mask = ((u64)1 << m) - 1;
    for (size_t b = 0; b < batch; b++) {
        const u64 *x = in + b * n;
        u64 *y = out + b * width;
        u128 carry = 0;
        size_t j = 0;
        for (; j < n; j++) {
            carry += x[j];
            y[j] = (u64)carry & mask;
            carry >>= m;
        }
        for (; j < width; j++) {
            y[j] = (u64)carry & mask;
            carry >>= m;
        }
    }
}
