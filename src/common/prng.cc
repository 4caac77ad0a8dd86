/**
 * @file
 * Prng jump-ahead and the lane-parallel byte fill.
 *
 * xorshift128+'s state update is linear over GF(2)^128: one next() is
 * a fixed 128x128 bit matrix T, whose characteristic polynomial P has
 * degree 128. By Cayley-Hamilton, T^n = r(T) with r = x^n mod P, so
 * n steps cost one polynomial power (square-and-multiply over
 * GF(2)[x]) and 128 matrix applications (Horner's rule, each one a
 * next() on an accumulator state). The lane fill computes the power
 * for its lane length once and applies it from lane to lane.
 */

#include "common/prng.hh"

#include <bit>
#include <cstring>

namespace darco {

namespace {

using Poly = unsigned __int128;

/** P(x) = x^128 + kCharPoly (the x^128 term is implicit). */
constexpr Poly kCharPoly =
    (static_cast<Poly>(0x01f9f801f6fd0098ull) << 64) |
    0xbd82fd40e01730f9ull;

/** a * x mod P. */
Poly
mulX(Poly a)
{
    const bool carry = (a >> 127) != 0;
    a <<= 1;
    return carry ? a ^ kCharPoly : a;
}

/** a * b mod P (shift-and-add, high bit of b first). */
Poly
mulMod(Poly a, Poly b)
{
    Poly r = 0;
    for (int i = 127; i >= 0; --i) {
        r = mulX(r);
        if ((b >> i) & 1)
            r ^= a;
    }
    return r;
}

/** x^steps mod P (square-and-multiply). */
Poly
xPow(uint64_t steps)
{
    Poly r = 1;
    for (int i = static_cast<int>(std::bit_width(steps)) - 1; i >= 0; --i) {
        r = mulMod(r, r);
        if ((steps >> i) & 1)
            r = mulX(r);
    }
    return r;
}

/** (s0, s1) = r(T) applied to (s0, s1), by Horner's rule. */
void
applyPoly(Poly r, uint64_t &s0, uint64_t &s1)
{
    uint64_t a = 0;
    uint64_t b = 0;
    for (int i = 127; i >= 0; --i) {
        uint64_t x = a;
        a = b;
        x ^= x << 23;
        b = x ^ a ^ (x >> 17) ^ (a >> 26);
        if ((r >> i) & 1) {
            a ^= s0;
            b ^= s1;
        }
    }
    s0 = a;
    s1 = b;
}

static_assert(std::endian::native == std::endian::little,
              "fillLanes packs bytes little-endian");

using U64x4 = uint64_t __attribute__((vector_size(32)));
using U64x8 = uint64_t __attribute__((vector_size(64)));

/**
 * Lanes = sizeof(Vec) / 8 xorshift128+ streams in one vector. The
 * first Lanes * lane bytes of @p out, lane = n / (8 * Lanes) * 8, get
 * the low bytes of the next Lanes * lane outputs of the generator at
 * (@p s0, @p s1): lane j starts one lane-length jump after lane j - 1
 * and writes out + j * lane, eight packed bytes per store. Leaves the
 * state after the last of them and returns how many bytes it wrote.
 */
template <class Vec>
[[gnu::always_inline]] inline size_t
fillLanes(uint8_t *out, size_t n, uint64_t &s0, uint64_t &s1)
{
    constexpr size_t Lanes = sizeof(Vec) / 8;
    const size_t lane = n / (8 * Lanes) * 8;
    if (lane == 0)
        return 0;
    const Poly to_next_lane = xPow(lane);
    Vec a = {};
    Vec b = {};
    for (size_t j = 0; j < Lanes; ++j) {
        if (j != 0)
            applyPoly(to_next_lane, s0, s1);
        a[j] = s0;
        b[j] = s1;
    }
    for (size_t off = 0; off < lane; off += 8) {
        Vec packed = {};
        for (unsigned k = 0; k < 8; ++k) {
            Vec x = a;
            const Vec y = b;
            a = y;
            x ^= x << 23;
            b = x ^ y ^ (x >> 17) ^ (y >> 26);
            packed |= ((b + y) & 0xff) << (8 * k);
        }
        for (size_t j = 0; j < Lanes; ++j)
            std::memcpy(out + j * lane + off, &packed[j], 8);
    }
    s0 = a[Lanes - 1];
    s1 = b[Lanes - 1];
    return Lanes * lane;
}

// One version per instruction set, dispatched at load time through an
// ifunc resolver: eight lanes fill one AVX-512 register; with AVX2 or
// SSE2 four lanes are faster than eight split across registers. The
// resolver runs before the ThreadSanitizer runtime is up, and TSan
// instruments it, so the binary would segfault on start: a TSan build
// keeps the four-lane version alone.
#ifdef __SANITIZE_THREAD__
size_t
fillVector(uint8_t *out, size_t n, uint64_t &s0, uint64_t &s1)
{
    return fillLanes<U64x4>(out, n, s0, s1);
}
#else
__attribute__((target("avx512f"))) size_t
fillVector(uint8_t *out, size_t n, uint64_t &s0, uint64_t &s1)
{
    return fillLanes<U64x8>(out, n, s0, s1);
}

__attribute__((target("avx2"))) size_t
fillVector(uint8_t *out, size_t n, uint64_t &s0, uint64_t &s1)
{
    return fillLanes<U64x4>(out, n, s0, s1);
}

__attribute__((target("default"))) size_t
fillVector(uint8_t *out, size_t n, uint64_t &s0, uint64_t &s1)
{
    return fillLanes<U64x4>(out, n, s0, s1);
}
#endif

} // namespace

Prng::Jump::Jump(uint64_t steps) : poly(xPow(steps)) {}

void
Prng::jump(const Jump &by)
{
    applyPoly(by.poly, s0, s1);
}

void
Prng::fillLowBytes(uint8_t *out, size_t n)
{
    for (size_t i = fillVector(out, n, s0, s1); i < n; ++i)
        out[i] = static_cast<uint8_t>(next());
}

} // namespace darco
