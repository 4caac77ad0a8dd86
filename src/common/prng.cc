/**
 * @file
 * Prng jump-ahead and the lane-parallel byte fill.
 *
 * xorshift128+'s state update is linear over GF(2)^128: one next() is
 * a fixed 128x128 bit matrix T, whose characteristic polynomial P has
 * degree 128. By Cayley-Hamilton, T^n = r(T) with r = x^n mod P, so
 * n steps cost one polynomial power (square-and-multiply over
 * GF(2)[x]) and 128 matrix applications (Horner's rule, each one a
 * next() on an accumulator state).
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

static_assert(std::endian::native == std::endian::little,
              "fillLanes packs bytes little-endian");

using U64x4 = uint64_t __attribute__((vector_size(32)));

// target_clones dispatches through an ifunc resolver that runs at load
// time, before the ThreadSanitizer runtime is up; TSan instruments it
// and the binary segfaults on start. A TSan build keeps one clone.
#ifdef __SANITIZE_THREAD__
#define DARCO_LANE_CLONES
#else
#define DARCO_LANE_CLONES __attribute__((target_clones("avx2", "default")))
#endif

/**
 * Four xorshift128+ streams in one vector: lane j writes the low bytes
 * of its next @p lane outputs (a multiple of 8) to out + j * lane,
 * eight packed bytes per store. @p s0 / @p s1 hold the lanes' start
 * states on entry and their end states on return.
 */
DARCO_LANE_CLONES void
fillLanes(uint8_t *out, size_t lane, uint64_t s0[4], uint64_t s1[4])
{
    U64x4 a;
    U64x4 b;
    std::memcpy(&a, s0, sizeof a);
    std::memcpy(&b, s1, sizeof b);
    for (size_t off = 0; off < lane; off += 8) {
        U64x4 packed = {0, 0, 0, 0};
        for (unsigned k = 0; k < 8; ++k) {
            U64x4 x = a;
            const U64x4 y = b;
            a = y;
            x ^= x << 23;
            b = x ^ y ^ (x >> 17) ^ (y >> 26);
            packed |= ((b + y) & 0xff) << (8 * k);
        }
        for (size_t j = 0; j < 4; ++j)
            std::memcpy(out + j * lane + off, &packed[j], 8);
    }
    std::memcpy(s0, &a, sizeof a);
    std::memcpy(s1, &b, sizeof b);
}

} // namespace

void
Prng::jump(uint64_t steps)
{
    Poly r = 1;
    for (int i = static_cast<int>(std::bit_width(steps)) - 1; i >= 0; --i) {
        r = mulMod(r, r);
        if ((steps >> i) & 1)
            r = mulX(r);
    }
    Prng acc;
    acc.s0 = acc.s1 = 0;
    for (int i = 127; i >= 0; --i) {
        acc.next();
        if ((r >> i) & 1) {
            acc.s0 ^= s0;
            acc.s1 ^= s1;
        }
    }
    s0 = acc.s0;
    s1 = acc.s1;
}

void
Prng::fillLowBytes(uint8_t *out, size_t n)
{
    const size_t lane = n / 32 * 8;
    if (lane != 0) {
        uint64_t l0[4];
        uint64_t l1[4];
        for (size_t j = 0; j < 4; ++j) {
            l0[j] = s0;
            l1[j] = s1;
            if (j != 3)
                jump(lane);
        }
        fillLanes(out, lane, l0, l1);
        s0 = l0[3];
        s1 = l1[3];
    }
    for (size_t i = 4 * lane; i < n; ++i)
        out[i] = static_cast<uint8_t>(next());
}

} // namespace darco
