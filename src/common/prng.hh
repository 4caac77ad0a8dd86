/**
 * @file
 * Deterministic pseudo-random number generator used by workload
 * generation and property tests.
 *
 * xorshift128+ keeps every experiment reproducible: all randomness in
 * the simulator flows through explicitly seeded Prng instances; there
 * is no dependence on wall-clock time or address-space layout.
 */

#ifndef DARCO_COMMON_PRNG_HH
#define DARCO_COMMON_PRNG_HH

#include <cassert>
#include <cstddef>
#include <cstdint>

namespace darco {

/** Deterministic xorshift128+ generator. */
class Prng
{
  public:
    explicit Prng(uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

    /** Re-seed via splitmix64 so that nearby seeds diverge. */
    void
    reseed(uint64_t seed)
    {
        auto splitmix = [&seed]() {
            seed += 0x9E3779B97F4A7C15ull;
            uint64_t z = seed;
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
            z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
            return z ^ (z >> 31);
        };
        s0 = splitmix();
        s1 = splitmix();
        if (s0 == 0 && s1 == 0)
            s1 = 1;
    }

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        uint64_t x = s0;
        const uint64_t y = s1;
        s0 = y;
        x ^= x << 23;
        s1 = x ^ y ^ (x >> 17) ^ (y >> 26);
        return s1 + y;
    }

    /**
     * A jump of fixed length: x^steps modulo the generator's
     * characteristic polynomial, computed once in O(log steps) and
     * applied to any number of states.
     */
    class Jump
    {
      public:
        explicit Jump(uint64_t steps);

      private:
        friend class Prng;
        unsigned __int128 poly;
    };

    /**
     * Advance the state exactly as the jump's `steps` calls to next()
     * would: its polynomial applied to the state by Horner's rule.
     */
    void jump(const Jump &by);

    /** Advance the state exactly as @p steps calls to next() would. */
    void jump(uint64_t steps) { jump(Jump(steps)); }

    /**
     * out[i] = low byte of the i-th next(), for i < @p n, leaving the
     * state where n next() calls would. Eight lanes, one jump apart,
     * step together in one vector, so this runs several times faster
     * than the per-byte loop while writing the same bytes.
     */
    void fillLowBytes(uint8_t *out, size_t n);

    /**
     * Uniform in [0, bound). @p bound must be non-zero.
     *
     * Lemire's multiply-shift bounded draw with rejection: exactly
     * uniform for every bound (a plain `next() % bound` over-weights
     * the low residues of non-power-of-two bounds by one part in
     * 2^64/bound). The rejection loop runs at most once in
     * expectation and almost never for small bounds.
     */
    uint64_t
    below(uint64_t bound)
    {
        assert(bound != 0 && "Prng::below: bound must be non-zero");
        unsigned __int128 product =
            static_cast<unsigned __int128>(next()) * bound;
        uint64_t low = static_cast<uint64_t>(product);
        if (low < bound) {
            // 2^64 mod bound, computed without 128-bit division.
            const uint64_t threshold = (0 - bound) % bound;
            while (low < threshold) {
                product =
                    static_cast<unsigned __int128>(next()) * bound;
                low = static_cast<uint64_t>(product);
            }
        }
        return static_cast<uint64_t>(product >> 64);
    }

    /** Uniform in [lo, hi] inclusive. */
    int64_t
    range(int64_t lo, int64_t hi)
    {
        // Span in uint64_t: hi - lo + 1 in signed arithmetic
        // overflows (UB) for wide ranges. A span of 0 means the full
        // 64-bit range (e.g. range(INT64_MIN, INT64_MAX)), where any
        // draw is in range; the unsigned add wraps to the right
        // signed value.
        const uint64_t span = static_cast<uint64_t>(hi) -
                              static_cast<uint64_t>(lo) + 1;
        const uint64_t offset = span == 0 ? next() : below(span);
        return static_cast<int64_t>(static_cast<uint64_t>(lo) +
                                    offset);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Bernoulli draw with probability @p p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

  private:
    uint64_t s0 = 1;
    uint64_t s1 = 2;
};

} // namespace darco

#endif // DARCO_COMMON_PRNG_HH
