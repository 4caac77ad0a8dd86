/**
 * @file
 * Field lists: each stats, config and pins struct names its members
 * once, in a static
 *
 *     template <class Self, class Visit>
 *     static constexpr void
 *     forEachField(Self &self, Visit &&visit)
 *     {
 *         visit("cycles", self.cycles);
 *         ...
 *     }
 *
 * and everything that must touch "all the fields" (the exact diffs
 * and equality, the snapshot codec, the config fingerprint, the
 * trace PINS section) walks that list. `Self` is deduced const or
 * mutable, so one list serves readers and writers. Persisted
 * encodings follow the list order, never the struct's memory
 * (docs/robustness.md §4).
 */

#ifndef DARCO_COMMON_FIELDS_HH
#define DARCO_COMMON_FIELDS_HH

#include <array>
#include <bit>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

namespace darco::fields {

namespace detail {

/** Converts to any member type (declared only: unevaluated use). */
struct AnyMember
{
    template <class T>
    constexpr operator T() const;
};

struct IgnoreField
{
    template <class F>
    constexpr void operator()(const char *, F &) const {}
};

template <class T>
struct IsStdArray : std::false_type {};
template <class E, size_t N>
struct IsStdArray<std::array<E, N>> : std::true_type {};

/**
 * Declared, never defined: named only inside constant evaluation,
 * where binding references to its members reads nothing (the
 * fake-object technique Boost.PFR uses), so no T is ever built.
 */
template <class T>
struct Probe
{
    T object;
};
template <class T>
extern const Probe<T> kProbe;

/** Aggregate members of T: the largest initializer arity it takes. */
template <class T, class... Init>
consteval size_t
memberCount()
{
    if constexpr (requires { T{Init{}..., AnyMember{}}; })
        return memberCount<T, Init..., AnyMember>();
    else
        return sizeof...(Init);
}

} // namespace detail

/** T carries a field list. */
template <class T>
concept Listed = requires(T &t) {
    T::forEachField(t, detail::IgnoreField{});
};

/** Entries in T's field list. */
template <Listed T>
consteval size_t
listedCount()
{
    size_t n = 0;
    T::forEachField(detail::kProbe<T>.object,
                    [&n](const char *, const auto &) { ++n; });
    return n;
}

/**
 * The forgotten-field gate, static_asserted beside every list: T's
 * list names all of its aggregate members except @p unlisted, so a
 * member added without a list entry fails the build.
 */
template <Listed T>
consteval bool
listsEveryMember(size_t unlisted = 0)
{
    return listedCount<T>() + unlisted == detail::memberCount<T>();
}

/**
 * Call @p leaf on every scalar reachable from @p value, in list
 * order: listed structs recurse through their lists, std::arrays
 * through their elements.
 */
template <class T, class Leaf>
void
forEachLeaf(T &value, Leaf &&leaf)
{
    using U = std::remove_cv_t<T>;
    if constexpr (Listed<U>) {
        U::forEachField(value, [&leaf](const char *, auto &field) {
            forEachLeaf(field, leaf);
        });
    } else if constexpr (detail::IsStdArray<U>::value) {
        for (auto &element : value)
            forEachLeaf(element, leaf);
    } else {
        leaf(value);
    }
}

/**
 * Append the canonical text of a scalar to @p out: decimal, the
 * string itself, or a double as %.17g would print it in the C locale
 * (to_chars general with precision 17 is specified as exactly that).
 */
template <class T>
void
appendText(std::string &out, const T &value)
{
    if constexpr (std::is_same_v<T, std::string>) {
        out += value;
    } else {
        char buf[32];
        std::to_chars_result r;
        if constexpr (std::is_floating_point_v<T>) {
            r = std::to_chars(buf, buf + sizeof buf, value,
                              std::chars_format::general, 17);
        } else {
            r = std::to_chars(buf, buf + sizeof buf,
                              static_cast<unsigned long long>(value));
        }
        out.append(buf, r.ptr);
    }
}

/** Canonical text of a scalar (appendText into a fresh string). */
template <class T>
std::string
text(const T &value)
{
    std::string out;
    appendText(out, value);
    return out;
}

namespace detail {

/**
 * Visit field i of @p a together with field i of @p b; @p a may be
 * mutable (T deduced non-const).
 */
template <class T, class Visit>
void
forEachPair(T &a, const std::remove_const_t<T> &b, Visit &&visit)
{
    using U = std::remove_const_t<T>;
    std::array<const void *, listedCount<U>()> fields_of_b{};
    size_t i = 0;
    U::forEachField(b, [&](const char *, const auto &field) {
        fields_of_b[i++] = &field;
    });
    i = 0;
    U::forEachField(a, [&](const char *key, auto &field) {
        using F = std::remove_cvref_t<decltype(field)>;
        visit(key, field, *static_cast<const F *>(fields_of_b[i++]));
    });
}

} // namespace detail

/**
 * Call @p leaf(x, y) on every scalar x of @p a together with the
 * scalar y at the same place in @p b, in list order (forEachLeaf over
 * two values at once). @p a may be mutable: a fold writes into it.
 */
template <class T, class Leaf>
void
forEachLeafPair(T &a, const std::remove_const_t<T> &b, Leaf &&leaf)
{
    using U = std::remove_const_t<T>;
    if constexpr (Listed<U>) {
        detail::forEachPair(a, b, [&leaf](const char *, auto &fa,
                                          const auto &fb) {
            forEachLeafPair(fa, fb, leaf);
        });
    } else if constexpr (detail::IsStdArray<U>::value) {
        for (size_t i = 0; i < a.size(); ++i)
            forEachLeafPair(a[i], b[i], leaf);
    } else {
        leaf(a, b);
    }
}

/**
 * Exact equality over the field list: every scalar equal, a double
 * by its bit pattern (0.0 and -0.0 differ, a NaN equals itself), so
 * equal values always have the same canonical text (`appendText`)
 * and never stand for two different fingerprint dumps.
 */
template <class T>
bool
equal(const T &a, const T &b)
{
    bool same = true;
    forEachLeafPair(a, b, [&same](const auto &x, const auto &y) {
        using S = std::remove_cvref_t<decltype(x)>;
        if constexpr (std::is_floating_point_v<S>) {
            static_assert(sizeof(S) == sizeof(uint64_t));
            same = same && std::bit_cast<uint64_t>(x) ==
                               std::bit_cast<uint64_t>(y);
        } else {
            same = same && x == y;
        }
    });
    return same;
}

namespace detail {

template <class T, class Report>
void
diffInto(std::string &key, const T &a, const T &b, Report &report)
{
    const size_t len = key.size();
    if constexpr (Listed<T>) {
        forEachPair(a, b, [&](const char *name, const auto &fa,
                              const auto &fb) {
            key += len ? "." : "";
            key += name;
            diffInto(key, fa, fb, report);
            key.resize(len);
        });
    } else if constexpr (IsStdArray<T>::value) {
        for (size_t i = 0; i < a.size(); ++i) {
            key += '[' + std::to_string(i) + ']';
            diffInto(key, a[i], b[i], report);
            key.resize(len);
        }
    } else if (!fields::equal(a, b)) {  // doubles by bit pattern
        report(key, text(a), text(b));
    }
}

} // namespace detail

/**
 * Exact comparison of two listed structs: `report(key, text_a,
 * text_b)` for every scalar that `equal` finds different (0.0 against
 * -0.0 reports, a NaN against itself does not), in list order. Keys
 * name the path: "cycles", "l1i.misses", "bucketUnits[2][0]".
 */
template <Listed T, class Report>
void
forEachMismatch(const T &a, const T &b, Report &&report)
{
    std::string key;
    detail::diffInto(key, a, b, report);
}

} // namespace darco::fields

#endif // DARCO_COMMON_FIELDS_HH
