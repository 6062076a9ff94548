#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>

#include "kv/object.hpp"

// Counts every global operator new in this binary. The replacement is
// program-wide, which is why this file is its own test executable.
namespace {
std::size_t g_allocations = 0;
} // namespace

void* operator new(std::size_t n) {
    ++g_allocations;
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace skv::kv {
namespace {

/// Heap allocations made while building one value (its own teardown is not
/// counted).
template <typename Fn>
std::size_t allocations_to_build(Fn&& make) {
    const std::size_t before = g_allocations;
    const ObjectPtr o = make();
    return g_allocations - before;
}

TEST(ObjectAlloc, RawStringIsOneBlockPlusItsBuffer) {
    // The object and its shared_ptr control block share one allocation; the
    // Sds buffer is the second.
    const std::string value(64, 'x');
    EXPECT_EQ(allocations_to_build([&] { return Object::make_string(value); }), 2u);
}

TEST(ObjectAlloc, IntStringIsOneBlock) {
    EXPECT_EQ(allocations_to_build([] { return Object::make_string_ll(42); }), 1u);
    EXPECT_EQ(allocations_to_build([] { return Object::make_string("12345"); }), 1u);
}

} // namespace
} // namespace skv::kv
