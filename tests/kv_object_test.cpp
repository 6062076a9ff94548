#include <gtest/gtest.h>

#include "kv/object.hpp"

namespace skv::kv {
namespace {

TEST(ObjectString, IntEncodingForNumbers) {
    auto o = Object::make_string("12345");
    EXPECT_EQ(o->type(), ObjType::kString);
    EXPECT_EQ(o->encoding(), ObjEncoding::kInt);
    EXPECT_EQ(o->string_value(), "12345");
    EXPECT_EQ(*o->int_value(), 12345);
}

TEST(ObjectString, RawEncodingForText) {
    auto o = Object::make_string("hello");
    EXPECT_EQ(o->encoding(), ObjEncoding::kRaw);
    EXPECT_FALSE(o->int_value().has_value());
    EXPECT_EQ(o->string_len(), 5u);
}

TEST(ObjectString, LeadingZeroNotIntEncoded) {
    auto o = Object::make_string("007");
    EXPECT_EQ(o->encoding(), ObjEncoding::kRaw);
    EXPECT_EQ(o->string_value(), "007");
}

TEST(ObjectString, AppendForcesRaw) {
    auto o = Object::make_string("12");
    EXPECT_EQ(o->encoding(), ObjEncoding::kInt);
    EXPECT_EQ(o->string_append("ab"), 4u);
    EXPECT_EQ(o->encoding(), ObjEncoding::kRaw);
    EXPECT_EQ(o->string_value(), "12ab");
}

TEST(ObjectString, SetSwitchesEncoding) {
    auto o = Object::make_string("abc");
    o->string_set("42");
    EXPECT_EQ(o->encoding(), ObjEncoding::kInt);
    o->string_set("xyz");
    EXPECT_EQ(o->encoding(), ObjEncoding::kRaw);
}

TEST(ObjectEquals, Strings) {
    EXPECT_TRUE(Object::make_string("42")->equals(*Object::make_string("42")));
    EXPECT_FALSE(Object::make_string("a")->equals(*Object::make_string("b")));
    EXPECT_FALSE(Object::make_string("a")->equals(*Object::make_list()));
}

TEST(ObjectEquals, IntVsRawSameValue) {
    // "42" int-encoded equals "42" appended into raw form.
    auto raw = Object::make_string("4");
    raw->string_append("2");
    EXPECT_TRUE(Object::make_string("42")->equals(*raw));
}

TEST(ObjectEquals, Lists) {
    auto a = Object::make_list();
    auto b = Object::make_list();
    a->list().push_back(Sds("x"));
    b->list().push_back(Sds("x"));
    EXPECT_TRUE(a->equals(*b));
    b->list().push_back(Sds("y"));
    EXPECT_FALSE(a->equals(*b));
}

TEST(ObjectMemory, GrowsWithContent) {
    auto small = Object::make_string("a");
    auto big = Object::make_string(std::string(10'000, 'b'));
    EXPECT_GT(big->memory_bytes(), small->memory_bytes());
    auto lst = Object::make_list();
    const auto empty = lst->memory_bytes();
    for (int i = 0; i < 100; ++i) lst->list().push_back(Sds("element"));
    EXPECT_GT(lst->memory_bytes(), empty);
}

TEST(ObjectMemory, StringCarriesNoListStorage) {
    // The list payload is allocated by make_list, not embedded.
    EXPECT_LT(sizeof(Object), sizeof(std::deque<Sds>));
}

} // namespace
} // namespace skv::kv
