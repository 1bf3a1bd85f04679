#pragma once

/// \file books.hpp
/// The test-side check that a planner's usage books balance: the
/// SolutionAuditor's ground-up recount of w(e) and b(v) over the per-net
/// states (core/audit.hpp, the wire-books and buffer-books checks) must
/// match the tile graph.  Other audit checks are left out on purpose —
/// callers assert mid-flow, where overflow and unmet length rules are
/// legal.
///
///   EXPECT_TRUE(test::books_balance(rabid));

#include <gtest/gtest.h>

#include "core/allocator.hpp"
#include "core/audit.hpp"

namespace rabid::test {

inline ::testing::AssertionResult books_balance(
    const core::Allocator& alloc) {
  for (const core::AuditViolation& v : alloc.audit().violations) {
    if (v.check == core::AuditCheck::kWireBooks ||
        v.check == core::AuditCheck::kBufferBooks) {
      return ::testing::AssertionFailure()
             << core::audit_check_name(v.check) << ": " << v.detail
             << " (expected " << v.expected << ", actual " << v.actual
             << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace rabid::test
