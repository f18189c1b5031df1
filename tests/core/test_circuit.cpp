#include "core/circuit.hpp"

#include <gtest/gtest.h>

#include "oracles/schedule_checks.hpp"

namespace reco {
namespace {

TEST(CircuitAssignment, ValidMatching) {
  const CircuitAssignment a{{{0, 1}, {1, 0}}, 5.0};
  EXPECT_TRUE(a.is_matching(2));
}

TEST(CircuitAssignment, RejectsSharedIngress) {
  const CircuitAssignment a{{{0, 0}, {0, 1}}, 1.0};
  EXPECT_FALSE(a.is_matching(2));
}

TEST(CircuitAssignment, RejectsSharedEgress) {
  const CircuitAssignment a{{{0, 1}, {1, 1}}, 1.0};
  EXPECT_FALSE(a.is_matching(2));
}

TEST(CircuitAssignment, RejectsOutOfRangePorts) {
  const CircuitAssignment a{{{0, 5}}, 1.0};
  EXPECT_FALSE(a.is_matching(2));
  const CircuitAssignment b{{{-1, 0}}, 1.0};
  EXPECT_FALSE(b.is_matching(2));
}

TEST(CircuitSchedule, PlannedTransmissionTime) {
  CircuitSchedule s;
  s.assignments.push_back({{{0, 0}}, 2.0});
  s.assignments.push_back({{{1, 1}}, 3.5});
  EXPECT_DOUBLE_EQ(s.planned_transmission_time(), 5.5);
  EXPECT_EQ(s.num_assignments(), 2);
}

TEST(CircuitSchedule, ValidityChecksEveryAssignment) {
  CircuitSchedule s;
  s.assignments.push_back({{{0, 0}, {1, 1}}, 1.0});
  EXPECT_TRUE(s.is_valid(2));
  s.assignments.push_back({{{0, 0}, {1, 0}}, 1.0});  // egress clash
  EXPECT_FALSE(s.is_valid(2));
}

TEST(CircuitSchedule, NegativeDurationInvalid) {
  CircuitSchedule s;
  s.assignments.push_back({{{0, 0}}, -1.0});
  EXPECT_FALSE(s.is_valid(1));
}

TEST(CircuitSchedule, ServiceMatrixAccumulates) {
  CircuitSchedule s;
  s.assignments.push_back({{{0, 1}, {1, 0}}, 2.0});
  s.assignments.push_back({{{0, 1}}, 3.0});
  const Matrix service = oracle::service_matrix(s, 2);
  EXPECT_DOUBLE_EQ(service.at(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(service.at(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(service.at(0, 0), 0.0);
}

TEST(CircuitSchedule, SatisfiesDemand) {
  CircuitSchedule s;
  s.assignments.push_back({{{0, 1}, {1, 0}}, 2.0});
  EXPECT_TRUE(oracle::satisfies(s, Matrix::from_rows({{0, 2}, {2, 0}})));
  EXPECT_TRUE(oracle::satisfies(s, Matrix::from_rows({{0, 1}, {2, 0}})));   // over-service ok
  EXPECT_FALSE(oracle::satisfies(s, Matrix::from_rows({{0, 3}, {2, 0}})));  // under-service
}

TEST(CircuitSchedule, ToStringMentionsCircuits) {
  CircuitSchedule s;
  s.assignments.push_back({{{0, 1}}, 2.0});
  EXPECT_NE(s.to_string().find("0->1"), std::string::npos);
}

}  // namespace
}  // namespace reco
