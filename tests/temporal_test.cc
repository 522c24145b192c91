#include <gtest/gtest.h>

#include <limits>

#include "temporal/temporal_graph.h"
#include "temporal/time_slot.h"

namespace deepod::temporal {
namespace {

TEST(TimeSlotTest, SlotAndRemainderRoundTrip) {
  const TimeSlotter slotter(0.0, 300.0);
  // t = slot * Δt + remainder must reconstruct exactly (Eq. 2-3).
  for (double t : {0.0, 1.0, 299.9, 300.0, 12345.6, 86400.0, 604800.5}) {
    const int64_t slot = slotter.Slot(t);
    const double rem = slotter.Remainder(t);
    EXPECT_GE(rem, 0.0);
    EXPECT_LT(rem, 300.0);
    EXPECT_NEAR(slotter.SlotStart(slot) + rem, t, 1e-9);
  }
}

TEST(TimeSlotTest, FiveMinuteDayHas288Slots) {
  const TimeSlotter slotter(0.0, 300.0);
  EXPECT_EQ(slotter.slots_per_day(), 288);
  EXPECT_EQ(slotter.slots_per_week(), 2016);  // the paper's 288 x 7
}

TEST(TimeSlotTest, PaperSlotSizesDivideDay) {
  for (double minutes : {1.0, 5.0, 10.0, 30.0, 60.0}) {
    const TimeSlotter slotter(0.0, minutes * 60.0);
    EXPECT_EQ(slotter.slots_per_day() * static_cast<int64_t>(minutes * 60.0),
              86400);
  }
}

TEST(TimeSlotTest, NonDividingSlotSizeThrows) {
  EXPECT_THROW(TimeSlotter(0.0, 7.0 * 60.0), std::invalid_argument);
  EXPECT_THROW(TimeSlotter(0.0, -5.0), std::invalid_argument);
}

TEST(TimeSlotTest, BeforeBaseThrows) {
  const TimeSlotter slotter(100.0, 300.0);
  EXPECT_THROW(slotter.Slot(50.0), std::invalid_argument);
}

TEST(TimeSlotTest, CoversExactlyWhereSlotIsDefined) {
  const TimeSlotter slotter(100.0, 300.0);
  EXPECT_TRUE(slotter.Covers(100.0));
  EXPECT_TRUE(slotter.Covers(10.0 * kSecondsPerDay));
  EXPECT_FALSE(slotter.Covers(50.0));  // Slot throws before the base
  EXPECT_FALSE(slotter.Covers(-3600.0));
  // Past 2^63 slots the index no longer fits int64.
  EXPECT_TRUE(slotter.Covers(1e20));
  EXPECT_FALSE(slotter.Covers(300.0 * 0x1p63 + 100.0));
  EXPECT_FALSE(slotter.Covers(1e300));
  EXPECT_FALSE(slotter.Covers(std::numeric_limits<double>::infinity()));
  EXPECT_FALSE(slotter.Covers(std::numeric_limits<double>::quiet_NaN()));
}

TEST(TimeSlotTest, WeeklyNodeWrapsWeeks) {
  const TimeSlotter slotter(0.0, 300.0);
  const int64_t slot_in_week1 = slotter.Slot(8.0 * kSecondsPerDay + 100.0);
  const int64_t slot_in_week2 = slotter.Slot(15.0 * kSecondsPerDay + 100.0);
  EXPECT_EQ(slotter.WeeklyNode(slot_in_week1), slotter.WeeklyNode(slot_in_week2));
  EXPECT_LT(slotter.WeeklyNode(slot_in_week1), slotter.slots_per_week());
}

TEST(TimeSlotTest, DailyNodeWrapsDays) {
  const TimeSlotter slotter(0.0, 300.0);
  const int64_t monday_9am = slotter.Slot(9.0 * kSecondsPerHour);
  const int64_t friday_9am =
      slotter.Slot(4.0 * kSecondsPerDay + 9.0 * kSecondsPerHour);
  EXPECT_EQ(slotter.DailyNode(monday_9am), slotter.DailyNode(friday_9am));
}

TEST(TimeSlotTest, IntervalSlotCountMatchesEq4) {
  const TimeSlotter slotter(0.0, 300.0);
  EXPECT_EQ(slotter.IntervalSlotCount(0.0, 10.0), 1);     // same slot
  EXPECT_EQ(slotter.IntervalSlotCount(290.0, 310.0), 2);  // crosses boundary
  EXPECT_EQ(slotter.IntervalSlotCount(0.0, 900.0), 4);
  EXPECT_THROW(slotter.IntervalSlotCount(10.0, 5.0), std::invalid_argument);
}

TEST(TemporalGraphTest, WeeklyGraphShape) {
  const TimeSlotter slotter(0.0, 300.0);
  const auto graph = BuildWeeklyTemporalGraph(slotter);
  EXPECT_EQ(graph.num_nodes(), 2016u);
  // Each node has exactly two outgoing arcs: next slot + same slot next day.
  EXPECT_EQ(graph.num_arcs(), 2u * 2016u);
  EXPECT_TRUE(graph.HasArc(0, 1));
  EXPECT_TRUE(graph.HasArc(0, 288));
  // Weekly wrap-around: the last slot links back to slot 0.
  EXPECT_TRUE(graph.HasArc(2015, 0));
  // Sunday slot s links to Monday slot s (day wrap).
  EXPECT_TRUE(graph.HasArc(6 * 288 + 10, 10));
}

TEST(TemporalGraphTest, WeeklyGraphIsDirected) {
  const TimeSlotter slotter(0.0, 3600.0);
  const auto graph = BuildWeeklyTemporalGraph(slotter);
  EXPECT_TRUE(graph.HasArc(0, 1));
  EXPECT_FALSE(graph.HasArc(1, 0));  // §4.2: sequential, hence directed
}

TEST(TemporalGraphTest, DailyGraphShape) {
  const TimeSlotter slotter(0.0, 300.0);
  const auto graph = BuildDailyTemporalGraph(slotter);
  EXPECT_EQ(graph.num_nodes(), 288u);
  EXPECT_EQ(graph.num_arcs(), 288u);
  EXPECT_TRUE(graph.HasArc(287, 0));  // daily cycle
}

TEST(TemporalGraphTest, CoarseSlotsProduceSmallGraph) {
  const TimeSlotter slotter(0.0, 3600.0);  // 1-hour slots
  EXPECT_EQ(BuildWeeklyTemporalGraph(slotter).num_nodes(), 168u);
  EXPECT_EQ(BuildDailyTemporalGraph(slotter).num_nodes(), 24u);
}

}  // namespace
}  // namespace deepod::temporal
