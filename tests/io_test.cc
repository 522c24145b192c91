#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "io/trip_io.h"
#include "road/city_generator.h"
#include "sim/dataset.h"

namespace deepod::io {
namespace {

road::RoadNetwork SmallNet() {
  road::CityConfig config = road::XianSimConfig();
  config.rows = 5;
  config.cols = 5;
  return road::GenerateCity(config);
}

TEST(NetworkCsvTest, RoundTripPreservesEverything) {
  const road::RoadNetwork net = SmallNet();
  std::stringstream buffer;
  WriteNetworkCsv(net, buffer);
  const road::RoadNetwork restored = ReadNetworkCsv(buffer);
  ASSERT_EQ(restored.num_vertices(), net.num_vertices());
  ASSERT_EQ(restored.num_segments(), net.num_segments());
  for (size_t v = 0; v < net.num_vertices(); ++v) {
    EXPECT_NEAR(restored.vertex(v).pos.x, net.vertex(v).pos.x, 1e-6);
    EXPECT_NEAR(restored.vertex(v).pos.y, net.vertex(v).pos.y, 1e-6);
  }
  for (size_t s = 0; s < net.num_segments(); ++s) {
    EXPECT_EQ(restored.segment(s).from, net.segment(s).from);
    EXPECT_EQ(restored.segment(s).to, net.segment(s).to);
    EXPECT_NEAR(restored.segment(s).length, net.segment(s).length, 1e-6);
    EXPECT_NEAR(restored.segment(s).free_flow_speed,
                net.segment(s).free_flow_speed, 1e-6);
    EXPECT_EQ(restored.segment(s).road_class, net.segment(s).road_class);
  }
  EXPECT_TRUE(restored.finalized());
}

TEST(NetworkCsvTest, RejectsMalformedInput) {
  std::stringstream bad1("not-a-section\n");
  EXPECT_THROW(ReadNetworkCsv(bad1), std::runtime_error);
  std::stringstream bad2("vertices\nid,x,y\n0,1\nsegments\nh\n");
  EXPECT_THROW(ReadNetworkCsv(bad2), std::runtime_error);
}

TEST(TripsCsvTest, RoundTripPreservesTripsAndRoutes) {
  sim::DatasetConfig config;
  config.city = road::XianSimConfig();
  config.city.rows = 5;
  config.city.cols = 5;
  config.trips_per_day = 10;
  config.num_days = 6;
  const sim::Dataset ds = sim::BuildDataset(config);

  std::stringstream buffer;
  WriteTripsCsv(ds.train, buffer);
  const auto restored = ReadTripsCsv(ds.network, buffer);
  ASSERT_EQ(restored.size(), ds.train.size());
  // Every written field comes back exactly: doubles are written in shortest
  // round-trip form and the matched OD representation is persisted.
  for (size_t i = 0; i < restored.size(); ++i) {
    const auto& a = ds.train[i];
    const auto& b = restored[i];
    EXPECT_EQ(a.od.departure_time, b.od.departure_time);
    EXPECT_EQ(a.od.origin.x, b.od.origin.x);
    EXPECT_EQ(a.od.origin.y, b.od.origin.y);
    EXPECT_EQ(a.od.destination.x, b.od.destination.x);
    EXPECT_EQ(a.od.destination.y, b.od.destination.y);
    EXPECT_EQ(a.od.weather_type, b.od.weather_type);
    EXPECT_EQ(a.travel_time, b.travel_time);
    EXPECT_EQ(a.od.origin_segment, b.od.origin_segment);
    EXPECT_EQ(a.od.origin_ratio, b.od.origin_ratio);
    EXPECT_EQ(a.od.dest_segment, b.od.dest_segment);
    EXPECT_EQ(a.od.dest_ratio, b.od.dest_ratio);
    ASSERT_EQ(a.trajectory.path.size(), b.trajectory.path.size());
    for (size_t e = 0; e < a.trajectory.path.size(); ++e) {
      EXPECT_EQ(a.trajectory.path[e].segment_id,
                b.trajectory.path[e].segment_id);
      EXPECT_EQ(a.trajectory.path[e].enter, b.trajectory.path[e].enter);
      EXPECT_EQ(a.trajectory.path[e].exit, b.trajectory.path[e].exit);
    }
  }
}

TEST(TripsCsvTest, OdOnlyRecordsHaveEmptyRoutes) {
  sim::DatasetConfig config;
  config.city = road::XianSimConfig();
  config.city.rows = 5;
  config.city.cols = 5;
  config.trips_per_day = 10;
  config.num_days = 6;
  const sim::Dataset ds = sim::BuildDataset(config);

  std::stringstream buffer;
  WriteTripsCsv(ds.test, buffer);  // test records carry no trajectory
  const auto restored = ReadTripsCsv(ds.network, buffer);
  ASSERT_EQ(restored.size(), ds.test.size());
  for (const auto& trip : restored) {
    EXPECT_TRUE(trip.trajectory.empty());
    EXPECT_GT(trip.travel_time, 0.0);
  }
}

TEST(TripsCsvTest, RejectsBadRows) {
  const road::RoadNetwork net = SmallNet();
  const std::string header =
      "depart,origin_x,origin_y,dest_x,dest_y,weather,travel_time,"
      "origin_seg,origin_ratio,dest_seg,dest_ratio,route\n";
  std::stringstream good(header + "0,0,0,100,100,0,60,0,0.5,1,0.25,0:0:10\n");
  ASSERT_EQ(ReadTripsCsv(net, good).size(), 1u);

  std::stringstream bad1(header + "1,2,3\n");
  EXPECT_THROW(ReadTripsCsv(net, bad1), std::runtime_error);
  std::stringstream bad2(header +
                         "0,0,0,100,100,0,60,0,0.5,1,0.25,999999:0:10\n");
  EXPECT_THROW(ReadTripsCsv(net, bad2), std::runtime_error);  // route seg
  std::stringstream bad3(header + "0,0,0,100,100,0,60,999999,0.5,1,0.25,\n");
  EXPECT_THROW(ReadTripsCsv(net, bad3), std::runtime_error);  // origin seg
  std::stringstream bad4(header + "0,0,abc,100,100,0,60,0,0.5,1,0.25,\n");
  EXPECT_THROW(ReadTripsCsv(net, bad4), std::runtime_error);
  // The retired 8-field header (no matched OD columns) is not read.
  std::stringstream legacy(
      "depart,origin_x,origin_y,dest_x,dest_y,weather,travel_time,route\n"
      "0,0,0,100,100,0,60,\n");
  EXPECT_THROW(ReadTripsCsv(net, legacy), std::runtime_error);
  std::stringstream empty("");
  EXPECT_THROW(ReadTripsCsv(net, empty), std::runtime_error);
}

}  // namespace
}  // namespace deepod::io
