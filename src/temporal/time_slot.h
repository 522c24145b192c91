#ifndef DEEPOD_TEMPORAL_TIME_SLOT_H_
#define DEEPOD_TEMPORAL_TIME_SLOT_H_

#include <cstdint>
#include <stdexcept>

namespace deepod::temporal {

// Seconds since an arbitrary epoch; the simulator's clock. Monday 00:00 of
// week 0 is timestamp 0 in all synthetic datasets, which makes day-of-week
// arithmetic transparent in tests.
using Timestamp = double;

constexpr double kSecondsPerMinute = 60.0;
constexpr double kSecondsPerHour = 3600.0;
constexpr double kSecondsPerDay = 86400.0;
constexpr double kSecondsPerWeek = 7.0 * kSecondsPerDay;

// Discretisation of time into fixed-size slots (Def. 4). A timestamp t is
// represented as the pair <slot, remainder> (Eq. 2-3): slot = ⌊(t-t0)/Δt⌋,
// remainder = t - t0 - slot·Δt. Slots further project onto a weekly cycle
// of slots_per_week() nodes of the temporal graph.
class TimeSlotter {
 public:
  // `base` is t0; `slot_seconds` is Δt. t0 must not exceed any timestamp
  // handed to Slot()/Remainder().
  TimeSlotter(Timestamp base, double slot_seconds);

  // Eq. 2.
  int64_t Slot(Timestamp t) const;
  // Whether Slot(t) is defined: t is at or after the base and its slot
  // index fits int64 (false for NaN and infinities).
  bool Covers(Timestamp t) const;
  // Eq. 3 — in [0, Δt).
  double Remainder(Timestamp t) const;
  // Inverse map: start timestamp of a slot.
  Timestamp SlotStart(int64_t slot) const;

  // Number of slots in one day / week. Requires Δt to divide the day
  // evenly (the paper's choices — 1, 5, 10, 30, 60 minutes — all do).
  int64_t slots_per_day() const;
  int64_t slots_per_week() const;

  // Projection of a slot onto its weekly-cycle node id (t_p % |V'|).
  int64_t WeeklyNode(int64_t slot) const;
  // Projection onto a daily cycle (T-day ablation in Table 7).
  int64_t DailyNode(int64_t slot) const;

  // Number of slots covered by the closed interval [t1, t2] (Eq. 4:
  // Δd = t_p[-1] - t_p[1] + 1).
  int64_t IntervalSlotCount(Timestamp t1, Timestamp t2) const;

  double slot_seconds() const { return slot_seconds_; }
  Timestamp base() const { return base_; }

 private:
  Timestamp base_;
  double slot_seconds_;
};

}  // namespace deepod::temporal

#endif  // DEEPOD_TEMPORAL_TIME_SLOT_H_
