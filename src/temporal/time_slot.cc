#include "temporal/time_slot.h"

#include <cmath>

namespace deepod::temporal {

TimeSlotter::TimeSlotter(Timestamp base, double slot_seconds)
    : base_(base), slot_seconds_(slot_seconds) {
  if (slot_seconds <= 0.0) {
    throw std::invalid_argument("TimeSlotter: slot size must be positive");
  }
  const double per_day = kSecondsPerDay / slot_seconds;
  if (std::fabs(per_day - std::round(per_day)) > 1e-9) {
    throw std::invalid_argument(
        "TimeSlotter: slot size must divide a day evenly");
  }
}

int64_t TimeSlotter::Slot(Timestamp t) const {
  if (t < base_) throw std::invalid_argument("TimeSlotter::Slot: t < base");
  return static_cast<int64_t>(std::floor((t - base_) / slot_seconds_));
}

bool TimeSlotter::Covers(Timestamp t) const {
  // 2^63 is exactly representable; every double below it converts.
  return t >= base_ && (t - base_) / slot_seconds_ < 0x1p63;
}

double TimeSlotter::Remainder(Timestamp t) const {
  return t - base_ - static_cast<double>(Slot(t)) * slot_seconds_;
}

Timestamp TimeSlotter::SlotStart(int64_t slot) const {
  return base_ + static_cast<double>(slot) * slot_seconds_;
}

int64_t TimeSlotter::slots_per_day() const {
  return static_cast<int64_t>(std::llround(kSecondsPerDay / slot_seconds_));
}

int64_t TimeSlotter::slots_per_week() const { return 7 * slots_per_day(); }

int64_t TimeSlotter::WeeklyNode(int64_t slot) const {
  const int64_t n = slots_per_week();
  return ((slot % n) + n) % n;
}

int64_t TimeSlotter::DailyNode(int64_t slot) const {
  const int64_t n = slots_per_day();
  return ((slot % n) + n) % n;
}

int64_t TimeSlotter::IntervalSlotCount(Timestamp t1, Timestamp t2) const {
  if (t2 < t1) {
    throw std::invalid_argument("TimeSlotter::IntervalSlotCount: t2 < t1");
  }
  return Slot(t2) - Slot(t1) + 1;
}

}  // namespace deepod::temporal
